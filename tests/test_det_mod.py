"""det_mod: elimination over Z/m, checked against Bareiss, the naive engine and the oracle.

Every case is compared with det_exact on the lifted entries, reduced mod m.
The adversarial inputs are the ones where a column has no unit below the
diagonal, so the Euclidean row steps have to run: every entry divisible by p,
and a leading block that is 0 mod p.  The moduli include the prime power 3**6,
a composite with two repeated factors, and two moduli above 2**31, stored as
Python-int objects.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_lab import detper
from congruence_lab.detper import det_exact, det_field, det_mod, det_naive
from congruence_lab.matgen import EntryKind, Matrix, cauchy_type_matrix
from congruence_lab.modnum import ModCtx, odd_primes_in

from conftest import lift
from oracle import matrix_permutation_sum

M31 = 2**31 - 1
#: modulus -> a prime factor of it
MODULI = {
    9: 3,
    27: 3,
    125: 5,
    3**6: 3,
    225: 3,
    1155: 5,
    19**5: 19,
    M31**2: M31,
    M31 * (2**31 + 11): M31,
}


def reference(matrix):
    return det_exact(lift(matrix)) % matrix.ctx.modulus


def build(rows, m):
    return Matrix(rows, ModCtx(m))


def check(matrix):
    got = det_mod(matrix)
    assert type(got) is int
    assert got == reference(matrix)
    if matrix.n <= 7:
        assert got == det_naive(matrix)
    if matrix.n <= 6:
        assert got == matrix_permutation_sum(matrix, signed=True)
    return got


def rows_for(shape, n, m, p, rng):
    if shape == "divisible":  # every column has no unit: Euclidean steps every time
        return [[rng.randrange(m // p) * p for _ in range(n)] for _ in range(n)]
    rows = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
    if shape == "zero-block":
        for i in range(n // 2 + 1):
            for j in range(n // 2 + 1):
                rows[i][j] = rng.randrange(m // p) * p
    elif shape == "singular" and n > 1:
        rows[-1] = [x * 2 % m for x in rows[0]]
    return rows


SHAPES = ("random", "divisible", "zero-block", "singular")


@given(
    st.sampled_from(sorted(MODULI)),
    st.integers(1, 8),
    st.sampled_from(SHAPES),
    st.integers(0, 2**32),
)
@settings(max_examples=300, deadline=None)
def test_det_mod_matches_bareiss(m, n, shape, seed):
    check(build(rows_for(shape, n, m, MODULI[m], random.Random(seed)), m))


@pytest.mark.parametrize("m", sorted(MODULI))
def test_order_one_zero_and_singular(m):
    rng = random.Random(m)
    for x in (0, 1, MODULI[m], m - 1, rng.randrange(m)):
        assert check(build([[x]], m)) == x
    for n in (1, 2, 5):
        assert check(build([[0] * n for _ in range(n)], m)) == 0
    rows = [[rng.randrange(m) for _ in range(4)] for _ in range(3)]
    assert check(build(rows + [list(rows[1])], m)) == 0


@pytest.mark.parametrize("m", sorted(MODULI))
def test_every_entry_divisible_by_p(m):
    """p * (a unimodular matrix) has det p**n * (+-1): every column takes the Euclidean branch."""
    p = MODULI[m]
    rng = random.Random(m + 1)
    for n in range(1, 6):
        u = np.eye(n, dtype=object)
        for _ in range(3 * n):  # random unimodular integer matrix
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if i != j:
                u[i] += rng.randint(-3, 3) * u[j]
        rows = [[int(x) * p % m for x in row] for row in u.tolist()]
        got = check(build(rows, m))
        assert got in (pow(p, n, m), -pow(p, n, m) % m)


@pytest.mark.parametrize("m", sorted(MODULI))
def test_leading_block_divisible_by_p(m):
    p = MODULI[m]
    rng = random.Random(m + 2)
    for n in (3, 6, 9, 12):
        check(build(rows_for("zero-block", n, m, p, rng), m))


def test_row_swaps_flip_the_sign():
    for m in (9, 225, M31**2):
        assert det_mod(build([[0, 1], [1, 0]], m)) == m - 1
        # no unit in column 0; the smallest entry is in row 1, so Euclid swaps
        assert det_mod(build([[6, 1], [3, 0]], m)) == m - 3


def test_wide_moduli_use_object_storage():
    for m in (M31**2, M31 * (2**31 + 11)):
        matrix = build([[M31, 2], [M31 * 5 % m, m - 1]], m)
        assert matrix.entries.dtype == object
        assert check(matrix) == (-M31 - 10 * M31) % m


def test_stops_at_the_first_column_where_the_det_is_zero(monkeypatch):
    calls = []
    pivot_row = detper._pivot_row
    monkeypatch.setattr(detper, "_pivot_row", lambda a, k, m: calls.append(k) or pivot_row(a, k, m))
    rows = np.diag([3, 3, 1, 1, 1, 1]).tolist()
    assert det_mod(build(rows, 9)) == 0
    assert calls == [0, 1]


def test_det_field_is_det_mod_on_primes(rng):
    for p in (3, 101, M31):
        ctx = ModCtx.prime(p)
        rows = [[rng.randrange(p) for _ in range(6)] for _ in range(6)]
        matrix = Matrix(rows, ctx)
        assert det_field(matrix) == det_mod(matrix) == reference(matrix)
    with pytest.raises(ValueError, match="prime"):
        det_field(build([[1]], 9))
    with pytest.raises(ValueError, match="modulus"):
        det_mod(lift(build([[1]], 9)))


#: check id -> (entry kind, order for p, diagonal, exponent of the modulus p**e)
CONJ_FAMILIES = {
    "conj5": (EntryKind.INV_DIFF, lambda p: p - 1, "zero", 2),
    "conj6": (EntryKind.RATIO_SUM_DIFF, lambda p: p - 1, "zero", 5),
    "conj8": (EntryKind.RATIO_SUM_DIFF, lambda p: p, "one", 2),
    "conj9": (EntryKind.RATIO_SUM_DIFF, lambda p: p - 1, "one", 2),
    "conj10": (EntryKind.RATIO_SUM_SQUARES, lambda p: (p - 1) // 2, "one", 3),
}


@pytest.mark.parametrize("family", sorted(CONJ_FAMILIES))
def test_conjecture_family_matrices(family):
    kind, order, diagonal, e = CONJ_FAMILIES[family]
    for p in odd_primes_in(3, 61):
        matrix = cauchy_type_matrix(kind, order(p), diagonal, ModCtx.prime_power(p, e))
        check(matrix)
