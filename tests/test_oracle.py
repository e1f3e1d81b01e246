"""Brute-force oracle: permutation enumeration, counting identities, reductions."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_lab.detper import det_naive, per_naive
from congruence_lab.matgen import EntryKind, Matrix
from congruence_lab.modnum import ModCtx

from conftest import lift, make_matrix, subfactorial
from oracle import (
    DOMAIN_ALL,
    DOMAIN_DERANGEMENTS,
    ORACLE_LIMIT,
    PRODUCT_ALL,
    PRODUCT_SKIP_FIXED,
    OracleSpec,
    matrix_permutation_sum,
    permutation_sum,
    reduction_check,
    signed_permutations,
)


def inversion_sign(perm):
    inv = sum(
        1 for a, b in itertools.combinations(range(len(perm)), 2) if perm[a] > perm[b]
    )
    return -1 if inv % 2 else 1


# ---------------------------------------------------------------------------
# the permutation stream


def test_signed_permutations_n3_explicit():
    got = list(signed_permutations(3))
    assert got == [
        ((1, 2, 3), 1),
        ((1, 3, 2), -1),
        ((2, 1, 3), -1),
        ((2, 3, 1), 1),
        ((3, 1, 2), 1),
        ((3, 2, 1), -1),
    ]


@pytest.mark.parametrize("n", range(1, 7))
def test_signed_permutations_complete_and_ordered(n):
    seen = list(signed_permutations(n))
    perms = [p for p, _ in seen]
    assert len(perms) == math.factorial(n)
    assert perms == sorted(perms)
    assert len(set(perms)) == len(perms)


@pytest.mark.parametrize("n", range(1, 7))
def test_signs_match_inversion_parity(n):
    for perm, sign in signed_permutations(n):
        assert sign == inversion_sign(perm)


def test_signs_sum_to_zero_beyond_n1():
    for n in (2, 3, 4, 5):
        assert sum(s for _, s in signed_permutations(n)) == 0


# ---------------------------------------------------------------------------
# counting identities through matrix_permutation_sum


def ones(n):
    return Matrix(tuple((1,) * n for _ in range(n)), None)


def test_subfactorial_table():
    assert [subfactorial(n) for n in range(8)] == [1, 0, 1, 2, 9, 44, 265, 1854]


@pytest.mark.parametrize("n", range(1, 7))
def test_derangement_domain_counts_subfactorial(n):
    got = matrix_permutation_sum(ones(n), signed=False, domain=DOMAIN_DERANGEMENTS)
    assert got == subfactorial(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_skip_fixed_over_ones_counts_factorial(n):
    got = matrix_permutation_sum(
        ones(n), signed=False, product_rule=PRODUCT_SKIP_FIXED
    )
    assert got == math.factorial(n)


def test_matrix_sum_order_cap():
    with pytest.raises(ValueError):
        matrix_permutation_sum(ones(ORACLE_LIMIT + 1), signed=False)


@given(st.integers(0, 10**6), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_matrix_sum_agrees_with_naive_engines(seed, n):
    import random

    r = random.Random(seed)
    m = make_matrix(n, r)
    assert matrix_permutation_sum(m, signed=True) == det_naive(m)
    assert matrix_permutation_sum(m, signed=False) == per_naive(m)


def test_matrix_sum_modular(rng):
    ctx = ModCtx(27)
    for _ in range(10):
        m = make_matrix(4, rng, ctx=ctx)
        assert matrix_permutation_sum(m, signed=True) == det_naive(lift(m)) % 27
        assert matrix_permutation_sum(m, signed=False) == per_naive(lift(m)) % 27


# ---------------------------------------------------------------------------
# formula-driven sums


def spec(n, mod, term, *, signed=False, domain=DOMAIN_ALL, product=PRODUCT_ALL):
    return OracleSpec(n, signed, domain, product, term, ModCtx(mod))


def test_single_point_skip_fixed_is_one():
    s = spec(1, 7, EntryKind.INV_DIFF, product=PRODUCT_SKIP_FIXED)
    assert permutation_sum(s) == 1


def test_two_point_derangement_inv_diff_mod_9():
    # only the swap contributes: 1/(1-2) * 1/(2-1) = -1 = 8 (mod 9)
    s = spec(2, 9, EntryKind.INV_DIFF, domain=DOMAIN_DERANGEMENTS)
    assert permutation_sum(s) == 8


def test_signed_two_point_derangement_flips():
    s = spec(2, 9, EntryKind.INV_DIFF, signed=True, domain=DOMAIN_DERANGEMENTS)
    assert permutation_sum(s) == 1  # the swap is odd, so -(-1) = 1


def test_non_unit_difference_raises():
    s = spec(4, 9, EntryKind.INV_DIFF, domain=DOMAIN_DERANGEMENTS)
    with pytest.raises(ValueError, match=r"^denominator 3 at \(j=4, k=1\) is not a unit "
                                         r"mod 9 \(gcd = 3\)$"):
        permutation_sum(s)


def test_spec_validation():
    ctx = ModCtx(7)
    with pytest.raises(ValueError):
        OracleSpec(0, False, DOMAIN_ALL, PRODUCT_ALL, EntryKind.INV_DIFF, ctx)
    with pytest.raises(ValueError):
        OracleSpec(10, False, DOMAIN_ALL, PRODUCT_ALL, EntryKind.INV_DIFF, ctx)
    with pytest.raises(ValueError):
        OracleSpec(3, False, "everything", PRODUCT_ALL, EntryKind.INV_DIFF, ctx)
    with pytest.raises(ValueError):
        OracleSpec(3, False, DOMAIN_ALL, "halve", EntryKind.INV_DIFF, ctx)
    with pytest.raises(ValueError):
        OracleSpec(3, False, DOMAIN_ALL, PRODUCT_ALL, "quadform", ctx)


# ---------------------------------------------------------------------------
# oracle vs engines: the reduction pairings
#
# Size limits keep every difference (and, for the squared kinds, every sum)
# of two indices a unit mod the chosen modulus.

DIFF_COMBOS = [(4, 7), (5, 25), (3, 15)]
SQUARE_COMBOS = [(3, 7), (2, 25), (3, 343)]


@pytest.mark.parametrize("kind,n,mod", [
    (k, n, m)
    for k in (EntryKind.INV_DIFF, EntryKind.RATIO_SUM_DIFF)
    for n, m in DIFF_COMBOS
] + [
    (k, n, m)
    for k in (EntryKind.INV_DIFF_SQUARES, EntryKind.RATIO_SUM_SQUARES)
    for n, m in SQUARE_COMBOS
])
@pytest.mark.parametrize("signed", [False, True])
def test_reduction_pairings(kind, n, mod, signed):
    zero_diag = spec(n, mod, kind, signed=signed, domain=DOMAIN_DERANGEMENTS)
    assert reduction_check(zero_diag)
    one_diag = spec(n, mod, kind, signed=signed, product=PRODUCT_SKIP_FIXED)
    assert reduction_check(one_diag)


def test_reduction_prime_power_spot():
    # unit-diagonal ratio family at order 3 mod 9 and mod 343
    for mod in (9, 343):
        s = spec(3, mod, EntryKind.RATIO_SUM_DIFF, product=PRODUCT_SKIP_FIXED)
        assert reduction_check(s)


def test_reduction_zero_diag_spot_mod_25():
    s = spec(4, 25, EntryKind.INV_DIFF, signed=True, domain=DOMAIN_DERANGEMENTS)
    assert reduction_check(s)
