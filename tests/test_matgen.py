"""Matrix builders: entry formulas, supports, file round-trips."""

import dataclasses
import io
import random
import re

import numpy as np
import pytest

from congruence_lab import matgen
from congruence_lab.matgen import (
    EntryKind,
    Matrix,
    cauchy_type_matrix,
    inverse_form_matrix,
    poly_eval_matrix,
    prime_indicator_matrix,
    quad_form_matrix,
    random_checkerboard_matrix,
    random_skew_checkerboard_matrix,
    read_matrix,
    write_matrix,
)
from congruence_lab.modnum import ModCtx, is_prime, odd_primes_in

from conftest import make_matrix
from oracle import _term_value


# ---------------------------------------------------------------------------
# quad_form_matrix


def test_quadform_exact_remark_matrix():
    m = quad_form_matrix(3, 1, 1, "full0", 1, None)
    assert m.entries.tolist() == [[0, 1, 4], [1, 3, 7], [4, 7, 12]]
    assert m.ctx is None


def test_quadform_zero_coefficients_means_rank_one_rows():
    m = quad_form_matrix(4, 0, 0, "full0", 2, None)
    # entry(i, j) = i^4, constant along each row
    for i, row in enumerate(m.entries):
        assert set(row) == {i**4}


def test_quadform_modular_matches_exact_reduction():
    ctx = ModCtx.prime(13)
    exact = quad_form_matrix(13, 4, 7, "full0", 11, None)
    modular = quad_form_matrix(13, 4, 7, "full0", 11, ctx)
    for re, rm in zip(exact.entries.tolist(), modular.entries.tolist()):
        assert [x % 13 for x in re] == rm


def test_quadform_from1_range_drops_zero_row():
    ctx = ModCtx.prime(5)
    m = quad_form_matrix(5, 1, 1, "from1", 3, ctx)
    assert m.n == 4
    # top-left is (1 + 1 + 1)^3 mod 5
    assert m.entries[0][0] == pow(3, 3, 5)


def test_quadform_large_modulus_python_path():
    """Moduli at or beyond 2^31 store Python ints in an object array and agree with int64."""
    small = quad_form_matrix(6, 2, 3, "full0", 4, ModCtx.prime(10007))
    big_ctx = ModCtx(2**31 + 11)  # a prime above 2**31, so object storage
    big = quad_form_matrix(6, 2, 3, "full0", 4, big_ctx)
    exact = quad_form_matrix(6, 2, 3, "full0", 4, None)
    for re, rs, rb in zip(exact.entries.tolist(), small.entries.tolist(), big.entries.tolist()):
        assert [x % 10007 for x in re] == rs
        assert [x % (2**31 + 11) for x in re] == rb


def test_quadform_int64_path_at_the_largest_order_and_modulus():
    """The vectorised path stays exact at order MAX_ORDER with the widest int64 modulus."""
    m = matgen.INT64_MODULUS_LIMIT - 1  # 2**31 - 1, a prime
    c = d = m - 1
    a = quad_form_matrix(matgen.MAX_ORDER + 1, c, d, "from1", 3, ModCtx(m))
    assert a.n == matgen.MAX_ORDER and a.entries.dtype == np.int64
    n = a.n
    rng = random.Random(2048)
    cells = [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)]
    cells += [(rng.randrange(n), rng.randrange(n)) for _ in range(500)]
    for r, s in cells:
        i, j = r + 1, s + 1  # the "from1" grid starts at index 1
        assert a.entries[r, s] == pow((i * i + c * i * j + d * j * j) % m, 3, m)


@pytest.mark.parametrize("modulus,dtype", [
    (2**31 - 1, np.int64),  # the widest int64 modulus
    (2**31 + 11, object),
    (2**61 - 1, object),
    (None, object),  # exact
])
@pytest.mark.parametrize("index_range", ["full0", "from1"])
def test_quadform_matches_the_entrywise_power_in_every_storage_class(modulus, dtype, index_range):
    """Each entry is pow(i*i + c*i*j + d*j*j, e, m), or the exact power, whatever the storage."""
    ctx = None if modulus is None else ModCtx(modulus)
    start = 0 if index_range == "full0" else 1
    cd_pairs = [(2, 3), (-7, 5), (4, -11), (-30, -29), (0, 0)]
    if dtype == np.int64:  # far beyond the modulus: only reduced, they fit in int64 products
        cd_pairs += [(2**40 + 3, 2**41 + 5), (-(2**52 + 5), 2**48 + 9), (2**62 - 1, -(2**62))]
    for order, exponent in ((1, 1), (2, 2), (7, 3), (13, 11), (130, 5)):
        if modulus is None and order > 13:
            continue  # exact powers: keep the reference cheap
        for c, d in cd_pairs:
            a = quad_form_matrix(order + start, c, d, index_range, exponent, ctx)
            assert a.n == order and a.entries.dtype == dtype
            idx = range(start, order + start)
            want = [[pow(i * i + c * i * j + d * j * j, exponent, modulus) for j in idx]
                    for i in idx]
            assert a.entries.tolist() == want, (order, c, d)
            if dtype == object:
                assert {type(x) for x in a.entries.flat} == {int}


def test_quadform_rejects_bad_range():
    with pytest.raises(ValueError):
        quad_form_matrix(4, 1, 1, "sideways", 1, None)
    with pytest.raises(ValueError):
        quad_form_matrix(1, 1, 1, "from1", 1, None)  # empty index set
    with pytest.raises(ValueError):
        quad_form_matrix(3, 1, 1, "full0", -1, None)


# ---------------------------------------------------------------------------
# cauchy_type_matrix


def test_cauchy_invdiff_2x2():
    ctx = ModCtx(9)
    m = cauchy_type_matrix(EntryKind.INV_DIFF, 2, "zero", ctx)
    assert m.entries.tolist() == [[0, 8], [1, 0]]


def test_cauchy_unit_diagonal():
    ctx = ModCtx.prime(7)
    m = cauchy_type_matrix(EntryKind.INV_DIFF, 3, "one", ctx)
    assert all(m.entries[i][i] == 1 for i in range(3))


def test_cauchy_entry_formulas():
    p = 11
    ctx = ModCtx.prime(p)
    inv = lambda x: pow(x % p, p - 2, p)
    n = 4
    md = cauchy_type_matrix(EntryKind.INV_DIFF, n, "zero", ctx)
    mr = cauchy_type_matrix(EntryKind.RATIO_SUM_DIFF, n, "zero", ctx)
    ms = cauchy_type_matrix(EntryKind.INV_DIFF_SQUARES, n, "one", ctx)
    mq = cauchy_type_matrix(EntryKind.RATIO_SUM_SQUARES, n, "one", ctx)
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            if j == k:
                continue
            assert md.entries[j - 1][k - 1] == inv(j - k)
            assert mr.entries[j - 1][k - 1] == (j + k) * inv(j - k) % p
            assert ms.entries[j - 1][k - 1] == inv(j * j - k * k)
            assert mq.entries[j - 1][k - 1] == (j * j + k * k) * inv(j * j - k * k) % p


def test_cauchy_nonunit_denominator_is_reported():
    ctx = ModCtx(9)
    with pytest.raises(ValueError, match=r"^denominator -3 at \(j=1, k=4\) is not a unit "
                                         r"mod 9 \(gcd = 3\)$"):
        cauchy_type_matrix(EntryKind.INV_DIFF, 6, "zero", ctx)
    # squares kind hits j + k = modulus even sooner
    with pytest.raises(ValueError, match=r"^denominator -3 at \(j=1, k=2\) is not a unit "
                                         r"mod 9 \(gcd = 3\)$"):
        cauchy_type_matrix(EntryKind.INV_DIFF_SQUARES, 3, "one", ctx)


def test_cauchy_needs_ctx_and_valid_kind():
    with pytest.raises(ValueError):
        cauchy_type_matrix(EntryKind.INV_DIFF, 3, "zero", None)
    with pytest.raises(ValueError):
        cauchy_type_matrix("quadform", 3, "zero", ModCtx.prime(7))
    with pytest.raises(ValueError):
        cauchy_type_matrix(EntryKind.INV_DIFF, 3, "two", ModCtx.prime(7))


_NON_UNIT = re.compile(r"denominator -?\d+ at \(j=\d+, k=\d+\) is not a unit mod \d+ \(gcd = \d+\)")


def _built_or_error(build):
    """Entries as nested lists, or the text of the non-unit refusal the build raised.

    The text names the cell, the denominator, the modulus and the gcd.
    """
    try:
        return build().entries.tolist()
    except ValueError as e:
        if not _NON_UNIT.fullmatch(str(e)):
            raise
        return str(e)


def _oracle_cauchy(kind, size, diagonal, ctx):
    # row-major, so the first error is the first non-unit cell
    cache = {}
    diag = 0 if diagonal == "zero" else 1
    return [[diag if j == k else _term_value(kind, j, k, ctx, cache)
             for k in range(1, size + 1)] for j in range(1, size + 1)]


def _cauchy_sizes(m):
    for p in (7, 79):
        if m in (p, p**2, p**3, p**5):
            # 1..(p-1)/2 always builds; squares kinds already fail on 1..p-1
            return [(p - 1) // 2, p - 1, p, p + 1]
    return [1, 2, 3, 4, 8, 40]


@pytest.mark.parametrize("m", [7, 7**2, 7**3, 7**5, 79, 79**2, 79**3, 79**5,
                               225, 1155, 2**61 - 1])
@pytest.mark.parametrize("diagonal", ["zero", "one"])
@pytest.mark.parametrize("kind", list(EntryKind))
def test_cauchy_matches_oracle_term_formula(kind, diagonal, m):
    # the oracle inverts each term on its own; the builder inverts a table of
    # distinct denominators, so entries and the first non-unit cell must agree
    ctx = ModCtx(m)
    sizes = _cauchy_sizes(m)
    for size in sizes:
        got = _built_or_error(lambda: cauchy_type_matrix(kind, size, diagonal, ctx))
        want = _built_or_error(lambda: Matrix(_oracle_cauchy(kind, size, diagonal, ctx), ctx))
        assert got == want, (kind, diagonal, m, size)
    # the smallest size always builds: object storage holds Python ints
    entries = cauchy_type_matrix(kind, sizes[0], diagonal, ctx).entries
    assert entries.dtype == (object if m >= 2**31 else np.int64)
    assert all(type(x) is int for x in entries.ravel().tolist())


# ---------------------------------------------------------------------------
# inverse_form_matrix


def test_inverse_form_half_range_entries():
    p = 7
    m = inverse_form_matrix(p, "half_range_sq")
    assert m.n == 3
    for i in range(1, 4):
        for j in range(1, 4):
            assert m.entries[i - 1][j - 1] == pow(i * i + j * j, p - 2, p)


def test_inverse_form_full_range_entries():
    p = 5
    m = inverse_form_matrix(p, "full_range_ij")
    assert m.n == 4
    for i in range(1, 5):
        for j in range(1, 5):
            assert m.entries[i - 1][j - 1] == pow(i * i - i * j + j * j, p - 2, p)


def test_inverse_form_raises_outside_residue_class():
    # p = 13 = 1 (mod 4): i^2 + j^2 can vanish (2^2 + 3^2 = 13)
    with pytest.raises(ValueError, match=r"^denominator 0 at \(j=1, k=5\) is not a unit "
                                         r"mod 13 \(gcd = 13\)$"):
        inverse_form_matrix(13, "half_range_sq")
    # p = 7 = 1 (mod 3): i^2 - ij + j^2 can vanish (1 - 3 + 9 = 7)
    with pytest.raises(ValueError, match=r"^denominator 0 at \(j=1, k=3\) is not a unit "
                                         r"mod 7 \(gcd = 7\)$"):
        inverse_form_matrix(7, "full_range_ij")
    with pytest.raises(ValueError):
        inverse_form_matrix(9, "half_range_sq")
    with pytest.raises(ValueError):
        inverse_form_matrix(7, "everything")


@pytest.mark.parametrize("which", ["half_range_sq", "full_range_ij"])
def test_inverse_form_matches_fermat_inverse(which):
    # every odd prime to 101, both inside and outside the residue class
    cross = 0 if which == "half_range_sq" else -1
    for p in odd_primes_in(3, 101):
        size = (p - 1) // 2 if which == "half_range_sq" else p - 1
        dens = [[(i * i + cross * i * j + j * j) % p for j in range(1, size + 1)]
                for i in range(1, size + 1)]
        zeros = [(i + 1, j + 1) for i, row in enumerate(dens) for j, x in enumerate(row) if x == 0]
        if zeros:
            i, j = zeros[0]
            want = f"denominator 0 at (j={i}, k={j}) is not a unit mod {p} (gcd = {p})"
        else:
            want = [[pow(x, p - 2, p) for x in row] for row in dens]
        assert _built_or_error(lambda: inverse_form_matrix(p, which)) == want, p


# ---------------------------------------------------------------------------
# prime indicator


def test_prime_indicator_small():
    assert prime_indicator_matrix(1).entries.tolist() == [[1]]
    assert prime_indicator_matrix(2).entries.tolist() == [[1, 1], [1, 0]]


def test_prime_indicator_entries_follow_primality():
    m = prime_indicator_matrix(9)
    for i in range(1, 10):
        for j in range(1, 10):
            assert m.entries[i - 1][j - 1] == (1 if is_prime(i + j) else 0)
    for n in range(1, 61):
        want = [[int(is_prime(i + j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
        assert prime_indicator_matrix(n).entries.tolist() == want, n


# ---------------------------------------------------------------------------
# checkerboard builders


def _support_ok(entries):
    n = len(entries)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if (i + j) % 2 == 0 and i + j > 2:
                if entries[i - 1][j - 1] != 0:
                    return False
    return True


@pytest.mark.parametrize("n", range(1, 10))
def test_checkerboard_support(n, rng):
    m = random_checkerboard_matrix(n, rng.randrange(10**6))
    assert _support_ok(m.entries)
    assert m.ctx is None


def test_checkerboard_is_seeded():
    a = random_checkerboard_matrix(6, 42)
    b = random_checkerboard_matrix(6, 42)
    c = random_checkerboard_matrix(6, 43)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)


def test_checkerboard_symmetric_flag():
    m = random_checkerboard_matrix(7, 5, symmetric=True)
    assert _support_ok(m.entries)
    for i in range(7):
        for j in range(7):
            assert m.entries[i][j] == m.entries[j][i]


def test_skew_checkerboard_is_skew_and_supported():
    m = random_skew_checkerboard_matrix(3, 11)
    assert m.n == 6
    assert _support_ok(m.entries)
    for i in range(6):
        for j in range(6):
            assert m.entries[i][j] == -m.entries[j][i]


def test_skew_checkerboard_rejects_nonpositive():
    with pytest.raises(ValueError):
        random_skew_checkerboard_matrix(0, 1)


# ---------------------------------------------------------------------------
# poly_eval_matrix


def test_polyeval_constant_is_all_ones():
    m = poly_eval_matrix([[1]], 2)
    assert m.entries.tolist() == [[1, 1], [1, 1]]


def test_polyeval_x_plus_j():
    # P(x, j) = x + j
    m = poly_eval_matrix([[0, 1], [1]], 3)
    for i in range(1, 4):
        for j in range(1, 4):
            assert m.entries[i - 1][j - 1] == i + j


def test_polyeval_x_squared():
    m = poly_eval_matrix([[0], [0], [1]], 4)
    for i in range(1, 5):
        row = m.entries[i - 1]
        assert set(row) == {i * i}


def _poly_value(coeffs, i, j):
    """P(i, j) summed term by term: the reference for poly_eval_matrix."""
    total = 0
    for k, row in enumerate(coeffs):
        ck = sum(cl * j**l for l, cl in enumerate(row))
        total += ck * i**k
    return total


@pytest.mark.parametrize("coeffs,n", [
    ([[1, 2, 3], [0, 4], [5]], 12),  # ragged rows
    ([[], [3, -1], []], 5),  # empty rows
    ([[0, 0], [0], []], 4),  # all-zero coefficients
    ([[]], 3),
    ([[0, 1], [0, 0, 5], [-2]], 6),  # not symmetric in (x, j)
    ([[0, 0, 0, 7]], 5),  # j only
    ([[2**70, -3], [-(2**65)]], 4),  # coefficients beyond int64
    ([[1, -1]] * 39, 40),  # x-degree 38: entries far above 2**63
])
def test_polyeval_matches_the_term_by_term_value(coeffs, n):
    a = poly_eval_matrix(coeffs, n)
    want = [[_poly_value(coeffs, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    assert a.entries.tolist() == want
    assert a.entries.dtype == object and {type(x) for x in a.entries.flat} == {int}


def test_polyeval_matches_the_term_by_term_value_on_seeded_polynomials(rng):
    for _ in range(40):
        n = rng.randint(2, 20)
        coeffs = [[rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
                  for _ in range(rng.randint(1, n - 1))]
        want = [[_poly_value(coeffs, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
        assert poly_eval_matrix(coeffs, n).entries.tolist() == want, (coeffs, n)


def test_polyeval_refuses_entries_beyond_max_exact_bits():
    """|P(i, j)| <= (sum of |coeffs|) * n**((rows - 1) + (width - 1)) is checked before building."""
    with pytest.raises(ValueError, match=f"more than {matgen.MAX_EXACT_BITS}; "):
        poly_eval_matrix([[1]] * 2047, matgen.MAX_ORDER)
    with pytest.raises(ValueError, match="exact entries would take about"):
        poly_eval_matrix([[1, 1]] + [[]] * 598, 600)


def test_polyeval_degree_gate():
    # x-degree must stay below n - 1
    with pytest.raises(ValueError):
        poly_eval_matrix([[0], [0], [1]], 3)
    with pytest.raises(ValueError):
        poly_eval_matrix([], 3)


# ---------------------------------------------------------------------------
# matrix container + file format


def test_matrix_shape_validation():
    # not square, ragged, empty (three ways), a 1-D row, a 3-D array; at every dtype
    for ctx in (None, ModCtx.prime(7), ModCtx.prime(2**31 + 11)):
        for entries in (((1, 2),), ((1, 2), (3,)), (), [[]], np.zeros((0, 0), dtype=np.int64),
                        (1, 2), np.ones((2, 2, 2), dtype=np.int64)):
            with pytest.raises(ValueError):
                Matrix(entries, ctx)


def test_matrix_is_its_entries_and_its_modulus():
    ctx = ModCtx.prime(7)
    m = Matrix([[1, 2], [3, 4]], ctx)
    assert [f.name for f in dataclasses.fields(Matrix)] == ["entries", "ctx"]
    assert (m.n, m.ctx) == (2, ctx)
    with pytest.raises(AttributeError):
        m.n = 3


def test_matrix_equality_is_identity():
    # equal entries do not make equal matrices: == never compares arrays
    a = Matrix([[1, 2], [3, 4]], None)
    b = Matrix([[1, 2], [3, 4]], None)
    assert a == a and a != b
    assert len({a, b}) == 2


def test_roundtrip_exact(rng):
    m = make_matrix(5, rng)
    buf = io.StringIO()
    write_matrix(m, buf)
    buf.seek(0)
    back = read_matrix(buf)
    assert back.n == m.n and np.array_equal(back.entries, m.entries) and back.ctx is None


def test_roundtrip_modular(rng):
    ctx = ModCtx(49)
    m = make_matrix(4, rng, ctx=ctx)
    buf = io.StringIO()
    write_matrix(m, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "4 49"
    back = read_matrix(io.StringIO(text))
    assert back.ctx is not None and back.ctx.modulus == 49
    assert np.array_equal(back.entries, m.entries)


def test_read_matrix_rejects_malformed():
    for text in ("", "2\n1 2\n3 4\n", "2 0\n1 2\n", "2 0\n1 2\n3\n", "1 6\n2\n"):
        with pytest.raises(ValueError):
            read_matrix(io.StringIO(text))


def test_read_matrix_refuses_lines_after_the_last_row():
    for text in ("2 0\n1 2\n3 4\n5 6\n", "2 0\n1 2\n3 4\n\n5 6\n", "1 0\n7\nx"):
        with pytest.raises(ValueError, match="unexpected line after row"):
            read_matrix(io.StringIO(text))


def test_read_matrix_accepts_trailing_blank_lines():
    for text in ("2 0\n1 2\n3 4", "2 0\n1 2\n3 4\n\n", "2 0\n1 2\n3 4\n \t\n\n"):
        assert read_matrix(io.StringIO(text)).entries.tolist() == [[1, 2], [3, 4]]


def test_write_then_read_is_identity_on_text(rng):
    for ctx in (None, ModCtx(49)):
        buf = io.StringIO()
        write_matrix(make_matrix(6, rng, ctx=ctx), buf)
        again = io.StringIO()
        write_matrix(read_matrix(io.StringIO(buf.getvalue())), again)
        assert again.getvalue() == buf.getvalue()


def test_read_matrix_rejects_out_of_range_residue():
    with pytest.raises(ValueError):
        read_matrix(io.StringIO("1 5\n7\n"))


# Matrix checks only shape; a matrix file is where entries enter, so read_matrix refuses these
def test_matrix_rejects_noncanonical_residues():
    for bad in (7, -1, 2**70):
        with pytest.raises(ValueError, match=f"^entry {bad} is not a canonical residue mod 5$"):
            read_matrix(io.StringIO(f"1 5\n{bad}\n"))


def test_matrix_rejects_non_integer_entries():
    for m in (7, 2**31 + 11, 0):
        with pytest.raises(ValueError):
            read_matrix(io.StringIO(f"2 {m}\n1.5 2\n3 4\n"))


def _every_build(ctx):
    """(name, Matrix) from every builder that takes ctx (None: exact mode), read_matrix too."""
    m = 0 if ctx is None else ctx.modulus
    builds = [(f"quadform {r}", quad_form_matrix(9, -4, 7, r, 5, ctx)) for r in ("full0", "from1")]
    if ctx is None:
        builds += [("primeind", prime_indicator_matrix(9)),
                   ("checkerboard", random_checkerboard_matrix(9, 1)),
                   ("symmetric checkerboard", random_checkerboard_matrix(9, 2, symmetric=True)),
                   ("skew checkerboard", random_skew_checkerboard_matrix(4, 3)),
                   ("polyeval", poly_eval_matrix([[1, -2, 3], [0, 4], [-5]], 6))]
    else:
        builds += [(f"cauchy {k.value} {d}", cauchy_type_matrix(k, 5, d, ctx))
                   for k in EntryKind for d in ("zero", "one")]
    if m == 11:  # both inverse forms are defined mod 11: 11 = 3 mod 4 and 11 = 2 mod 3
        builds += [(f"invform {w}", inverse_form_matrix(11, w))
                   for w in ("half_range_sq", "full_range_ij")]
    rng = random.Random(m)
    rows = [[rng.randrange(m) if m else rng.randint(-2**80, 2**80) for _ in range(4)]
            for _ in range(4)]
    text = f"4 {m}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)
    return builds + [("read_matrix", read_matrix(io.StringIO(text)))]


@pytest.mark.parametrize("modulus", [11, 121, 2**31 + 11, 83**5, None],
                         ids=["int64 p", "int64 p^2", "object 2^31+11", "object 83^5", "exact"])
def test_every_builder_hands_matrix_canonical_entries_of_its_dtype(modulus):
    """Matrix checks only the shape, so each builder must make the stored form itself."""
    ctx = None if modulus is None else ModCtx(modulus)
    builds = _every_build(ctx)
    # quadform x2, then cauchy x8 (+ invform x2 mod 11) or the five exact builders, then read_matrix
    assert len(builds) == {11: 13, None: 8}.get(modulus, 11)
    for name, a in builds:
        e = a.entries
        assert e.dtype == matgen.entry_dtype(ctx), name
        assert e.ndim == 2 and e.shape == (a.n, a.n) and not e.flags.writeable, name
        if e.dtype == object:
            assert {type(x) for x in e.flat} == {int}, name
        if ctx is not None:
            assert a.ctx.modulus == modulus and 0 <= e.min() and e.max() < modulus, name


def test_builders_refuse_orders_above_max_order():
    big = matgen.MAX_ORDER + 1
    ctx = ModCtx.prime(4099)
    builders = [
        lambda: quad_form_matrix(big, 1, 1, "full0", 3, ctx),
        lambda: quad_form_matrix(big + 1, 1, 1, "from1", 3, ctx),
        lambda: quad_form_matrix(10**9, 1, 1, "full0", 3, None),
        lambda: cauchy_type_matrix(EntryKind.INV_DIFF, big, "zero", ctx),
        lambda: inverse_form_matrix(4099, "full_range_ij"),
        lambda: prime_indicator_matrix(big),
        lambda: random_checkerboard_matrix(big, 1),
        lambda: random_skew_checkerboard_matrix(big // 2 + 1, 1),
        lambda: poly_eval_matrix([[1]], big),
        lambda: read_matrix(io.StringIO(f"{big} 0\n")),
    ]
    for build in builders:
        with pytest.raises(ValueError, match=f"1..{matgen.MAX_ORDER}"):
            build()
    assert quad_form_matrix(matgen.MAX_ORDER + 1, 1, 1, "from1", 1, ctx).n == matgen.MAX_ORDER
