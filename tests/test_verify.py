"""Check layer: verdicts, gates, caps, sweeps, and frozen spot values."""

import os
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from congruence_lab import verify
from congruence_lab.detper import det_field
from congruence_lab.matgen import MAX_ORDER, inverse_form_matrix
from congruence_lab.modnum import inv_mod, legendre, odd_primes_in
from congruence_lab.verify import (
    FAIL,
    INCONCLUSIVE,
    MAX_CLOSED_P,
    MAX_UNITS_P,
    NOT_APPLICABLE,
    PASS,
    PER_ORDER_CAPS,
    CHECKS,
    CheckReport,
    exit_code,
    run_check,
    run_sweep,
    sweep_cells,
    units_grid_coefficients,
    units_grid_det,
)

from conftest import (
    column_relation_by_matrix,
    units_grid_det_by_elimination,
    units_grid_det_by_recurrence,
)
from oracle import matrix_permutation_sum


def one(check_id, params, **kw):
    reports = run_check(check_id, params, **kw)
    assert len(reports) == 1
    return reports[0]


def by_part(reports):
    return {r.params["part"]: r for r in reports}


# ---------------------------------------------------------------------------
# full-grid vanishing determinant


def test_full_grid_pass():
    r = one("eq15", {"p": 5, "c": 1, "d": 2})
    assert r.verdict == PASS
    assert r.computed == "0"
    assert r.expected == "0 (mod 5)"


def test_full_grid_zero_coefficients():
    assert one("eq15", {"p": 7, "c": 0, "d": 0}).verdict == PASS


def test_full_grid_p3_exception_reports_exact_value():
    r = one("eq15", {"p": 3, "c": 1, "d": 1})
    assert r.verdict == NOT_APPLICABLE
    assert r.computed == "-4"


def test_full_grid_rejects_non_prime():
    with pytest.raises(ValueError):
        run_check("eq15", {"p": 9, "c": 1, "d": 1})
    with pytest.raises(ValueError):
        run_check("eq15", {"p": 2, "c": 1, "d": 1})


# ---------------------------------------------------------------------------
# order-3 closed form


@pytest.mark.parametrize("c,d,value", [(1, 1, -4), (0, 5, 0), (-2, 3, 24)])
def test_p3_closed_form(c, d, value):
    r = one("p3", {"c": c, "d": d})
    assert r.verdict == PASS
    assert r.computed == str(value)
    assert r.expected == str(value)


# ---------------------------------------------------------------------------
# reflection and vanishing families


def test_reflection_spot():
    assert one("reflection", {"p": 7, "c": 2, "d": 3}).verdict == PASS
    assert one("reflection", {"p": 13, "c": 5, "d": 1}).verdict == PASS


@pytest.mark.parametrize("params", [
    {"p": 7, "variant": "c_minus1", "c": 1},
    {"p": 11, "variant": "two_two"},
    {"p": 13, "variant": "six_six"},
])
def test_vanishing_family_passes(params):
    assert one("dp-theorem", params).verdict == PASS


@pytest.mark.parametrize("params,needle", [
    ({"p": 13, "variant": "c_minus1", "c": 1}, "3 (mod 4)"),
    ({"p": 5, "variant": "two_two"}, "3 (mod 4)"),
    ({"p": 7, "variant": "six_six"}, "12"),
    ({"p": 3, "variant": "two_two"}, "p > 3"),
])
def test_vanishing_family_gates(params, needle):
    r = one("dp-theorem", params)
    assert r.verdict == NOT_APPLICABLE
    assert needle in r.expected


def test_vanishing_family_validation():
    with pytest.raises(ValueError):
        run_check("dp-theorem", {"p": 7, "variant": "one_one"})
    with pytest.raises(ValueError, match="variant c_minus1 needs a value for c"):
        run_check("dp-theorem", {"p": 7, "variant": "c_minus1"})
    for variant in ("two_two", "six_six"):
        with pytest.raises(ValueError, match=f"variant {variant} takes no c"):
            run_check("dp-theorem", {"p": 7, "variant": variant, "c": 3})
    # a c of None is no c at all, and is left out of the record
    r = one("dp-theorem", {"p": 11, "variant": "two_two", "c": None})
    assert r.params == {"p": 11, "variant": "two_two"}


# ---------------------------------------------------------------------------
# the units-grid det D_p(c, d): coefficient sums against elimination


def _units_grid_cases():
    rng = random.Random(0xD9)
    for p in odd_primes_in(3, 31):  # every (c, d) residue pair
        yield from ((p, c, d) for c in range(p) for d in range(p))
    for p in odd_primes_in(37, 199):
        # conj4's (3, 1), the dp-theorem pairs (whose (c, -1) take in conj2's (1, -1)
        # and conj3's (2, -1)), and a seeded sample
        pairs = [(3, 1), (2, 2), (6, 6), *((c, -1) for c in range(11))]
        pairs += [(rng.randrange(p), rng.randrange(p)) for _ in range(2)]
        yield from ((p, c, d) for c, d in pairs)
    big = 10**30
    for p in (3, 5, 7, 37, 101, 199):
        u = rng.randrange(1, p)
        yield p, 0, 0  # f = 1
        yield p, u, 0  # f linear
        yield p, 0, u
        yield p, 2 * u, u * u  # c^2 = 4d: f a square
        yield p, -u, -3 * u
        yield p, -big - u, big + 7
        yield p, big + 1, -big


def test_units_grid_det_matches_elimination():
    cases = list(_units_grid_cases())
    mismatches = [(p, c, d) for p, c, d in cases
                  if units_grid_det(p, c, d) != units_grid_det_by_elimination(p, c, d)]
    assert len(cases) == 3354 + 35 * 16 + 6 * 7
    assert mismatches == []


def test_units_grid_det_uses_only_the_residues_of_c_and_d():
    # c and d enter only as c % p and d % p, so a huge c or d costs nothing more
    class ResidueOnly(int):
        def __mod__(self, m):
            return int(self) % m

    def refuse(*args):
        raise AssertionError("arithmetic on c or d before reducing it mod p")

    for op in ("add", "radd", "sub", "rsub", "mul", "rmul", "neg", "pow", "rpow"):
        setattr(ResidueOnly, f"__{op}__", refuse)
    for p, c, d in ((3, 10**30 + 1, -(10**30)), (37, -(10**30) - 5, 10**30 + 11)):
        got = units_grid_det(p, ResidueOnly(c), ResidueOnly(d))
        assert got == units_grid_det_by_elimination(p, c, d)


def test_units_grid_det_matches_the_recurrence_on_every_residue_pair():
    # 2p - 2 terms of 1/f^2 are needed: up to p = 31 the 64-term seed holds them
    # all, from p = 37 on the doubling steps find the rest
    mismatches = [(p, c, d) for p in odd_primes_in(3, 61) for c in range(p) for d in range(p)
                  if units_grid_det(p, c, d) != units_grid_det_by_recurrence(p, c, d)]
    assert mismatches == []


def _large_recurrence_cases():
    for p in (1009, 10007):  # f = 1, f linear, f = 1 + d*t^2 and f a square, after many doublings
        u = p // 3
        yield from ((p, 0, 0), (p, u, 0), (p, -u, p), (p, 0, u), (p, 2 * u, u * u),
                    (p, -2 * u, u * u + 5 * p))
    rng = random.Random(24)
    for lo, hi, k in ((10**3, 10**4, 2), (10**4, 10**5, 3)):
        primes = list(odd_primes_in(lo, hi))
        for _ in range(k):
            p = rng.choice(primes)
            yield p, rng.randrange(p), rng.randrange(p)
    yield 999917, 2, -1  # conj3's cell at the largest p = 5 (mod 8) below 10**6


def test_units_grid_det_matches_the_recurrence_up_to_max_units_p():
    cases = list(_large_recurrence_cases())
    got = [units_grid_det(*case) for case in cases]
    assert got == [units_grid_det_by_recurrence(*case) for case in cases]
    # a zero det shows only that some b_k vanished: large cells must also compare whole products
    assert [p for (p, _, _), v in zip(cases, got) if p > 10**4 and v != 0] == [
        10007, 10007, 42187, 87121, 999917]


def test_units_grid_det_refuses_a_non_prime_p_and_a_large_order():
    with pytest.raises(ValueError, match="odd prime"):
        units_grid_det(9, 1, 1)
    # at 1000033 = 1 (mod 8), conj3's f = 1 + 2t - t^2 splits and (-1/p) = 1: only the kernel has it
    with pytest.raises(ValueError, match=f"^units_grid_coefficients takes p up to {MAX_UNITS_P}, "
                                         "got 1000033$"):
        units_grid_det(1000033, 2, -1)
    with pytest.raises(ValueError, match=f"^units_grid_det takes p up to {MAX_CLOSED_P}, "
                                         f"got {MAX_CLOSED_P + 1}$"):
        units_grid_det(MAX_CLOSED_P + 1, 1, -1)


def test_units_grid_det_takes_p_up_to_max_units_p():
    # no matrix and no MAX_ORDER: the largest prime below the bound still runs in O(p) memory
    assert MAX_UNITS_P == 10**6
    assert units_grid_det(999983, 2, -1) == 0  # conj3 at p = 7 (mod 8): not a -1 symbol
    # 999961 = 1 (mod 8): there f = 1 + 2t - t^2 splits and (-1/p) = 1, so this cell runs the kernel
    assert units_grid_det(999961, 2, -1) == coefficient_product(999961, 2, -1) == 884215


def coefficient_product(p, c, d):
    """prod b_k mod p, one b_k of units_grid_coefficients at a time."""
    det = 1
    for b in units_grid_coefficients(p, c, d).tolist():
        det = det * b % p
    return det


def takes_a_closed_form(p, c, d):
    """Whether units_grid_det takes (p, c, d) in closed form: p > 3, no split f with (d/p) = 1."""
    delta = (c * c - 4 * d) % p
    return p > 3 and not (d % p and delta and legendre(d, p) == legendre(delta, p) == 1)


def test_the_closed_forms_equal_the_kernel_on_every_cell_they_take_to_p_61():
    cases = [(p, c, d) for p in odd_primes_in(5, 61) for c in range(p) for d in range(p)
             if takes_a_closed_form(p, c, d)]
    mismatches = [case for case in cases if units_grid_det(*case) != coefficient_product(*case)]
    assert len(cases) == 15832
    assert mismatches == []


def _large_closed_form_cases():
    for p in (999961, 999979, 999983):  # p = 1, 3, 7 (mod 8)
        yield from ((p, 0, 0), (p, p // 3, 0), (p, 2 * (p // 3), (p // 3) ** 2), (p, 1, -1),
                    (p, 3, 1), (p, -1, 1), (p, 2, -1))
    rng = random.Random(31)
    primes = list(odd_primes_in(9 * 10**5, MAX_UNITS_P))
    for p in rng.sample(primes, 60):
        c, d = rng.randrange(p), rng.randrange(p)
        if takes_a_closed_form(p, c, d) and legendre(d, p) == 1:  # inert: no (d/p) = -1 zero
            yield p, c, d


def test_the_closed_forms_equal_the_kernel_on_seeded_cells_up_to_max_units_p():
    cases = [case for case in _large_closed_form_cases() if takes_a_closed_form(*case)]
    got = [units_grid_det(*case) for case in cases]
    assert got == [coefficient_product(*case) for case in cases]
    assert len(cases) == 29
    assert sum(v != 0 for v in got) == 14


def test_cells_with_a_closed_form_never_run_the_kernel(monkeypatch):
    cases = [(p, c, d) for p in (5, 29, 999983) for c in range(8) for d in range(-8, 8)
             if takes_a_closed_form(p, c, d)]
    expected = [units_grid_det(*case) for case in cases]

    def refuse(*args):
        raise AssertionError("a closed-form cell ran the kernel")

    monkeypatch.setattr(verify, "units_grid_coefficients", refuse)
    assert [units_grid_det(*case) for case in cases] == expected
    with pytest.raises(AssertionError, match="ran the kernel"):
        units_grid_det(999961, 2, -1)


def test_p3_stays_on_the_kernel():
    # f = 1 + t + t^2 = (1 - t)^2 at p = 3, yet D_3(1, 1) = 2, not the 0 of the repeated-root case
    assert not takes_a_closed_form(3, 1, 1)
    assert units_grid_det(3, 1, 1) == coefficient_product(3, 1, 1) == 2
    assert units_grid_det_by_elimination(3, 1, 1) == 2


_PRIMES_TO_400 = list(odd_primes_in(5, 400))


@given(st.sampled_from(_PRIMES_TO_400), st.integers(-10**6, 10**6), st.integers(1, 10**6))
@settings(max_examples=300, deadline=None)
def test_a_non_residue_d_makes_the_kernel_vanish(p, c, d):
    # (d/p) = -1 forces b_k = 0 at k = (p-3)/2, where m = -k = (p+1)/2 (mod p-1), split or inert
    d = next(x for x in range(d, d + p) if legendre(x, p) == -1)
    b = units_grid_coefficients(p, c, d)
    assert b[(p - 3) // 2] == 0
    assert coefficient_product(p, c, d) == 0


@given(st.sampled_from(_PRIMES_TO_400), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
@settings(max_examples=300, deadline=None)
def test_the_kernel_has_b_p_minus_3_in_closed_form(p, c, d):
    # b_(p-3), the column-relation coefficient, is (c^2 - 6d)/(d*delta) when f splits and
    # (c^2 - 2d)/(d*delta) when f is inert
    delta = (c * c - 4 * d) % p
    assume(d % p and delta)
    k = 6 if legendre(delta, p) == 1 else 2
    assert units_grid_coefficients(p, c, d)[p - 3] == (c * c - k * d) * inv_mod(d * delta, p) % p


def test_units_grid_det_over_every_subgroup_matches_elimination():
    # order = n folds the b_k mod n and multiplies by n^n: det[g(y/x)] over the order-n subgroup
    cases = [(p, c, d, n) for p in odd_primes_in(3, 23) for n in range(1, p) if (p - 1) % n == 0
             for c in range(p) for d in range(p)]
    mismatches = [case for case in cases
                  if units_grid_det(*case) != units_grid_det_by_elimination(*case)]
    assert len(cases) == 7514
    assert mismatches == []


def test_background_half_range_cell_matches_elimination():
    # [1/(i^2 + j^2)] over 1 <= i, j <= (p-1)/2, eliminated, against the subgroup fold
    primes = [p for p in odd_primes_in(3, 499) if p % 4 == 3]
    got = [one("background", {"p": p, "which": "half_range_sq"}).computed for p in primes]
    assert got == [str(det_field(inverse_form_matrix(p, "half_range_sq"))) for p in primes]
    assert len(primes) == 50


def test_background_half_range_cell_matches_the_closed_form():
    # b_l = (-1)^(l+1)*n, so det = n^(2n) * (-1)^(n(n+1)/2) (mod p): a test oracle only
    reports = [r for r in run_sweep("background", pmax=20011, which="half_range_sq")
               if r.params["p"] % 4 == 3]
    mismatches = []
    for r in reports:
        p = r.params["p"]
        n = (p - 1) // 2
        if r.computed != str(pow(n, 2 * n, p) * (-1) ** (n * (n + 1) // 2) % p):
            mismatches.append(p)
    assert len(reports) == 1137
    assert mismatches == []
    assert {r.verdict for r in reports} == {PASS}


def test_units_grid_checks_build_no_matrix(monkeypatch):
    cells = [("conj2", {"p": 53}), ("conj3", {"p": 53}), ("conj4", {"p": 53}),
             ("reflection", {"p": 53, "c": 2, "d": 3}),
             ("dp-theorem", {"p": 47, "variant": "c_minus1", "c": 4}),
             ("dp-theorem", {"p": 47, "variant": "two_two"}),
             ("dp-theorem", {"p": 47, "variant": "six_six"}),
             ("background", {"p": 47, "which": "full_range_ij"}),
             ("background", {"p": 47, "which": "half_range_sq"}),
             ("column-relation", {"p": 47, "c": 2, "d": 3})]

    def records():
        return [{**r.as_record(), "elapsed_ms": None}
                for check_id, params in cells for r in run_check(check_id, params)]

    with monkeypatch.context() as m:
        m.setattr(verify, "units_grid_det", units_grid_det_by_elimination)
        by_elimination = records()

    def refuse(*args, **kwargs):
        raise AssertionError("a units-grid check built a matrix")

    for name in ("quad_form_matrix", "inverse_form_matrix", "cauchy_type_matrix",
                 "det_field", "det_mod", "det_exact", "per_ryser"):
        monkeypatch.setattr(verify, name, refuse)
    assert records() == by_elimination
    assert {r["verdict"] for r in by_elimination} == {PASS}
    assert by_elimination[-1]["computed"] == str(column_relation_by_matrix(47, 2, 3))


# ---------------------------------------------------------------------------
# column relation


def test_column_relation_passes():
    r = one("column-relation", {"p": 5, "c": 0, "d": 1})
    assert r.verdict == PASS
    assert r.computed == "5"
    assert one("column-relation", {"p": 7, "c": 2, "d": 3}).verdict == PASS


def test_column_relation_gates():
    assert one("column-relation", {"p": 5, "c": 1, "d": 5}).verdict == NOT_APPLICABLE
    assert one("column-relation", {"p": 3, "c": 1, "d": 1}).verdict == NOT_APPLICABLE


def test_column_relation_counts_the_columns_the_matrix_route_counts():
    # one coefficient of the units-grid kernel against the p x p matrix, built and summed
    cells = [(p, c, d) for p in odd_primes_in(5, 199) for c in range(7) for d in range(7) if d % p]
    assert len(cells) == 1841
    mismatches = [cell for cell in cells if one("column-relation", dict(zip("pcd", cell))).computed
                  != str(column_relation_by_matrix(*cell))]
    assert mismatches == []


# ---------------------------------------------------------------------------
# inverse-form determinants


def test_background_half_range_passes():
    r = one("background", {"p": 7, "which": "half_range_sq"})
    assert r.verdict == PASS


def test_background_half_range_gate():
    assert one("background", {"p": 13, "which": "half_range_sq"}).verdict == NOT_APPLICABLE


def test_background_full_range_gate():
    assert one("background", {"p": 7, "which": "full_range_ij"}).verdict == NOT_APPLICABLE


def test_background_full_range_mismatch_is_reported(monkeypatch):
    # the statement is (det/p) = (2/p): at p = 5 the det is 3 and (3/5) = (2/5) = -1
    r = one("background", {"p": 5, "which": "full_range_ij"})
    assert r.verdict == PASS
    assert r.computed == "3 (mod 5); (3/5) = -1"
    assert r.expected == "(det/5) = (2/5) = -1"
    # a det whose symbol is wrong, and a det that vanishes, are reported as fails
    for det, symbol in ((1, 1), (0, 0)):
        monkeypatch.setattr("congruence_lab.verify.units_grid_det", lambda p, c, d, det=det: det)
        r = one("background", {"p": 5, "which": "full_range_ij"})
        assert r.verdict == FAIL
        assert r.computed == f"{det} (mod 5); ({det}/5) = {symbol}"


def test_full_range_inverse_form_is_the_c_minus1_d1_power_grid():
    # 1/x = x^(p-2) mod p, so both builders give the same det
    for p in odd_primes_in(5, 101):
        if p % 3 == 2:
            m = inverse_form_matrix(p, "full_range_ij")
            assert det_field(m) == units_grid_det(p, -1, 1)
    m = inverse_form_matrix(5, "full_range_ij")
    assert m.n == 4
    assert det_field(m) == matrix_permutation_sum(m, signed=True) == 3


def test_background_which_validation():
    with pytest.raises(ValueError):
        run_check("background", {"p": 7, "which": "everything"})


# ---------------------------------------------------------------------------
# conjecture checks: frozen spot values


def test_conj1_applicable_case_passes():
    r = one("conj1", {"n": 5, "c": 1, "d": 2})
    assert r.verdict == PASS
    assert r.computed == "0"
    assert "5^2" in r.expected or "25" in r.expected or "(mod 5^2)" in r.expected


def test_conj1_composite_modulus():
    # jacobi(7, 15) = -1, so the cell applies with n = 15
    r = one("conj1", {"n": 15, "c": 0, "d": 7})
    assert r.verdict == PASS


@pytest.mark.parametrize("params,needle", [
    ({"n": 4, "c": 1, "d": 2}, "odd"),
    ({"n": 3, "c": 1, "d": 2}, "odd n > 3"),
    ({"n": 9, "c": 1, "d": 4}, "jacobi"),
])
def test_conj1_gates(params, needle):
    r = one("conj1", params)
    assert r.verdict == NOT_APPLICABLE
    assert needle in r.expected


def test_conj2_gate_and_pass():
    assert one("conj2", {"p": 13}).verdict == PASS  # 13 = 1 (mod 4), 13 = 3 (mod 5)
    assert one("conj2", {"p": 11}).verdict == NOT_APPLICABLE
    assert one("conj2", {"p": 5}).verdict == NOT_APPLICABLE


def test_conj3_character_rule():
    for p in (3, 5, 7, 11, 13, 29, 37):
        assert one("conj3", {"p": p}).verdict == PASS


def test_conj4_gate_and_pass():
    assert one("conj4", {"p": 7}).verdict == PASS
    assert one("conj4", {"p": 13}).verdict == PASS
    assert one("conj4", {"p": 11}).verdict == NOT_APPLICABLE  # 11 = 1 (mod 5)


def test_conj5_p3_values():
    parts = by_part(run_check("conj5", {"p": 3}))
    assert parts["per"].computed == "8"
    assert parts["per"].verdict == PASS
    assert parts["det"].computed == "1"
    assert parts["det"].verdict == PASS


def test_conj5_cap_leaves_det_running():
    parts = by_part(run_check("conj5", {"p": 17}))
    assert parts["per"].verdict == INCONCLUSIVE
    assert "16" in parts["per"].expected
    assert parts["det"].verdict == PASS


def test_conj5_cap_override():
    parts = by_part(run_check("conj5", {"p": 17}, per_order_cap=16))
    assert parts["per"].verdict == PASS


def test_conj6_parts():
    parts = by_part(run_check("conj6", {"p": 3}))
    assert parts["i"].verdict == PASS
    assert parts["ii"].verdict == NOT_APPLICABLE
    parts = by_part(run_check("conj6", {"p": 5}))
    assert parts["i"].verdict == PASS
    assert parts["ii"].verdict == PASS
    assert parts["ii"].computed == "2975"  # 5^2 * 7 * 17: valuation 2, unit 119


def test_conj7_parts_and_gate():
    parts = by_part(run_check("conj7", {"p": 5}))
    assert parts["full"].verdict == PASS
    assert parts["half"].verdict == NOT_APPLICABLE
    parts = by_part(run_check("conj7", {"p": 7}))
    assert parts["full"].verdict == PASS
    assert parts["half"].verdict == PASS


def test_conj7_large_p_caps_full_but_not_half():
    for p in (19, 23):
        parts = by_part(run_check("conj7", {"p": p}))
        assert parts["full"].verdict == INCONCLUSIVE
        assert parts["half"].verdict == PASS


def test_conj8_p3_values():
    parts = by_part(run_check("conj8", {"p": 3}))
    assert parts["per"].verdict == PASS
    assert parts["det"].computed == "3"
    assert parts["det"].verdict == PASS


def test_conj9_p5_values():
    parts = by_part(run_check("conj9", {"p": 5}))
    assert parts["per"].computed == "9"
    assert parts["det"].computed == "22"
    assert all(r.verdict == PASS for r in parts.values())


def test_conj10_gate_and_values():
    assert one("conj10", {"p": 3}).verdict == NOT_APPLICABLE
    assert one("conj10", {"p": 5}).verdict == NOT_APPLICABLE
    assert one("conj10", {"p": 7}).verdict == PASS
    r = one("conj10", {"p": 11})
    assert r.verdict == PASS
    assert r.computed == "242"  # 2 * 11^2, and 11 = 3 (mod 8) only needs p^2


PERMANENT_PARTS = {5: ("per",), 6: ("i",), 7: ("full", "half"), 8: ("per",), 9: ("per",)}


@pytest.mark.parametrize("k", sorted(PERMANENT_PARTS))
def test_permanent_gate_builds_and_runs_nothing(monkeypatch, k):
    """Above the gate a permanent part is inconclusive before its matrix or kernel runs."""
    check_id = f"conj{k}"
    uncapped = by_part(run_check(check_id, {"p": 7}))
    moduli = []
    real_build = verify.cauchy_type_matrix

    def recording_build(kind, size, diagonal, ctx):
        moduli.append(ctx.modulus)
        return real_build(kind, size, diagonal, ctx)

    def refusing_kernel(matrix):
        raise AssertionError("per_ryser ran above the gate")

    monkeypatch.setattr(verify, "cauchy_type_matrix", recording_build)
    monkeypatch.setattr(verify, "per_ryser", refusing_kernel)
    capped = by_part(run_check(check_id, {"p": 7}, per_order_cap=1))
    assert list(capped) == list(uncapped)
    for part, r in capped.items():
        if part in PERMANENT_PARTS[k]:
            assert r.verdict == INCONCLUSIVE
            assert r.computed == ""
            assert "exceeds the size gate 1" in r.expected
        else:
            assert (r.computed, r.expected, r.verdict) == (
                uncapped[part].computed, uncapped[part].expected, uncapped[part].verdict)
    assert 7 not in moduli


def test_elapsed_ms_covers_the_build_of_each_part(monkeypatch):
    real_build = verify.cauchy_type_matrix

    def slow_build(*args):
        time.sleep(0.05)
        return real_build(*args)

    monkeypatch.setattr(verify, "cauchy_type_matrix", slow_build)
    reports = run_check("conj7", {"p": 7})  # each part builds its own matrix
    assert [r.params["part"] for r in reports] == ["full", "half"]
    assert all(r.elapsed_ms >= 50 for r in reports)


def test_conjecture_dispatch_validation():
    with pytest.raises(ValueError):
        run_check("conj11", {"p": 5})
    with pytest.raises(ValueError):
        run_check("conj0", {"p": 5})
    with pytest.raises(ValueError):
        run_check("conj2", {})  # needs p
    with pytest.raises(ValueError):
        run_check("conj1", {"n": 5})  # needs c and d
    with pytest.raises(ValueError):
        run_check("conj5", {"p": 9})  # not prime
    with pytest.raises(ValueError):
        run_check("riemann", {"p": 5})


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_cells_full_grid_caps_small_primes():
    cells = sweep_cells("eq15", pmax=7)
    # p=3 allows c,d in 0..2; p=5 in 0..4; p=7 in 0..6
    assert len(cells) == 9 + 25 + 49
    assert cells[0] == {"p": 3, "c": 0, "d": 0}
    assert cells[-1] == {"p": 7, "c": 6, "d": 6}


def test_sweep_cells_p3_grid():
    cells = sweep_cells("p3", cmax=2, dmax=1)
    assert len(cells) == 5 * 3
    assert cells[0] == {"c": -2, "d": -1}


def test_sweep_cells_vanishing_variant_filter():
    cells = sweep_cells("dp-theorem", pmax=7, variant="two_two")
    assert cells == [
        {"p": 3, "variant": "two_two"},
        {"p": 5, "variant": "two_two"},
        {"p": 7, "variant": "two_two"},
    ]
    # cmax is taken without a variant and with c_minus1; only the c_minus1 cells read it
    assert sweep_cells("dp-theorem", pmax=5, variant="c_minus1", cmax=1) == [
        {"p": p, "variant": "c_minus1", "c": c} for p in (3, 5) for c in (0, 1)]
    cells = sweep_cells("dp-theorem", pmax=13, cmax=3)
    assert len(cells) == 5 * (4 + 2)
    assert {p["c"] for p in cells if "c" in p} == {0, 1, 2, 3}


def test_sweep_cells_background_which_filter():
    cells = sweep_cells("background", pmin=5, pmax=7, which="half_range_sq")
    assert cells == [
        {"p": 5, "which": "half_range_sq"},
        {"p": 7, "which": "half_range_sq"},
    ]


def test_sweep_cells_conj1_odd_orders_only():
    cells = sweep_cells("conj1", nmin=5, nmax=9, cmax=0, dmax=1)
    orders = sorted({params["n"] for params in cells})
    assert orders == [5, 7, 9]
    cells = sweep_cells("conj1", nmin=6, nmax=9, cmax=0, dmax=1)
    assert sorted({params["n"] for params in cells}) == [7, 9]


def test_sweep_cells_required_bounds():
    for check_id in CHECKS:
        if check_id == "p3":
            assert sweep_cells(check_id)  # its c, d grid needs no bound
            continue
        with pytest.raises(ValueError, match=f"{check_id} sweep needs [pn]max"):
            sweep_cells(check_id)
    with pytest.raises(ValueError):
        sweep_cells("conj1", pmax=7)
    with pytest.raises(ValueError):
        sweep_cells("fermat", pmax=7)


def test_default_sweep_grids_fit_under_max_cells():
    # each sweep gets the upper bound its id takes, at MAX_ORDER; p3 takes none
    sizes = {check_id: len(sweep_cells(check_id, **{f"{k}max": MAX_ORDER for k in "pn"
                                                    if k in CHECKS[check_id].params}))
             for check_id in CHECKS}
    # the largest: conj1 over odd n to 2048, then reflection and column-relation
    assert (sizes["conj1"], sizes["reflection"]) == (28616, 15092)
    assert max(sizes.values()) <= verify.MAX_CELLS


def test_sweep_cells_refuses_grids_over_max_cells():
    assert verify.MAX_CELLS == 10**5
    with pytest.raises(ValueError, match="p3 sweep has more than 100000 cells"):
        sweep_cells("p3", cmax=5, dmax=4545)  # 11 * 9091 = 100001 cells
    assert len(sweep_cells("p3", cmax=4, dmax=5555)) == 99999  # 9 * 11111


@pytest.mark.parametrize("check_id,params,message", [
    ("p3", {"c": 1, "d": 1, "p": 5}, "p3 takes no --p"),
    ("eq15", {"p": 5, "c": 1, "d": 1, "variant": "two_two"}, "eq15 takes no --variant"),
    ("conj2", {"p": 5, "n": 5, "which": "half_range_sq"}, "conj2 takes no --n, --which"),
    ("eq15", {"p": 5, "c": 1}, "eq15 needs --d"),
    ("conj1", {"n": 5}, "conj1 needs --c, --d"),
    ("dp-theorem", {"p": 7, "c": 2}, "dp-theorem needs --variant"),
    ("conj1", {"p": 5}, "conj1 takes no --p"),  # an extra param is named before a missing one
    ("dp-theorem", {"p": 7, "variant": "one_one"},
     r"variant must be one of \('c_minus1', 'two_two', 'six_six'\), got 'one_one'"),
    ("background", {"p": 7, "which": "full"},
     r"which must be one of \('half_range_sq', 'full_range_ij'\), got 'full'"),
])
def test_run_check_refuses_params_the_id_does_not_take_or_needs(check_id, params, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_check(check_id, params)


def test_run_check_ignores_none_params():
    [r] = run_check("dp-theorem", {"p": 7, "variant": "two_two", "c": None, "n": None})
    assert (r.params, r.verdict) == ({"p": 7, "variant": "two_two"}, PASS)
    [r] = run_check("p3", {"p": None, "c": 1, "d": 1})
    assert (r.params, r.computed) == ({"c": 1, "d": 1}, "-4")


@pytest.mark.parametrize("check_id,bounds,message", [
    ("conj5", {"pmin": 13, "pmax": 5}, "pmin 13 is above pmax 5"),
    ("conj1", {"nmin": 11, "nmax": 9}, "nmin 11 is above nmax 9"),
    ("conj1", {"nmin": -3, "nmax": 9}, "nmin must be >= 1, got -3"),
    ("conj1", {"nmin": 0, "nmax": 9}, "nmin must be >= 1, got 0"),
    ("p3", {"cmax": -3}, "cmax must be >= 0, got -3"),
    ("reflection", {"pmax": 7, "dmax": -1}, "dmax must be >= 0, got -1"),
    ("dp-theorem", {"pmax": 7, "cmax": -1}, "cmax must be >= 0, got -1"),
    ("eq15", {"pmax": 13, "nmax": 9}, "eq15 sweep takes no --nmax"),
    ("conj2", {"pmax": 13, "cmax": 3}, "conj2 sweep takes no --cmax"),
    ("p3", {"pmax": 13, "nmin": 5}, "p3 sweep takes no --pmax, --nmin"),
    ("reflection", {"pmax": 13, "variant": "two_two"}, "reflection sweep takes no --variant"),
    ("dp-theorem", {"pmax": 13, "which": "half_range_sq"}, "dp-theorem sweep takes no --which"),
    ("conj1", {"pmax": 7}, "conj1 sweep takes no --pmax"),  # named before the missing nmax
    # refused before the grid, so also where the bounds hold no prime
    ("dp-theorem", {"pmin": 24, "pmax": 28, "variant": "bogus"},
     r"variant must be one of \('c_minus1', 'two_two', 'six_six'\), got 'bogus'"),
    ("background", {"pmin": 24, "pmax": 28, "which": "bogus"},
     r"which must be one of \('half_range_sq', 'full_range_ij'\), got 'bogus'"),
    ("conj10", {"pmin": 24, "pmax": 28, "per_order_cap": 3}, "conj10 takes no --per-order-cap"),
    ("dp-theorem", {"pmax": 13, "variant": "two_two", "cmax": 3}, "variant two_two takes no c"),
    ("dp-theorem", {"pmin": 24, "pmax": 28, "variant": "six_six", "cmax": 0},
     "variant six_six takes no c"),
])
def test_sweep_cells_refuses_bounds_that_cannot_hold_a_cell(check_id, bounds, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        sweep_cells(check_id, **bounds)


def test_sweep_cells_ignores_none_bounds():
    assert sweep_cells("p3", pmin=None, pmax=None, nmax=None, cmax=0, dmax=0) == [
        {"c": 0, "d": 0}]
    assert sweep_cells("conj2", pmin=None, pmax=5, cmax=None) == [{"p": 3}, {"p": 5}]


def test_each_id_states_its_limit_and_its_permanent_cap():
    matrix_free = {"reflection", "dp-theorem", "background", "column-relation",
                   "conj2", "conj3", "conj4"}
    closed_form = {"conj2", "conj4"}  # every applicable cell has an inert f with (d/p) = 1
    assert {k: s.limit for k, s in CHECKS.items()} == {
        k: MAX_CLOSED_P if k in closed_form else MAX_UNITS_P if k in matrix_free else MAX_ORDER
        for k in CHECKS}
    assert {k: s.cap for k, s in CHECKS.items() if s.cap is not None} == {
        f"conj{k}": cap for k, cap in PER_ORDER_CAPS.items()}


@pytest.mark.parametrize("check_id", [k for k in CHECKS if k != "p3"])
def test_sweep_and_check_refuse_p_or_n_above_the_id_limit(check_id):
    spec = CHECKS[check_id]
    size = "p" if "p" in spec.params else "n"
    got = f"up to {spec.limit}, got {spec.limit + 1}$"
    with pytest.raises(ValueError, match=f"^{check_id} sweep takes --{size}max {got}"):
        sweep_cells(check_id, **{f"{size}max": spec.limit + 1})
    params = {size: spec.limit + 1, "c": 1, "d": 1, "variant": "two_two", "which": "half_range_sq"}
    with pytest.raises(ValueError, match=f"^{check_id} takes --{size} {got}"):
        run_check(check_id, {k: v for k, v in params.items() if k in spec.params})
    # the limit itself is taken
    assert sweep_cells(check_id, **{f"{size}min": spec.limit - 200, f"{size}max": spec.limit})


def test_per_order_cap_belongs_to_ids_with_a_permanent_part():
    for check_id, spec in CHECKS.items():
        if spec.cap is None:
            with pytest.raises(ValueError, match=f"^{check_id} takes no --per-order-cap$"):
                run_check(check_id, {}, per_order_cap=3)
    with pytest.raises(ValueError, match="^conj10 takes no --per-order-cap$"):
        run_sweep("conj10", pmax=11, per_order_cap=17)


def test_sweep_cells_accepts_equal_and_zero_bounds():
    assert sweep_cells("conj2", pmin=5, pmax=5) == [{"p": 5}]
    assert sweep_cells("conj1", nmin=1, nmax=1, cmax=0, dmax=0) == [{"n": 1, "c": 0, "d": 0}]
    assert sweep_cells("p3", cmax=0, dmax=0) == [{"c": 0, "d": 0}]


def test_sweep_cells_empty_prime_range():
    assert sweep_cells("conj2", pmin=24, pmax=28) == []


def test_run_sweep_parallel_matches_serial():
    serial = run_sweep("dp-theorem", pmax=23, jobs=1)
    parallel = run_sweep("dp-theorem", pmax=23, jobs=2)
    strip = lambda rs: [(r.check_id, r.params, r.computed, r.expected, r.verdict)
                        for r in rs]
    assert strip(serial) == strip(parallel)


def test_run_sweep_clamps_workers(monkeypatch):
    """jobs is capped by the CPU count and the cell count; no process is started."""
    started = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

        def shutdown(self):
            pass

    monkeypatch.setattr(verify, "ProcessPoolExecutor", RecordingExecutor)
    assert len(sweep_cells("conj10", pmax=11)) == 4
    strip = lambda rs: [(r.check_id, r.params, r.computed, r.verdict) for r in rs]
    serial = strip(run_sweep("conj10", pmax=11))
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert strip(run_sweep("conj10", pmax=11, jobs=8)) == serial
    run_sweep("conj10", pmax=5, jobs=8)  # the first two cells
    assert started == [3, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    run_sweep("conj10", pmax=11, jobs=2)
    assert started == [3, 2, 2]
    # one CPU (or an unknown count) or one cell runs in-process
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_sweep("conj10", pmax=11, jobs=8)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    run_sweep("conj10", pmax=3, jobs=8)  # the first cell
    assert started == [3, 2, 2]


def test_run_sweep_rejects_nonpositive_jobs():
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_sweep("conj10", pmin=7, pmax=7, jobs=jobs)


def test_run_sweep_cap_threads_through():
    reports = run_sweep("conj5", pmin=5, pmax=5, per_order_cap=3)
    parts = by_part(reports)
    assert parts["per"].verdict == INCONCLUSIVE
    assert parts["det"].verdict == PASS


def test_exit_code():
    mk = lambda v: CheckReport("x", {}, "", "", v, 0.0)
    assert exit_code([]) == 0
    assert exit_code([mk(PASS), mk(NOT_APPLICABLE), mk(INCONCLUSIVE)]) == 0
    assert exit_code([mk(PASS), mk(FAIL)]) == 1


def test_as_record_field_order():
    r = CheckReport("p3", {"c": 1, "d": 1}, "-4", "-4", PASS, 0.25)
    assert list(r.as_record()) == [
        "check_id", "params", "computed", "expected", "verdict", "elapsed_ms",
    ]


def test_default_caps_table():
    assert PER_ORDER_CAPS == {5: 12, 6: 12, 7: 17, 8: 17, 9: 17}
