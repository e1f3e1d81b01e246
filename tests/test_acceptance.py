"""Acceptance gate: twelve workbench-level criteria, one test apiece.

Every test prints one "criterion N: PASS/FAIL" line (also echoed in the
terminal summary via conftest) before asserting, so a full run always ends
with a twelve-line scoreboard.  Runtime budgets are part of the criteria and
are asserted alongside the math.

Criterion 6 checks the two inverse-form statements in their stated forms:
the half-range det is congruent to (2/p) mod p, while for the full-range det
only the Legendre symbol is stated, (det/p) = (2/p).  The full-range residue
itself is not (2/p) (p = 5 gives 3, not 4); the symbol identity holds at all
48 primes p = 2 (mod 3) with 5 <= p < 500.
"""

import random
import time

import conftest
from congruence_lab.detper import (
    det_exact,
    det_field,
    det_mod,
    det_naive,
    factor_checkerboard,
    per_naive,
    per_ryser,
)
from congruence_lab.matgen import (
    MAX_ORDER,
    EntryKind,
    Matrix,
    poly_eval_matrix,
    prime_indicator_matrix,
    random_checkerboard_matrix,
    random_skew_checkerboard_matrix,
)
from congruence_lab.modnum import ModCtx, is_prime, jacobi
from congruence_lab.verify import (
    FAIL,
    INCONCLUSIVE,
    NOT_APPLICABLE,
    PASS,
    run_check,
    run_sweep,
)

from conftest import is_perfect_square, lift, make_matrix
from oracle import (
    DOMAIN_ALL,
    DOMAIN_DERANGEMENTS,
    PRODUCT_ALL,
    PRODUCT_SKIP_FIXED,
    OracleSpec,
    reduction_check,
)


def report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def exact(rows):
    rows = tuple(tuple(r) for r in rows)
    return Matrix(rows, None)


# ---------------------------------------------------------------------------


def test_criterion_01_full_grid_determinant_vanishes():
    t0 = time.perf_counter()
    reports = run_sweep("eq15", pmin=5, pmax=97)
    elapsed = time.perf_counter() - t0
    bad = [r for r in reports if r.verdict != PASS]
    ok = len(reports) == 1103 and not bad and elapsed < 60.0
    report(1, ok,
           f"full-grid det = 0 mod p for primes 5..97, c,d in [0, min(p-1, 6)]: "
           f"{len(reports) - len(bad)}/{len(reports)} ({elapsed:.1f}s, budget 60s)")


def test_criterion_02_order_three_closed_form():
    t0 = time.perf_counter()
    reports = run_sweep("p3")
    elapsed = time.perf_counter() - t0
    bad = [r for r in reports if r.verdict != PASS]
    ok = len(reports) == 121 and not bad and elapsed < 1.0
    report(2, ok,
           f"order-3 exact det = -4cd on c,d in [-5,5]: "
           f"{len(reports) - len(bad)}/{len(reports)} ({elapsed:.2f}s, budget 1s)")


def test_criterion_03_vanishing_determinant_families():
    t0 = time.perf_counter()
    reports = run_sweep("dp-theorem", pmax=199)
    elapsed = time.perf_counter() - t0
    mismatches = []
    for r in reports:
        p, variant = r.params["p"], r.params["variant"]
        if variant in ("c_minus1", "two_two"):
            applicable = p > 3 and p % 4 == 3
        else:
            applicable = p > 3 and p % 12 in (1, 11)
        want = PASS if applicable else NOT_APPLICABLE
        if r.verdict != want:
            mismatches.append(r)
    npass = sum(r.verdict == PASS for r in reports)
    ok = not mismatches and elapsed < 120.0
    report(3, ok,
           f"three vanishing families, primes to 199: {npass} applicable cells pass, "
           f"{len(reports) - npass} gated, {len(mismatches)} mismatches "
           f"({elapsed:.1f}s, budget 120s)")


def test_criterion_04_reflection_identity():
    t0 = time.perf_counter()
    reports = run_sweep("reflection", pmax=97)
    elapsed = time.perf_counter() - t0
    bad = [r for r in reports if r.verdict != PASS]
    ok = len(reports) == 24 * 49 and not bad and elapsed < 60.0  # odd primes 3..97
    report(4, ok,
           f"det under c -> -c picks up the character of -1: "
           f"{len(reports) - len(bad)}/{len(reports)} ({elapsed:.1f}s, budget 60s)")


def test_criterion_05_column_relation():
    t0 = time.perf_counter()
    reports = run_sweep("column-relation", pmax=97)
    elapsed = time.perf_counter() - t0
    mismatches = []
    for r in reports:
        p, d = r.params["p"], r.params["d"]
        applicable = p > 3 and d % p != 0
        want = PASS if applicable else NOT_APPLICABLE
        if r.verdict != want:
            mismatches.append(r)
    npass = sum(r.verdict == PASS for r in reports)
    ok = not mismatches and elapsed < 120.0
    report(5, ok,
           f"weighted column sums vanish mod p: {npass} applicable cells pass, "
           f"{len(mismatches)} mismatches ({elapsed:.1f}s, budget 120s)")


def test_criterion_06_inverse_form_determinants():
    t0 = time.perf_counter()
    reports = run_sweep("background", pmax=199)
    elapsed = time.perf_counter() - t0
    mismatches = []
    for r in reports:
        p, which = r.params["p"], r.params["which"]
        applicable = (p % 4 == 3) if which == "half_range_sq" else (p % 3 == 2)
        want = PASS if applicable else NOT_APPLICABLE
        if r.verdict != want:
            mismatches.append(r)
    half_bad = [r for r in mismatches if r.params["which"] == "half_range_sq"]
    full_bad = [r for r in mismatches if r.params["which"] == "full_range_ij"]
    ok = not mismatches and elapsed < 60.0
    report(6, ok,
           f"inverse-form dets, primes to 199: half-range det = (2/p) mod p "
           f"{'clean' if not half_bad else f'{len(half_bad)} mismatches'}; "
           f"full-range (det/p) = (2/p) "
           f"{'clean' if not full_bad else f'{len(full_bad)} mismatches'} "
           f"({elapsed:.1f}s, budget 60s)")


def test_criterion_07_checkerboard_factorization():
    t0 = time.perf_counter()
    mismatches = 0
    cases = 0
    for n in range(2, 10):
        for i in range(200):
            m = random_checkerboard_matrix(n, seed=n * 100000 + i)
            cases += 1
            if factor_checkerboard(m, "det") != det_naive(m):
                mismatches += 1
            if factor_checkerboard(m, "per") != per_naive(m):
                mismatches += 1

    # symmetric support: the permanent and determinant become (signed) squares
    sym_cases = 0
    for n in range(2, 10):
        for i in range(10):
            a = random_checkerboard_matrix(n, seed=7000 + 13 * n + i, symmetric=True)
            sym_cases += 1
            if n % 2 == 0:
                half = n // 2
                b = exact([[a.entries[r][c] for c in range(0, n, 2)]
                           for r in range(1, n, 2)])
                scale = 1
            else:
                half = (n - 1) // 2
                b = exact([[a.entries[r][c] for c in range(2, n, 2)]
                           for r in range(1, n, 2)])
                scale = a.entries[0][0]
            if per_naive(a) != scale * per_naive(b) ** 2:
                mismatches += 1
            if det_naive(a) != (-1) ** half * scale * det_naive(b) ** 2:
                mismatches += 1

    # skew support: det is a perfect square outright
    skew_cases = 0
    for half in range(1, 5):
        for i in range(10):
            a = random_skew_checkerboard_matrix(half, seed=9000 + 17 * half + i)
            skew_cases += 1
            n = 2 * half
            b = exact([[a.entries[r][c] for c in range(0, n, 2)]
                       for r in range(1, n, 2)])
            d = det_naive(a)
            if d != det_naive(b) ** 2:
                mismatches += 1
            if per_naive(a) != (-1) ** half * per_naive(b) ** 2:
                mismatches += 1
            if not is_perfect_square(d):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    report(7, ok,
           f"checkerboard factorization vs naive engines on {cases} seeded matrices "
           f"+ {sym_cases} symmetric + {skew_cases} skew square identities, "
           f"{mismatches} mismatches ({elapsed:.1f}s, budget 60s)")


def test_criterion_08_prime_indicator_squares():
    t0 = time.perf_counter()
    dets = [det_exact(prime_indicator_matrix(n)) for n in range(1, 15)]
    elapsed = time.perf_counter() - t0
    ok = (dets[:6] == [1, -1, -1, 0, 1, -1]
          and all(is_perfect_square(abs(d)) for d in dets)
          and elapsed < 5.0)
    report(8, ok,
           f"|det| of the prime-indicator matrix is a perfect square for n = 1..14 "
           f"({elapsed:.1f}s, budget 5s)")


def test_criterion_09_low_degree_polynomial_degeneracy():
    t0 = time.perf_counter()
    rng = random.Random(0x900D)
    nonzero = 0
    cases = 0
    for n in range(3, 9):
        for _ in range(50):
            xdeg = rng.randint(0, n - 2)
            ydeg = rng.randint(0, 3)
            coeffs = [[rng.randint(-9, 9) for _ in range(ydeg + 1)]
                      for _ in range(xdeg + 1)]
            cases += 1
            if det_exact(poly_eval_matrix(coeffs, n)) != 0:
                nonzero += 1
    elapsed = time.perf_counter() - t0
    ok = nonzero == 0 and cases == 300 and elapsed < 5.0
    report(9, ok,
           f"det[P(i,j)] = 0 for {cases} random polynomials with row degree < n-1 "
           f"({elapsed:.1f}s, budget 5s)")


def test_criterion_10_oracle_anchoring():
    t0 = time.perf_counter()
    cases = []
    for p in (3, 5, 7):
        ctx_p = ModCtx.prime(p)
        ctx_p2 = ModCtx.prime_power(p, 2)
        # zero-diagonal reductions: derangement sums
        for signed in (False, True):
            cases.append(OracleSpec(p - 1, signed, DOMAIN_DERANGEMENTS, PRODUCT_ALL,
                                    EntryKind.INV_DIFF, ctx_p2))
        cases.append(OracleSpec(p - 1, False, DOMAIN_DERANGEMENTS, PRODUCT_ALL,
                                EntryKind.RATIO_SUM_DIFF, ctx_p))
        # unit-diagonal reductions: skip-fixed sums over all permutations
        cases.append(OracleSpec(p - 1, False, DOMAIN_ALL, PRODUCT_SKIP_FIXED,
                                EntryKind.INV_DIFF, ctx_p))
        for signed in (False, True):
            cases.append(OracleSpec(p, signed, DOMAIN_ALL, PRODUCT_SKIP_FIXED,
                                    EntryKind.RATIO_SUM_DIFF, ctx_p2))
            cases.append(OracleSpec(p - 1, signed, DOMAIN_ALL, PRODUCT_SKIP_FIXED,
                                    EntryKind.RATIO_SUM_DIFF, ctx_p2))
    for p in (5, 7):
        cases.append(OracleSpec(p - 1, True, DOMAIN_DERANGEMENTS, PRODUCT_ALL,
                                EntryKind.RATIO_SUM_DIFF, ModCtx.prime_power(p, 5)))
    for p in (7, 11):
        cases.append(OracleSpec((p - 1) // 2, False, DOMAIN_ALL, PRODUCT_SKIP_FIXED,
                                EntryKind.INV_DIFF_SQUARES, ModCtx.prime(p)))
        cases.append(OracleSpec((p - 1) // 2, True, DOMAIN_ALL, PRODUCT_SKIP_FIXED,
                                EntryKind.RATIO_SUM_SQUARES, ModCtx.prime_power(p, 3)))
    failures = [spec for spec in cases if not reduction_check(spec)]
    elapsed = time.perf_counter() - t0
    ok = len(cases) == 30 and not failures and elapsed < 60.0
    report(10, ok,
           f"engine values equal brute-force permutation sums on {len(cases)} "
           f"reduction cases (orders <= 7), {len(failures)} failures "
           f"({elapsed:.1f}s, budget 60s)")


#: the verdict each conj2-4 cell must get, as criterion 11 states it
CONJ2_TO_4_RULES = {
    "conj2": lambda r: (PASS if r.params["p"] % 4 == 1 and r.params["p"] % 5 in (2, 3)
                        else NOT_APPLICABLE),
    "conj3": lambda r: PASS,
    "conj4": lambda r: PASS if r.params["p"] % 5 in (2, 3) else NOT_APPLICABLE,
}


def test_criterion_11_conjecture_confirmations():
    t0 = time.perf_counter()
    mismatches = []

    def expect(reports, rule):
        for r in reports:
            want = rule(r)
            if isinstance(want, tuple):
                if r.verdict not in want:
                    mismatches.append(r)
            elif r.verdict != want:
                mismatches.append(r)

    expect(run_sweep("conj1", nmin=5, nmax=45),
           lambda r: PASS if jacobi(r.params["d"], r.params["n"]) == -1 else NOT_APPLICABLE)
    for check_id, rule in CONJ2_TO_4_RULES.items():
        expect(run_sweep(check_id, pmax=499), rule)
    expect(run_sweep("conj5", pmin=5, pmax=13), lambda r: PASS)
    expect(run_sweep("conj6", pmin=5, pmax=13), lambda r: PASS)
    expect(run_sweep("conj7", pmin=5, pmax=17),
           lambda r: PASS if r.params["part"] == "full" or r.params["p"] % 4 == 3
           else NOT_APPLICABLE)
    for p in (19, 23):  # full part outgrows the permanent gate; half part must pass
        expect(run_check("conj7", {"p": p}),
               lambda r: (PASS, INCONCLUSIVE) if r.params["part"] == "full" else PASS)
    expect(run_sweep("conj8", pmin=3, pmax=13), lambda r: PASS)
    expect(run_sweep("conj9", pmin=5, pmax=13), lambda r: PASS)
    expect(run_sweep("conj10", pmax=199),
           lambda r: PASS if r.params["p"] % 4 == 3 and r.params["p"] > 3
           else NOT_APPLICABLE)

    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 900.0
    report(11, ok,
           f"ten conjectured congruences confirmed on their stated ranges, "
           f"{len(mismatches)} mismatches ({elapsed:.1f}s, budget 900s)")


def test_conj2_to_4_hold_to_max_order():
    # the units-grid det builds no matrix, so conj2-4 reach the largest order a sweep allows
    mismatches = [(check_id, r.params, r.verdict)
                  for check_id, rule in CONJ2_TO_4_RULES.items()
                  for r in run_sweep(check_id, pmax=MAX_ORDER)
                  if r.verdict != rule(r)]
    assert mismatches == []


def test_criterion_12_engine_cross_agreement():
    t0 = time.perf_counter()
    rng = random.Random(0x5EED)
    moduli = (7, 9, 15, 25, 27, 97, 343)
    disagreements = 0
    cases = 0
    for case in range(500):
        n = rng.randint(1, 6)
        base = make_matrix(n, rng)
        cases += 1
        if case % 2 == 0:
            d = det_naive(base)
            p = per_naive(base)
            if det_exact(base) != d:
                disagreements += 1
            if per_ryser(base) != p:
                disagreements += 1
        else:
            mod = moduli[case % len(moduli)]
            ctx = ModCtx(mod)
            reduced = Matrix(base.entries % mod, ctx)
            d = det_naive(lift(reduced)) % mod
            p = per_naive(lift(reduced)) % mod
            if det_exact(lift(reduced), reduce_ctx=ctx) != d:
                disagreements += 1
            if is_prime(mod) and det_field(reduced) != d:
                disagreements += 1
            if det_mod(reduced) != d:
                disagreements += 1
            if per_ryser(reduced) != p:
                disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and cases == 500 and elapsed < 60.0
    report(12, ok,
           f"det and per engines agree pairwise on {cases} seeded cases "
           f"(exact, prime, prime-power, composite), "
           f"{disagreements} disagreements ({elapsed:.1f}s, budget 60s)")
