"""Checkers for the congruence statements, plus the sweep driver.

Every checker is hypothesis-gated: parameters outside the stated residue
class come back as not-applicable, never as failures.  Size-capped permanent
parts come back as inconclusive with the reason.  Reports are produced in a
deterministic order so repeated sweeps agree record for record.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterable

from .detper import det_exact, det_field, det_mod, per_ryser
from .matgen import (
    MAX_ORDER,
    EntryKind,
    cauchy_type_matrix,
    inverse_form_matrix,
    quad_form_matrix,
)
from .modnum import (
    InconclusiveValuation,
    ModCtx,
    double_factorial_mod,
    inv_mod,
    is_prime,
    jacobi,
    legendre,
    odd_primes_in,
    padic_valuation,
)

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
NOT_APPLICABLE = "not-applicable"

#: default order caps for the parts that run the permanent kernel
PER_ORDER_CAPS = {5: 12, 6: 12, 7: 17, 8: 17, 9: 17}

VANISHING_VARIANTS = ("c_minus1", "two_two", "six_six")
INVERSE_FORM_WHICH = ("half_range_sq", "full_range_ij")


@dataclass
class CheckReport:
    check_id: str
    params: dict
    computed: str
    expected: str
    verdict: str
    elapsed_ms: float

    def as_record(self) -> dict:
        return {
            "check_id": self.check_id,
            "params": self.params,
            "computed": self.computed,
            "expected": self.expected,
            "verdict": self.verdict,
            "elapsed_ms": self.elapsed_ms,
        }


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def _require_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def units_grid_det(p: int, c: int, d: int) -> int:
    """det of the quadratic-form power matrix over indices 1..p-1, mod p."""
    matrix = quad_form_matrix(p, c, d, "from1", p - 2, ModCtx.prime(p))
    return det_field(matrix)


# ---------------------------------------------------------------------------
# identity checks


def check_full_grid_det_zero(p: int, c: int, d: int) -> CheckReport:
    """The det over the full index grid 0..p-1 vanishes mod p for every p > 3."""
    t0 = time.perf_counter()
    params = {"p": p, "c": c, "d": d}
    if p == 3:
        exact = det_exact(quad_form_matrix(3, c, d, "full0", 1, None))
        return CheckReport(
            "eq15", params, str(exact),
            "not applicable: needs p > 3 (order-3 exact det is -4*c*d)",
            NOT_APPLICABLE, _ms(t0),
        )
    matrix = quad_form_matrix(p, c, d, "full0", p - 2, ModCtx.prime(p))
    v = det_field(matrix)
    return CheckReport(
        "eq15", params, str(v), f"0 (mod {p})", PASS if v == 0 else FAIL, _ms(t0)
    )


def check_p3_closed_form(c: int, d: int) -> CheckReport:
    """Exact order-3 determinant of the full-grid family equals -4*c*d."""
    t0 = time.perf_counter()
    v = det_exact(quad_form_matrix(3, c, d, "full0", 1, None))
    expected = -4 * c * d
    return CheckReport(
        "p3", {"c": c, "d": d}, str(v), str(expected),
        PASS if v == expected else FAIL, _ms(t0),
    )


def check_reflection(p: int, c: int, d: int) -> CheckReport:
    """Negating c multiplies the units-grid det by the quadratic character of -1."""
    t0 = time.perf_counter()
    params = {"p": p, "c": c, "d": d}
    lhs = units_grid_det(p, -c, d)
    rhs = legendre(-1, p) * units_grid_det(p, c, d) % p
    return CheckReport(
        "reflection", params, str(lhs), f"{rhs} (mod {p})",
        PASS if lhs == rhs else FAIL, _ms(t0),
    )


def check_vanishing_family(p: int, variant: str, c: int | None = None) -> CheckReport:
    """Units-grid dets that vanish mod p on specific residue classes of p.

    c_minus1: d = -1, any c, for p = 3 (mod 4);  two_two: (c, d) = (2, 2) for
    p = 3 (mod 4);  six_six: (c, d) = (6, 6) for p = +-1 (mod 12).  All three
    are stated for p > 3.
    """
    t0 = time.perf_counter()
    if variant not in VANISHING_VARIANTS:
        raise ValueError(f"variant must be one of {VANISHING_VARIANTS}, got {variant!r}")
    params: dict = {"p": p, "variant": variant}
    if variant == "c_minus1":
        if c is None:
            raise ValueError("variant c_minus1 needs a value for c")
        params["c"] = c
    if p == 3:
        return CheckReport("dp-theorem", params, "",
                           "not applicable: stated for p > 3", NOT_APPLICABLE, _ms(t0))
    if variant == "c_minus1":
        applicable = p % 4 == 3
        gate = "needs p = 3 (mod 4)"
        cd = (c, -1)
    elif variant == "two_two":
        applicable = p % 4 == 3
        gate = "needs p = 3 (mod 4)"
        cd = (2, 2)
    else:
        applicable = p % 12 in (1, 11)
        gate = "needs p = +-1 (mod 12)"
        cd = (6, 6)
    if not applicable:
        return CheckReport("dp-theorem", params, "", f"not applicable: {gate}",
                           NOT_APPLICABLE, _ms(t0))
    v = units_grid_det(p, *cd)
    return CheckReport(
        "dp-theorem", params, str(v), f"0 (mod {p})", PASS if v == 0 else FAIL, _ms(t0)
    )


def check_column_relation(p: int, c: int, d: int) -> CheckReport:
    """Fixed linear combination of each column of the full-grid matrix vanishes mod p.

    With a = the matrix over 0..p-1 and w = 1 - 2*d*(c*c - 4*d)**((p-3)//2),
    every column j satisfies w*a[0][j] + sum(a[i][j] for i in 1..p-1) = 0
    (mod p).  Needs p > 3 (the top row term rests on the vanishing of the
    inverse-square harmonic sum) and p not dividing d.
    """
    t0 = time.perf_counter()
    params = {"p": p, "c": c, "d": d}
    if p == 3:
        return CheckReport("column-relation", params, "",
                           "not applicable: needs p > 3", NOT_APPLICABLE, _ms(t0))
    if d % p == 0:
        return CheckReport("column-relation", params, "",
                           "not applicable: needs p not dividing d", NOT_APPLICABLE, _ms(t0))
    matrix = quad_form_matrix(p, c, d, "full0", p - 2, ModCtx.prime(p))
    weight = (1 - 2 * d * pow(c * c - 4 * d, (p - 3) // 2, p)) % p
    arr = matrix.entries
    combos = (weight * arr[0] + arr[1:].sum(axis=0)) % p
    vanishing = int((combos == 0).sum())
    return CheckReport(
        "column-relation", params, str(vanishing),
        f"{p} (columns whose weighted sum vanishes mod {p})",
        PASS if vanishing == p else FAIL, _ms(t0),
    )


def check_inverse_form_det(p: int, which: str) -> CheckReport:
    """dets of the inverse-quadratic-form matrices against the character of 2 mod p.

    half_range_sq (p = 3 mod 4) is a residue congruence: det = (2/p) (mod p).
    full_range_ij (p = 2 mod 3) is an identity of Legendre symbols:
    (det/p) = (2/p), as in Sun, Finite Fields Appl. 56 (2019).  The residue
    itself does not equal (2/p) (p = 5 gives 3, not 4); the symbol form holds
    at all 48 such primes 5 <= p < 500.  A det = 0 has symbol 0 and fails.
    """
    t0 = time.perf_counter()
    if which not in INVERSE_FORM_WHICH:
        raise ValueError(f"which must be one of {INVERSE_FORM_WHICH}, got {which!r}")
    params = {"p": p, "which": which}
    if which == "half_range_sq" and p % 4 != 3:
        return CheckReport("background", params, "",
                           "not applicable: needs p = 3 (mod 4)", NOT_APPLICABLE, _ms(t0))
    if which == "full_range_ij" and p % 3 != 2:
        return CheckReport("background", params, "",
                           "not applicable: needs p = 2 (mod 3)", NOT_APPLICABLE, _ms(t0))
    matrix = inverse_form_matrix(p, which)
    v = det_field(matrix)
    chi2 = legendre(2, p)
    if which == "half_range_sq":
        return CheckReport(
            "background", params, str(v), f"{chi2 % p} (mod {p})",
            _verdict(v, chi2 % p), _ms(t0),
        )
    s = legendre(v, p)
    return CheckReport(
        "background", params, f"{v} (mod {p}); ({v}/{p}) = {s}",
        f"(det/{p}) = (2/{p}) = {chi2}", _verdict(s, chi2), _ms(t0),
    )


# ---------------------------------------------------------------------------
# the ten conjectured congruences


def _na(check_id: str, params: dict, reason: str, t0: float) -> CheckReport:
    return CheckReport(check_id, params, "", f"not applicable: {reason}",
                       NOT_APPLICABLE, _ms(t0))


def _per_capped(check_id: str, params: dict, order: int, cap: int, t0: float) -> CheckReport:
    return CheckReport(
        check_id, params, "",
        f"inconclusive: permanent order {order} exceeds the size gate {cap}",
        INCONCLUSIVE, _ms(t0),
    )


def _verdict(computed: int, expected: int) -> str:
    return PASS if computed == expected else FAIL


def _conj1(n: int, c: int, d: int) -> CheckReport:
    t0 = time.perf_counter()
    params = {"n": n, "c": c, "d": d}
    if n % 2 == 0 or n <= 3:
        return _na("conj1", params, "needs odd n > 3", t0)
    j = jacobi(d, n)
    if j != -1:
        return _na("conj1", params, f"needs jacobi(d, n) = -1, got {j}", t0)
    ctx = ModCtx(n * n)
    matrix = quad_form_matrix(n, c, d, "full0", n - 2, ctx)
    v = det_mod(matrix)
    return CheckReport("conj1", params, str(v), f"0 (mod {n}^2)",
                       PASS if v == 0 else FAIL, _ms(t0))


def _conj2(p: int) -> CheckReport:
    t0 = time.perf_counter()
    params = {"p": p}
    if p % 4 != 1 or p % 5 not in (2, 3):
        return _na("conj2", params, "needs p = 1 (mod 4) and p = +-2 (mod 5)", t0)
    s = legendre(units_grid_det(p, 1, -1), p)
    return CheckReport("conj2", params, str(s), "1", _verdict(s, 1), _ms(t0))


def _conj3(p: int) -> CheckReport:
    t0 = time.perf_counter()
    params = {"p": p}
    s = legendre(units_grid_det(p, 2, -1), p)
    ok = (s == -1) == (p % 8 == 5)
    return CheckReport("conj3", params, str(s), "-1 exactly when p = 5 (mod 8)",
                       PASS if ok else FAIL, _ms(t0))


def _conj4(p: int) -> CheckReport:
    t0 = time.perf_counter()
    params = {"p": p}
    if p % 5 not in (2, 3):
        return _na("conj4", params, "needs p = +-2 (mod 5)", t0)
    s = legendre(units_grid_det(p, 3, 1), p)
    expected = legendre(6, p) if p % 4 == 1 else 0
    return CheckReport("conj4", params, str(s), str(expected),
                       _verdict(s, expected), _ms(t0))


def _conj5(p: int, cap: int) -> list[CheckReport]:
    reports = []
    order = p - 1
    ctx2 = ModCtx.prime_power(p, 2)
    m2 = ctx2.modulus
    matrix = cauchy_type_matrix(EntryKind.INV_DIFF, order, "zero", ctx2)

    t0 = time.perf_counter()
    params = {"p": p, "part": "per"}
    if order > cap:
        reports.append(_per_capped("conj5", params, order, cap, t0))
    else:
        v = per_ryser(matrix)
        expected = legendre(-1, p) % m2
        reports.append(CheckReport("conj5", params, str(v), f"{expected} (mod {p}^2)",
                                   _verdict(v, expected), _ms(t0)))

    t0 = time.perf_counter()
    v = det_mod(matrix)
    reports.append(CheckReport("conj5", {"p": p, "part": "det"}, str(v),
                               f"1 (mod {p}^2)", _verdict(v, 1), _ms(t0)))
    return reports


def _conj6(p: int, cap: int) -> list[CheckReport]:
    reports = []
    order = p - 1

    t0 = time.perf_counter()
    params = {"p": p, "part": "i"}
    if order > cap:
        reports.append(_per_capped("conj6", params, order, cap, t0))
    else:
        matrix = cauchy_type_matrix(EntryKind.RATIO_SUM_DIFF, order, "zero", ModCtx.prime(p))
        v = per_ryser(matrix)
        expected = (1 - 2 * legendre(-1, p)) % p
        reports.append(CheckReport("conj6", params, str(v), f"{expected} (mod {p})",
                                   _verdict(v, expected), _ms(t0)))

    t0 = time.perf_counter()
    params = {"p": p, "part": "ii"}
    if p == 3:
        reports.append(_na("conj6", params, "needs p > 3", t0))
        return reports
    ctx5 = ModCtx.prime_power(p, 5)
    matrix5 = cauchy_type_matrix(EntryKind.RATIO_SUM_DIFF, order, "zero", ctx5)
    v = det_mod(matrix5)
    e = 3 - legendre(-1, p)
    expected = f"p-adic valuation exactly {e}, unit part a square mod {p}"
    try:
        val, unit = padic_valuation(v, p, 5)
    except InconclusiveValuation:
        reports.append(CheckReport("conj6", params, str(v), expected, INCONCLUSIVE, _ms(t0)))
        return reports
    ok = val == e and legendre(unit, p) == 1
    reports.append(CheckReport("conj6", params, str(v), expected,
                               PASS if ok else FAIL, _ms(t0)))
    return reports


def _conj7(p: int, cap: int) -> list[CheckReport]:
    reports = []

    t0 = time.perf_counter()
    params = {"p": p, "part": "full"}
    order = p - 1
    if order > cap:
        reports.append(_per_capped("conj7", params, order, cap, t0))
    else:
        matrix = cauchy_type_matrix(EntryKind.INV_DIFF, order, "one", ModCtx.prime(p))
        v = per_ryser(matrix)
        expected = (1 + legendre(-1, p)) % p
        reports.append(CheckReport("conj7", params, str(v), f"{expected} (mod {p})",
                                   _verdict(v, expected), _ms(t0)))

    t0 = time.perf_counter()
    params = {"p": p, "part": "half"}
    if p % 4 != 3:
        reports.append(_na("conj7", params, "half-range part needs p = 3 (mod 4)", t0))
        return reports
    order = (p - 1) // 2
    if order > cap:
        reports.append(_per_capped("conj7", params, order, cap, t0))
        return reports
    matrix = cauchy_type_matrix(EntryKind.INV_DIFF_SQUARES, order, "one", ModCtx.prime(p))
    v = per_ryser(matrix)
    reports.append(CheckReport("conj7", params, str(v), f"{1 % p} (mod {p})",
                               _verdict(v, 1 % p), _ms(t0)))
    return reports


def _conj8(p: int, cap: int) -> list[CheckReport]:
    reports = []
    ctx2 = ModCtx.prime_power(p, 2)
    m2 = ctx2.modulus
    matrix = cauchy_type_matrix(EntryKind.RATIO_SUM_DIFF, p, "one", ctx2)

    t0 = time.perf_counter()
    params = {"p": p, "part": "per"}
    if p > cap:
        reports.append(_per_capped("conj8", params, p, cap, t0))
    else:
        v = per_ryser(matrix) % p
        expected = (1 - legendre(-1, p)) % p
        reports.append(CheckReport("conj8", params, str(v), f"{expected} (mod {p})",
                                   _verdict(v, expected), _ms(t0)))

    t0 = time.perf_counter()
    v = det_mod(matrix)
    expected = -p * inv_mod(2, m2) % m2
    reports.append(CheckReport("conj8", {"p": p, "part": "det"}, str(v),
                               f"{expected} (mod {p}^2)", _verdict(v, expected), _ms(t0)))
    return reports


def _conj9(p: int, cap: int) -> list[CheckReport]:
    reports = []
    order = p - 1
    ctx2 = ModCtx.prime_power(p, 2)
    m2 = ctx2.modulus
    matrix = cauchy_type_matrix(EntryKind.RATIO_SUM_DIFF, order, "one", ctx2)
    dfac_sq = double_factorial_mod(p - 2, ctx2) ** 2 % m2

    t0 = time.perf_counter()
    params = {"p": p, "part": "per"}
    if order > cap:
        reports.append(_per_capped("conj9", params, order, cap, t0))
    else:
        v = per_ryser(matrix)
        reports.append(CheckReport("conj9", params, str(v), f"{dfac_sq} (mod {p}^2)",
                                   _verdict(v, dfac_sq), _ms(t0)))

    t0 = time.perf_counter()
    v = det_mod(matrix)
    sign = -1 if (p + 1) // 2 % 2 == 1 else 1
    expected = sign * inv_mod(p - 2, m2) * dfac_sq % m2
    reports.append(CheckReport("conj9", {"p": p, "part": "det"}, str(v),
                               f"{expected} (mod {p}^2)", _verdict(v, expected), _ms(t0)))
    return reports


def _conj10(p: int) -> CheckReport:
    t0 = time.perf_counter()
    params = {"p": p}
    if p % 4 != 3 or p == 3:
        return _na("conj10", params, "needs p = 3 (mod 4) and p > 3", t0)
    ctx3 = ModCtx.prime_power(p, 3)
    order = (p - 1) // 2
    matrix = cauchy_type_matrix(EntryKind.RATIO_SUM_SQUARES, order, "one", ctx3)
    v = det_mod(matrix)
    required = 3 if p % 8 == 7 else 2
    ok = v % p**required == 0
    return CheckReport("conj10", params, str(v), f"0 (mod {p}^{required})",
                       PASS if ok else FAIL, _ms(t0))


# ---------------------------------------------------------------------------
# the check registry: one entry per check id


Runner = Callable[[dict, int | None], list[CheckReport]]


@dataclass(frozen=True)
class CheckSpec:
    """One check id: the params of a cell, how to run a cell, and its sweep grid.

    params names a cell's params; a cell needs each of them except those in
    optional.  run(params, cap) evaluates one cell, where cap overrides the
    permanent size gate (None keeps the default).  grid(bounds) yields the
    params of each sweep cell, with bounds.cmax and bounds.dmax defaulting to
    cmax and dmax here; a sweep cannot go without the bound named by needs.
    Runners call the checkers, which look the builders and engines up in this
    module when they run.
    """

    params: tuple[str, ...]
    run: Runner
    grid: Callable[[SimpleNamespace], Iterable[dict]]
    needs: str | None = "pmax"
    cmax: int | None = None
    dmax: int | None = None
    optional: tuple[str, ...] = ()

    def missing(self, params: dict) -> list[str]:
        return [k for k in self.params if k not in self.optional and params.get(k) is None]


def _one(checker: Callable[..., CheckReport]) -> Runner:
    return lambda params, cap: [checker(**params)]


def _gated(conj: Callable[[int, int], list[CheckReport]], k: int) -> Runner:
    """Runner for conjecture k, whose permanent parts default to PER_ORDER_CAPS[k]."""
    return lambda params, cap: conj(params["p"], PER_ORDER_CAPS[k] if cap is None else cap)


def _prime_grid(b: SimpleNamespace) -> Iterable[dict]:
    return ({"p": p} for p in odd_primes_in(b.pmin, b.pmax))


def _pcd_grid(clip: bool):
    """Cells (p, c, d) with c in 0..cmax and d in 0..dmax, both at most p - 1 if clip."""
    def grid(b: SimpleNamespace) -> Iterable[dict]:
        for p in odd_primes_in(b.pmin, b.pmax):
            cmax, dmax = (min(p - 1, b.cmax), min(p - 1, b.dmax)) if clip else (b.cmax, b.dmax)
            for c in range(cmax + 1):
                for d in range(dmax + 1):
                    yield {"p": p, "c": c, "d": d}
    return grid


def _p3_grid(b: SimpleNamespace) -> Iterable[dict]:
    return ({"c": c, "d": d} for c in range(-b.cmax, b.cmax + 1)
            for d in range(-b.dmax, b.dmax + 1))


def _vanishing_grid(b: SimpleNamespace) -> Iterable[dict]:
    for p in odd_primes_in(b.pmin, b.pmax):
        for var in VANISHING_VARIANTS if b.variant is None else (b.variant,):
            if var == "c_minus1":
                yield from ({"p": p, "variant": var, "c": c} for c in range(b.cmax + 1))
            else:
                yield {"p": p, "variant": var}


def _inverse_form_grid(b: SimpleNamespace) -> Iterable[dict]:
    return ({"p": p, "which": w} for p in odd_primes_in(b.pmin, b.pmax)
            for w in (INVERSE_FORM_WHICH if b.which is None else (b.which,)))


def _conj1_grid(b: SimpleNamespace) -> Iterable[dict]:
    start = b.nmin if b.nmin % 2 == 1 else b.nmin + 1
    return ({"n": n, "c": c, "d": d} for n in range(start, b.nmax + 1, 2)
            for c in range(b.cmax + 1) for d in range(b.dmax + 1))


_PCD = ("p", "c", "d")

CHECKS: dict[str, CheckSpec] = {
    "eq15": CheckSpec(_PCD, _one(check_full_grid_det_zero), _pcd_grid(clip=True), cmax=6, dmax=6),
    "p3": CheckSpec(("c", "d"), _one(check_p3_closed_form), _p3_grid, needs=None, cmax=5, dmax=5),
    "reflection": CheckSpec(_PCD, _one(check_reflection), _pcd_grid(clip=False), cmax=6, dmax=6),
    "dp-theorem": CheckSpec(("p", "variant", "c"), _one(check_vanishing_family),
                            _vanishing_grid, cmax=10, optional=("c",)),
    "background": CheckSpec(("p", "which"), _one(check_inverse_form_det), _inverse_form_grid),
    "column-relation": CheckSpec(_PCD, _one(check_column_relation), _pcd_grid(clip=False),
                                 cmax=6, dmax=6),
    "conj1": CheckSpec(("n", "c", "d"), _one(_conj1), _conj1_grid, needs="nmax", cmax=3, dmax=6),
    "conj2": CheckSpec(("p",), _one(_conj2), _prime_grid),
    "conj3": CheckSpec(("p",), _one(_conj3), _prime_grid),
    "conj4": CheckSpec(("p",), _one(_conj4), _prime_grid),
    "conj5": CheckSpec(("p",), _gated(_conj5, 5), _prime_grid),
    "conj6": CheckSpec(("p",), _gated(_conj6, 6), _prime_grid),
    "conj7": CheckSpec(("p",), _gated(_conj7, 7), _prime_grid),
    "conj8": CheckSpec(("p",), _gated(_conj8, 8), _prime_grid),
    "conj9": CheckSpec(("p",), _gated(_conj9, 9), _prime_grid),
    "conj10": CheckSpec(("p",), _one(_conj10), _prime_grid),
}


def _spec(check_id: str) -> CheckSpec:
    try:
        return CHECKS[check_id]
    except KeyError:
        raise ValueError(f"unknown check id {check_id!r}") from None


def run_check(check_id: str, params: dict, per_order_cap: int | None = None) -> list[CheckReport]:
    """Evaluate one check cell; conjecture checks may emit several part-reports."""
    spec = _spec(check_id)
    missing = spec.missing(params)
    if missing:
        raise ValueError(f"{check_id} needs " + ", ".join(missing))
    if "p" in spec.params:  # every statement in p is about an odd prime p
        _require_odd_prime(params["p"])
    return spec.run(params, per_order_cap)


def sweep_cells(
    check_id: str,
    pmin: int = 3,
    pmax: int | None = None,
    nmin: int = 5,
    nmax: int | None = None,
    cmax: int | None = None,
    dmax: int | None = None,
    variant: str | None = None,
    which: str | None = None,
) -> list[tuple[str, dict]]:
    """Deterministic parameter grid for a sweep over one check id."""
    spec = _spec(check_id)
    bounds = SimpleNamespace(
        pmin=pmin, pmax=pmax, nmin=nmin, nmax=nmax, variant=variant, which=which,
        cmax=spec.cmax if cmax is None else cmax, dmax=spec.dmax if dmax is None else dmax,
    )
    if spec.needs is not None and getattr(bounds, spec.needs) is None:
        raise ValueError(f"{check_id} sweep needs {spec.needs}")
    for name in ("pmax", "nmax"):
        if (getattr(bounds, name) or 0) > MAX_ORDER:
            raise ValueError(f"{name} must be at most {MAX_ORDER} (the largest matrix order)")
    return [(check_id, params) for params in spec.grid(bounds)]


def _run_cell(cell: tuple[str, dict], per_order_cap: int | None = None) -> list[CheckReport]:
    check_id, params = cell
    return run_check(check_id, params, per_order_cap=per_order_cap)


def run_sweep(
    cells: Iterable[tuple[str, dict]],
    jobs: int = 1,
    per_order_cap: int | None = None,
) -> list[CheckReport]:
    """Evaluate cells in order; parallelism never changes the report sequence.

    jobs is an upper bound: no more workers start than there are CPUs or cells.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cells = list(cells)
    runner = functools.partial(_run_cell, per_order_cap=per_order_cap)
    workers = min(jobs, os.cpu_count() or 1, len(cells))
    if workers <= 1:
        batches = map(runner, cells)
    else:
        executor = ProcessPoolExecutor(max_workers=workers)
        try:
            batches = list(executor.map(runner, cells, chunksize=8))
        finally:
            executor.shutdown()
    return [report for batch in batches for report in batch]


def exit_code(reports: Iterable[CheckReport]) -> int:
    return 1 if any(r.verdict == FAIL for r in reports) else 0
