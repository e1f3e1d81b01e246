"""Checkers for the congruence statements, plus the sweep driver.

Every checker is hypothesis-gated: parameters outside the stated residue
class come back as not-applicable, never as failures.  Size-capped permanent
parts come back as inconclusive with the reason.  A checker only returns what
it found, as an Outcome; run_check turns outcomes into reports.  Reports are
produced in a deterministic order so repeated sweeps agree record for record.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator

import numpy as np

from .detper import det_exact, det_field, det_mod, per_ryser
from .matgen import (
    MAX_ORDER,
    EntryKind,
    Matrix,
    cauchy_type_matrix,
    inverse_form_matrix,  # perfbench/tracing.TARGETS wraps verify.inverse_form_matrix
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

#: the most cells one sweep may hold; a larger grid is refused before it runs
MAX_CELLS = 10**5

#: the largest p of a units-grid det on the kernel: O(p) memory and O(log p) vector steps
MAX_UNITS_P = 10**6
#: the largest p of a closed-form units-grid det, which factors p + 1 by trial division
MAX_CLOSED_P = 10**12
#: terms of 1/f^2 that units_grid_coefficients computes one by one before its vector steps
_SEED_TERMS = 64

VANISHING_VARIANTS = ("c_minus1", "two_two", "six_six")
INVERSE_FORM_WHICH = ("half_range_sq", "full_range_ij")
#: the cell params that name one of a few values; every other param is an int
CHOICES = {"variant": VANISHING_VARIANTS, "which": INVERSE_FORM_WHICH}


@dataclass
class CheckReport:
    check_id: str
    params: dict
    computed: str
    expected: str
    verdict: str
    elapsed_ms: float

    def as_record(self) -> dict:
        # not asdict, which deep-copies params at about eight times the cost per record
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _require_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def units_grid_coefficients(p: int, c: int, d: int) -> np.ndarray:
    """b_0 .. b_(p-2) mod p, the folded coefficients whose product is D_p(c, d), as int64.

    D_p(c, d) = det[(i^2 + c*i*j + d*j^2)^(p-2)] over 1 <= i, j <= p-1, mod p.
    With g(t) = (1 + c*t + d*t^2)^(p-2), entry (i, j) is i^-2 * g(j/i), and on
    the units g(t) = sum_k b_k t^k, where b_k sums the coefficients of g over
    the exponents = k (mod p-1).  So the matrix is diag(i^-2)[i^-k]diag(b)[j^k],
    whose Vandermonde signs cancel at every odd p: D_p = prod b_k (mod p)
    (Krattenthaler, "Advanced determinant calculus", Sem. Lothar. Combin. 42, 1999).
    By Frobenius g = (1 + c*t^p + d*t^2p) / f^2 with f = 1 + c*t + d*t^2, and
    the coefficients h_n of 1/f^2 follow a 4-term recurrence because f(0) = 1;
    no matrix is built.  h is that recurrence's impulse response, so for every
    J and k >= 0, h_(k+J) = e0*h_k + e1*h_(k-1) + e2*h_(k-2) + e3*h_(k-3), with e
    read off h_J..h_(J+3).  From 64 terms found one by one, each vector step
    thus doubles the known terms: O(p) memory and O(log p) vector steps.
    Every int64 intermediate is below 4p^2 < 2^63.
    """
    if p > MAX_UNITS_P:
        raise ValueError(f"units_grid_coefficients takes p up to {MAX_UNITS_P}, got {p}")
    _require_odd_prime(p)
    c, d = c % p, d % p
    # f^2 = 1 + 2c*t + (c^2 + 2d)*t^2 + 2cd*t^3 + d^2*t^4, so h_n = r1*h_(n-1) + ... + r4*h_(n-4)
    r1, r2, r3, r4 = -2 * c % p, -(c * c + 2 * d) % p, -2 * c * d % p, -d * d % p
    n = 2 * p - 2  # h_0 .. h_(2p-3), one past the degree of g, where the fold reads 0
    h = [0, 0, 0, 1]  # coefficients of 1/f^2 from t^-3 on, so h_n is h[n + 3]
    for i in range(min(n, _SEED_TERMS) - 1):
        h.append((r1 * h[i + 3] + r2 * h[i + 2] + r3 * h[i + 1] + r4 * h[i]) % p)
    hs = np.zeros(n + 3, dtype=np.int64)  # h_n is hs[n + 3], as in h
    hs[:len(h)] = h
    known = len(h) - 3
    while known < n:
        j = known - 4  # h_0 = 1 makes the solve for e triangular
        e0, g1, g2, g3 = hs[j + 3:j + 7].tolist()
        e1 = (g1 - e0 * h[4]) % p
        e2 = (g2 - e0 * h[5] - e1 * h[4]) % p
        e3 = (g3 - e0 * h[6] - e1 * h[5] - e2 * h[4]) % p
        new = min(n - known, j)  # h_(J+k) for k = 4 .. known-1
        np.remainder(np.correlate(hs[4:7 + new], [e3, e2, e1, e0]), p,
                     out=hs[known + 3:known + 3 + new])
        known += new
    # b_k = g_k + g_(k+p-1), with g_n = h_n + c*h_(n-p)
    return (hs[3:p + 2] + hs[p + 2:2 * p + 1] + c * hs[2:p + 1]) % p


def _fp2_pow(x: tuple[int, int], e: int, p: int, delta: int) -> tuple[int, int]:
    """x^e in F_(p^2) = F_p(s), s^2 = delta a non-square mod p, for x = (u, v) = u + v*s."""
    y = (1, 0)
    for bit in bin(e)[2:]:  # square and multiply, from the top bit down
        y = (y[0] * y[0] + delta * y[1] * y[1]) % p, 2 * y[0] * y[1] % p
        if bit == "1":
            y = (y[0] * x[0] + delta * y[1] * x[1]) % p, (y[0] * x[1] + y[1] * x[0]) % p
    return y


def _inert_det(p: int, c: int, d: int, delta: int) -> int:
    """D_p(c, d) for f irreducible mod p and (d/p) = 1, as in units_grid_det."""
    h = pow(2 * d, -1, p)
    zeta = (c * c * h - 1) % p, c * h % p  # b/a = (c + s)^2/(4d), at a, b = (-c +- s)/(2d)
    r = m = (p + 1) // ((p + 1) & -(p + 1))  # the odd part of p + 1
    if _fp2_pow(zeta, r, p, delta) != (1, 0):
        return 0  # r = ord zeta is even
    q = 3
    while m > 1:  # trial division: strip each prime q of m from r while zeta^(r/q) = 1
        q = q if q * q <= m else m
        while m % q == 0:
            m //= q
            if _fp2_pow(zeta, r // q, p, delta) == (1, 0):
                r //= q
        q += 2
    u, v = _fp2_pow((-c * h % p, h), (p - 1) // 2, p, delta)  # a^(p(p-1)/2) is u - v*s
    x, y = zeta[0] + 1, zeta[1]  # 1 + 1/zeta = x - y*s, of norm 2x as zeta has norm 1
    if (u * y - v * x) % p:  # (u - v*s)(x + y*s) must lie in F_p
        raise ArithmeticError(f"the closed form of D_{p}({c}, {d}) is not in F_{p}")
    return (u * x - v * y * delta) * pow(2, (p + 1) // r - 1, p) * pow(2 * x, -1, p) % p


def units_grid_det(p: int, c: int, d: int, order: int | None = None) -> int:
    """D_p(c, d) mod p: the product of units_grid_coefficients(p, c, d).

    For p > 3 and no order, f = 1 + c*t + d*t^2 mod p decides, with delta = c^2 - 4d
    (partial fractions of 1/f, power sums over F_p, Frobenius on F_(p^2); Lidl and
    Niederreiter, "Finite Fields", 1997): D = -(-c/p) if d = 0; 0 if delta = 0 or (d/p) = -1;
    0 if delta is a non-square and r = ord(b/a) is even, for the roots a, b = a^p of f, else
    a^(p(p-1)/2) * 2^((p+1)/r - 1)/(1 + a/b).  The kernel takes a split f with (d/p) = 1, p = 3,
    and order = n | p-1: det[g(y/x)] over that subgroup is n^n * prod of b_k folded mod n.
    """
    if p > MAX_CLOSED_P:
        raise ValueError(f"units_grid_det takes p up to {MAX_CLOSED_P}, got {p}")
    _require_odd_prime(p)
    if order is None and p > 3:
        c, d = c % p, d % p
        half, delta = (p - 1) // 2, (c * c - 4 * d) % p
        if d == 0:
            return -pow(-c, half, p) % p
        if delta == 0 or pow(d, half, p) == p - 1:
            return 0
        if pow(delta, half, p) == p - 1:
            return _inert_det(p, c, d, delta)
    b = units_grid_coefficients(p, c, d)
    det = 1  # p is prime, so the product is 0 exactly when some b_k is
    if order is not None:
        b = b.reshape(-1, order).sum(axis=0) % p
        det = pow(order, order, p)
    while len(b) > 16:  # pairwise halving; below 16 terms one numpy step costs more than they do
        half = len(b) // 2
        if len(b) % 2:
            det = det * int(b[-1]) % p
        b = b[:half] * b[half:2 * half] % p
    for v in b.tolist():
        det = det * v % p
    return det


#: what a checker found: (computed, expected, verdict)
Outcome = tuple[str, str, str]


def _outcome(computed: object, expected_text: str, ok: bool) -> Outcome:
    return str(computed), expected_text, PASS if ok else FAIL


def _na(reason: str) -> Outcome:
    return "", f"not applicable: {reason}", NOT_APPLICABLE


# ---------------------------------------------------------------------------
# identity checks


def check_full_grid_det_zero(p: int, c: int, d: int) -> Outcome:
    """The det over the full index grid 0..p-1 vanishes mod p for every p > 3."""
    if p == 3:
        exact = det_exact(quad_form_matrix(3, c, d, "full0", 1, None))
        return (str(exact), "not applicable: needs p > 3 (order-3 exact det is -4*c*d)",
                NOT_APPLICABLE)
    v = det_field(quad_form_matrix(p, c, d, "full0", p - 2, ModCtx.prime(p)))
    return _outcome(v, f"0 (mod {p})", v == 0)


def check_p3_closed_form(c: int, d: int) -> Outcome:
    """Exact order-3 determinant of the full-grid family equals -4*c*d."""
    v = det_exact(quad_form_matrix(3, c, d, "full0", 1, None))
    expected = -4 * c * d
    return _outcome(v, str(expected), v == expected)


def check_reflection(p: int, c: int, d: int) -> Outcome:
    """Negating c multiplies the units-grid det by the quadratic character of -1."""
    lhs = units_grid_det(p, -c, d)
    rhs = legendre(-1, p) * units_grid_det(p, c, d) % p
    return _outcome(lhs, f"{rhs} (mod {p})", lhs == rhs)


def check_vanishing_family(p: int, variant: str, c: int | None = None) -> Outcome:
    """Units-grid dets that vanish mod p on specific residue classes of p.

    c_minus1: d = -1, any c, for p = 3 (mod 4);  two_two: (c, d) = (2, 2) for
    p = 3 (mod 4);  six_six: (c, d) = (6, 6) for p = +-1 (mod 12).  All three
    are stated for p > 3.  c is given exactly when the variant is c_minus1.
    """
    if (variant == "c_minus1") != (c is not None):
        raise ValueError(f"variant {variant} needs a value for c" if c is None
                         else f"variant {variant} takes no c")
    if p == 3:
        return _na("stated for p > 3")
    if variant == "six_six":
        if p % 12 not in (1, 11):
            return _na("needs p = +-1 (mod 12)")
        cd = (6, 6)
    else:
        if p % 4 != 3:
            return _na("needs p = 3 (mod 4)")
        cd = (c, -1) if variant == "c_minus1" else (2, 2)
    v = units_grid_det(p, *cd)
    return _outcome(v, f"0 (mod {p})", v == 0)


def check_column_relation(p: int, c: int, d: int) -> Outcome:
    """Fixed linear combination of each column of the full-grid matrix vanishes mod p.

    With a = the matrix over 0..p-1 and w = 1 - 2*d*(c*c - 4*d)**((p-3)//2),
    every column j satisfies w*a[0][j] + sum(a[i][j] for i in 1..p-1) = 0
    (mod p), for p not dividing d.  Column 0 sums to the inverse-square harmonic
    sum, which vanishes only for p > 3.  Column j != 0 is column 1 times j^-2, as
    a[i][j] = j^-2 * a[i/j][1], and column 1 sums to w/d - b_(p-3): the sum of
    (t^2 + c*t + d)^(p-2) over the units is -b_(p-3) (units_grid_coefficients).
    So all p columns vanish or only column 0 does, and no matrix is built.
    """
    if p == 3:
        return _na("needs p > 3")
    if d % p == 0:
        return _na("needs p not dividing d")
    weight = (1 - 2 * d * pow(c * c - 4 * d, (p - 3) // 2, p)) % p
    holds = weight * inv_mod(d, p) % p == int(units_grid_coefficients(p, c, d)[p - 3])
    vanishing = 1 + (p - 1) * holds
    return _outcome(vanishing, f"{p} (columns whose weighted sum vanishes mod {p})",
                    vanishing == p)


def check_inverse_form_det(p: int, which: str) -> Outcome:
    """dets of the inverse-quadratic-form matrices against the character of 2 mod p.

    half_range_sq (p = 3 mod 4) is a residue congruence: det = (2/p) (mod p).
    full_range_ij (p = 2 mod 3) is an identity of Legendre symbols:
    (det/p) = (2/p), as in Sun, Finite Fields Appl. 56 (2019).  The residue
    itself does not equal (2/p) (p = 5 gives 3, not 4); the symbol form holds
    at all 48 such primes 5 <= p < 500.  A det = 0 has symbol 0 and fails.
    Mod p, 1/x = x^(p-2), so the full-range matrix is the units grid at
    (c, d) = (-1, 1), and its det is units_grid_det(p, -1, 1); no matrix is built.
    With X = i^2 the half-range matrix is diag(X^-1)[(1 + Y/X)^(p-2)] over the n = (p-1)/2
    squares, and prod X = (n!)^2 = 1 at p = 3 (mod 4): its det is units_grid_det(p, 1, 0, n).
    """
    if which == "half_range_sq" and p % 4 != 3:
        return _na("needs p = 3 (mod 4)")
    if which == "full_range_ij" and p % 3 != 2:
        return _na("needs p = 2 (mod 3)")
    chi2 = legendre(2, p)
    if which == "half_range_sq":
        v = units_grid_det(p, 1, 0, (p - 1) // 2)
        return _outcome(v, f"{chi2 % p} (mod {p})", v == chi2 % p)
    v = units_grid_det(p, -1, 1)
    s = legendre(v, p)
    return _outcome(f"{v} (mod {p}); ({v}/{p}) = {s}", f"(det/{p}) = (2/{p}) = {chi2}", s == chi2)


# ---------------------------------------------------------------------------
# the ten conjectured congruences; conj5..conj9 yield one (part, Outcome) per part


def _per_part(order: int, cap: int, build: Callable[[], Matrix], expected: int, text: str,
              mod: int | None = None) -> Outcome:
    """The permanent of build(), reduced mod mod if given, against expected.

    This is the size gate of every permanent part: above cap the part is
    inconclusive, and nothing is built and the kernel is not called.
    """
    if order > cap:
        return ("", f"inconclusive: permanent order {order} exceeds the size gate {cap}",
                INCONCLUSIVE)
    v = per_ryser(build())
    if mod is not None:
        v %= mod
    return _outcome(v, text, v == expected)


def _conj1(n: int, c: int, d: int) -> Outcome:
    if n % 2 == 0 or n <= 3:
        return _na("needs odd n > 3")
    j = jacobi(d, n)
    if j != -1:
        return _na(f"needs jacobi(d, n) = -1, got {j}")
    v = det_mod(quad_form_matrix(n, c, d, "full0", n - 2, ModCtx(n * n)))
    return _outcome(v, f"0 (mod {n}^2)", v == 0)


def _conj2(p: int) -> Outcome:
    if p % 4 != 1 or p % 5 not in (2, 3):
        return _na("needs p = 1 (mod 4) and p = +-2 (mod 5)")
    s = legendre(units_grid_det(p, 1, -1), p)
    return _outcome(s, "1", s == 1)


def _conj3(p: int) -> Outcome:
    s = legendre(units_grid_det(p, 2, -1), p)
    return _outcome(s, "-1 exactly when p = 5 (mod 8)", (s == -1) == (p % 8 == 5))


def _conj4(p: int) -> Outcome:
    if p % 5 not in (2, 3):
        return _na("needs p = +-2 (mod 5)")
    s = legendre(units_grid_det(p, 3, 1), p)
    expected = legendre(6, p) if p % 4 == 1 else 0
    return _outcome(s, str(expected), s == expected)


def _conj5(p: int, cap: int) -> Iterator[tuple[str, Outcome]]:
    ctx2 = ModCtx.prime_power(p, 2)
    matrix = cauchy_type_matrix(EntryKind.INV_DIFF, p - 1, "zero", ctx2)
    expected = legendre(-1, p) % ctx2.modulus
    yield "per", _per_part(p - 1, cap, lambda: matrix, expected, f"{expected} (mod {p}^2)")
    v = det_mod(matrix)
    yield "det", _outcome(v, f"1 (mod {p}^2)", v == 1)


def _conj6(p: int, cap: int) -> Iterator[tuple[str, Outcome]]:
    order = p - 1
    expected = (1 - 2 * legendre(-1, p)) % p
    yield "i", _per_part(
        order, cap,
        lambda: cauchy_type_matrix(EntryKind.RATIO_SUM_DIFF, order, "zero", ModCtx.prime(p)),
        expected, f"{expected} (mod {p})",
    )
    if p == 3:
        yield "ii", _na("needs p > 3")
        return
    ctx5 = ModCtx.prime_power(p, 5)
    v = det_mod(cauchy_type_matrix(EntryKind.RATIO_SUM_DIFF, order, "zero", ctx5))
    e = 3 - legendre(-1, p)
    text = f"p-adic valuation exactly {e}, unit part a square mod {p}"
    try:
        val, unit = padic_valuation(v, p, 5)
    except InconclusiveValuation:
        yield "ii", (str(v), text, INCONCLUSIVE)
        return
    yield "ii", _outcome(v, text, val == e and legendre(unit, p) == 1)


def _conj7(p: int, cap: int) -> Iterator[tuple[str, Outcome]]:
    expected = (1 + legendre(-1, p)) % p
    yield "full", _per_part(
        p - 1, cap, lambda: cauchy_type_matrix(EntryKind.INV_DIFF, p - 1, "one", ModCtx.prime(p)),
        expected, f"{expected} (mod {p})",
    )
    if p % 4 != 3:
        yield "half", _na("half-range part needs p = 3 (mod 4)")
        return
    half = (p - 1) // 2
    yield "half", _per_part(
        half, cap,
        lambda: cauchy_type_matrix(EntryKind.INV_DIFF_SQUARES, half, "one", ModCtx.prime(p)),
        1 % p, f"{1 % p} (mod {p})",
    )


def _conj8(p: int, cap: int) -> Iterator[tuple[str, Outcome]]:
    ctx2 = ModCtx.prime_power(p, 2)
    m2 = ctx2.modulus
    matrix = cauchy_type_matrix(EntryKind.RATIO_SUM_DIFF, p, "one", ctx2)
    expected = (1 - legendre(-1, p)) % p
    yield "per", _per_part(p, cap, lambda: matrix, expected, f"{expected} (mod {p})", mod=p)
    v = det_mod(matrix)
    expected = -p * inv_mod(2, m2) % m2
    yield "det", _outcome(v, f"{expected} (mod {p}^2)", v == expected)


def _conj9(p: int, cap: int) -> Iterator[tuple[str, Outcome]]:
    ctx2 = ModCtx.prime_power(p, 2)
    m2 = ctx2.modulus
    matrix = cauchy_type_matrix(EntryKind.RATIO_SUM_DIFF, p - 1, "one", ctx2)
    dfac_sq = double_factorial_mod(p - 2, ctx2) ** 2 % m2
    yield "per", _per_part(p - 1, cap, lambda: matrix, dfac_sq, f"{dfac_sq} (mod {p}^2)")
    v = det_mod(matrix)
    sign = -1 if (p + 1) // 2 % 2 == 1 else 1
    expected = sign * inv_mod(p - 2, m2) * dfac_sq % m2
    yield "det", _outcome(v, f"{expected} (mod {p}^2)", v == expected)


def _conj10(p: int) -> Outcome:
    if p % 4 != 3 or p == 3:
        return _na("needs p = 3 (mod 4) and p > 3")
    order = (p - 1) // 2
    v = det_mod(cauchy_type_matrix(EntryKind.RATIO_SUM_SQUARES, order, "one",
                                   ModCtx.prime_power(p, 3)))
    required = 3 if p % 8 == 7 else 2
    return _outcome(v, f"0 (mod {p}^{required})", v % p**required == 0)


# ---------------------------------------------------------------------------
# the check registry: one entry per check id


Runner = Callable[[dict, int | None], Iterable[tuple[str | None, Outcome]]]
#: the values a sweep walks for one param, from the sweep's bounds and the cell so far
Range = Callable[[SimpleNamespace, dict], Iterable]


@dataclass(frozen=True)
class CheckSpec:
    """One check id: the params of a cell, how to run a cell, and how a sweep walks them.

    params names a cell's params; a cell needs each of them except those in
    optional, and a sweep takes their SWEEP_BOUNDS and walks their
    SWEEP_RANGES in this order.  ranges overrides SWEEP_RANGES for this id;
    the sweep's bounds.cmax and bounds.dmax default to cmax and dmax here.
    limit is the largest p or n a cell takes (MAX_UNITS_P where no matrix is
    built, MAX_CLOSED_P where every units-grid det has a closed form), and cap
    is the default size gate of the permanent parts (None where there are
    none).  run(params, cap) evaluates one cell and yields (part, Outcome)
    pairs, part None for a one-part cell.  Runners call the checkers, which
    look the builders and engines up in this module when they run.
    """

    params: tuple[str, ...]
    run: Runner
    limit: int = MAX_ORDER
    cmax: int | None = None
    dmax: int | None = None
    optional: tuple[str, ...] = ()
    cap: int | None = None
    ranges: dict[str, Range] = field(default_factory=dict)

    @property
    def bounds(self) -> tuple[str, ...]:
        return tuple(b for k in self.params for b in SWEEP_BOUNDS[k])


def _one(checker: Callable[..., Outcome]) -> Runner:
    return lambda params, cap: [(None, checker(**params))]


def _gated(conj: Callable[[int, int], Iterator[tuple[str, Outcome]]]) -> Runner:
    return lambda params, cap: conj(params["p"], cap)


_PCD = ("p", "c", "d")

CHECKS: dict[str, CheckSpec] = {
    "eq15": CheckSpec(_PCD, _one(check_full_grid_det_zero), cmax=6, dmax=6, ranges={
        "c": lambda b, cell: range(min(cell["p"] - 1, b.cmax) + 1),
        "d": lambda b, cell: range(min(cell["p"] - 1, b.dmax) + 1)}),
    "p3": CheckSpec(("c", "d"), _one(check_p3_closed_form), cmax=5, dmax=5, ranges={
        "c": lambda b, cell: range(-b.cmax, b.cmax + 1),
        "d": lambda b, cell: range(-b.dmax, b.dmax + 1)}),
    "reflection": CheckSpec(_PCD, _one(check_reflection), limit=MAX_UNITS_P, cmax=6, dmax=6),
    "dp-theorem": CheckSpec(("p", "variant", "c"), _one(check_vanishing_family),
                            limit=MAX_UNITS_P, cmax=10, optional=("c",), ranges={
        "c": lambda b, cell: range(b.cmax + 1) if cell["variant"] == "c_minus1" else (None,)}),
    "background": CheckSpec(("p", "which"), _one(check_inverse_form_det), limit=MAX_UNITS_P),
    "column-relation": CheckSpec(_PCD, _one(check_column_relation), limit=MAX_UNITS_P,
                                 cmax=6, dmax=6),
    "conj1": CheckSpec(("n", "c", "d"), _one(_conj1), cmax=3, dmax=6),
    "conj2": CheckSpec(("p",), _one(_conj2), limit=MAX_CLOSED_P),
    "conj3": CheckSpec(("p",), _one(_conj3), limit=MAX_UNITS_P),
    "conj4": CheckSpec(("p",), _one(_conj4), limit=MAX_CLOSED_P),
    "conj5": CheckSpec(("p",), _gated(_conj5), cap=PER_ORDER_CAPS[5]),
    "conj6": CheckSpec(("p",), _gated(_conj6), cap=PER_ORDER_CAPS[6]),
    "conj7": CheckSpec(("p",), _gated(_conj7), cap=PER_ORDER_CAPS[7]),
    "conj8": CheckSpec(("p",), _gated(_conj8), cap=PER_ORDER_CAPS[8]),
    "conj9": CheckSpec(("p",), _gated(_conj9), cap=PER_ORDER_CAPS[9]),
    "conj10": CheckSpec(("p",), _one(_conj10)),
}

#: the sweep bounds each cell param brings; a sweep takes no other
SWEEP_BOUNDS = {"p": ("pmin", "pmax"), "n": ("nmin", "nmax"), "c": ("cmax",), "d": ("dmax",),
                "variant": ("variant",), "which": ("which",)}

#: the Range of each cell param; CheckSpec.ranges overrides one for its id
SWEEP_RANGES: dict[str, Range] = {
    "p": lambda b, cell: odd_primes_in(b.pmin, b.pmax),
    "n": lambda b, cell: range(b.nmin | 1, b.nmax + 1, 2),  # conj1 is stated for odd n
    "c": lambda b, cell: range(b.cmax + 1),
    "d": lambda b, cell: range(b.dmax + 1),
    "variant": lambda b, cell: VANISHING_VARIANTS if b.variant is None else (b.variant,),
    "which": lambda b, cell: INVERSE_FORM_WHICH if b.which is None else (b.which,),
}


def _walk(ranges: list[tuple[str, Range]], b: SimpleNamespace, cell: dict) -> Iterator[dict]:
    """The cells that extend cell over ranges, in order; a None value is left out of a cell."""
    if not ranges:
        yield cell
        return
    (name, values), rest = ranges[0], ranges[1:]
    for v in values(b, cell):
        yield from _walk(rest, b, cell if v is None else {**cell, name: v})


def _admit(check_id: str, given: dict, per_order_cap: int | None, sweep: bool) -> CheckSpec:
    """The spec of check_id, once given names only what the id takes.

    given holds a cell's params, or with sweep its SWEEP_BOUNDS; None is not
    given.  An unknown id, a name the id does not take, a per_order_cap on an
    id with no permanent part, a negative per_order_cap, a value outside
    CHOICES, and a sweep's cmax with a variant that takes no c raise
    ValueError.
    """
    spec = CHECKS.get(check_id)
    if spec is None:
        raise ValueError(f"unknown check id {check_id!r}")
    taken = spec.bounds if sweep else spec.params
    extra = [k for k, v in given.items() if v is not None and k not in taken]
    if sweep and extra:
        raise ValueError(f"{check_id} sweep takes no --" + ", --".join(extra))
    if per_order_cap is not None and spec.cap is None:
        extra.append("per-order-cap")
    if extra:
        raise ValueError(f"{check_id} takes no --" + ", --".join(extra))
    if per_order_cap is not None and per_order_cap < 0:
        raise ValueError(f"per-order-cap must be >= 0, got {per_order_cap}")
    for name, values in CHOICES.items():
        if given.get(name) not in (None, *values):
            raise ValueError(f"{name} must be one of {values}, got {given[name]!r}")
    if sweep and given.get("cmax") is not None and given.get("variant") not in (None, "c_minus1"):
        raise ValueError(f"variant {given['variant']} takes no c")
    return spec


def run_check(check_id: str, params: dict, per_order_cap: int | None = None) -> list[CheckReport]:
    """Evaluate one check cell: one report per part, in the order the parts run.

    This is the one place reports are made.  Before any work, besides what
    _admit refuses, a missing param, n < 1 and a p or n above the id's limit raise
    ValueError naming the flag.  A report's params are the cell's params that
    are given, plus "part" for a multi-part cell; elapsed_ms is the time spent
    producing that part's outcome, including any matrix built for it (a matrix
    shared by two parts counts in the first).
    """
    spec = _admit(check_id, params, per_order_cap, sweep=False)
    cell = {k: params[k] for k in spec.params if params.get(k) is not None}
    missing = [k for k in spec.params if k not in cell and k not in spec.optional]
    if missing:
        raise ValueError(f"{check_id} needs --" + ", --".join(missing))
    for name in ("p", "n"):
        if cell.get(name, 0) > spec.limit:
            raise ValueError(f"{check_id} takes --{name} up to {spec.limit}, got {cell[name]}")
    if cell.get("n", 1) < 1:
        raise ValueError(f"n must be >= 1, got {cell['n']}")
    if "p" in cell:  # every statement in p is about an odd prime p
        _require_odd_prime(cell["p"])
    cap = spec.cap if per_order_cap is None else per_order_cap  # a cap of 0 is a cap
    reports = []
    t0 = time.perf_counter()
    for part, (computed, expected, verdict) in spec.run(cell, cap):
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        record = cell if part is None else {**cell, "part": part}
        reports.append(CheckReport(check_id, record, computed, expected, verdict, elapsed_ms))
        t0 = time.perf_counter()
    return reports


def sweep_cells(check_id: str, *, per_order_cap: int | None = None,
                **bounds: int | str | None) -> list[dict]:
    """Deterministic parameter grid for a sweep over one check id: its ranges, walked.

    Each cell is the params dict that run_check takes.  The bounds are checked
    here, before the grid, even an empty one (bounds that hold no prime).
    pmin, nmin, cmax and dmax default to 3, 5 and the id's.  Besides what
    _admit refuses, a missing pmax or nmax, one above the id's limit or below
    its lower bound, nmin < 1, a negative cmax or dmax, and a grid of more
    than MAX_CELLS cells raise ValueError; the grid is never built in full.
    """
    spec = _admit(check_id, bounds, per_order_cap, sweep=True)
    defaults = {"pmin": 3, "nmin": 5, "cmax": spec.cmax, "dmax": spec.dmax}
    b = {k: defaults.get(k) if bounds.get(k) is None else bounds[k] for k in spec.bounds}
    for low, high in (SWEEP_BOUNDS[k] for k in ("p", "n") if k in spec.params):
        lo, hi = b[low], b[high]
        if hi is None:
            raise ValueError(f"{check_id} sweep needs {high}")
        if lo > hi:
            raise ValueError(f"{low} {lo} is above {high} {hi}")
        if hi > spec.limit:
            raise ValueError(f"{check_id} sweep takes --{high} up to {spec.limit}, got {hi}")
    for name, least in (("nmin", 1), ("cmax", 0), ("dmax", 0)):
        if b.get(name, least) < least:
            raise ValueError(f"{name} must be >= {least}, got {b[name]}")
    ranges = [(k, spec.ranges.get(k, SWEEP_RANGES[k])) for k in spec.params]
    cells = list(itertools.islice(_walk(ranges, SimpleNamespace(**b), {}), MAX_CELLS + 1))
    if len(cells) > MAX_CELLS:
        raise ValueError(f"{check_id} sweep has more than {MAX_CELLS} cells; narrow its bounds")
    return cells


def run_sweep(check_id: str, *, jobs: int = 1, per_order_cap: int | None = None,
              **bounds: int | str | None) -> list[CheckReport]:
    """run_check over the sweep_cells grid of check_id and bounds, in grid order.

    The grid's refusals come first, then a jobs below 1.  jobs is an upper
    bound: no more workers start than there are CPUs or cells, and
    parallelism never changes the report sequence.
    """
    cells = sweep_cells(check_id, per_order_cap=per_order_cap, **bounds)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    # built per call, so that each cell runs whatever verify.run_check is now
    runner = functools.partial(run_check, check_id, per_order_cap=per_order_cap)
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
