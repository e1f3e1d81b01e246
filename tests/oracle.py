"""Brute-force permutation sums: the independent route every engine is checked against.

This module deliberately reimplements the term formulas and uses its own
permutation enumeration (lexicographic with incremental parity, vs a table in
itertools order signed by inversion count in the naive engines) so that
agreement between the two routes actually means something.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from congruence_lab.matgen import EntryKind, Matrix, cauchy_type_matrix
from congruence_lab.modnum import ModCtx, inv_mod

ORACLE_LIMIT = 9

DOMAIN_ALL = "all"
DOMAIN_DERANGEMENTS = "derangements"
PRODUCT_ALL = "all"
PRODUCT_SKIP_FIXED = "skip-fixed"


@dataclass(frozen=True)
class OracleSpec:
    """One permutation sum: order, sign convention, domain, product rule, term, modulus."""

    n: int
    signed: bool
    domain: str
    product_rule: str
    term: EntryKind
    ctx: ModCtx

    def __post_init__(self):
        if not 1 <= self.n <= ORACLE_LIMIT:
            raise ValueError(f"oracle order must be in 1..{ORACLE_LIMIT}, got {self.n}")
        if self.domain not in (DOMAIN_ALL, DOMAIN_DERANGEMENTS):
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.product_rule not in (PRODUCT_ALL, PRODUCT_SKIP_FIXED):
            raise ValueError(f"unknown product rule {self.product_rule!r}")
        if not isinstance(self.term, EntryKind):
            raise ValueError(f"term must be a Cauchy-style entry kind, got {self.term}")


def signed_permutations(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """All of S_n on values 1..n in lexicographic order, with signs.

    The sign is maintained incrementally: the classic next-permutation step is
    one transposition plus a suffix reversal of length L, i.e. 1 + L//2 swaps.
    """
    perm = list(range(1, n + 1))
    sign = 1
    while True:
        yield tuple(perm), sign
        i = n - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        swaps = 1
        lo, hi = i + 1, n - 1
        while lo < hi:
            perm[lo], perm[hi] = perm[hi], perm[lo]
            swaps += 1
            lo, hi = lo + 1, hi - 1
        if swaps & 1:
            sign = -sign


def _term_value(kind: EntryKind, j: int, k: int, ctx: ModCtx, cache: dict[int, int]) -> int:
    """Term at (j, tau(j) = k), computed from the formula, not from any matrix."""
    if kind is EntryKind.INV_DIFF:
        num, den = 1, j - k
    elif kind is EntryKind.RATIO_SUM_DIFF:
        num, den = j + k, j - k
    elif kind is EntryKind.INV_DIFF_SQUARES:
        num, den = 1, j * j - k * k
    else:  # RATIO_SUM_SQUARES
        num, den = j * j + k * k, j * j - k * k
    m = ctx.modulus
    r = den % m
    if r not in cache:
        try:
            cache[r] = inv_mod(r, m)
        except ArithmeticError:
            raise ValueError(f"denominator {den} at (j={j}, k={k}) is not a unit "
                             f"mod {m} (gcd = {math.gcd(r, m)})") from None
    return num * cache[r] % m


def permutation_sum(spec: OracleSpec) -> int:
    """Evaluate the permutation sum described by spec, by direct enumeration."""
    m = spec.ctx.modulus
    cache: dict[int, int] = {}
    derangements_only = spec.domain == DOMAIN_DERANGEMENTS
    skip_fixed = spec.product_rule == PRODUCT_SKIP_FIXED
    total = 0
    for tau, sign in signed_permutations(spec.n):
        prod = 1
        fixed_point_hit = False
        for j in range(1, spec.n + 1):
            k = tau[j - 1]
            if k == j:
                fixed_point_hit = True
                if derangements_only:
                    break
                if skip_fixed:
                    continue
            prod = prod * _term_value(spec.term, j, k, spec.ctx, cache) % m
        if derangements_only and fixed_point_hit:
            continue
        total = (total + (sign * prod if spec.signed else prod)) % m
    return total


def matrix_permutation_sum(
    matrix: Matrix, signed: bool, domain: str = DOMAIN_ALL, product_rule: str = PRODUCT_ALL
) -> int:
    """Permutation sum over an explicit matrix (same domain/product options).

    This is the reference meaning of det/per and of the zero/unit-diagonal
    reductions, kept separate from every production engine.
    """
    n = matrix.n
    if n > ORACLE_LIMIT:
        raise ValueError(f"oracle order must be <= {ORACLE_LIMIT}, got {n}")
    m = None if matrix.ctx is None else matrix.ctx.modulus
    rows = matrix.entries.tolist()
    derangements_only = domain == DOMAIN_DERANGEMENTS
    skip_fixed = product_rule == PRODUCT_SKIP_FIXED
    total = 0
    for tau, sign in signed_permutations(n):
        if derangements_only and any(tau[j] == j + 1 for j in range(n)):
            continue
        prod = 1
        for j in range(n):
            if skip_fixed and tau[j] == j + 1:
                continue
            prod *= rows[j][tau[j] - 1]
        if m is not None:
            prod %= m
        total += sign * prod if signed else prod
    return total % m if m is not None else total


def reduction_check(spec: OracleSpec) -> bool:
    """Does the matrix-engine value match the brute-force sum for this spec?

    Derangement sums pair with zero-diagonal matrices, skip-fixed sums over
    all of S_n with unit-diagonal ones; signed sums go through det_mod and
    unsigned ones through the permanent kernel.
    """
    from congruence_lab.detper import det_mod, per_ryser

    diagonal = "zero" if spec.domain == DOMAIN_DERANGEMENTS else "one"
    matrix = cauchy_type_matrix(spec.term, spec.n, diagonal, spec.ctx)
    engine_value = det_mod(matrix) if spec.signed else per_ryser(matrix)
    return engine_value == permutation_sum(spec)
