"""Exact modular arithmetic and the scalar number theory shared by every module.

A ModCtx is a checked odd modulus, and inv_mod inverts a residue modulo
any modulus; scalar residues are canonical ints in [0, modulus).  (How a
Matrix stores its residues is up to matgen.)  Moduli are always odd here: the
matrix families under study never need an even modulus, and rejecting them
early keeps inverse-of-2 tricks valid everywhere.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass


class InconclusiveValuation(ArithmeticError):
    """x is 0 mod p^cap, so the p-adic valuation cannot be resolved at this cap."""


def inv_mod(a: int, m: int) -> int:
    """Inverse of a mod m (works for any modulus, not just primes).

    A non-unit raises ArithmeticError: "a is not a unit mod m (gcd = g)".
    """
    a %= m
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ArithmeticError(f"{a} is not a unit mod {m} (gcd = {math.gcd(a, m)})") from None


#: the prime bases of the Miller-Rabin test below
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: these bases prove primality below this bound (Sorenson and Webster, Math.
#: Comp. 86 (2017): the least strong pseudoprime to all of them)
MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin with fixed prime bases, exact for n < MR_EXACT_BELOW.

    A composite answer is certain at any size.  A larger n that passes every
    base raises ValueError, since its primality is not proven.
    """
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    if n < MR_BASES[-1] ** 2:
        return True
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in MR_BASES:
        x = pow(a, t, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_EXACT_BELOW:
        raise ValueError(f"{n} is a probable prime that the bases do not prove prime")
    return True


def primes_up_to(n: int) -> list[int]:
    """Sieve of Eratosthenes, inclusive upper bound."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return list(itertools.compress(range(n + 1), sieve))


def odd_primes_in(lo: int, hi: int) -> Iterator[int]:
    """Odd primes p with lo <= p <= hi, in order (2 is excluded: even moduli are out of scope).

    Sieved lazily, 2^16 numbers at a time, each segment by the primes up to its square root.
    """
    base, segment = primes_up_to(math.isqrt(max(hi, 0))), 1 << 16
    for start in range(max(lo, 3), hi + 1, segment):
        end = min(start + segment, hi + 1)
        window = bytearray([1]) * (end - start)
        for q in base[:bisect.bisect(base, math.isqrt(end - 1))]:
            first = max(q * q, -(-start // q) * q)
            window[first - start :: q] = bytearray(len(range(first, end, q)))
        yield from itertools.compress(range(start, end), window)


@dataclass(frozen=True)
class ModCtx:
    """An odd modulus m >= 3; residues mod it are reduced with %.

    ModCtx(m) takes any odd m >= 3 and asks nothing else of it: det_mod and
    the other engines work alike for every such modulus.  The prime and
    prime_power constructors also check the primality their callers rely on.
    Whether a modulus is prime is asked only where it matters, by is_prime
    (det_field and the det CLI's engine choice).
    """

    modulus: int

    def __post_init__(self):
        m = self.modulus
        if m < 3 or m % 2 == 0:
            raise ValueError(f"modulus must be an odd integer >= 3, got {m}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def prime(cls, p: int) -> "ModCtx":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return cls(p)

    @classmethod
    def prime_power(cls, p: int, k: int) -> "ModCtx":
        """p**k for an odd prime p and any k >= 1."""
        if p == 2 or not is_prime(p):
            raise ValueError(f"prime-power modulus needs an odd prime base, got {p}")
        if k < 1:
            raise ValueError(f"prime-power exponent must be >= 1, got {k}")
        return cls(p**k)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p: 0 when p | a, else +-1."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"legendre symbol needs an odd prime, got {p}")
    return jacobi(a, p)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, by quadratic reciprocity (no factoring)."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"jacobi symbol needs a positive odd n, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def double_factorial_mod(n: int, ctx: ModCtx) -> int:
    """n!! mod ctx.modulus, with 0!! = (-1)!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial needs n >= -1, got {n}")
    m = ctx.modulus
    result = 1
    k = n
    while k > 1:
        result = result * k % m
        k -= 2
    return result % m


def padic_valuation(x: int, p: int, cap: int) -> tuple[int, int]:
    """Largest v < cap with p^v | x, for x known modulo p^cap.

    Returns (v, unit mod p) where unit = x / p^v.  Raises InconclusiveValuation,
    an ArithmeticError, when x = 0 mod p^cap -- the cap saturated, and
    pretending to know the valuation would be a silent wraparound.  A bad p or
    cap raises ValueError.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"needs an odd prime, got {p}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    r = x % (p**cap)
    if r == 0:
        raise InconclusiveValuation(
            f"value is divisible by {p}^{cap}; valuation >= {cap} cannot be resolved")
    v = 0
    while r % p == 0:
        r //= p
        v += 1
    return v, r % p
