"""Modular arithmetic layer: contexts, inverses, symbols, valuations."""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_lab import modnum
from congruence_lab.modnum import (
    InconclusiveValuation,
    ModCtx,
    double_factorial_mod,
    inv_mod,
    is_prime,
    jacobi,
    legendre,
    odd_primes_in,
    padic_valuation,
    primes_up_to,
)

from conftest import harmonic2_mod

# ---------------------------------------------------------------------------
# context construction


def test_ctx_rejects_even_moduli():
    for m in (2, 4, 6, 100):
        with pytest.raises(ValueError):
            ModCtx(m)


def test_ctx_rejects_tiny():
    with pytest.raises(ValueError):
        ModCtx(1)
    with pytest.raises(ValueError):
        ModCtx(-7)


@pytest.mark.parametrize(
    "m,kind,base,exponent",
    [
        (3, "prime", None, None),
        (97, "prime", None, None),
        (9, "prime-power", 3, 2),
        (25, "prime-power", 5, 2),
        (343, "prime-power", 7, 3),
        (3**5, "prime-power", 3, 5),
        (15, "odd-composite", None, None),
        (45, "odd-composite", None, None),
        (3**6, "odd-composite", None, None),  # the old label beyond p^5
        (2**61 - 1, "prime", None, None),
        ((2**31 - 1) * (2**31 + 11), "odd-composite", None, None),
        ((2**31 - 1) ** 2, "prime-power", 2**31 - 1, 2),
    ],
)
def test_ctx_classification(m, kind, base, exponent):
    # ModCtx carries only its modulus; what kind of modulus it is comes from
    # is_prime and the prime / prime_power constructors
    ctx = ModCtx(m)
    assert ctx.modulus == m
    assert is_prime(m) == (kind == "prime")
    if kind == "prime":
        assert ModCtx.prime(m) == ctx
    else:
        with pytest.raises(ValueError):
            ModCtx.prime(m)
    if kind == "prime-power":
        assert ModCtx.prime_power(base, exponent) == ctx


def test_prime_power_constructor():
    assert ModCtx.prime_power(3, 6).modulus == 729  # no exponent cap
    assert ModCtx.prime_power(7, 1) == ModCtx.prime(7)
    with pytest.raises(ValueError):
        ModCtx.prime_power(9, 2)
    with pytest.raises(ValueError):
        ModCtx.prime_power(3, 0)


def test_prime_constructor_validates():
    with pytest.raises(ValueError):
        ModCtx.prime(9)
    with pytest.raises(ValueError):
        ModCtx.prime(2)


# ---------------------------------------------------------------------------
# inverses


def test_inv_identity_any_modulus():
    for m in (3, 9, 15, 49, 10007):
        assert inv_mod(1, m) == 1


def test_inv_3_mod_7():
    assert inv_mod(3, 7) == 5


def test_inv_3_mod_25():
    assert inv_mod(3, 25) == 17
    assert 3 * 17 % 25 == 1


def test_inv_nonunit_reports_gcd():
    with pytest.raises(ArithmeticError, match=r"^5 is not a unit mod 25 \(gcd = 5\)$"):
        inv_mod(5, 25)
    with pytest.raises(ArithmeticError, match=r"^6 is not a unit mod 15 \(gcd = 3\)$"):
        inv_mod(6, 15)
    with pytest.raises(ArithmeticError, match=r"^0 is not a unit mod 7 \(gcd = 7\)$"):
        inv_mod(0, 7)


@given(st.sampled_from([3, 7, 9, 15, 25, 27, 105, 343]), st.integers(-300, 300))
def test_inv_times_value_is_one(m, a):
    if math.gcd(a, m) == 1:
        assert inv_mod(a, m) * a % m == 1
    else:
        with pytest.raises(ArithmeticError,
                           match=rf"^{a % m} is not a unit mod {m} \(gcd = {math.gcd(a, m)}\)$"):
            inv_mod(a, m)


def test_ctx_ring_ops_are_canonical():
    ctx = ModCtx(9)
    assert 0 <= -123 % ctx.modulus < 9


def test_fermat_inverse_matches_gcd_inverse():
    for x in range(1, 13):
        assert pow(x, 11, 13) == inv_mod(x, 13)


# ---------------------------------------------------------------------------
# primes


def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []


def test_odd_primes_in_excludes_two():
    assert list(odd_primes_in(2, 12)) == [3, 5, 7, 11]
    assert list(odd_primes_in(14, 16)) == []


@given(st.integers(-10, 10**5), st.integers(0, 3000))
@settings(max_examples=200, deadline=None)
def test_odd_primes_in_window_matches_full_sieve(lo, width):
    hi = min(lo + width, 10**5)
    assert list(odd_primes_in(lo, hi)) == [p for p in primes_up_to(hi) if p >= max(lo, 3)]


def test_odd_primes_in_is_one_sieve_across_its_segments():
    # a window wider than 2^16 numbers is sieved in segments joined at lo + k * 2^16
    for lo in (-5, 3, 2**16, 10**6 - 1):
        hi = lo + 3 * 2**16 + 1
        assert list(odd_primes_in(lo, hi)) == [p for p in primes_up_to(hi) if p >= max(lo, 3)]


def test_odd_primes_in_sieves_a_segment_only_when_it_is_reached():
    # [3, 10**12] in one piece would be a terabyte; the first primes cost one segment
    t0 = time.perf_counter()
    primes = odd_primes_in(3, 10**12)
    assert [next(primes) for _ in range(6)] == [3, 5, 7, 11, 13, 17]
    assert time.perf_counter() - t0 < 1


def test_odd_primes_in_sieves_only_the_window():
    t0 = time.perf_counter()
    primes = list(odd_primes_in(10**7 - 100, 10**7))
    elapsed = time.perf_counter() - t0
    assert primes == [p for p in range(10**7 - 100, 10**7 + 1) if is_prime(p)]
    assert len(primes) == 9
    assert elapsed < 0.05


@given(st.integers(2, 2000))
def test_is_prime_matches_sieve(n):
    assert is_prime(n) == (n in set(primes_up_to(2000)))


def test_is_prime_matches_sieve_below_30000():
    assert [n for n in range(30000) if is_prime(n)] == primes_up_to(30000)


@pytest.mark.parametrize("n", [
    561, 1105, 1729, 2047, 3277, 4033, 8911,  # Carmichael numbers, base-2 pseudoprimes
    3215031751, 2152302898747, 341550071728321, 3825123056546413051,
    318665857834031151167461,  # strong pseudoprime to every base up to 37
    (2**31 - 1) * (2**31 + 11), (2**61 - 1) * (2**89 - 1),
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_refuses_unproven_probable_primes():
    assert is_prime(2**61 - 1) and is_prime(2**31 + 11)
    for n in (2**89 - 1, modnum.MR_EXACT_BELOW):  # a prime and a pseudoprime to all bases
        with pytest.raises(ValueError, match="not prove"):
            is_prime(n)
    with pytest.raises(ValueError):
        ModCtx.prime(2**89 - 1)


# ---------------------------------------------------------------------------
# Legendre and Jacobi symbols


def test_legendre_squares():
    for p in (3, 7, 11, 97):
        for k in range(1, 20):
            if k % p:
                assert legendre(k * k, p) == 1


def test_legendre_supplements():
    assert legendre(-1, 7) == -1
    assert legendre(2, 7) == 1
    assert legendre(0, 7) == 0


def test_legendre_rejects_non_prime():
    with pytest.raises(ValueError):
        legendre(2, 15)
    with pytest.raises(ValueError):
        legendre(2, 2)


@given(st.integers(-200, 200), st.sampled_from([3, 5, 7, 13, 29, 97]))
def test_legendre_is_multiplicative(a, p):
    b = a + 3
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_legendre_counts_residues():
    # exactly (p-1)/2 nonzero squares
    for p in (5, 13, 31):
        assert sum(1 for a in range(1, p) if legendre(a, p) == 1) == (p - 1) // 2


def test_jacobi_unit_denominator():
    assert jacobi(5, 1) == 1
    assert jacobi(0, 1) == 1


def test_jacobi_2_15():
    assert jacobi(2, 15) == 1  # (2/3)(2/5) = (-1)(-1)


def test_jacobi_rejects_even():
    with pytest.raises(ValueError):
        jacobi(3, 10)


@given(st.integers(-500, 500), st.integers(1, 112))
def test_jacobi_matches_factoring_oracle(a, half):
    """Jacobi via reciprocity equals the product of Legendre symbols."""
    n = 2 * half + 1
    expected = 1
    m, q = n, 3
    while m > 1:
        while m % q == 0:
            expected *= legendre(a, q) if is_prime(q) else 1
            m //= q
        q += 2 if q > 2 else 1
        if q * q > m and m > 1:
            expected *= legendre(a, m)
            break
    assert jacobi(a, n) == expected


def test_jacobi_on_primes_is_legendre():
    for p in (3, 7, 11, 101):
        for a in range(-10, 30):
            assert jacobi(a, p) == legendre(a, p)


# ---------------------------------------------------------------------------
# double factorial, harmonic sums, valuations


def test_double_factorial_conventions():
    ctx = ModCtx(25)
    assert double_factorial_mod(0, ctx) == 1
    assert double_factorial_mod(-1, ctx) == 1
    assert double_factorial_mod(3, ctx) == 3
    assert double_factorial_mod(5, ModCtx(49)) == 15
    with pytest.raises(ValueError):
        double_factorial_mod(-2, ctx)


def test_double_factorial_matches_exact():
    ctx = ModCtx(10007)
    for n in range(1, 30):
        exact = math.prod(range(n, 0, -2))
        assert double_factorial_mod(n, ctx) == exact % 10007


def test_harmonic2_small():
    assert harmonic2_mod(3) == 2
    assert harmonic2_mod(5) == 0
    assert harmonic2_mod(7) == 0


def test_harmonic2_vanishes_for_all_larger_primes():
    for p in odd_primes_in(5, 500):
        assert harmonic2_mod(p) == 0


def test_padic_valuation_basic():
    assert padic_valuation(50, 5, 5) == (2, 2)
    assert padic_valuation(7, 5, 5) == (0, 2)
    v, u = padic_valuation(3**2 * 11, 3, 5)
    assert (v, u) == (2, 11 % 3)


def test_padic_valuation_saturates():
    with pytest.raises(InconclusiveValuation,
                       match=r"^value is divisible by 3\^5; valuation >= 5 cannot be resolved$"):
        padic_valuation(3**5, 3, 5)
    with pytest.raises(InconclusiveValuation,
                       match=r"^value is divisible by 7\^4; valuation >= 4 cannot be resolved$"):
        padic_valuation(0, 7, 4)


@pytest.mark.parametrize("p,cap,message", [
    (9, 5, "needs an odd prime, got 9"),
    (2, 5, "needs an odd prime, got 2"),
    (7, 0, "cap must be >= 1, got 0"),
])
def test_padic_valuation_refuses_a_non_odd_prime_and_an_empty_cap(p, cap, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        padic_valuation(49, p, cap)


def test_padic_valuation_respects_cap_window():
    # x is only known mod p^cap, so x = p^2 * u is reported through that window
    assert padic_valuation(5**2 * 6, 5, 5) == (2, 1)


def test_legendre_matches_euler_criterion():
    # legendre is the Jacobi symbol at an odd prime; Euler's criterion is the independent route
    for p in odd_primes_in(3, 199):
        for a in range(p):
            euler = pow(a, (p - 1) // 2, p)
            assert legendre(a, p) == (-1 if euler == p - 1 else euler), (a, p)
