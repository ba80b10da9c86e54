"""Irreducible counts and exact order formulas for GL(n,q).

The engine needs only how many monic irreducibles of each degree there
are (the necklace count, less X and X-1 at degree 1), never the
polynomials themselves: those are enumerated by the element-level oracle
in `bruteforce`, which checks its lists against the necklace count.
"""

from __future__ import annotations

from functools import cache
from math import prod

from .partitions import n_stat


@cache
def prime_factors(m: int) -> tuple[int, ...]:
    """The distinct primes dividing m, ascending, by trial division; () for m < 2."""
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return tuple(out + [m] if m > 1 else out)


# Miller-Rabin with the first 13 prime bases decides primality exactly below
# this bound (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, for 1 < m < PRIME_TEST_BOUND."""
    for a in _MR_BASES:
        if m % a == 0:
            return m == a
    odd, s = m - 1, 0
    while odd % 2 == 0:
        odd, s = odd // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, odd, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _integer_root(m: int, e: int) -> int:
    """floor(m ** (1/e)) for m >= 1, by Newton's method in integers."""
    x = 1 << -(-m.bit_length() // e)  # at least the root
    while True:
        y = ((e - 1) * x + m // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


@cache
def prime_power(q: int) -> tuple[int, int]:
    """Factor q = p**e with p prime, or raise: ValueError when q is no prime
    power, OverflowError when q is not below PRIME_TEST_BOUND.

    q = p**e is a perfect k-th power for each k dividing e, with a prime
    root only at k = e, so each exponent from the largest possible down is
    tried once: an integer k-th root, then a primality test of the root.
    """
    if q >= PRIME_TEST_BOUND:
        raise OverflowError(f"{q} is not below {PRIME_TEST_BOUND}, the bound of the exact"
                            " prime test")
    for e in range(q.bit_length() - 1, 0, -1) if q > 1 else ():
        p = _integer_root(q, e)
        if p ** e == q and _is_prime(p):
            return p, e
    raise ValueError(f"{q} is not a prime power")


def necklace_count(q: int, d: int) -> int:
    """Number of monic irreducible polynomials of degree d over F_q: the
    Moebius sum over the divisors e of d, of which only the squarefree ones,
    the products of distinct primes of d, have a nonzero mu(e)."""
    terms = [(1, 1)]  # (e, mu(e))
    for p in prime_factors(d):
        terms += [(e * p, -mu) for e, mu in terms]
    return sum(mu * q ** (d // e) for e, mu in terms) // d


@cache  # F of a context, which `blocks` json reads three times, costs q**d to form
def non_unipotent_count(q: int, d: int) -> int:
    """Number of monic irreducibles of degree d over F_q other than X and X-1."""
    prime_power(q)
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    return necklace_count(q, d) - 2 * (d == 1)


# -- order formulas -----------------------------------------------------------

@cache
def gl_order(n: int, q: int) -> int:
    """|GL(n,q)| = prod_{i<n} (q^n - q^i); 1 for n = 0."""
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    return prod(q ** n - q ** i for i in range(n))


def torus_order(alpha: tuple[int, ...], q: int) -> int:
    """Order prod_i (q^i - 1)^(r_i) of the torus of type alpha."""
    if not alpha:
        raise ValueError("torus type must be a non-empty partition")
    return prod(q ** part - 1 for part in alpha)


@cache
def unipotent_centralizer_order(nu: tuple[int, ...], t: int) -> int:
    """Centralizer order in GL(|nu|, t) of a unipotent element of type nu.

    a_nu(t) = t^(|nu| + 2 n(nu)) * prod_i prod_{j<=m_i} (1 - t^-j), with
    m_i the multiplicity of i in nu; exact integer.
    """
    if not nu:
        return 1
    js = [j for part in set(nu) for j in range(1, nu.count(part) + 1)]
    num = t ** (sum(nu) + 2 * n_stat(nu)) * prod(t ** j - 1 for j in js)
    val, rem = divmod(num, t ** sum(js))
    if rem:
        raise ArithmeticError(f"centralizer order of {nu} at t = {t} is not an integer")
    return val
