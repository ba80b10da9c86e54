"""Finite-field bookkeeping and exact order formulas for GL(n,q).

Polynomials over F_q are tuples of field-element encodings, lowest degree
first, with the leading coefficient present (monic throughout).  Field
elements are integers 0..q-1 whose base-p digits are the coefficients in
the fixed generator basis of F_q over F_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import ScaleGuardError
from .partitions import n_stat

ENUM_GUARD = 10 ** 6


def prime_power(q: int) -> tuple[int, int]:
    """Factor q = p**e with p prime, or raise."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
    raise ValueError(f"{q} is not a prime power")


@dataclass(frozen=True)
class PrimePower:
    p: int
    e: int

    @property
    def q(self) -> int:
        return self.p ** self.e

    @staticmethod
    def of(q: int) -> "PrimePower":
        p, e = prime_power(q)
        return PrimePower(p, e)


@cache
def moebius(n: int) -> int:
    if n == 1:
        return 1
    out, m = 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


def necklace_count(q: int, d: int) -> int:
    """Number of monic irreducible polynomials of degree d over F_q."""
    return sum(moebius(e) * q ** (d // e) for e in divisors(d)) // d


def count_irreducibles(q: int, d: int, exclusions=frozenset({"X"})) -> int:
    """Necklace count minus the excluded degree-1 polynomials.

    `exclusions` is a subset of {"X", "X-1"}; it only bites at d = 1.
    """
    prime_power(q)
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    bad = set(exclusions) - {"X", "X-1"}
    if bad:
        raise ValueError(f"unknown exclusions {bad}")
    n = necklace_count(q, d)
    if d == 1:
        n -= len(set(exclusions))
    return n


# -- small finite fields -----------------------------------------------------

class SmallField:
    """F_q arithmetic with precomputed tables; elements are ints 0..q-1."""

    def __init__(self, q: int):
        p, e = prime_power(q)
        self.q, self.p, self.e = q, p, e
        if e == 1:
            self.add = [[(a + b) % p for b in range(p)] for a in range(p)]
            self.mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            modulus = self._find_modulus(p, e)
            self.modulus = modulus
            self.add = [[self._vec_to_int([(x + y) % p for x, y in
                                           zip(self._int_to_vec(a), self._int_to_vec(b))])
                         for b in range(q)] for a in range(q)]
            self.mul = [[self._poly_mul_mod(a, b) for b in range(q)] for a in range(q)]
        self.neg = [self.add[a].index(0) for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = self.mul[a].index(1)
        self.minus_one = self.neg[1]

    def _int_to_vec(self, a: int) -> list[int]:
        p, e = self.p, self.e
        return [(a // p ** i) % p for i in range(e)]

    def _vec_to_int(self, v) -> int:
        return sum(c * self.p ** i for i, c in enumerate(v))

    def _find_modulus(self, p: int, e: int) -> list[int]:
        # smallest monic irreducible of degree e over F_p in the canonical order
        for enc in range(p ** e):
            low = [(enc // p ** i) % p for i in range(e)]
            if self._is_irreducible_prime_field(low + [1], p):
                return low + [1]
        raise AssertionError("no modulus found")

    @staticmethod
    def _is_irreducible_prime_field(coeffs, p: int) -> bool:
        """No monic polynomial of degree 1 .. deg/2 over F_p divides coeffs."""
        deg = len(coeffs) - 1
        for k in range(1, deg // 2 + 1):
            for enc in range(p ** k):
                div = [(enc // p ** i) % p for i in range(k)] + [1]
                if _poly_divides_prime_field(div, coeffs, p):
                    return False
        return True

    def _poly_mul_mod(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        va, vb = self._int_to_vec(a), self._int_to_vec(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(va):
            for j, y in enumerate(vb):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * e - 2, e - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for i, m in enumerate(self.modulus[:-1]):
                    prod[top - self.e + i] = (prod[top - self.e + i] - c * m) % p
        return self._vec_to_int(prod[:e])


def _poly_divides_prime_field(div, poly, p: int) -> bool:
    rem = list(poly)
    dd = len(div) - 1
    while len(rem) - 1 >= dd:
        lead = rem[-1] % p
        if lead:
            for i in range(dd + 1):
                rem[len(rem) - 1 - dd + i] = (rem[len(rem) - 1 - dd + i] - lead * div[i]) % p
        rem.pop()
    return all(c % p == 0 for c in rem)


@cache
def field(q: int) -> SmallField:
    return SmallField(q)


# -- monic irreducibles over F_q ---------------------------------------------

@dataclass(frozen=True)
class PolyLabel:
    """A monic irreducible over F_q, identified by (q, degree, index)."""
    q: int
    degree: int
    index: int
    coeffs: tuple[int, ...] | None = None


def _product_codes(fq: SmallField, f: tuple[int, ...], m: int) -> list[int]:
    """Codes of f*g for every monic g of degree m, g in code order.

    A monic polynomial of degree d has the code sum_{t<d} c_t q^t of its
    lower coefficients.  The product is formed one coefficient at a time,
    as a list over all g at once."""
    q = fq.q
    size = q ** m
    g_coeffs = [[(enc // q ** t) % q for enc in range(size)] for t in range(m)]
    g_coeffs.append([1] * size)
    add, mul = fq.add, fq.mul
    codes = [0] * size
    for pos in range(len(f) - 1 + m):
        coeff = [0] * size
        for i, a in enumerate(f):
            if a and 0 <= pos - i <= m:
                times_a = mul[a]
                coeff = [add[x][times_a[y]] for x, y in zip(coeff, g_coeffs[pos - i])]
        weight = q ** pos
        codes = [c + x * weight for c, x in zip(codes, coeff)]
    return codes


@cache
def enumerate_irreducibles(q: int, d: int) -> tuple[PolyLabel, ...]:
    """Monic irreducibles of degree d over F_q except X, canonical order.

    Order is lexicographic on the coefficient vector read from the top
    coefficient down to the constant term, field elements ordered by
    their integer encoding.  X-1 is included (at d = 1) and carries its
    position in this order like any other polynomial.

    A sieve: a reducible monic of degree d is f*g with f monic irreducible
    (X included) of degree k <= d/2 and g monic of degree d - k, so every
    such product is marked and the unmarked codes are kept in code order,
    which is the canonical order.
    """
    if q ** d > ENUM_GUARD:
        raise ScaleGuardError(f"q^d = {q ** d} exceeds enumeration guard {ENUM_GUARD}")
    fq = field(q)
    reducible = bytearray(q ** d)
    for k in range(1, d // 2 + 1):
        factors = [lab.coeffs for lab in enumerate_irreducibles(q, k)]
        if k == 1:
            factors.append((0, 1))  # X itself divides reducibles too
        for f in factors:
            for code in _product_codes(fq, f, d - k):
                reducible[code] = 1
    out = []
    for enc in range(q ** d):
        if reducible[enc] or (d == 1 and enc == 0):
            continue  # at d = 1 the code 0 is X, excluded from the universe
        out.append(tuple((enc // q ** t) % q for t in range(d)) + (1,))
    labels = tuple(PolyLabel(q, d, i, c) for i, c in enumerate(out))
    if len(labels) != count_irreducibles(q, d, frozenset({"X"})):
        raise AssertionError(f"found {len(labels)} irreducibles of degree {d} over F_{q},"
                             " not the necklace count")
    return labels


def x_minus_one(q: int) -> tuple[int, ...]:
    return (field(q).minus_one, 1)


def non_unipotent_irreducibles(q: int, d: int) -> tuple[PolyLabel, ...]:
    """Canonical pool of irreducibles of degree d excluding X and X-1.

    These are the polynomials class labels index into; at d = 1 the index
    skips X-1, which the labels track separately.
    """
    labs = enumerate_irreducibles(q, d)
    if d == 1:
        target = x_minus_one(q)
        labs = tuple(l for l in labs if l.coeffs != target)
        labs = tuple(PolyLabel(q, 1, i, l.coeffs) for i, l in enumerate(labs))
    return labs


def non_unipotent_count(q: int, d: int) -> int:
    if d == 1:
        return count_irreducibles(q, 1, frozenset({"X", "X-1"}))
    return count_irreducibles(q, d, frozenset({"X"}))


# -- order formulas -----------------------------------------------------------

@cache
def gl_order(n: int, q: int) -> int:
    """|GL(n,q)| = prod_{i<n} (q^n - q^i); 1 for n = 0."""
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def torus_order(alpha: tuple[int, ...], d: int, q: int) -> int:
    """Order prod_i (q^(d*i) - 1)^(r_i) of the torus of scaled type alpha."""
    if not alpha:
        raise ValueError("torus type must be a non-empty partition")
    out = 1
    for part in alpha:
        out *= q ** (d * part) - 1
    return out


@cache
def unipotent_centralizer_order(nu: tuple[int, ...], t: int) -> int:
    """Centralizer order in GL(|nu|, t) of a unipotent element of type nu.

    a_nu(t) = t^(|nu| + 2 n(nu)) * prod_i prod_{j<=m_i} (1 - t^-j), with
    m_i the multiplicity of i in nu; exact integer.
    """
    if not nu:
        return 1
    size = sum(nu)
    exponent = size + 2 * n_stat(nu)
    num, den = 1, 1
    for part in set(nu):
        m = nu.count(part)
        for j in range(1, m + 1):
            num *= t ** j - 1
            den *= t ** j
    val, rem = divmod(t ** exponent * num, den)
    if rem:
        raise ArithmeticError(f"centralizer order of {nu} at t = {t} is not an integer")
    return val
