"""Exact arithmetic in Z[zeta_e] by division by the cyclotomic polynomial,
which only the tests read.

The oracle tests its values in Z/M under one ring map zeta_e -> w
(`bftable._embedding`); this module is the route that map replaced and
the reference it is checked against.  A value is a length-e vector of
root-of-unity multiplicities, a_j the coefficient of zeta^j: `cyc_reduce`
divides it by Phi_e, `cyc_as_int` reads the rational integer it is, and
`pairing` is sum_i |C_i| a_i conj(b_i) over the nonzero (exponent,
multiplicity) pairs of each value.  The dense `cyc_*` sums are the
reference for the sparse ones.
"""

from __future__ import annotations

from functools import cache


def int_poly_divmod(num, den):
    """(quotient, remainder) of integer polynomials, den monic; each step
    visits only the nonzero coefficients of den below its leading one, and
    the leading coefficient each step leaves in place is the quotient's."""
    num = list(num)
    dd = len(den) - 1
    terms = [(i, c) for i, c in enumerate(den[:-1]) if c]
    for top in range(len(num) - 1, dd - 1, -1):
        lead = num[top]
        if lead:
            for i, c in terms:
                num[top - dd + i] -= lead * c
    return num[dd:], num[:dd]


@cache
def cyclotomic_poly(e: int) -> tuple[int, ...]:
    num = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            num, rem = int_poly_divmod(num, cyclotomic_poly(d))
            if any(rem):
                raise ArithmeticError(f"cyclotomic polynomial {d} does not divide x^{e} - 1")
    return tuple(num)


def cyc_reduce(a):
    """Canonical remainder mod the e-th cyclotomic polynomial, e = len(a)."""
    e = len(a)
    return tuple(int_poly_divmod(a, cyclotomic_poly(e))[1] + [0] * e)[:e]


def cyc_as_int(a):
    """The rational integer a represents, or None."""
    red = cyc_reduce(a)
    if any(red[1:]):
        return None
    return red[0]


def sparse(row):
    """Each value of a row as its nonzero (exponent, multiplicity) pairs."""
    return [[(j, m) for j, m in enumerate(value) if m] for value in row]


def pairing(e, sizes, a, b):
    """sum_i |C_i| a_i conj(b_i) in Z[zeta_e] as a rational integer, or None;
    a_i and b_i are sparse values, conj(zeta^j) = zeta^-j."""
    acc = [0] * e
    for size, va, vb in zip(sizes, a, b):
        for ja, ma in va:
            for jb, mb in vb:
                acc[(ja - jb) % e] += size * ma * mb
    return cyc_as_int(acc)


def cyc_mul(a, b, e):
    """Product in Z[zeta_e] of two vectors of root-of-unity multiplicities."""
    out = [0] * e
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % e] += x * y
    return tuple(out)


def cyc_conj(a):
    e = len(a)
    return tuple(a[(-j) % e] for j in range(e))


def cyc_scale(c, a):
    return tuple(c * x for x in a)


def cyc_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def embed(value, modulus, root):
    """The image in Z/modulus of a vector of multiplicities under zeta -> root."""
    acc = 0
    for m in reversed(value):
        acc = (acc * root + m) % modulus
    return acc
