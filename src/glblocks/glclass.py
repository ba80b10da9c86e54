"""Conjugacy class types and keys of GL(n,q), their d-regularity and d-types,
and the (n, q, d, variant) `Context` of a computation.

A class is a finitely supported assignment of partitions to monic
irreducibles distinct from X, with sizes weighted by degree summing to n.
Its type (`ClassType`) keeps the X-1 partition (`unipotent`) and the
sorted (degree, partition) pairs of the other primary components, and
forgets which polynomials carry them.  The type fixes the unipotent
values, the centralizer order and the d-tests (Green 1955; Macdonald IV.2),
so the engine works on types alone: `class_types` enumerates them with
the number of classes of each type, and every order, size and d-test here
takes a type.  A type has no q and no index, and is not validated.

A class is named by its assignment key: the X-1 partition ("u:..."), then
each other polynomial as (degree, index) into the canonical pool that
excludes X and X-1 ("f<degree>.<index>:..."), so keys never need actual
coefficients; `classlist` lists every class's keys.  The part of a class
supported on polynomials of degree divisible by d (variant "divisible") or
exactly d (variant "exact") is its d-part, which determines its section
(`verify.section_split` reads it off each type).  The element-level oracle
names each class by the same key, read off the primary spaces of a matrix
(`bruteforce.element_key`); the validated label type behind a key is a test
reference (`tests/labelref.py`).
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import factorial, perm, prod
from types import MappingProxyType
from typing import NamedTuple

from .partitions import partitions_of
from .qarith import gl_order, non_unipotent_count, prime_power, unipotent_centralizer_order

VARIANTS = ("divisible", "exact")


class Context(NamedTuple):
    """One (n, q, d, variant) computation context."""
    n: int
    q: int
    d: int
    variant: str

    @property
    def f_number(self) -> int:
        """Count of monic irreducibles of degree exactly d (without X, X-1)."""
        return non_unipotent_count(self.q, self.d)

    @property
    def f_hypothesis_holds(self) -> bool:
        """The standing hypothesis F >= n/d; contexts below it still compute."""
        return self.f_number * self.d >= self.n


class ClassType(NamedTuple):
    """A class type of GL(n, q) for every q: the X-1 partition and the sorted
    (degree, partition) pairs of the other primary components."""
    n: int
    unipotent: tuple[int, ...]
    components: tuple[tuple[int, tuple[int, ...]], ...]


def _multisets(pool, budget: int, counts, last=(0, 0)):
    """Sorted tuples of pairs of `pool` of weighted size <= `budget` and at most counts[e]
    pairs of degree e; `last` is the degree of the pair before and the room left in it."""
    yield ()
    for i, (e, part) in enumerate(pool):
        room = last[1] if e == last[0] else counts[e]
        if room and e * sum(part) <= budget:
            for rest in _multisets(pool[i:], budget - e * sum(part), counts, (e, room - 1)):
                yield ((e, part),) + rest


@cache
def class_types(n: int, q: int) -> MappingProxyType[ClassType, int]:
    """{type: number of classes of GL(n,q) of that type}: per degree e, the
    N_e!/(N_e-k)! placements of its k partitions on the N_e irreducibles over their orders."""
    prime_power(q)
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    counts = {e: non_unipotent_count(q, e) for e in range(1, n + 1)}
    pool = sorted((e, p) for e in counts for s in range(1, n // e + 1) for p in partitions_of(s))
    out = {}
    for pairs in _multisets(pool, n, counts):
        ways = prod(perm(counts[e], k) for e, k in Counter(e for e, _ in pairs).items())
        ways //= prod(map(factorial, Counter(pairs).values()))
        for u in partitions_of(n - sum(e * sum(p) for e, p in pairs)):
            out[ClassType(n, u, pairs)] = ways
    return MappingProxyType(out)


def centralizer_order(t: ClassType, q: int) -> int:
    """Product over the primary components of unipotent-type centralizer factors."""
    out = unipotent_centralizer_order(t.unipotent, q)
    for degree, part in t.components:
        out *= unipotent_centralizer_order(part, q ** degree)
    return out


def class_size(t: ClassType, q: int) -> int:
    order = gl_order(t.n, q)
    cent = centralizer_order(t, q)
    size, rem = divmod(order, cent)
    if rem:
        raise ArithmeticError(f"centralizer order {cent} does not divide {order}")
    return size


# -- d-structure --------------------------------------------------------------

def _degree_matches(degree: int, d: int, variant: str) -> bool:
    if variant == "divisible":
        return degree % d == 0
    if variant == "exact":
        return degree == d
    raise ValueError(f"unknown variant {variant!r}")


def is_d_regular(t: ClassType, d: int, variant: str) -> bool:
    """No component of matching degree besides X-1."""
    return not any(_degree_matches(degree, d, variant) for degree, _ in t.components)


def d_type(t: ClassType, d: int, variant: str):
    """Multiset of (k_i, m_i) pairs of the d-part, with weight sum k_i*m_i."""
    pairs = []
    for degree, part in t.components:
        if _degree_matches(degree, d, variant):
            m, rem = divmod(degree, d)
            if rem:
                raise ArithmeticError(f"d-part degree {degree} is not a multiple of {d}")
            pairs.append((sum(part), m))
    return tuple(sorted(pairs))
