"""Symmetric group characters via the hook-removal recursion, and signed removal maps.

Cycle types are partitions (tuples).  The recursion peels the largest
cycle first; order does not affect values and the tests exercise that.
Partition labels are grouped into blocks here too: by linking pairs, or
by their d-cores.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from types import MappingProxyType

from .partitions import (
    d_core,
    partitions_of,
    rim_hooks,
)


@cache
def z_order(alpha: tuple[int, ...]) -> int:
    """Centralizer order of a permutation of cycle type alpha."""
    out = 1
    for part in set(alpha):
        r = alpha.count(part)
        out *= part ** r * factorial(r)
    return out


@cache
def sn_char(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Irreducible character of S_n labeled lam at cycle type rho."""
    if sum(lam) != sum(rho):
        raise ValueError("partition and cycle type have different sizes")
    if not lam:
        return 1
    t = rho[0]
    rest = rho[1:]
    return sum((-1) ** hk.leg_length * sn_char(hk.result, rest)
               for hk in rim_hooks(lam, t))


@cache
def signed_removal_map(mu: tuple[int, ...], alpha: tuple[int, ...], d: int):
    """Map eta -> sum over interleavings of signs, removing hooks of
    lengths d*a for the parts a of alpha (largest first).

    This is the signed coefficient eps * phi(alpha) in the expansion of a
    character of S_{|mu|} at an element whose cycles split into the scaled
    type of alpha times a complementary permutation.
    """
    state = {mu: 1}
    for a in sorted(alpha, reverse=True):
        nxt: dict[tuple[int, ...], int] = {}
        for part, coef in state.items():
            for hk in rim_hooks(part, a * d):
                nxt[hk.result] = nxt.get(hk.result, 0) + coef * (-1) ** hk.leg_length
        state = nxt
    return MappingProxyType({eta: c for eta, c in state.items() if c != 0})


def _canonical_blocks(groups) -> tuple[frozenset[tuple[int, ...]], ...]:
    """Groups of partition labels as frozensets, in the one canonical order."""
    return tuple(sorted((frozenset(g) for g in groups),
                        key=lambda b: sorted(b, reverse=True)))


def linked_components(labels, links) -> tuple[frozenset[tuple[int, ...]], ...]:
    """Connected components of `labels` under the pairs in `links`."""
    parent = {lam: lam for lam in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        parent[find(a)] = find(b)
    groups: dict[tuple[int, ...], set] = {}
    for lam in labels:
        groups.setdefault(find(lam), set()).add(lam)
    return _canonical_blocks(groups.values())


def same_core_grouping(n: int, ell: int) -> tuple[frozenset[tuple[int, ...]], ...]:
    """Partitions of n grouped by their ell-core."""
    groups: dict[tuple[int, ...], set] = {}
    for lam in partitions_of(n):
        groups.setdefault(d_core(lam, ell), set()).add(lam)
    return _canonical_blocks(groups.values())
