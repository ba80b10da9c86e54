"""The character table of S_n, signed removal maps, and blocks of partition labels.

Cycle types are partitions (tuples), and tables are integer columns in the
order of `partitions_of`.  The column of a cycle type is one
Murnaghan-Nakayama step, its largest cycle, from the column of the rest;
the order of the cycles does not affect the values, and the tests check
the table against the per-entry recursion.  Partition labels are grouped
into blocks here too: by linking pairs, or by their d-cores.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from functools import cache
from math import factorial, prod
from types import MappingProxyType

from .partitions import d_core, partitions_of, rim_hooks


@cache
def z_order(alpha: tuple[int, ...]) -> int:
    """Centralizer order of a permutation of cycle type alpha."""
    return prod(part ** r * factorial(r) for part, r in Counter(alpha).items())


@cache
def partition_index(n: int) -> Mapping[tuple[int, ...], int]:
    """{lam: position of lam in partitions_of(n)}, read-only."""
    return MappingProxyType({lam: i for i, lam in enumerate(partitions_of(n))})


@cache
def _column(rho: tuple[int, ...]) -> tuple[int, ...]:
    """(chi^lam(rho))_lam over partitions_of(|rho|): each lam sums the leg
    signs of its rim hooks of length rho[0] times the column of rho[1:] at
    what the hooks leave."""
    if not rho:
        return (1,)
    tail, at = _column(rho[1:]), partition_index(sum(rho[1:]))
    return tuple(sum([(-1) ** hk.leg_length * tail[at[hk.result]] for hk in rim_hooks(lam, rho[0])])
                 for lam in partitions_of(sum(rho)))


@cache
def character_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The character table of S_n by columns: entry [j][i] is chi^lam(rho)
    for rho the j-th and lam the i-th partition of n.  Smaller tables are
    never built whole, only the columns of the tails."""
    return tuple(_column(rho) for rho in partitions_of(n))


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
