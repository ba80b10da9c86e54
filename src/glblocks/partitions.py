"""Partition combinatorics that the engine and the oracle read: the
partitions of n, conjugates, beta-sets, rim hooks and d-cores.

Partitions are tuples of positive integers sorted weakly decreasing; the
empty tuple is the empty partition of 0.

Convention used for the d-quotient and the abacus: the beta-set of a
partition has length equal to the smallest multiple of d that is at
least the number of parts.  Extending a beta-set by a further multiple of
d shifts every bead up one spot on its own runner and inserts one bead at
the bottom of each runner, so the residue-labeled quotient components do
not depend on the choice among valid lengths.  Runner r always means
"beta numbers congruent to r mod d"; quotient component r comes from
runner r.  This may be a cyclic relabeling of conventions that put the
abacus origin elsewhere.  d-quotients, d-weights, removal paths and the
abacus itself are in `abacus`, which only `partition` and `verify` load.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import NamedTuple


@cache
def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, in reverse lexicographic order."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    out = []

    def rec(rest, maxpart, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, prefix + [p])

    rec(n, n, [])
    return tuple(out)


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def n_stat(lam: tuple[int, ...]) -> int:
    """n(lam) = sum (i-1)*lam_i, the partition's second elementary statistic."""
    return sum(i * p for i, p in enumerate(lam))


def beta_set(lam: tuple[int, ...], length: int) -> tuple[int, ...]:
    """First-column hook lengths of lam padded to `length` rows, ascending."""
    if length < len(lam):
        raise ValueError("beta-set length smaller than number of parts")
    padded = list(lam) + [0] * (length - len(lam))
    return tuple(sorted(padded[i] + length - 1 - i for i in range(length)))


def partition_from_beta(beta) -> tuple[int, ...]:
    bs = sorted(beta, reverse=True)
    length = len(bs)
    parts = [bs[i] - (length - 1 - i) for i in range(length)]
    return tuple(p for p in parts if p > 0)


class HookRemoval(NamedTuple):
    hook_length: int
    leg_length: int
    result: tuple[int, ...]


@cache
def rim_hooks(lam: tuple[int, ...], h: int) -> tuple[HookRemoval, ...]:
    """Every rim hook of length h in lam, ordered by start row of the hook.

    Read off the beta-set of lam as a descending list, in one pass: a hook
    of length h is a bead b with b-h >= 0 not a bead, its leg length is the
    number of beads strictly between b-h and b, and the hook's removal
    moves b to b-h, splicing b-h in after those beads.  Returned in
    decreasing b, which is increasing start row of the removed strip.
    """
    if h < 1:
        raise ValueError(f"hook length must be at least 1, got {h}")
    top = len(lam) - 1
    beta = [p + top - i for i, p in enumerate(lam)]
    out = []
    for i, b in enumerate(beta):
        if b < h:
            break
        k = i + 1
        while k <= top and beta[k] > b - h:
            k += 1
        if k > top or beta[k] < b - h:
            new = beta[:i] + beta[i + 1:k] + [b - h] + beta[k:]
            out.append(HookRemoval(h, k - i - 1,
                                   tuple(x - top + j for j, x in enumerate(new) if x > top - j)))
    return tuple(out)


@cache
def d_core(lam: tuple[int, ...], d: int) -> tuple[int, ...]:
    """The partition left after removing all d-hooks, in any order, from any beta-set."""
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    counts = Counter(b % d for b in beta_set(lam, len(lam)))
    return partition_from_beta([d * j + r for r, count in counts.items() for j in range(count)])
