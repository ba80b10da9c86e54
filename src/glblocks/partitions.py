"""Partition combinatorics: hooks, beta-sets, abacus, d-cores and d-quotients.

Partitions are tuples of positive integers sorted weakly decreasing; the
empty tuple is the empty partition of 0.

Convention used throughout: the beta-set of a partition for d-structure
computations has length equal to the smallest multiple of d that is at
least the number of parts.  Extending a beta-set by a further multiple of
d shifts every bead up one spot on its own runner and inserts one bead at
the bottom of each runner, so the residue-labeled quotient components do
not depend on the choice among valid lengths.  Runner r always means
"beta numbers congruent to r mod d"; quotient component r comes from
runner r.  This may be a cyclic relabeling of conventions that put the
abacus origin elsewhere.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import NamedTuple

from .errors import ScaleGuardError


def check_partition(parts) -> tuple[int, ...]:
    """Validate and canonicalize a partition given as any iterable of ints."""
    lam = tuple(parts)
    if any(type(p) is not int for p in lam):
        raise ValueError(f"partition parts must be integers: {lam}")
    if any(p <= 0 for p in lam):
        raise ValueError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


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


class RemovalPath(NamedTuple):
    steps: tuple[HookRemoval, ...]
    total_leg: int


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


def _quotient_length(lam: tuple[int, ...], d: int) -> int:
    return d * (-(-len(lam) // d))


@cache
def d_quotient(lam: tuple[int, ...], d: int) -> tuple[tuple[int, ...], ...]:
    """d-tuple of partitions read off the runners of the canonical abacus."""
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    length = _quotient_length(lam, d)
    beta = beta_set(lam, length)
    comps = []
    for r in range(d):
        positions = tuple((b - r) // d for b in beta if b % d == r)
        comps.append(partition_from_beta(positions))
    return tuple(comps)


@cache
def d_core(lam: tuple[int, ...], d: int) -> tuple[int, ...]:
    """The partition left after removing all d-hooks; order independent."""
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    counts = Counter(b % d for b in beta_set(lam, _quotient_length(lam, d)))
    return partition_from_beta([d * j + r for r in range(d) for j in range(counts[r])])


@cache
def d_weight(lam: tuple[int, ...], d: int) -> int:
    core = d_core(lam, d)
    w, rem = divmod(sum(lam) - sum(core), d)
    if rem:
        raise ArithmeticError(f"{lam} and its {d}-core {core} differ by {rem} mod {d}")
    return w


# removal paths listed at most: `partition paths` took 4.0 s and 234 MB for
# the 96,525 paths of (5,5,3,2) at d = 1 as JSON, and 13.7 s and 694 MB for
# the 292,864 of (5,4,3,2,1)
PATH_GUARD = 100_000


def removal_paths(lam, d: int) -> tuple[RemovalPath, ...]:
    """All maximal d-hook removal sequences from lam down to its d-core,
    counted first and refused over PATH_GUARD."""
    count = removal_path_count(tuple(lam), d)
    if count > PATH_GUARD:
        raise ScaleGuardError(f"{count} removal paths of {list(lam)} at d = {d}"
                              f" exceed guard {PATH_GUARD}")
    gamma = d_core(lam, d)
    out = []

    def rec(cur, steps, legs):
        hooks = rim_hooks(cur, d)
        if not hooks:
            if cur != gamma:
                raise AssertionError(f"hook removal from {lam} ended at {cur}, not {gamma}")
            out.append(RemovalPath(tuple(steps), legs))
            return
        for hk in hooks:
            rec(hk.result, steps + [hk], legs + hk.leg_length)

    rec(lam, [], 0)
    return tuple(out)


@cache
def removal_path_count(lam: tuple[int, ...], d: int) -> int:
    """|P| over all maximal d-hook removal sequences, without enumerating."""
    hooks = rim_hooks(lam, d)
    if not hooks:
        return 1
    return sum(removal_path_count(hk.result, d) for hk in hooks)


# -- abacus -----------------------------------------------------------------

class AbacusState:
    """The beads of lam's beta-set on d runners; origin_offset is the beta-set length."""
    __slots__ = ("d", "runners", "origin_offset")

    def __init__(self, lam, d: int):
        length = max(d, _quotient_length(lam, d))
        beta = beta_set(lam, length)
        self.d, self.origin_offset = d, length
        self.runners = tuple(tuple((b - r) // d for b in beta if b % d == r) for r in range(d))

    def edge_sequence(self) -> str:
        """The 0/1 rim encoding read off the abacus, origin marked with '>'.

        1 is a bead (vertical rim step), 0 a gap (horizontal step); the
        marker sits before position 0.  Two extra all-1 spots below and
        two all-0 spots above the interesting window are shown.
        """
        beads = {self.d * pos + r for r, runner in enumerate(self.runners) for pos in runner}
        return "11>" + "".join("1" if i in beads else "0" for i in range(max(beads) + 3))

    def render(self) -> str:
        """Runner-per-column text art, origin row at the bottom."""
        height = max((max(r) for r in self.runners if r), default=0) + 2
        lines = []
        for row in range(height - 1, -1, -1):
            cells = ["O" if row in self.runners[r] else "." for r in range(self.d)]
            marker = "> " if row == 0 else "  "
            lines.append(marker + " ".join(cells))
        return "\n".join(lines)
