"""The partition combinatorics that only `partition` and `verify` run:
d-quotients, d-weights, removal paths, the abacus and its runners, and the
`partition` command.

Conventions are those of `partitions`: a beta-set of the smallest length
that is a multiple of d, runner r holding the beta numbers congruent to r
mod d, and quotient component r read off runner r.  The engine reads only
`partitions`; this module is compiled by the commands that use it.
"""

from __future__ import annotations

import json
from functools import cache
from typing import NamedTuple

from .errors import ScaleGuardError, UsageError
from .partitions import HookRemoval, beta_set, d_core, partition_from_beta, rim_hooks


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


class RemovalPath(NamedTuple):
    steps: tuple[HookRemoval, ...]
    total_leg: int


def _runners(beta, d: int) -> list[list[int]]:
    """Runner r's bead positions (b - r) // d of the beads b = r mod d, bucketed
    in one pass over the beads, so ascending when `beta` is."""
    runners: list[list[int]] = [[] for _ in range(d)]
    for b in beta:
        runners[b % d].append(b // d)
    return runners


def _quotient_length(lam: tuple[int, ...], d: int) -> int:
    return d * (-(-len(lam) // d))


@cache
def d_quotient(lam: tuple[int, ...], d: int) -> tuple[tuple[int, ...], ...]:
    """d-tuple of partitions read off the runners of the canonical abacus."""
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    return tuple(map(partition_from_beta, _runners(beta_set(lam, _quotient_length(lam, d)), d)))


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
        self.runners = tuple(map(tuple, _runners(beta, d)))

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


@cache
def runners_used(lam: tuple[int, ...], d: int) -> frozenset[int]:
    """Indices of runners carrying a nonempty quotient component."""
    return frozenset(r for r, c in enumerate(d_quotient(lam, d)) if c)


@cache
def is_simple(lam: tuple[int, ...], d: int) -> bool:
    """True iff lam has no hook of length m*d for any m >= 2.

    Equivalent to every quotient component being empty or (1): hooks of
    length k*d in lam biject with k-hooks in the quotient.
    """
    return all(c in ((), (1,)) for c in d_quotient(lam, d))


def disjoint(lam: tuple[int, ...], mu: tuple[int, ...], d: int) -> bool:
    """True iff the quotient supports of lam and mu use distinct runners."""
    return not (runners_used(lam, d) & runners_used(mu, d))


# -- the partition command -----------------------------------------------------

def _parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"cannot parse partition {text!r}: "
                         f"expected a JSON list, error at position {exc.pos}") from None
    if not isinstance(data, list):
        raise UsageError(f"partition literal must be a JSON array: {text!r}")
    try:
        return check_partition(data)
    except ValueError as exc:
        # the parts as typed, on one line: the parsed tuple shows true as True, 1e400 as inf
        reason = str(exc).split(": ", 1)[0]
        raise UsageError(f"{reason}: {' '.join(text.split())}") from None


def cmd_partition(args):
    lam = _parse_partition(args.lam)
    d = args.d
    if args.verb == "core":
        core = d_core(lam, d)
        return 0, lambda: {"core": list(core)}, lambda: str(list(core))
    if args.verb == "quotient":
        quo = d_quotient(lam, d)
        return (0, lambda: {"quotient": [list(c) for c in quo]},
                lambda: "(" + ", ".join(str(list(c)) for c in quo) + ")")
    if args.verb == "weight":
        w = d_weight(lam, d)
        return 0, lambda: {"weight": w}, lambda: str(w)
    if args.verb == "abacus":
        ab = AbacusState(lam, d)
        return (0, lambda: {"runners": [list(r) for r in ab.runners],
                            "origin_offset": ab.origin_offset,
                            "edge_sequence": ab.edge_sequence()},
                lambda: f"{ab.render()}\n\n{ab.edge_sequence()}")
    gamma = d_core(lam, d)
    paths = removal_paths(lam, d)

    def payload():
        return {"core": list(gamma), "count": len(paths),
                "paths": [{"total_leg": p.total_leg,
                           "steps": [list(s.result) for s in p.steps]} for p in paths]}

    def lines():
        yield f"core {list(gamma)}  paths {len(paths)}"
        for p in paths:
            chain = " -> ".join(str(list(mu)) for mu in (lam, *(s.result for s in p.steps)))
            yield f"\n  legs {p.total_leg}: {chain}"
    return 0, payload, lines
