"""Hook-removal recursions that only the tests read.

`sn_char` is the per-entry recursion for the characters of S_n, the
reference for `symchar.character_table`;
`path_sign_set` collects the sign of every full d-hook removal path, which
the tests compare with the engine's single-path `partitions.epsilon`;
`l_set_iterate` lists what i d-hook removals reach, the targets a
Murnaghan-Nakayama step may land on.
"""

from __future__ import annotations

from functools import cache

from glblocks.partitions import rim_hooks


@cache
def sn_char(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Irreducible character of S_n labeled lam at cycle type rho."""
    if sum(lam) != sum(rho):
        raise ValueError("partition and cycle type have different sizes")
    if not lam:
        return 1
    return sum((-1) ** hk.leg_length * sn_char(hk.result, rho[1:])
               for hk in rim_hooks(lam, rho[0]))


@cache
def path_sign_set(lam: tuple[int, ...], d: int) -> frozenset[int]:
    """All values of (-1)**L achieved over full removal paths (tests want {eps})."""
    hooks = rim_hooks(lam, d)
    if not hooks:
        return frozenset({1})
    out = set()
    for hk in hooks:
        s = (-1) ** hk.leg_length
        out.update(s * t for t in path_sign_set(hk.result, d))
    return frozenset(out)


@cache
def l_set_iterate(lam: tuple[int, ...], d: int, i: int) -> frozenset[tuple[int, ...]]:
    """Partitions reachable from lam by removing i d-hooks."""
    if i < 0:
        raise ValueError(f"hook count must be at least 0, got {i}")
    if i == 0:
        return frozenset({lam})
    out = set()
    for hk in rim_hooks(lam, d):
        out.update(l_set_iterate(hk.result, d, i - 1))
    return frozenset(out)
