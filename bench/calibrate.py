"""A fixed pure-Python workload that measures how fast the host runs Python now.

Usage: python3 bench/calibrate.py

It does the kind of work glblocks does (partition enumeration, memoised
recursion on tuple keys, exact Fraction sums over a few MB of dicts) but uses
nothing from glblocks, so no change to glblocks can change its time.  run.py
runs it before and after every op process and divides the op's time by the
mean of the two, which cancels most of the host's changes of speed.  It prints
the CLOCK_MONOTONIC time at which its start-up (interpreter and imports)
ended, and exits with 1 if one of its answers is wrong.
"""

import sys
import time
from fractions import Fraction
from functools import cache

TABLE_N = 12    # character table of S_12: 77 x 77 values
WEIGHTS_N = 36  # one weight per partition of 36: 17977 of them
ROUNDS_N = 30   # partitions of 30, enumerated afresh each round
ROUNDS = 3


@cache
def partitions(n, largest):
    """The partitions of n with parts at most `largest`, largest part first."""
    if n == 0:
        return ((),)
    return tuple((part,) + rest
                 for part in range(min(n, largest), 0, -1)
                 for rest in partitions(n - part, part))


def fresh_partitions(n, largest):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in fresh_partitions(n - part, part):
            yield (part,) + rest


def z_order(p):
    """Order of the centraliser in S_n of a permutation of cycle type p."""
    z = 1
    counts = {}
    for part in p:
        counts[part] = counts.get(part, 0) + 1
        z *= part * counts[part]
    return z


def rim_hooks(lam, k):
    """(lam minus a k-rim hook, leg length of the hook), over the k-rim hooks of lam."""
    beta = [part + len(lam) - 1 - i for i, part in enumerate(lam)]
    taken = set(beta)
    for b in beta:
        if b >= k and b - k not in taken:
            leg = sum(1 for c in beta if b - k < c < b)
            smaller = sorted((c if c != b else b - k for c in beta), reverse=True)
            nu = tuple(c - (len(smaller) - 1 - i) for i, c in enumerate(smaller))
            yield tuple(part for part in nu if part), leg


@cache
def chi(lam, mu):
    """Irreducible character lam of S_n at cycle type mu (Murnaghan-Nakayama)."""
    if not mu:
        return 1
    return sum((-1) ** leg * chi(nu, mu[1:]) for nu, leg in rim_hooks(lam, mu[0]))


def main():
    print(time.monotonic(), flush=True)   # the end of start-up, for run.py
    # column orthogonality: sum over lam of chi(lam, mu)^2 / z_mu is 1
    shapes = partitions(TABLE_N, TABLE_N)
    table = {(lam, mu): chi(lam, mu) for lam in shapes for mu in shapes}
    for mu in shapes:
        if sum(Fraction(table[lam, mu] ** 2, z_order(mu)) for lam in shapes) != 1:
            return 1
    # the class sizes of S_n sum to n!, so these weights sum to 1
    weights = {p: Fraction(1, z_order(p)) for p in partitions(WEIGHTS_N, WEIGHTS_N)}
    if sum(weights.values()) != 1:
        return 1
    for _ in range(ROUNDS):
        seen = {}
        total = Fraction(0)
        for p in fresh_partitions(ROUNDS_N, ROUNDS_N):
            seen[p] = len(seen)
            total += Fraction(1, z_order(p))
        if total != 1 or len(seen) != 5604:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
