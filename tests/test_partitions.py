import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from glblocks import abacus as A
from glblocks import chains as CH
from glblocks import partitions as P
from glblocks import verify as V
from glblocks.abacus import AbacusState
from glblocks.errors import InfeasibleError
from glblocks.partitions import rim_hooks
from hookref import l_set_iterate, path_sign_set

SRC = Path(__file__).resolve().parent.parent / "src"


class ConventionMismatchError(ValueError):
    """Two abacus states built under different origin conventions were compared."""


def l_set_single(lam: tuple[int, ...], d: int, i: int) -> frozenset[tuple[int, ...]]:
    """Partitions reachable from lam by removing one hook of length i*d."""
    if i < 0:
        raise ValueError(f"hook multiple must be at least 0, got {i}")
    if i == 0:
        return frozenset({lam})
    return frozenset(hk.result for hk in rim_hooks(lam, i * d))


def compare_supports(a: AbacusState, b: AbacusState) -> bool:
    """Disjointness of two abacus states; demands one shared convention."""
    if a.d != b.d:
        raise ConventionMismatchError("different runner counts")
    if a.origin_offset % a.d != 0 or b.origin_offset % b.d != 0:
        raise ConventionMismatchError("origin offsets are not multiples of d")
    sup_a = {r for r, c in enumerate(abacus_quotient(a)) if c}
    sup_b = {r for r, c in enumerate(abacus_quotient(b)) if c}
    return not (sup_a & sup_b)


def abacus_quotient(ab) -> tuple[tuple[int, ...], ...]:
    """The partition on each runner of an abacus."""
    return tuple(P.partition_from_beta(runner) for runner in ab.runners)


def abacus_partition(ab) -> tuple[int, ...]:
    """The partition whose beta-set the beads of an abacus are."""
    return P.partition_from_beta(ab.d * pos + r for r, runner in enumerate(ab.runners)
                                 for pos in runner)


def runners_by_scan(beta, d: int):
    """Reference: each runner's bead positions, found by a scan of the whole beta-set."""
    return [[(b - r) // d for b in beta if b % d == r] for r in range(d)]


def abacus_of_length(lam, d: int, length: int):
    """An abacus of lam read off a beta-set of any length that d divides."""
    return SimpleNamespace(d=d, origin_offset=length,
                           runners=tuple(map(tuple, runners_by_scan(P.beta_set(lam, length), d))))


def all_partitions_upto(n):
    return [lam for k in range(n + 1) for lam in P.partitions_of(k)]


def rim_hooks_by_diagram(lam: tuple[int, ...], h: int) -> tuple[P.HookRemoval, ...]:
    """Rim hooks of length h found by walking border strips of the diagram.

    Independent of the beta-set route: tries every contiguous length-h
    piece of the rim and keeps those whose removal leaves a partition.
    """
    lam = tuple(lam)
    n_rows = len(lam)
    out = []
    for start_row in range(n_rows):
        # walk the rim starting from the last cell of start_row
        cells = []
        r, c = start_row, lam[start_row] - 1
        while len(cells) < h and r < n_rows and c >= 0:
            cells.append((r, c))
            below = lam[r + 1] - 1 if r + 1 < n_rows else -1
            if below == c:
                r += 1
            elif below < c:
                c -= 1
            else:
                break
        if len(cells) != h:
            continue
        removed = set(cells)
        new_rows = []
        for i in range(n_rows):
            row_removed = [cc for (rr, cc) in removed if rr == i]
            if row_removed:
                new_rows.append(min(row_removed))
            else:
                new_rows.append(lam[i])
        if any(new_rows[i] < new_rows[i + 1] for i in range(n_rows - 1)):
            continue
        result = tuple(p for p in new_rows if p > 0)
        if sum(result) != sum(lam) - h:
            continue
        leg = len({rr for (rr, cc) in removed}) - 1
        out.append(P.HookRemoval(h, leg, result))
    return tuple(out)


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        A.check_partition((1, 2))
    with pytest.raises(ValueError):
        A.check_partition((2, 0))
    assert A.check_partition([3, 1]) == (3, 1)


def test_beta_set_roundtrip():
    for lam in all_partitions_upto(10):
        for extra in (0, 1, 3):
            length = len(lam) + extra
            assert P.partition_from_beta(P.beta_set(lam, length)) == lam


# -- rim hooks ----------------------------------------------------------------

def test_rim_hooks_examples():
    assert P.rim_hooks((2,), 2) == (P.HookRemoval(2, 0, ()),)
    assert P.rim_hooks((1, 1), 2) == (P.HookRemoval(2, 1, ()),)
    results = {hk.result for hk in P.rim_hooks((2, 2), 2)}
    assert results == {(2,), (1, 1)}
    assert P.rim_hooks((2, 1), 5) == ()


def test_rim_hooks_against_diagram_walker():
    for lam in all_partitions_upto(12):
        for h in range(1, 13):
            beta_route = sorted(P.rim_hooks(lam, h))
            diagram_route = sorted(rim_hooks_by_diagram(lam, h))
            assert beta_route == diagram_route, (lam, h)


def test_hook_bead_bijection():
    # hooks of length k*d match beads sitting k spots above a gap
    for lam in all_partitions_upto(15):
        for d in range(1, 5):
            ab = A.AbacusState(lam, d)
            for k in range(1, sum(lam) // d + 1):
                beads = 0
                for runner in ab.runners:
                    occ = set(runner)
                    beads += sum(1 for p in runner if p - k >= 0 and p - k not in occ)
                assert beads == len(P.rim_hooks(lam, k * d))


# -- cores, quotients, weights ---------------------------------------------------

def test_core_quotient_worked_example():
    lam = (6, 5, 5, 2, 1)
    assert P.d_core(lam, 3) == (3, 1)
    quo = A.d_quotient(lam, 3)
    # fixed convention puts ((1,1),(2),(1)) as a cyclic shift of this
    assert quo == ((2,), (1,), (1, 1))
    assert sorted(quo) == sorted(((1, 1), (2,), (1,)))
    rotations = [quo[r:] + quo[:r] for r in range(3)]
    assert ((1, 1), (2,), (1,)) in rotations
    assert A.d_weight(lam, 3) == 5


def test_core_examples():
    for lam in all_partitions_upto(9):
        assert P.d_core(lam, 1) == ()
    assert P.d_core((2, 1), 5) == (2, 1)


def test_exhaustive_removal_orders_reach_unique_core():
    # every complete removal order ends at the same partition
    lam = (6, 5, 5, 2, 1)
    terminals = set()
    stack = [lam]
    seen = set()
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        hooks = rim_hooks_by_diagram(cur, 3)
        if not hooks:
            terminals.add(cur)
        stack.extend(hk.result for hk in hooks)
    assert terminals == {(3, 1)}


def test_core_matches_greedy_diagram_removal():
    for lam in all_partitions_upto(15):
        for d in range(1, 5):
            cur = lam
            while True:
                hooks = rim_hooks_by_diagram(cur, d)
                if not hooks:
                    break
                cur = hooks[0].result
            assert cur == P.d_core(lam, d)


def test_quotient_of_core_is_empty():
    for lam in all_partitions_upto(10):
        for d in (2, 3, 4):
            gamma = P.d_core(lam, d)
            assert A.d_quotient(gamma, d) == ((),) * d


def test_quotient_two_row_example():
    assert A.d_quotient((2,), 2) == ((), (1,))


def test_core_quotient_bijection_and_weight_consistency():
    for lam in all_partitions_upto(30):
        for d in range(1, 7):
            core = P.d_core(lam, d)
            quo = A.d_quotient(lam, d)
            assert CH.from_core_quotient(core, quo, d) == lam
            assert sum(lam) == sum(core) + d * A.d_weight(lam, d)
            assert A.d_weight(lam, d) == sum(sum(c) for c in quo)


def test_weight_examples():
    assert A.d_weight((4,), 2) == 2
    assert A.d_weight((2, 1), 2) == 0


# -- paths and signs ---------------------------------------------------------------

def test_removal_paths_examples():
    paths = A.removal_paths((2, 2), 2)
    assert len(paths) == 2
    assert {p.steps[0].result for p in paths} == {(2,), (1, 1)}
    assert all(p.total_leg == sum(s.leg_length for s in p.steps) for p in paths)
    assert all(p.steps[-1].result == () for p in paths)

    assert len(A.removal_paths((2,), 2)) == 1
    trivial = A.removal_paths((2, 1), 2)
    assert trivial == (A.RemovalPath((), 0),)


def test_removal_path_count_matches_enumeration():
    for lam in all_partitions_upto(10):
        for d in (1, 2, 3):
            assert A.removal_path_count(lam, d) == len(A.removal_paths(lam, d))


def test_epsilon_examples():
    assert V.epsilon((2,), 2) == 1
    assert V.epsilon((1, 1), 2) == -1
    # both complete paths of the 2x2 square have even total leg (0 and 2)
    legs = {p.total_leg for p in A.removal_paths((2, 2), 2)}
    assert legs == {0, 2}
    assert V.epsilon((2, 2), 2) == 1


def test_sign_path_independence_exhaustive():
    for lam in all_partitions_upto(12):
        for d in range(1, 6):
            signs = path_sign_set(lam, d)
            assert len(signs) == 1
            assert signs == frozenset({V.epsilon(lam, d)})


# -- simplicity, disjointness, construction ------------------------------------------

def test_is_simple_examples():
    for lam in all_partitions_upto(8):
        for d in (2, 3):
            gamma = P.d_core(lam, d)
            assert A.is_simple(gamma, d)
    assert not A.is_simple((4,), 2)
    assert not A.is_simple((6, 5, 5, 2, 1), 3)


def test_simple_iff_no_multiple_hooks():
    for lam in all_partitions_upto(12):
        for d in (2, 3):
            expected = all(not P.rim_hooks(lam, m * d)
                           for m in range(2, sum(lam) // d + 1))
            assert A.is_simple(lam, d) == expected


def test_simple_implies_weight_at_most_d():
    for lam in all_partitions_upto(14):
        for d in (2, 3, 4):
            if A.is_simple(lam, d):
                assert A.d_weight(lam, d) <= d


def test_disjointness():
    for lam in all_partitions_upto(8):
        for d in (2, 3):
            gamma = P.d_core(lam, d)
            assert A.disjoint(lam, gamma, d)
            if A.d_weight(lam, d) > 0:
                assert not A.disjoint(lam, lam, d)


def test_weight_one_partitions_over_a_core_are_disjoint():
    # one weight-1 partition per runner, pairwise on distinct runners
    for d, gamma in [(2, (1,)), (2, (2, 1)), (3, ())]:
        singles = [CH.single_runner_partition(gamma, 1, d, r) for r in range(d)]
        with pytest.raises(ValueError, match=f"runner {d} of {d}"):
            CH.single_runner_partition(gamma, 1, d, d)
        assert len(set(singles)) == d
        for i, a in enumerate(singles):
            assert A.d_weight(a, d) == 1 and P.d_core(a, d) == gamma
            for b in singles[i + 1:]:
                assert A.disjoint(a, b, d)


def test_find_simple_disjoint():
    lam = CH.find_simple_disjoint((), 1, 3, frozenset())
    assert P.d_core(lam, 3) == () and A.d_weight(lam, 3) == 1
    assert A.is_simple(lam, 3)

    lam = CH.find_simple_disjoint((), 2, 5, frozenset({0}))
    assert A.is_simple(lam, 5) and A.d_weight(lam, 5) == 2
    assert 0 not in A.runners_used(lam, 5)

    with pytest.raises(InfeasibleError):
        CH.find_simple_disjoint((2, 1), 1, 3, frozenset({0, 1, 2}))


# -- reachability sets ------------------------------------------------------------------

def test_l_sets():
    for lam in all_partitions_upto(10):
        for d in (2, 3):
            w = A.d_weight(lam, d)
            gamma = P.d_core(lam, d)
            assert l_set_iterate(lam, d, 0) == frozenset({lam})
            assert l_set_iterate(lam, d, w) == frozenset({gamma})
            assert l_set_iterate(lam, d, w + 1) == frozenset()
            assert l_set_single(lam, d, 0) == frozenset({lam})


def test_l_set_single_hook_empty_for_simple():
    mu = CH.find_simple_disjoint((), 2, 3, frozenset())
    for i in range(2, A.d_weight(mu, 3) + 1):
        assert l_set_single(mu, 3, i) == frozenset()


def test_l_set_single():
    assert l_set_single((4,), 2, 2) == frozenset({()})
    assert l_set_single((3, 1), 2, 2) == frozenset({()})
    assert l_set_single((2, 2), 2, 2) == frozenset()
    assert l_set_single((5, 1), 2, 2) == frozenset({(1, 1)})
    for lam in all_partitions_upto(10):
        for d in (1, 2, 3):
            # one hook of length d is one step of the iterated removal
            assert l_set_single(lam, d, 1) == l_set_iterate(lam, d, 1)
            for i in range(2, A.d_weight(lam, d) + 1):
                single = l_set_single(lam, d, i)
                # a hook of length i*d is i steps of d-hook removal
                assert single <= l_set_iterate(lam, d, i), (lam, d, i)
                assert len(single) == len(rim_hooks_by_diagram(lam, i * d))


# -- abacus ------------------------------------------------------------------------------

def test_abacus_roundtrip_and_quotient():
    for lam in all_partitions_upto(12):
        for d in (1, 2, 3, 4):
            ab = A.AbacusState(lam, d)
            assert abacus_partition(ab) == lam
            assert abacus_quotient(ab) == A.d_quotient(lam, d)


def test_runners_bucket_the_beads_as_the_per_runner_scan():
    for lam in all_partitions_upto(10):
        for d in range(1, 8):
            for length in (len(lam), len(lam) + 1, -(-len(lam) // d) * d + 2 * d):
                beta = P.beta_set(lam, length)
                assert A._runners(beta, d) == runners_by_scan(beta, d), (lam, d, length)


@pytest.mark.parametrize("verb", ["quotient", "abacus"])
def test_quotient_and_abacus_are_linear_in_d(verb):
    # one pass over the d beads, not one per runner: at d = 10^5 a scan per
    # runner is 10^10 steps, minutes long
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-m", "glblocks.cli", "partition", verb, "[3,1]",
                          "--d", "100000", "--output", "json"], env=env, capture_output=True,
                         text=True, check=True, timeout=15).stdout
    payload = json.loads(out)
    runners = payload["quotient"] if verb == "quotient" else payload["runners"]
    assert len(runners) == 100_000
    # d > |lam|: every quotient component is empty, and every bead is on the abacus
    assert not any(runners) if verb == "quotient" else sum(map(len, runners)) == 100_000


def core_at_rounded_length(lam, d: int):
    """Reference: the d-core read off a beta-set of length d rounded up, each
    runner's beads pushed to its bottom."""
    counts = Counter(b % d for b in P.beta_set(lam, d * -(-len(lam) // d)))
    return P.partition_from_beta([d * j + r for r in range(d) for j in range(counts[r])])


def test_core_does_not_depend_on_the_beta_set_length():
    for lam in all_partitions_upto(12):
        for d in range(1, 16):
            assert P.d_core.__wrapped__(lam, d) == core_at_rounded_length(lam, d), (lam, d)
    # nothing is built per runner: the beta-set of length d it took before
    # peaked at 37 MB traced
    tracemalloc.start()
    try:
        assert P.d_core.__wrapped__((3, 1), 300_000) == (3, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_blocks_far_above_n_is_quick():
    # every partition of 6 is its own 300,000-core; a beta-set of length d
    # per partition made this 2 s and 57 MB
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-m", "glblocks.cli", "blocks", "--n", "6", "--q", "2",
                          "--d", "300000"], env=env, capture_output=True, text=True, check=True,
                         timeout=5).stdout
    assert out.startswith("computed blocks (11):") and out.endswith("verdict: equal\n")


def test_abacus_longer_convention_same_quotient():
    lam = (6, 5, 5, 2, 1)
    short = A.AbacusState(lam, 3)
    long = abacus_of_length(lam, 3, short.origin_offset + 6)
    assert abacus_quotient(short) == abacus_quotient(long)
    assert compare_supports(short, long) == compare_supports(long, short)


def test_abacus_of_empty_partition_packed():
    ab = A.AbacusState((), 3)
    assert ab.origin_offset == 3 and all(runner == (0,) for runner in ab.runners)
    assert ab.edge_sequence() == "11>11100"
    long = abacus_of_length((), 3, 6)
    assert all(runner == (0, 1) for runner in long.runners)


def test_abacus_convention_mismatch():
    a = A.AbacusState((2, 1), 2)
    b = A.AbacusState((2, 1), 3)
    with pytest.raises(ConventionMismatchError):
        compare_supports(a, b)


def test_edge_sequence_worked_example():
    # same rim word as the example sequence, up to the origin spot
    ab = A.AbacusState((6, 5, 5, 2, 1), 3)
    assert ab.edge_sequence() == "11>10101000110100"


def test_argument_checks_survive_python_O():
    # explicit raises, not asserts, so `python -O` keeps them
    script = "\n".join([
        "from glblocks import partitions as P",
        "for bad in (lambda: P.rim_hooks((2,), 0), lambda: P.d_core((2,), 0),",
        "            lambda: P.beta_set((2, 1), 1)):",
        "    try:",
        "        bad()",
        "    except ValueError as exc:",
        "        print('raised', exc)",
        "    else:",
        "        print('accepted')",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["raised hook length must be at least 1, got 0",
                                "raised d must be at least 1, got 0",
                                "raised beta-set length smaller than number of parts"]
