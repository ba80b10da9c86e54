"""The link chains of Theorem 4.10, which only `verify thm410chain` loads.

A chain joins two partitions of one d-core and weight through partitions
each consecutive pair of which is a closed-form pair (see `verify`) in one
direction; it is built by the constructive case analysis on abacus
runners, from partitions with a given d-core and d-quotient.
"""

from __future__ import annotations

from collections import Counter

from .abacus import _quotient_length, d_weight, is_simple, runners_used
from .errors import HypothesisError, InfeasibleError
from .partitions import beta_set, d_core, partition_from_beta
from .verify import _closed_form_pair


def from_core_quotient(core: tuple[int, ...], quotient, d: int) -> tuple[int, ...]:
    """Rebuild the unique partition with the given d-core and d-quotient."""
    quotient = tuple(tuple(c) for c in quotient)
    if len(quotient) != d:
        raise ValueError("quotient must have exactly d components")
    extra = max([len(c) for c in quotient] + [0]) + 1
    length = _quotient_length(core, d) + d * extra
    counts = Counter(b % d for b in beta_set(core, length))
    new_beta = []
    for r in range(d):
        if len(quotient[r]) > counts[r]:
            raise ValueError("quotient component too long for runner")
        new_beta.extend(d * pos + r for pos in beta_set(quotient[r], counts[r]))
    return partition_from_beta(new_beta)


def single_runner_partition(gamma, w: int, d: int, runner: int) -> tuple[int, ...]:
    """Partition with d-core gamma whose d-quotient is the one-row (w) on one runner."""
    if not 0 <= runner < d:
        raise ValueError(f"weight {w} on runner {runner} of {d}")
    quotient = [()] * d
    quotient[runner] = (w,)
    return from_core_quotient(gamma, quotient, d)


def find_simple_disjoint(gamma, w: int, d: int, avoid) -> tuple[int, ...]:
    """Simple partition of |gamma| + w*d with core gamma avoiding given runners.

    Puts a single elementary bead move, component (1), on each of the w
    smallest free runners.
    """
    avoid = frozenset(avoid)
    free = [r for r in range(d) if r not in avoid]
    if len(free) < w:
        raise InfeasibleError(
            f"need {w} free runners among {d}, only {len(free)} outside {sorted(avoid)}")
    quotient = [()] * d
    for r in free[:w]:
        quotient[r] = (1,)
    result = from_core_quotient(gamma, quotient, d)
    if not is_simple(result, d) or d_weight(result, d) != w:
        raise AssertionError(f"{result} is not simple of {d}-weight {w}")
    return result


def _clean_chain(chain, mu):
    """The chain cut at the first mu, without repeats."""
    chain = chain[:chain.index(mu) + 1]
    return tuple(p for i, p in enumerate(chain) if not i or p != chain[i - 1])


def chain_constructible(w: int, d: int) -> bool:
    """Whether the runner construction of Theorem 4.10 covers weight w at d:
    w <= 1 for any d, w = 2 with d >= 4, and w > 2 with d >= 2w-1."""
    return w <= 1 or (w == 2 and d >= 4) or (w > 2 and d >= 2 * w - 1)


def link_chain(lam, mu, d: int) -> tuple[tuple[int, ...], ...]:
    """Chain of partitions from lam to mu in which every consecutive pair
    satisfies the closed form's hypotheses in one direction.

    Follows the constructive case analysis on abacus runners.  Domain:
    `chain_constructible(w, d)` for the common weight w.  Outside that the elementary-link graph can be
    disconnected (w = 2, d = 3), so a HypothesisError is raised rather
    than a fake chain, unless lam and mu are linked directly.
    """
    lam, mu = tuple(lam), tuple(mu)
    gamma = d_core(lam, d)
    if d_core(mu, d) != gamma:
        raise HypothesisError("distinct d-cores")
    w = d_weight(lam, d)
    if d_weight(mu, d) != w:
        raise HypothesisError("weights differ")
    if lam == mu:
        return (lam,)
    if chain_link_ok(lam, mu, d):
        # a direct link, as every weight-1 pair is: a (1) on each of two runners
        return (lam, mu)
    if not chain_constructible(w, d):
        raise HypothesisError(
            f"weight {w} at d = {d} is outside the runner construction: w = 2 needs"
            " d >= 4 (the elementary-link graph is disconnected at d = 3), w > 2 needs d >= 2w-1")

    r_lam = runners_used(lam, d)
    r_mu = runners_used(mu, d)
    lam_simple = is_simple(lam, d)
    mu_simple = is_simple(mu, d)

    if mu_simple and not lam_simple:
        # run the analysis from the simple end and flip at the end
        chain = tuple(reversed(link_chain(mu, lam, d)))
    elif lam_simple and mu_simple:
        free = [r for r in range(d) if r not in r_lam | r_mu]
        if free:
            nu = single_runner_partition(gamma, w, d, free[0])
            chain = (lam, nu, mu)
        else:
            # all runners covered: forces d = 2w-1, one shared runner, w > 2
            if w <= 2:
                raise AssertionError(f"runners all covered at weight {w}")
            mu_only = sorted(r_mu - r_lam)
            lam_only = sorted(r_lam - r_mu)
            nu = single_runner_partition(gamma, w, d, mu_only[0])
            zeta = find_simple_disjoint(gamma, w, d, {mu_only[0], lam_only[0]})
            xi = single_runner_partition(gamma, w, d, lam_only[0])
            chain = (lam, nu, zeta, xi, mu)
    elif lam_simple:
        if r_mu <= r_lam:
            free = [r for r in range(d) if r not in r_lam]
            nu = single_runner_partition(gamma, w, d, free[0])
            zeta = find_simple_disjoint(gamma, w, d, {free[0], min(r_mu)})
            mu_free = sorted(r_mu - runners_used(zeta, d))
            xi = single_runner_partition(gamma, w, d, mu_free[0])
            eta = find_simple_disjoint(gamma, w, d, r_mu)
            chain = (lam, nu, zeta, xi, eta, mu)
        else:
            shared_free = sorted(r_mu - r_lam)
            nu = single_runner_partition(gamma, w, d, shared_free[0])
            zeta = find_simple_disjoint(gamma, w, d, r_mu)
            chain = (lam, nu, zeta, mu)
    else:
        # neither simple: both use at most w-1 runners
        if len(r_lam) > w - 1 or len(r_mu) > w - 1:
            raise AssertionError(f"non-simple {lam} or {mu} uses more than {w - 1} runners")
        nu = find_simple_disjoint(gamma, w, d, r_lam)
        r_nu = runners_used(nu, d)
        if not r_mu <= r_nu:
            pick = sorted(r_mu - r_nu)
            zeta = single_runner_partition(gamma, w, d, pick[0])
            xi = find_simple_disjoint(gamma, w, d, r_mu)
            chain = (lam, nu, zeta, xi, mu)
        else:
            pick = [r for r in range(d) if r not in r_nu and r not in r_mu][0]
            zeta = single_runner_partition(gamma, w, d, pick)
            xi = find_simple_disjoint(gamma, w, d, {pick, min(r_mu)})
            mu_free = sorted(r_mu - runners_used(xi, d))
            delta = single_runner_partition(gamma, w, d, mu_free[0])
            eta = find_simple_disjoint(gamma, w, d, r_mu)
            chain = (lam, nu, zeta, xi, delta, eta, mu)

    chain = _clean_chain(chain, mu)
    for a, b in zip(chain, chain[1:]):
        if not chain_link_ok(a, b, d):
            raise AssertionError(f"bad link {a} -- {b}")
    return chain


def chain_link_ok(a, b, d: int) -> bool:
    """Consecutive chain entries must form a closed-form pair either way."""
    return _closed_form_pair(a, b, d) or _closed_form_pair(b, a, d)
