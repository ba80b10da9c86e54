"""Restricted inner products, unipotent d-blocks, closed forms, chains and the
second-main-theorem check.

All inner products are exact and held as integers: the matrix of a domain is
|G| times the Gram over its classes, sum_t w_t v_t v_t^T over its class
types t, with v_t = (chi^nu(t))_nu the value vector of t and w_t the total
size of the domain's classes of type t, each entry one integer row product
over the types.  The unipotent characters are orthonormal, so the d-regular
and d-singular matrices add up to |G| times the identity, and each is read
off whichever of the two has fewer types.  A report divides by |G| once per
entry it prints; `blocks` only tests entries for zero.
Domains are read off `class_types` and hold `ClassType`s only, so no
class label is built here.  A section domain is keyed by its head type x
(a d-element of GL(|x|, q) without X-1): its types are x's components
merged with those of every d-regular type of GL(n-|x|, q), and sections
with heads of one type are summed alike.
Values are integers and every class is closed under inversion up to a
degree-preserving relabeling of polynomials, so no conjugation is needed.
The unipotent d-blocks are a tuple of frozensets of partition labels in
`symchar`'s canonical order, as is the same-core grouping that
`blocks_report` compares them with.  `smt_check` returns None, or the
message of the check that failed; an invariant of the engine that breaks
on the way still raises.  No check is made that holds by construction:
each section type, for one, is built from its head and a d-regular type.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, wraps
from math import factorial, prod
from operator import mul
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

from .charvalue import class_values, mn_step, peel
from .errors import HypothesisError
from .glclass import (
    ClassType,
    class_size,
    class_types,
    is_d_element,
    is_d_regular,
    section_heads,
)
from .partitions import (
    d_core,
    d_weight,
    disjoint,
    epsilon,
    find_simple_disjoint,
    is_simple,
    partitions_of,
    removal_path_count,
    runners_used,
    single_runner_partition,
)
from .qarith import gl_order, non_unipotent_count
from .symchar import linked_components, same_core_grouping

if TYPE_CHECKING:
    # a Fraction is built only where a rational is returned or printed, so
    # that `blocks` never loads `fractions`
    from fractions import Fraction


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


def _ratio(val: Fraction) -> str:
    return f"{val.numerator}/{val.denominator}"


def _section_types(ctx: Context, x: ClassType):
    """(y, t) for each d-regular type y of GL(n-|x|, q), with t the type of
    the section of head x that merges x's components with y's."""
    for y in class_types(ctx.n - x.n, ctx.q):
        if is_d_regular(y, ctx.d, ctx.variant):
            yield y, ClassType(ctx.n, y.unipotent, tuple(sorted(x.components + y.components)))


def _named_domains_cached(fn):
    """fn(ctx, domain), memoised for "full", "d_regular" and "d_singular" only:
    a section domain is rebuilt on each call, as `verify thm43` reads each once."""
    named = cache(fn)
    call = wraps(fn)(lambda ctx, domain: (named if isinstance(domain, str) else fn)(ctx, domain))
    call.cache_info, call.cache_clear = named.cache_info, named.cache_clear
    return call


@_named_domains_cached
def _type_weights(ctx: Context, domain):
    """{type: number of the domain's classes of that type * class size}, read-only.

    `domain` is "full", "d_regular", "d_singular" or ("section", x) with x
    the head type of the section.
    """
    if domain in ("d_regular", "d_singular"):
        regular = domain == "d_regular"
        return MappingProxyType({t: w for t, w in _type_weights(ctx, "full").items()
                                 if is_d_regular(t, ctx.d, ctx.variant) == regular})
    if domain == "full":
        types = class_types(ctx.n, ctx.q)
    elif isinstance(domain, tuple) and domain and domain[0] == "section":
        x = domain[1]
        if x.unipotent or not is_d_element(x, ctx.d, ctx.variant):
            raise ValueError(f"{x} is not the d-part of a section head")
        ys = class_types(ctx.n - x.n, ctx.q)
        types = {t: ys[y] for y, t in _section_types(ctx, x)}
    else:
        raise ValueError(f"unknown domain {domain!r}")
    weights = {t: m * class_size(t, ctx.q) for t, m in types.items()}
    # the class equation: inner_matrix's cheaper side rests on the full
    # group's classes being exactly these
    if domain == "full" and sum(weights.values()) != gl_order(ctx.n, ctx.q):
        raise ArithmeticError(f"class sizes of GL({ctx.n},{ctx.q}) do not sum to its order")
    return MappingProxyType(weights)


@_named_domains_cached
def inner_matrix(ctx: Context, domain):
    """{(nu, nu2): |G| <chi^nu, chi^nu2>} over the domain's classes, integers
    for every ordered pair, read-only.

    With V the value vectors of the summed types as columns and w their
    weights, each entry is one row product sum_t w_t V[nu][t] V[nu2][t],
    stored under both orders.  For "d_regular" and "d_singular" the sum runs
    over the other side when that has fewer types, and the entry is
    |G| delta - that sum, since the full Gram is the identity.
    """
    labels = partitions_of(ctx.n)
    weights = _type_weights(ctx, domain)
    other = {"d_regular": "d_singular", "d_singular": "d_regular"}.get(domain)
    complement = other is not None and len(_type_weights(ctx, other)) < len(weights)
    if complement:
        weights = _type_weights(ctx, other)
    rows = list(zip(*(class_values(t, ctx.q) for t in weights))) or [()] * len(labels)
    order = gl_order(ctx.n, ctx.q)
    out = {}
    for i, nu in enumerate(labels):
        weighted = tuple(map(mul, weights.values(), rows[i]))
        for j in range(i, len(labels)):
            val = sum(map(mul, weighted, rows[j]))
            out[(nu, labels[j])] = out[(labels[j], nu)] = \
                order * (i == j) - val if complement else val
    return MappingProxyType(out)


# -- blocks ----------------------------------------------------------------------

@cache
def unipotent_blocks(ctx: Context) -> tuple[frozenset[tuple[int, ...]], ...]:
    """Connected components under nonzero inner products over d-regular classes."""
    links = (pair for pair, val in inner_matrix(ctx, "d_regular").items() if val)
    return linked_components(partitions_of(ctx.n), links)


# -- closed forms ----------------------------------------------------------------

def _closed_form_pair(lam, mu, d: int) -> bool:
    """The closed form's hypotheses on (lam, mu): distinct, one d-core, one
    d-weight (so w >= 1), mu simple and the two disjoint."""
    return (lam != mu and d_core(lam, d) == d_core(mu, d)
            and d_weight(lam, d) == d_weight(mu, d)
            and is_simple(mu, d) and disjoint(lam, mu, d))


_OUTSIDE_F = "F < n/d: outside the standing hypothesis"


def theorem46_rhs(lam, mu, ctx: Context) -> Fraction:
    """Closed-form inner product over d-regular classes for a simple,
    disjoint partner:  (-1)^w F^w / (w! (q^d-1)^w) |P_lam| |P_mu| eps eps.

    Validates its own hypotheses: lam and mu of size n form a closed-form
    pair, and the standing bound F >= n/d holds.
    """
    from fractions import Fraction
    lam, mu = tuple(lam), tuple(mu)
    d = ctx.d
    if sum(lam) != ctx.n or not _closed_form_pair(lam, mu, d):
        raise HypothesisError("not a closed-form pair of size n: distinct partitions"
                              " of one d-core and weight, mu simple and disjoint from lam")
    if not ctx.f_hypothesis_holds:
        raise HypothesisError(_OUTSIDE_F)
    F, w = ctx.f_number, d_weight(lam, d)
    sign = (-1) ** w * epsilon(lam, d) * epsilon(mu, d)
    return Fraction(sign * F ** w * removal_path_count(lam, d) * removal_path_count(mu, d),
                    factorial(w) * (ctx.q ** d - 1) ** w)


def find_theorem46_pairs(ctx: Context):
    """Ordered closed-form pairs (lam, mu) of partitions of n; outside the
    standing hypothesis F >= n/d it raises before looking for any."""
    if not ctx.f_hypothesis_holds:
        raise HypothesisError(_OUTSIDE_F)
    labels = partitions_of(ctx.n)
    return tuple((lam, mu) for lam in labels for mu in labels
                 if _closed_form_pair(lam, mu, ctx.d))


# -- combinatorial identity ------------------------------------------------------

def lemma49_lhs(k: int, F: int) -> Fraction:
    """Sum over partitions of k of falling factorials of F over the
    product of part-factorials and multiplicity factorials."""
    from fractions import Fraction
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return sum((Fraction(prod(F - i for i in range(len(part))),
                         prod(factorial(j) ** m * factorial(m) for j, m in Counter(part).items()))
                for part in partitions_of(k)), Fraction(0))


def lemma49_check(k: int, F: int) -> bool:
    """Exact equality of the partition sum with F^k / k!."""
    from fractions import Fraction
    return lemma49_lhs(k, F) == Fraction(F ** k, factorial(k))


def lemma49_polynomial_check(k: int) -> bool:
    """Both sides agree as polynomials in F: check at k+2 points, which
    over-determines polynomials of degree at most k."""
    return all(lemma49_check(k, F) for F in range(1, k + 3))


# -- constructive chains -----------------------------------------------------------

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


# -- the second main theorem ------------------------------------------------------

def smt_check(ctx: Context) -> str | None:
    """Reconstruction and the d-core test of domination, for every section head type.

    For every section head type x and every d-regular type y of GL(l,q),
    l = n - |x|, `peel` takes x's components back onto the values of y,
    which must give the values of the type t that merges x and y at every
    mu of size n.  Every mn_step row of x's steps must keep the d-core, so
    that peel targets stay in the same-core group of GL(l,q); the report's
    "beta_disjoint" rests on this row test.  Returns None when every check
    holds, else the message of the first that fails; an engine invariant
    that breaks on the way raises as anywhere else.
    """
    for head in section_heads(ctx.n, ctx.q, ctx.d, ctx.variant):
        steps, size = [], ctx.n - head.n
        for degree, jordan in reversed(head.components):
            size += degree * sum(jordan)
            steps.append((size, degree, jordan))
            lams = partitions_of(size - degree * sum(jordan))
            for nu, (targets, _) in zip(partitions_of(size), mn_step(size, degree, jordan, ctx.q)):
                if any(d_core(lams[i], ctx.d) != d_core(nu, ctx.d) for i in targets):
                    return "peel target escaped the source's d-core"
        for y, t in _section_types(ctx, head):
            direct, recon = class_values(t, ctx.q), class_values(y, ctx.q)
            for step in steps:
                recon = peel(recon, *step, ctx.q)
            for mu, a, b in zip(partitions_of(ctx.n), direct, recon):
                if a != b:
                    return f"reconstruction failed for {mu} at {t}: {a} != {b}"
    return None


# -- reports ------------------------------------------------------------------------

def blocks_report(ctx: Context) -> dict:
    computed = unipotent_blocks(ctx)
    comb = same_core_grouping(ctx.n, ctx.d)
    refined = all(any(b <= c for c in comb) for b in computed)
    equal = set(computed) == set(comb)
    return {
        "context": {"n": ctx.n, "q": ctx.q, "d": ctx.d, "variant": ctx.variant},
        "f_number": ctx.f_number,
        "f_hypothesis_holds": ctx.f_hypothesis_holds,
        "computed_blocks": [sorted(map(list, b)) for b in computed],
        "combinatorial_blocks": [sorted(map(list, b)) for b in comb],
        "verdict": "equal" if equal else ("refinement" if refined else "VIOLATION"),
    }


def inner_product_matrix_report(ctx: Context, domain) -> dict:
    from fractions import Fraction
    labels = partitions_of(ctx.n)
    matrix, order = inner_matrix(ctx, domain), gl_order(ctx.n, ctx.q)
    return {
        "context": {"n": ctx.n, "q": ctx.q, "d": ctx.d, "variant": ctx.variant},
        "domain": domain if isinstance(domain, str) else f"section:{domain[1]}",
        "matrix": {f"{list(nu)}|{list(nu2)}": _ratio(Fraction(matrix[(nu, nu2)], order))
                   for nu in labels for nu2 in labels},
    }


def inner_product_matrix_csv(ctx: Context, domain) -> str:
    from fractions import Fraction
    labels = partitions_of(ctx.n)
    matrix, order = inner_matrix(ctx, domain), gl_order(ctx.n, ctx.q)
    lines = ["nu\\nu2," + ",".join(str(list(nu)).replace(",", " ") for nu in labels)]
    for nu in labels:
        lines.append(",".join([str(list(nu)).replace(",", " ")] +
                              [_ratio(Fraction(matrix[(nu, nu2)], order)) for nu2 in labels]))
    return "\n".join(lines) + "\n"
