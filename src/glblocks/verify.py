"""The `verify` command: its options, its checks, and the code that only they run.

Only `verify` imports this module, and each check imports the engine or
oracle modules it calls when it runs, so that `verify prop32` loads no
label-level engine module and no character table, and only thm46 and
thm410chain load the partition combinatorics of `abacus` (thm410chain
also the chains of Theorem 4.10, in `chains`).  Besides the checks
(`VERIFIERS`, one per check name, each returning (pass, details)) and the
options each takes (`VERIFY_OPTIONS`) it holds the closed form of the
d-regular inner product for a simple, disjoint partner and its pair
search, the partition identity of Lemma 4.9, the d-sections, and the
second-main-theorem check.  Each class type lies in exactly one d-section,
headed by its d-part, so the sections are read off `class_types` in one
pass (`section_split`) and `thm43` and `smt55` load no `blockcalc`.

`smt_check` returns None, or the message of the check that failed; an
invariant of the engine that breaks on the way still raises.  No check is
made that holds by construction: each section type, for one, is split
into its head and a d-regular type.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cache
from math import factorial, prod
from operator import mul
from typing import TYPE_CHECKING

from .errors import HypothesisError, ScaleGuardError, UsageError
from .partitions import d_core, partitions_of, rim_hooks

if TYPE_CHECKING:
    from fractions import Fraction

    from .glclass import ClassType, Context


# -- options -----------------------------------------------------------------------

# the options each check reads, with their defaults; prop32 runs both
# variants when --variant is omitted
_GROUP_OPTIONS = {"n": 3, "q": 2, "d": 1, "variant": "divisible"}
VERIFY_OPTIONS = {
    "prop32": {**_GROUP_OPTIONS, "variant": None},
    "thm43": _GROUP_OPTIONS,
    "thm44": _GROUP_OPTIONS,
    "thm45": {"n": 3, "q": 2, "variant": "divisible"},
    "thm46": _GROUP_OPTIONS,
    "lemma49": {"k": 4, "big_f": 6},
    "thm410chain": {"n": 3, "d": 1},
    "smt55": _GROUP_OPTIONS,
}
_FLAGS = {"n": "--n", "q": "--q", "d": "--d", "variant": "--variant", "k": "--k", "big_f": "--F"}


def _verify_options(args):
    """Refuse the options the check does not read; default the others."""
    takes = VERIFY_OPTIONS[args.check]
    unread = [flag for name, flag in _FLAGS.items() if name in vars(args) and name not in takes]
    if unread:
        raise UsageError(f"verify {args.check} does not take {', '.join(unread)}")
    for name, default in takes.items():
        vars(args).setdefault(name, default)


# -- closed forms ----------------------------------------------------------------

def _closed_form_pair(lam, mu, d: int) -> bool:
    """The closed form's hypotheses on (lam, mu): distinct, one d-core, one
    d-weight (so w >= 1), mu simple and the two disjoint."""
    from .abacus import d_weight, disjoint, is_simple
    return (lam != mu and d_core(lam, d) == d_core(mu, d)
            and d_weight(lam, d) == d_weight(mu, d)
            and is_simple(mu, d) and disjoint(lam, mu, d))


_OUTSIDE_F = "F < n/d: outside the standing hypothesis"


@cache
def epsilon(lam: tuple[int, ...], d: int) -> int:
    """(-1)**(sum of leg lengths) along any full d-hook removal path."""
    sign = 1
    cur = lam
    while True:
        hooks = rim_hooks(cur, d)
        if not hooks:
            return sign
        sign *= (-1) ** hooks[0].leg_length
        cur = hooks[0].result


def theorem46_rhs(lam, mu, ctx: Context) -> Fraction:
    """Closed-form inner product over d-regular classes for a simple,
    disjoint partner:  (-1)^w F^w / (w! (q^d-1)^w) |P_lam| |P_mu| eps eps.

    Validates its own hypotheses: lam and mu of size n form a closed-form
    pair, and the standing bound F >= n/d holds.
    """
    from fractions import Fraction

    from .abacus import d_weight, removal_path_count
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

# k summed over at most: the sum runs over all p(k) partitions of k;
# `verify lemma49 --F 3` took 2.5 s and 48 MB at k = 50 (204,226
# partitions), and the cost grows about fivefold for every 10 added to k
LEMMA49_GUARD = 50


def lemma49_lhs(k: int, F: int) -> Fraction:
    """Sum over partitions of k of falling factorials of F over the
    product of part-factorials and multiplicity factorials; a k over
    LEMMA49_GUARD is refused before any partition is listed."""
    from fractions import Fraction
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > LEMMA49_GUARD:
        raise ScaleGuardError(f"k = {k} exceeds guard {LEMMA49_GUARD}: lemma49 sums over"
                              " every partition of k")
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


# -- the d-sections and the second main theorem ------------------------------------

def section_split(ctx: Context):
    """(x, y, t) for each type t of GL(n,q), in `class_types` order: x, the head
    of t's section, holds t's components of matching degree, a type of
    GL(|x|,q) without X-1, and y the rest, a d-regular type of GL(n-|x|,q)."""
    from .glclass import ClassType, _degree_matches, class_types
    for t in class_types(ctx.n, ctx.q):
        head = tuple(c for c in t.components if _degree_matches(c[0], ctx.d, ctx.variant))
        size = sum(degree * sum(part) for degree, part in head)
        rest = tuple(c for c in t.components if not _degree_matches(c[0], ctx.d, ctx.variant))
        yield ClassType(size, (), head), ClassType(t.n - size, t.unipotent, rest), t


def section_weights(ctx: Context) -> dict[ClassType, dict[ClassType, int]]:
    """{head x: {type t: weight}} over the sections of GL(n,q): one section of
    head x holds class_types(n-|x|, q)[y] classes of type t, each of class_size(t, q)."""
    from .glclass import class_size, class_types
    sections: dict = {}
    for head, y, t in section_split(ctx):
        sections.setdefault(head, {})[t] = class_types(y.n, ctx.q)[y] * class_size(t, ctx.q)
    return sections


def smt_check(ctx: Context) -> str | None:
    """Reconstruction and the d-core test of domination, on every type of every section.

    For every type t, split into its head x and a d-regular type y of
    GL(l,q), l = n - |x|, `peel` takes x's components back onto the values
    of y, which must give the values of t at every mu of size n.  Every
    mn_step row of x's steps must keep the d-core, so that peel targets stay
    in the same-core group of GL(l,q); the report's "beta_disjoint" rests on
    this row test, made once per head when it is first met.  Returns None
    when every check holds, else the message of the first that fails; an
    engine invariant that breaks on the way raises as anywhere else.
    """
    from .charvalue import class_values, mn_step, peel
    peels = {}
    for head, y, t in section_split(ctx):
        if head not in peels:
            steps, size = [], y.n
            for degree, jordan in reversed(head.components):
                size += degree * sum(jordan)
                steps.append((size, degree, jordan))
                lams = partitions_of(size - degree * sum(jordan))
                for nu, (targets, _) in zip(partitions_of(size),
                                            mn_step(size, degree, jordan, ctx.q)):
                    if any(d_core(lams[i], ctx.d) != d_core(nu, ctx.d) for i in targets):
                        return "peel target escaped the source's d-core"
            peels[head] = steps
        recon = class_values(y, ctx.q)
        for step in peels[head]:
            recon = peel(recon, *step, ctx.q)
        for mu, a, b in zip(partitions_of(ctx.n), class_values(t, ctx.q), recon):
            if a != b:
                return f"reconstruction failed for {mu} at {t}: {a} != {b}"
    return None


# -- the checks ------------------------------------------------------------------

def _verify_prop32(args):
    from .bfsections import oracle_sections
    checks = {variant: oracle_sections(args.n, args.q, args.d, variant)
              for variant in ([args.variant] if args.variant else ["divisible", "exact"])}
    return all(c.ok for c in checks.values()), {v: c.parts for v, c in checks.items()}


def _verify_thm43(args):
    from .charvalue import class_values
    from .glclass import Context
    from .qarith import gl_order
    ctx = Context(args.n, args.q, args.d, args.variant)
    labels, order = partitions_of(ctx.n), gl_order(ctx.n, ctx.q)
    cross = [(i, j) for i, nu in enumerate(labels) for j in range(i + 1, len(labels))
             if d_core(nu, ctx.d) != d_core(labels[j], ctx.d)]
    worst = []
    for weights in section_weights(ctx).values():
        rows = list(zip(*(class_values(t, ctx.q) for t in weights)))
        for i, j in cross:
            val = sum(map(mul, weights.values(), map(mul, rows[i], rows[j])))
            if val:
                from fractions import Fraction  # loaded only when an entry is reported
                worst.append([list(labels[i]), list(labels[j]), f"{Fraction(val, order)}"])
    return not worst, {"cross_core_nonzeros": worst}


def _verify_thm44(args):
    from . import blockcalc
    ctx = blockcalc.Context(args.n, args.q, args.d, args.variant)
    blockcalc.guard_f_digits(ctx)  # every form prints the report, F in it
    report = blockcalc.blocks_report(ctx)
    return report["verdict"] != "VIOLATION", report


def _verify_thm45(args):
    # bftable first: compiled before the engine modules are loaded, its
    # compilation peak sits lower, and with it the peak RSS of the command
    # (16.38 against 16.51 MB at GL(3,2) without bytecode caches, median
    # of nine processes per order)
    from .bftable import check_d1_duality_identity
    from . import blockcalc
    ctx = blockcalc.Context(args.n, args.q, 1, args.variant)
    single = len(blockcalc.unipotent_blocks(ctx)) == 1
    duality = check_d1_duality_identity(args.n, args.q)
    ok = single and duality["all_nonzero"] and duality["unipotent_identity"]
    return ok, {"single_unipotent_block": single, **duality}


def _verify_thm46(args):
    from fractions import Fraction
    from . import blockcalc, qarith
    ctx = blockcalc.Context(args.n, args.q, args.d, args.variant)
    pairs = find_theorem46_pairs(ctx)
    matrix, order = blockcalc.inner_matrix(ctx, "d_regular"), qarith.gl_order(ctx.n, ctx.q)
    results = []
    for lam, mu in pairs:
        rhs = theorem46_rhs(lam, mu, ctx)
        lhs = matrix[(lam, mu)]
        results.append({"lam": list(lam), "mu": list(mu), "lhs": f"{Fraction(lhs, order)}",
                        "rhs": f"{rhs}", "match": lhs == rhs * order})
    return all(r["match"] for r in results), {"pairs": results, "pair_count": len(pairs)}


def _verify_lemma49(args):
    eq = lemma49_check(args.k, args.big_f)
    poly = lemma49_polynomial_check(args.k) if args.k <= 5 else None
    ok = eq and (poly is not False)
    return ok, {"k": args.k, "F": args.big_f, "exact_equality": eq,
                "polynomial_identity": poly}


def _verify_thm410chain(args):
    """A chain for every pair of one core (so of one weight) and a constructible
    weight; link_chain raises on a bad link itself, so every chain reported has good links."""
    from .abacus import d_weight
    from .chains import chain_constructible, link_chain
    d, results, labels = args.d, [], partitions_of(args.n)
    for i, lam in enumerate(labels):
        for mu in labels[i + 1:]:
            if d_core(lam, d) != d_core(mu, d) or not chain_constructible(d_weight(lam, d), d):
                continue
            chain = link_chain(lam, mu, d)
            results.append({"lam": list(lam), "mu": list(mu),
                            "chain": [list(p) for p in chain], "links_ok": True})
    return True, {"n": args.n, "d": d, "chains": results}


def _verify_smt55(args):
    from .glclass import Context
    error = smt_check(Context(args.n, args.q, args.d, args.variant))
    if error is not None:
        return False, {"error": error}
    return True, {"reconstruction": "exact", "beta_disjoint": True}


VERIFIERS = {
    "prop32": _verify_prop32,
    "thm43": _verify_thm43,
    "thm44": _verify_thm44,
    "thm45": _verify_thm45,
    "thm46": _verify_thm46,
    "lemma49": _verify_lemma49,
    "thm410chain": _verify_thm410chain,
    "smt55": _verify_smt55,
}


def cmd_verify(args):
    try:
        ok, details = VERIFIERS[args.check](args)
    except HypothesisError as exc:
        error = str(exc)  # exc is unbound once the except clause ends
        return (3, lambda: {"check": args.check, "pass": False, "hypothesis_error": error},
                lambda: f"{args.check}: HYPOTHESIS ERROR: {error}")
    return (0 if ok else 1, lambda: {"check": args.check, "pass": ok, "details": details},
            lambda: f"{args.check}: {'PASS' if ok else 'FAIL'}\n"
                    f"{json.dumps(details, sort_keys=True)}")
