"""Restricted inner products and unipotent d-blocks.

All inner products are exact and held as integers: the matrix of a domain is
|G| times the Gram over its classes, sum_t w_t v_t v_t^T over its class
types t, with v_t = (chi^nu(t))_nu the value vector of t and w_t the total
size of the domain's classes of type t, each entry one integer row product
over the types.  The unipotent characters are orthonormal, so the d-regular
and d-singular matrices add up to |G| times the identity, and each is read
off whichever of the two has fewer types.  A report divides by |G| once per
entry it prints; `blocks` only tests entries for zero.
The domains are "full", "d_regular" and "d_singular", read off
`class_types`; they hold `ClassType`s only, so no class label is built
here.  The d-sections are split off the class types in `verify`, which
alone reads them.
Values are integers and every class is closed under inversion up to a
degree-preserving relabeling of polynomials, so no conjugation is needed.
The unipotent d-blocks are a tuple of frozensets of partition labels in
`symchar`'s canonical order, as is the same-core grouping that
`blocks_report` compares them with.  The closed forms, chains and the
second-main-theorem check, which only `verify` runs, are in `verify` and
`chains`; the handlers of the `blocks` and `matrix` commands are here.
"""

from __future__ import annotations

import sys
from functools import cache
from math import gcd
from operator import mul
from types import MappingProxyType

from .charvalue import class_values
from .errors import ScaleGuardError
from .glclass import Context, class_size, class_types, is_d_regular
from .partitions import partitions_of
from .qarith import gl_order
from .symchar import linked_components, same_core_grouping


def _ratio(num: int, den: int) -> str:
    """num/den (den > 0) in lowest terms as "p/q", with no Fraction built."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


@cache
def _type_weights(ctx: Context, domain: str):
    """{type: number of the domain's classes of that type * class size}, read-only.

    `domain` is "full", "d_regular" or "d_singular".
    """
    if domain in ("d_regular", "d_singular"):
        regular = domain == "d_regular"
        return MappingProxyType({t: w for t, w in _type_weights(ctx, "full").items()
                                 if is_d_regular(t, ctx.d, ctx.variant) == regular})
    if domain != "full":
        raise ValueError(f"unknown domain {domain!r}")
    weights = {t: m * class_size(t, ctx.q) for t, m in class_types(ctx.n, ctx.q).items()}
    # the class equation: inner_matrix's cheaper side rests on the full
    # group's classes being exactly these
    if sum(weights.values()) != gl_order(ctx.n, ctx.q):
        raise ArithmeticError(f"class sizes of GL({ctx.n},{ctx.q}) do not sum to its order")
    return MappingProxyType(weights)


@cache
def inner_matrix(ctx: Context, domain: str):
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


# -- reports ------------------------------------------------------------------------

def guard_f_digits(ctx: Context):
    """Refuse, before any computation, a context whose F, which the `blocks`
    report prints, has more digits than sys.get_int_max_str_digits() (0: no limit)."""
    if (limit := sys.get_int_max_str_digits()) and ctx.f_number >= 10 ** limit:
        raise ScaleGuardError(f"F of GL({ctx.n},{ctx.q}) at d = {ctx.d} has more than {limit}"
                              " digits, the most the interpreter prints of an integer")


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
    labels = partitions_of(ctx.n)
    matrix, order = inner_matrix(ctx, domain), gl_order(ctx.n, ctx.q)
    return {
        "context": {"n": ctx.n, "q": ctx.q, "d": ctx.d, "variant": ctx.variant},
        "domain": domain,
        "matrix": {f"{list(nu)}|{list(nu2)}": _ratio(matrix[(nu, nu2)], order)
                   for nu in labels for nu2 in labels},
    }


def inner_product_matrix_csv(ctx: Context, domain) -> str:
    labels = partitions_of(ctx.n)
    matrix, order = inner_matrix(ctx, domain), gl_order(ctx.n, ctx.q)
    lines = ["nu\\nu2," + ",".join(str(list(nu)).replace(",", " ") for nu in labels)]
    for nu in labels:
        lines.append(",".join([str(list(nu)).replace(",", " ")] +
                              [_ratio(matrix[(nu, nu2)], order) for nu2 in labels]))
    return "\n".join(lines) + "\n"


# -- the blocks and matrix commands --------------------------------------------------

def cmd_blocks(args):
    ctx = Context(args.n, args.q, args.d, args.variant)
    if args.output == "json":  # the text form does not print F
        guard_f_digits(ctx)
    report = blocks_report(ctx)

    def lines():
        for name in ("computed", "combinatorial"):
            yield f"{name} blocks ({len(report[name + '_blocks'])}):\n"
            for b in report[name + "_blocks"]:
                yield "  " + "  ".join(map(str, b)) + "\n"
        yield f"verdict: {report['verdict']}"
    return 0 if report["verdict"] != "VIOLATION" else 1, lambda: report, lines


def cmd_matrix(args):
    ctx = Context(args.n, args.q, args.d, args.variant)

    def report():
        return inner_product_matrix_report(ctx, args.domain)
    return (0, report, lambda: (f"{k} = {v}\n" for k, v in sorted(report()["matrix"].items())),
            lambda: inner_product_matrix_csv(ctx, args.domain))
