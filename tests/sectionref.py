"""The head-based enumeration of the d-sections, as a test reference.

A section head is a d-element of GL(m,q), m <= n, without an X-1 part: a
type whose components all have matching degree.  The section of head x
holds the types that merge x's components with those of each d-regular
type y of GL(n-m,q), one section of that head holding
class_types(n-m,q)[y] classes of each.  `verify.section_split` reads the
same sections off the types of GL(n,q) by their d-part instead.

`section_gram` is the restricted scalar product over one section's
weights, built here from the values alone, with no `blockcalc`.
"""

from fractions import Fraction

from glblocks.charvalue import class_values
from glblocks.glclass import ClassType, _degree_matches, class_size, class_types, is_d_regular
from glblocks.partitions import partitions_of
from glblocks.qarith import gl_order


def is_d_element(t: ClassType, d: int, variant: str) -> bool:
    """Components only on matching degrees, X-1 part absent or all ones."""
    if any(p != 1 for p in t.unipotent):
        return False
    return all(_degree_matches(degree, d, variant) for degree, _ in t.components)


def section_heads(n: int, q: int, d: int, variant: str) -> tuple[ClassType, ...]:
    """Types of the section heads: d-elements of GL(m,q), m <= n, without X-1."""
    return tuple(t for m in range(n + 1) for t in class_types(m, q)
                 if not t.unipotent and is_d_element(t, d, variant))


def section_types(ctx, x: ClassType):
    """(y, t) for each d-regular type y of GL(n-|x|, q), with t the type of
    the section of head x that merges x's components with y's."""
    for y in class_types(ctx.n - x.n, ctx.q):
        if is_d_regular(y, ctx.d, ctx.variant):
            yield y, ClassType(ctx.n, y.unipotent, tuple(sorted(x.components + y.components)))


def head_weights(ctx, x: ClassType) -> dict[ClassType, int]:
    """{t: weight} of one section of head x: the number of its classes of type t times their size."""
    ys = class_types(ctx.n - x.n, ctx.q)
    return {t: ys[y] * class_size(t, ctx.q) for y, t in section_types(ctx, x)}


def sections_by_heads(ctx) -> dict[ClassType, dict[ClassType, int]]:
    """{head: head_weights} for every section head, in `section_heads` order."""
    return {x: head_weights(ctx, x) for x in section_heads(ctx.n, ctx.q, ctx.d, ctx.variant)}


def section_gram(ctx, weights) -> dict:
    """{(nu, nu2): <chi^nu, chi^nu2>} over the classes that `weights` counts, as Fractions."""
    labels = partitions_of(ctx.n)
    values = {t: class_values(t, ctx.q) for t in weights}
    order = gl_order(ctx.n, ctx.q)
    return {(nu, nu2): Fraction(sum(w * values[t][i] * values[t][j] for t, w in weights.items()),
                                order)
            for i, nu in enumerate(labels) for j, nu2 in enumerate(labels)}
