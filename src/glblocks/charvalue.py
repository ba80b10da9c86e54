"""Values of the unipotent characters of GL(n,q) on every class type.

The pipeline: one integer factorisation of the Green functions'
orthogonality relations gives, for each (n, q), every value on a
unipotent class: the modified Kostka-Foulkes values K~_{nu,mu}(q) =
q^n(mu) K_{nu,mu}(1/q) (Green; Macdonald ch. III.7 and IV).  Green
polynomials are their transforms under the symmetric group characters,
and a hook-removal recursion weighted by them peels every other primary
component of a class.  A class enters every later sum only through its
value vector (chi^nu(t))_nu, which depends only on its type t (a
`glclass.ClassType`), so `class_values(t, q)` computes and caches one
vector per type: the K~ column at its unipotent part with one `peel` per
component applied to the whole vector.  Each partial product is the
vector of a type of a smaller GL(m,q), so the cache shares it between
types.  The value table lists each class by its key and reads its column
off the vector of its type.  All values are exact integers at a concrete
q: a peel of k boxes is summed scaled by k!, which every z_alpha
divides, and ends in an exact division that is checked.  No sign
correction is needed: every unipotent degree is positive (q-hook
formula), which the tests check against the oracle.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache
from math import factorial
from types import MappingProxyType

from .glclass import ClassType, class_keys
from .partitions import n_stat, partitions_of
from .qarith import gl_order, torus_order, unipotent_centralizer_order
from .symchar import signed_removal_map, sn_char, z_order


# -- unipotent base values ----------------------------------------------------

@cache
def _unipotent_values(n: int, q: int) -> Mapping[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """K~_{nu,mu}(q) for all partitions nu, mu of n; zero values are omitted.

    Green-function orthogonality times |G| reads A = K~ S K~^T, with
    A_{nu,nu'} = sum_rho w_rho chi^nu(rho) chi^nu'(rho), w_rho = |G| /
    (z_rho |T_rho|) the number of maximal tori of type rho, and S the
    unipotent class sizes |G| / a_mu(q).  In the order of `labels`, which
    extends dominance, K~ is lower triangular with diagonal q^n(mu), so
    this integer factorisation determines it (Lusztig-Shoji in type A).
    """
    def exact(num: int, den: int) -> int:
        quo, rem = divmod(num, den)
        if rem:
            raise AssertionError(f"{num} / {den} is not an integer (n = {n}, q = {q})")
        return quo

    labels = partitions_of(n)[::-1]
    order = gl_order(n, q)
    weight = {rho: exact(order, z_order(rho) * torus_order(rho, 1, q)) if rho else 1
              for rho in labels}
    size = {lam: exact(order, unipotent_centralizer_order(lam, q)) for lam in labels}
    out: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for j, mu in enumerate(labels):
        diag = q ** n_stat(mu)
        for nu in labels[j:]:
            total = sum(w * sn_char(nu, rho) * sn_char(mu, rho) for rho, w in weight.items())
            total -= sum(out.get((nu, lam), 0) * out.get((mu, lam), 0) * size[lam]
                         for lam in labels[:j])
            value = exact(total, diag * size[mu])
            if nu == mu and value != diag:
                raise AssertionError(f"K~({mu}, {mu}) = {value}, not q^n(mu) = {diag}")
            if value:
                out[(nu, mu)] = value
    return MappingProxyType(out)


@cache
def green_polynomial(mu: tuple[int, ...], rho: tuple[int, ...], q: int) -> int:
    """Green function value at the unipotent class mu for torus type rho.

    Sum over lam of the symmetric group character at rho times
    K~_{lam,mu}(q).  Satisfies the exact orthogonality
    sum_mu Q_a Q_b / |centralizer| = delta * z_a / |T_a|.
    """
    if sum(mu) != sum(rho):
        raise ValueError("size mismatch between class and torus type")
    values = _unipotent_values(sum(mu), q)
    return sum(sn_char(lam, rho) * values.get((lam, mu), 0) for lam in partitions_of(sum(mu)))


# -- the peeling recursion -----------------------------------------------------

@cache
def mn_step(nu: tuple[int, ...], hook_degree: int, jordan: tuple[int, ...],
            q: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Coefficient map for peeling one primary component.

    The component is a class (f -> jordan) with deg f = hook_degree, so
    k = |jordan| hooks of length hook_degree leave nu.  For each target
    lam the coefficient is

        sum over alpha |- k of Q^jordan_alpha(q^deg) / z_alpha
                              * (signed removal sum for scaled alpha),

    an exact integer.  The sum is taken times k!, which every z_alpha
    divides, and divided back exactly.  Targets not reachable never
    appear; an empty map means the value downstream is 0.
    """
    k = sum(jordan)
    big_q = q ** hook_degree
    scale = factorial(k)
    acc: dict[tuple[int, ...], int] = {}
    for alpha in partitions_of(k):
        green = green_polynomial(jordan, alpha, big_q)
        if green == 0:
            continue
        weight = green * (scale // z_order(alpha))
        for lam, s in signed_removal_map(nu, alpha, hook_degree).items():
            acc[lam] = acc.get(lam, 0) + weight * s
    out = []
    for lam in sorted(acc, reverse=True):
        val, rem = divmod(acc[lam], scale)
        if rem:
            raise AssertionError(f"hook-removal coefficient {acc[lam]}/{scale} not integral")
        if val:
            out.append((lam, val))
    return tuple(out)


def peel(values: Mapping[tuple[int, ...], int], n: int, degree: int,
         jordan: tuple[int, ...], q: int) -> dict[tuple[int, ...], int]:
    """Peel one primary component (degree, jordan) off a value vector.

    `values` is over the partitions of n - degree*|jordan|; the result is
    {nu: sum_lam mn_step(nu -> lam) * values[lam]} over the partitions nu
    of n, zeros omitted, in the order of partitions_of(n).
    """
    out = {}
    for nu in partitions_of(n):
        value = sum(a * values.get(lam, 0) for lam, a in mn_step(nu, degree, jordan, q))
        if value:
            out[nu] = value
    return out


@cache
def class_values(t: ClassType, q: int) -> Mapping[tuple[int, ...], int]:
    """{nu: chi^nu(t)} over the partitions nu of t.n, zeros omitted, read-only.

    Keys come in the order of partitions_of(t.n).  The K~ column at the
    unipotent part, with the components peeled on one at a time, last
    first, so every intermediate vector is itself the cached vector of a
    type of a smaller GL(m,q).
    """
    if not t.components:
        values = _unipotent_values(t.n, q)
        return MappingProxyType({nu: v for nu in partitions_of(t.n)
                                 if (v := values.get((nu, t.unipotent)))})
    (degree, jordan), rest = t.components[0], t.components[1:]
    inner = ClassType(t.n - degree * sum(jordan), t.unipotent, rest)
    return MappingProxyType(peel(class_values(inner, q), t.n, degree, jordan, q))


# -- assembled tables ----------------------------------------------------------

class CharValueTable:
    """All unipotent character values for one GL(n,q), one value vector per class type."""

    def __init__(self, n: int, q: int):
        self.n, self.q = n, q
        # {assignment key: type} in key order, read-only: table(n, q) is
        # cached and shared by every caller
        self.classes = MappingProxyType({key: t for key, _, t in class_keys(n, q)})
        self.labels = partitions_of(n)

    def _rows(self):
        """(nu, the values chi^nu at every class in key order) for each nu."""
        columns = {}
        for t in self.classes.values():
            if t not in columns:
                vector = class_values(t, self.q)
                columns[t] = [vector.get(nu, 0) for nu in self.labels]
        return zip(self.labels, zip(*(columns[t] for t in self.classes.values())))

    def report(self) -> dict:
        """The table as a JSON-ready dict."""
        return {
            "n": self.n,
            "q": self.q,
            # every degree is positive, so every sign is 1; kept for the format
            "signs": {str(list(nu)): 1 for nu in self.labels},
            "values": {str(list(nu)): dict(zip(self.classes, row)) for nu, row in self._rows()},
        }

    def to_csv(self) -> str:
        # imported here, so that no other output loads them
        import csv
        import io
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["nu", *self.classes])
        for nu, row in self._rows():
            writer.writerow([str(list(nu)), *row])
        return buf.getvalue()


@cache
def table(n: int, q: int) -> CharValueTable:
    return CharValueTable(n, q)
