"""Values of the unipotent characters of GL(n,q) on every class type, as integer rows.

Every vector and table is a tuple in the order of `partitions_of`.  One
integer factorisation of the Green functions' orthogonality gives the
values on unipotent classes, the modified Kostka-Foulkes values
K~_{nu,mu}(q) = q^n(mu) K_{nu,mu}(1/q) (Green; Macdonald ch. III.7 and
IV), and the Green values Q = X^T K~ with X the S_n table; each entry of
either is a row product.  A hook-removal step weighted by Q peels every
other primary component: `mn_step` holds one row of target positions and
coefficients per source partition, and `peel` applies them to a whole
vector.  `class_values(t, q)` caches one vector per class type t (a
`glclass.ClassType`): the K~ column at its unipotent part, peeled once
per component, each partial product the cached vector of a type of a
smaller GL(m,q).  All values are exact integers at a concrete q: a peel
of k boxes is summed scaled by k!, which every z_alpha divides, and ends
in an exact division that is checked.  No sign correction is needed:
every unipotent degree is positive (q-hook formula), which the tests
check against the oracle.  The `table` report is written by `classlist`.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from operator import mul

from .glclass import ClassType
from .partitions import n_stat, partitions_of
from .qarith import gl_order, torus_order, unipotent_centralizer_order
from .symchar import character_table, partition_index, signed_removal_map, z_order


# -- unipotent base values ----------------------------------------------------

@cache
def _unipotent_values(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """K~ by columns: entry [j][i] is K~_{nu,mu}(q) for mu the j-th and nu
    the i-th partition of n.

    Green-function orthogonality times |G| reads A = K~ S K~^T, with
    A_{nu,nu'} = sum_rho w_rho chi^nu(rho) chi^nu'(rho), w_rho = |G| /
    (z_rho |T_rho|) the number of maximal tori of type rho, and S the
    unipotent class sizes |G| / a_mu(q).  In the reverse of the order of
    partitions_of, which extends dominance, K~ is lower triangular with
    diagonal q^n(mu), so this integer factorisation determines it
    (Lusztig-Shoji in type A).  Rows of X = (chi^nu(rho)) and X diag(w) are
    formed once and K~, K~ S grow a column per mu: each entry is two row products.
    """
    def exact(num: int, den: int) -> int:
        quo, rem = divmod(num, den)
        if rem:
            raise AssertionError(f"{num} / {den} is not an integer (n = {n}, q = {q})")
        return quo

    labels = partitions_of(n)[::-1]
    order = gl_order(n, q)
    weights = [exact(order, z_order(rho) * torus_order(rho, q)) if rho else 1
               for rho in labels][::-1]
    rows = list(zip(*character_table(n)))[::-1]
    weighted = [tuple(map(mul, row, weights)) for row in rows]
    sizes = [exact(order, unipotent_centralizer_order(lam, q)) for lam in labels]
    # kt[i] holds K~_{labels[i], labels[j]} for the columns j done so far,
    # and kts[i] the same times the class size at labels[j]
    kt: list[list[int]] = [[] for _ in labels]
    kts: list[list[int]] = [[] for _ in labels]
    for j, mu in enumerate(labels):
        diag = q ** n_stat(mu)
        den = diag * sizes[j]
        for i in range(j, len(labels)):
            value = exact(sum(map(mul, weighted[j], rows[i])) - sum(map(mul, kt[i], kts[j])), den)
            if i == j and value != diag:
                raise AssertionError(f"K~({mu}, {mu}) = {value}, not q^n(mu) = {diag}")
            kt[i].append(value)
            kts[i].append(value * sizes[j])
    return tuple(zip(*(row + [0] * (len(labels) - len(row)) for row in reversed(kt))))[::-1]


@cache
def green_values(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Green functions Q = X^T K~: entry [j][k] is Q^mu_rho(q) at the
    unipotent class mu, the j-th partition of n, for the torus type rho,
    the k-th, each one row product sum_lam chi^lam(rho) K~_{lam,mu}(q).

    Satisfies the exact orthogonality
    sum_mu Q^mu_a Q^mu_b / |centralizer| = delta * z_a / |T_a|.
    """
    table = character_table(n)
    return tuple(tuple(sum(map(mul, chi, column)) for chi in table)
                 for column in _unipotent_values(n, q))


# -- the peeling recursion -----------------------------------------------------

@cache
def mn_step(n: int, hook_degree: int, jordan: tuple[int, ...],
            q: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Coefficient rows for peeling one primary component off size n.

    The component is a class (f -> jordan) with deg f = hook_degree, so
    k = |jordan| hooks of length hook_degree leave each nu of size n.
    Row i, for nu the i-th partition of n, is (targets, coefficients) with
    ascending target positions in partitions_of(n - hook_degree*k) and,
    for each target lam, the exact integer

        sum over alpha |- k of Q^jordan_alpha(q^deg) / z_alpha
                              * (signed removal sum for scaled alpha),

    summed times k!, which every z_alpha divides, and divided back
    exactly.  Zero coefficients are left out.
    """
    k = sum(jordan)
    scale = factorial(k)
    green = green_values(k, q ** hook_degree)[partition_index(k)[jordan]]
    weights = [(alpha, g * (scale // z_order(alpha)))
               for alpha, g in zip(partitions_of(k), green) if g]
    at = partition_index(n - hook_degree * k)
    rows = []
    for nu in partitions_of(n):
        acc: dict[tuple[int, ...], int] = {}
        for alpha, weight in weights:
            for lam, s in signed_removal_map(nu, alpha, hook_degree).items():
                acc[lam] = acc.get(lam, 0) + weight * s
        targets, coefficients = [], []
        for lam, total in sorted(acc.items(), reverse=True):
            val, rem = divmod(total, scale)
            if rem:
                raise AssertionError(f"hook-removal coefficient {total}/{scale} not integral")
            if val:
                targets.append(at[lam])
                coefficients.append(val)
        rows.append((tuple(targets), tuple(coefficients)))
    return tuple(rows)


def peel(values: tuple[int, ...], n: int, degree: int,
         jordan: tuple[int, ...], q: int) -> tuple[int, ...]:
    """Peel one primary component (degree, jordan) off a value vector.

    `values` is over the partitions of n - degree*|jordan|; the result is
    (sum_lam mn_step(nu -> lam) * values[lam])_nu over partitions_of(n).
    """
    read = values.__getitem__
    return tuple(sum(map(mul, coefficients, map(read, targets)))
                 for targets, coefficients in mn_step(n, degree, jordan, q))


@cache
def class_values(t: ClassType, q: int) -> tuple[int, ...]:
    """(chi^nu(t))_nu over partitions_of(t.n).

    The K~ column at the unipotent part, with the components peeled on
    one at a time, last first, so every intermediate vector is itself the
    cached vector of a type of a smaller GL(m,q).
    """
    if not t.components:
        return _unipotent_values(t.n, q)[partition_index(t.n)[t.unipotent]]
    (degree, jordan), rest = t.components[0], t.components[1:]
    inner = ClassType(t.n - degree * sum(jordan), t.unipotent, rest)
    return peel(class_values(inner, q), t.n, degree, jordan, q)
