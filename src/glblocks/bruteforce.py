"""Element-level oracle: small GL(n,q) as explicit matrices.

Everything the label-level engine claims is re-derived here from raw
matrices: conjugacy orbits, centralizers, section partitions, and a full
complex character table computed by the class-algebra eigenvector method
with exact cyclotomic lifting.  No floating point: the modular table is
lifted to integer vectors of root-of-unity multiplicities and verified
against the orthogonality relations exactly.

The oracle brings its own finite fields (F_p[x] modulo the first monic
irreducible of its own sieve) and its own enumeration of the monic
irreducibles over F_q (checked against the engine's counts only), and it
names each class by the primary spaces of its elements, so it shares no
class-level code with the engine.  Polynomials over F_q are tuples of
field-element encodings, lowest degree first, with the leading coefficient
present (monic throughout).  Field elements are integers 0..q-1 whose
base-p digits are the coefficients in the fixed generator basis of F_q
over F_p.

A matrix is held in one form only, the tuple of its row codes (see
MatrixGroup), and the linear algebra works on those codes through the
add and scale tables of F_q^n, one lookup per row operation.  One pass
over the kernels of f(A)^j gives an element its primary spaces, which
name its class (the engine's assignment key) and are shared by every d
and variant; the d-part and the section sets are conjugated into and out
of the basis of those spaces one element at a time.  The class algebra is
split one restricted class matrix at a time; its eigenvalues are the
roots mod the chosen prime of its characteristic polynomial (from a
Hessenberg form), so a kernel is only computed at a root.  The Borel
permutation character is the character induced from the trivial
character of the upper triangular matrices.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from functools import cache, cached_property
from math import isqrt, lcm
from operator import mul
from typing import NamedTuple

from . import __version__
from .errors import ScaleGuardError, TieError
from .partitions import conjugate, n_stat, partitions_of
from .qarith import gl_order, necklace_count, prime_factors, prime_power

# Each guard bounds what it names, set from measured costs (median of
# three cold runs, 2 vCPUs): `oracle` on GL(2,9), with 524,880 table
# entries and 80 classes, takes 4.1 s and 49 MB; `verify prop32 --d 2`
# takes 3.1 s and 35 MB on GL(3,3) and 6.2 s and 48 MB on GL(4,2) (20,160
# elements).  GL(2,11) would need 1,597,200 table entries and is refused;
# every group the table guard admits has at most 20,160 elements.
TABLE_GUARD = 600_000   # lookup tables hold |G| * q^n row codes
CLASS_GUARD = 80        # the Dixon class constants number k^3
ENUM_GUARD = 10 ** 6


# -- small finite fields -----------------------------------------------------

class SmallField:
    """F_q arithmetic with precomputed tables; elements are ints 0..q-1."""

    def __init__(self, q: int):
        p, e = prime_power(q)
        self.q, self.p, self.e = q, p, e
        if e == 1:
            self.add = [[(a + b) % p for b in range(p)] for a in range(p)]
            self.mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            # the least monic irreducible of degree e over F_p, from the sieve;
            # under addition F_q is F_p^e, whose tables also give the multiples
            self.modulus = enumerate_irreducibles(p, e)[0]
            self.add, scale, vectors = _vector_tables(e, p)
            self.mul = [self._mul_row(list(vectors[a]), scale) for a in range(q)]
        self.neg = [self.add[a].index(0) for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = self.mul[a].index(1)
        self.minus_one = self.neg[1]

    def _mul_row(self, vec, scale) -> list[int]:
        """Row a of the multiplication table, a given by its digit vector,
        by linearity in b: a*b is sum_i b_i a x^i, so the row over all b is
        built one digit of b at a time from the multiples of a x^i, with
        table additions only."""
        p, add = self.p, self.add
        row = [0]
        for _ in range(self.e):
            code = sum(x * p ** t for t, x in enumerate(vec))
            row = [v for times in scale for v in map(add[times[code]].__getitem__, row)]
            top = vec.pop()  # times x: shift up, then reduce by the modulus
            vec = [(x - top * c) % p for x, c in zip([0] + vec, self.modulus)]
        return row


@cache
def field(q: int) -> SmallField:
    """F_q with its q x q tables, refused when q^2 > TABLE_GUARD, before they
    are built."""
    if q * q > TABLE_GUARD:
        raise ScaleGuardError(f"F_{q} has {q * q} table entries, over table guard {TABLE_GUARD}")
    return SmallField(q)


# -- monic irreducibles over F_q ---------------------------------------------

def _product_codes(fq: SmallField, f: tuple[int, ...], m: int) -> list[int]:
    """Codes of f*g for every monic g of degree m, g in code order.

    A monic polynomial of degree d has the code sum_{t<d} c_t q^t of its
    lower coefficients.  The product is formed one coefficient at a time,
    as a list over all g at once."""
    q = fq.q
    size = q ** m
    g_coeffs = [[(enc // q ** t) % q for enc in range(size)] for t in range(m)]
    g_coeffs.append([1] * size)
    add, mul = fq.add, fq.mul
    codes = [0] * size
    for pos in range(len(f) - 1 + m):
        coeff = [0] * size
        for i, a in enumerate(f):
            if a and 0 <= pos - i <= m:
                times_a = mul[a]
                coeff = [add[x][times_a[y]] for x, y in zip(coeff, g_coeffs[pos - i])]
        weight = q ** pos
        codes = [c + x * weight for c, x in zip(codes, coeff)]
    return codes


@cache
def enumerate_irreducibles(q: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Coefficients of the monic irreducibles of degree d over F_q except X,
    in canonical order.

    Order is lexicographic on the coefficient vector read from the top
    coefficient down to the constant term, field elements ordered by
    their integer encoding.  X-1 is included (at d = 1) in its place in
    this order like any other polynomial.

    A sieve: a reducible monic of degree d is f*g with f monic irreducible
    (X included) of degree k <= d/2 and g monic of degree d - k, so every
    such product is marked and the unmarked codes are kept in code order,
    which is the canonical order.
    """
    if q ** d > ENUM_GUARD:
        raise ScaleGuardError(f"q^d = {q ** d} exceeds enumeration guard {ENUM_GUARD}")
    fq = field(q)
    reducible = bytearray(q ** d)
    for k in range(1, d // 2 + 1):
        factors = list(enumerate_irreducibles(q, k))
        if k == 1:
            factors.append((0, 1))  # X itself divides reducibles too
        for f in factors:
            for code in _product_codes(fq, f, d - k):
                reducible[code] = 1
    # at d = 1 the code 0 is X, excluded from the universe
    out = tuple(tuple((enc // q ** t) % q for t in range(d)) + (1,)
                for enc in range(q ** d) if not reducible[enc] and (d > 1 or enc))
    if len(out) != necklace_count(q, d) - (d == 1):
        raise AssertionError(f"found {len(out)} irreducibles of degree {d} over F_{q},"
                             " not the necklace count")
    return out


# -- linear algebra over a small field ----------------------------------------
#
# An n x n matrix is the tuple of its row codes (see MatrixGroup), and each
# row operation is one lookup in the tables of _vector_tables(n, q).

def mat_mul(n, q, A, B):
    """A*B: row i of the product is sum_k A[i][k] (row k of B)."""
    add, scale, vectors = _vector_tables(n, q)
    out = []
    for r in A:
        acc = 0
        for a, b in zip(vectors[r], B):
            if a:
                acc = add[acc][scale[a][b]]
        out.append(acc)
    return tuple(out)


def row_reduce(n, q, rows):
    """Return (rank, pivot columns, reduced rows) of rows of width n."""
    fq = field(q)
    add, scale, vectors = _vector_tables(n, q)
    rows = list(rows)
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(rows)) if vectors[rows[i]][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r] = scale[fq.inv[vectors[rows[r]][c]]][rows[r]]
        for i, row in enumerate(rows):
            x = vectors[row][c]
            if i != r and x:
                rows[i] = add[row][scale[fq.neg[x]][top]]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return r, pivots, rows


def kernel_basis(n, q, A):
    """Codes of a basis of the right kernel of A."""
    neg, vectors = field(q).neg, _vector_tables(n, q)[2]
    _, pivots, rows = row_reduce(n, q, A)
    return [q ** fc + sum(neg[vectors[row][fc]] * q ** pc for row, pc in zip(rows, pivots))
            for fc in range(n) if fc not in pivots]


def poly_at_matrix(n, q, coeffs, A):
    """f(A) for a monic f by Horner's rule, (A + c_{d-1}) A + ... + c_0,
    each coefficient added on the diagonal: c at digit i of row i."""
    add = _vector_tables(n, q)[0]
    out = A
    for t, c in enumerate(reversed(coeffs[:-1])):
        if t:
            out = mat_mul(n, q, out, A)
        out = tuple(add[r][c * q ** i] for i, r in enumerate(out))
    return out


# -- the group ------------------------------------------------------------------

@cache
def _vector_tables(n: int, q: int):
    """(add, scale, vectors) on the codes of F_q^n: add[a][b] is the code of
    a + b and scale[s][a] that of s*a, both built one digit at a time from
    the field, and vectors[a] the digit tuple of a.  The q^2n sums are held
    under TABLE_GUARD, as for every group the lookup tables admit: there
    q^2n <= |G| q^n when n >= 2, and field(q) bounds q^2."""
    if q ** (2 * n) > TABLE_GUARD:
        raise ScaleGuardError(f"F_{q}^{n} has {q ** (2 * n)} sums, over table guard {TABLE_GUARD}")
    fq = field(q)

    def digitwise(maps):
        # the code of (maps[t][v_t])_t for every code v, in code order
        codes = [0]
        for t, images in enumerate(maps):
            codes = [c + image * q ** t for image in images for c in codes]
        return codes
    vectors = [()]
    for _ in range(n):
        vectors = [v + (x,) for x in range(q) for v in vectors]
    add = [digitwise([fq.add[x] for x in a]) for a in vectors]
    scale = [digitwise([fq.mul[s]] * n) for s in range(q)]
    return add, scale, vectors


class MatrixGroup:
    """GL(n,q) as the invertible matrices in the order of their codes.

    A matrix is the tuple of its row codes: the row (r_0, ..., r_{n-1}) has
    the base-q code sum_j r_j q^j, and the matrix the code
    sum_i code(row i) (q^n)^i.  `rows[g]` holds the row codes of element g,
    ascending in matrix code, and `id_of[code]` the element id of a matrix
    code (-1 if singular).  Products and conjugates are read from `act[b][r]`,
    the code of the row with code r times element b, built on first use: a
    row of A*B is that row of A times B.  A group whose tables would be
    over TABLE_GUARD is refused before any matrix is listed.  Conjugation
    rows h -> h^-1 g h are built one g at a time, on demand; the list
    methods take products and conjugates of many pairs at once.
    """

    def __init__(self, n: int, q: int):
        self.n, self.q, self.fq = n, q, field(q)
        order = gl_order(n, q)
        if order * q ** n > TABLE_GUARD:
            raise ScaleGuardError(f"lookup tables of GL({n},{q}) hold {order * q ** n} row codes,"
                                  f" over table guard {TABLE_GUARD}")
        add, scale, _ = _vector_tables(n, q)
        # the rows are chosen from the last to the first, each outside the
        # span of those already chosen and in ascending code, so the row
        # codes come out in ascending matrix code
        partial = [((), frozenset([0]))]
        for i in range(n):
            grown = []
            for chosen, span in partial:
                for r in range(q ** n):
                    if r in span:
                        continue
                    if i + 1 < n:  # the last row's span is never read
                        span_r = frozenset(add[x][scale[s][r]] for s in range(q) for x in span)
                    else:
                        span_r = span
                    grown.append(((r,) + chosen, span_r))
            partial = grown
        if len(partial) != order:
            raise ArithmeticError(f"{len(partial)} invertible matrices, not |GL({n},{q})| = {order}")
        self.rows = [rows for rows, _ in partial]
        # q^(n^2) matrix codes, under 4 |G| for every n and q
        self.id_of = [-1] * q ** (n * n)
        for i, rows in enumerate(self.rows):
            self.id_of[sum(r * q ** (n * k) for k, r in enumerate(rows))] = i
        self.id_index = self.element_id([q ** i for i in range(n)])
        self._conj_rows = {}

    def element_id(self, rows):
        """Id of the matrix with these row codes, -1 if it is singular."""
        return self.id_of[sum(r * self.q ** (self.n * k) for k, r in enumerate(rows))]

    @cached_property
    def act(self):
        """act[b][r], the code of row r times element b.

        The row r times b is sum_j r_j (row j of b), so act[b] over the codes
        below q^(j+1) is that over the codes below q^j, shifted by each
        multiple of row j: one table addition per entry."""
        q, n = self.q, self.n
        add, scale, _ = _vector_tables(n, q)
        act = []
        for b_rows in self.rows:
            a = [0]
            for r in b_rows:
                a = [v for s in range(q) for v in map(add[scale[s][r]].__getitem__, a)]
            act.append(a)
        return act

    def mul(self, i, j):
        a_j = self.act[j]
        step = self.q ** self.n
        code = 0
        for r in reversed(self.rows[i]):
            code = code * step + a_j[r]
        return self.id_of[code]

    def mul_pairs(self, xs, ys):
        """[x*y for x, y in zip(xs, ys)], one row position at a time."""
        act, rows, id_of = self.act, self.rows, self.id_of
        step = self.q ** self.n
        acts, x_rows = [act[y] for y in ys], [rows[x] for x in xs]
        codes = [0] * len(acts)
        for k in reversed(range(self.n)):
            codes = [c * step + a[r[k]] for c, a, r in zip(codes, acts, x_rows)]
        return [id_of[c] for c in codes]

    @cached_property
    def inverses(self):
        """Row i of g^-1 is the row whose product with g is e_i, read off act[g]."""
        return tuple(self.element_id([a.index(self.q ** i) for i in range(self.n)])
                     for a in self.act)

    def conj(self, g, h):
        """Index of h^-1 g h."""
        return self.mul(self.mul(self.inverses[h], g), h)

    def conj_pairs(self, gs, hs):
        """[h^-1 g h for g, h in zip(gs, hs)]: row k of h^-1 goes through
        act[g] and then act[h]."""
        act, rows, id_of = self.act, self.rows, self.id_of
        step, inverses = self.q ** self.n, self.inverses
        triples = [(act[g], act[h], rows[inverses[h]]) for g, h in zip(gs, hs)]
        codes = [0] * len(triples)
        for k in reversed(range(self.n)):
            codes = [c * step + a_h[a_g[r[k]]] for c, (a_g, a_h, r) in zip(codes, triples)]
        return [id_of[c] for c in codes]

    def conj_row(self, g):
        """conj_row(g)[h] = index of h^-1 g h for every h, cached per g.

        Built for all h at once: the rows of h^-1 go through act[g] and
        then act[h]."""
        row = self._conj_rows.get(g)
        if row is None:
            act, id_of = self.act, self.id_of
            step = self.q ** self.n
            a_g = act[g]
            codes = [0] * len(act)
            for col in self._inverse_rows:
                codes = [c * step + a_h[a_g[r]] for c, a_h, r in zip(codes, act, col)]
            row = self._conj_rows[g] = [id_of[c] for c in codes]
        return row

    @cached_property
    def _inverse_rows(self):
        # code of row k of h^-1 for every h, highest k first (Horner order)
        return list(zip(*(self.rows[i] for i in self.inverses)))[::-1]

    def generated(self, gens):
        """The subgroup generated by gens: the identity closed under right
        multiplication by each generator (a finite group)."""
        return _close({self.id_index}, [self.id_index], gens,
                      lambda xs, s: self.mul_pairs(xs, [s] * len(xs)))


@cache
def build_group(n: int, q: int) -> MatrixGroup:
    return MatrixGroup(n, q)


# -- classes from matrices -------------------------------------------------------

@cache
def _poly_pool(n: int, q: int):
    """(coeffs, name) of the monic irreducibles other than X of degree up to n:
    X-1 first, named "u", then "f<e>.<i>" for the i-th of degree e in
    canonical order, X-1 not counted, so names come out in key order."""
    x_minus_one = (field(q).minus_one, 1)
    pool = [(x_minus_one, "u")]
    for deg in range(1, n + 1):
        others = [f for f in enumerate_irreducibles(q, deg) if f != x_minus_one]
        pool.extend((f, f"f{deg}.{i}") for i, f in enumerate(others))
    return tuple(pool)


@cache
def _primary_spaces(n: int, q: int, g_id: int) -> tuple:
    """(coeffs, name, partition, basis) for each nonzero primary space of an
    element, in pool order: the element's class, as the engine names it.

    The kernels of f(A)^j grow with j until j reaches the largest block;
    the j-th step, over deg f, counts the blocks of size at least j, so the
    steps are non-increasing multiples of deg f, and the last kernel is the
    f-primary space.  Found once per element and shared by its class name
    and by every d and variant."""
    A = build_group(n, q).rows[g_id]
    spaces, dim = [], 0
    for coeffs, name in _poly_pool(n, q):
        if dim == n:
            break
        deg = len(coeffs) - 1
        P = M = poly_at_matrix(n, q, coeffs, A)
        basis, counts = [], []
        while True:
            kernel = kernel_basis(n, q, P)
            if len(kernel) == len(basis):
                break
            step, rem = divmod(len(kernel) - len(basis), deg)
            if rem:
                raise ArithmeticError(f"kernel dimension step not a multiple of degree {deg}")
            if counts and step > counts[-1]:
                raise ArithmeticError(f"kernel dimension steps of {name} grow: {counts + [step]}")
            counts.append(step)
            basis = kernel
            P = mat_mul(n, q, P, M)
        if basis:
            spaces.append((coeffs, name, conjugate(tuple(counts)), tuple(basis)))
            dim += len(basis)
    if dim != n:
        raise ArithmeticError(f"primary spaces span {dim} of {n} dimensions")
    return tuple(spaces)


def element_key(group: MatrixGroup, g_id: int) -> str:
    """The engine's assignment key of an element's class: "name:partition"
    for each primary space, joined by "|", or "id0" when there is none."""
    return "|".join(f"{name}:" + ",".join(map(str, part))
                    for _, name, part, _ in _primary_spaces(group.n, group.q, g_id)) or "id0"


class OracleClassData(NamedTuple):
    group: MatrixGroup
    reps: tuple[int, ...]
    class_of: tuple[int, ...]
    sizes: tuple[int, ...]
    labels: tuple[str, ...]
    centralizer_orders: tuple[int, ...]


@cache
def oracle_classes(n: int, q: int) -> OracleClassData:
    """Conjugation orbits, each named by the key of its representative;
    distinct orbits are checked to have distinct keys.

    One conjugation row per class representative gives its orbit and,
    as the count of its own id, its centralizer order."""
    group = build_group(n, q)
    size = len(group.rows)
    class_of = [-1] * size
    reps, sizes, cents = [], [], []
    for g in range(size):
        if class_of[g] != -1:
            continue
        row = group.conj_row(g)
        orbit = set(row)
        for x in orbit:
            class_of[x] = len(reps)
        reps.append(g)
        sizes.append(len(orbit))
        cents.append(row.count(g))
    labels = tuple(element_key(group, r) for r in reps)
    if len(set(labels)) != len(labels):
        raise AssertionError(f"two conjugation orbits of GL({n},{q}) share a label")
    if sum(sizes) != size:
        raise ArithmeticError(f"class sizes sum to {sum(sizes)}, not |G| = {size}")
    for c, class_size in zip(cents, sizes):
        if c * class_size != size:
            raise ArithmeticError(f"centralizer {c} times class size {class_size} is not |G|")
    return OracleClassData(group, tuple(reps), tuple(class_of), tuple(sizes),
                           labels, tuple(cents))


# -- sections ---------------------------------------------------------------------

def _degree_matches(degree, d, variant):
    return degree % d == 0 if variant == "divisible" else degree == d


def _d_part_basis(group: MatrixGroup, g_id: int, d: int, variant: str):
    """(id of C, k): the columns of the invertible C are the primary bases of
    g, the first k of them spanning the primary spaces of matching degree
    other than that of X-1; C is the transpose of the bases as rows."""
    sel, rest = [], []
    for coeffs, name, _, basis in _primary_spaces(group.n, group.q, g_id):
        if name != "u" and _degree_matches(len(coeffs) - 1, d, variant):
            sel.extend(basis)
        else:
            rest.extend(basis)
    vectors = _vector_tables(group.n, group.q)[2]
    c_id = group.element_id([sum(x * group.q ** j for j, x in enumerate(col))
                             for col in zip(*map(vectors.__getitem__, sel + rest))])
    if c_id < 0:
        raise ArithmeticError("primary bases are dependent")
    return c_id, len(sel)


def x_part_element(group: MatrixGroup, g_id: int, d: int, variant: str) -> int:
    """Index of the unique d-part: g on the matching primary spaces, 1 elsewhere.

    In the basis C, g is block diagonal, B = C^-1 g C; the d-part D keeps
    the first k columns of B, row i's code mod q^k, and is the identity on
    the rest, and is C D C^-1."""
    c_id, k = _d_part_basis(group, g_id, d, variant)
    q = group.q
    D = [r % q ** k + (q ** i if i >= k else 0)
         for i, r in enumerate(group.rows[group.conj(g_id, c_id)])]
    return group.conj(group.element_id(D), group.inverses[c_id])


@cache
def d_element_ids(n: int, q: int, d: int, variant: str) -> tuple[int, ...]:
    """All element ids in the d-element union of classes: semisimple on X-1,
    every other factor of matching degree, read off the class representatives."""
    data = oracle_classes(n, q)
    good = {cid for cid, r in enumerate(data.reps)
            if all(max(part) == 1 if name == "u" else _degree_matches(len(coeffs) - 1, d, variant)
                   for coeffs, name, part, _ in _primary_spaces(n, q, r))}
    return tuple(g for g, cid in enumerate(data.class_of) if cid in good)


@cache
def _y_candidates(n: int, q: int, d: int, variant: str, k: int) -> tuple[int, ...]:
    """Ids of the elements diag(I_k, B) where B has no factor of matching
    degree other than X-1, read off the primary spaces of B in GL(n-k, q).
    Row i < k of diag(I_k, B) is e_i, with code q^i, and row k + j is row j
    of B shifted past k digits."""
    group = build_group(n, q)
    if k == n:
        return (group.id_index,)
    top = [q ** i for i in range(k)]
    out = []
    for b_id, B in enumerate(build_group(n - k, q).rows):
        if not any(name != "u" and _degree_matches(len(coeffs) - 1, d, variant)
                   for coeffs, name, _, _ in _primary_spaces(n - k, q, b_id)):
            out.append(group.element_id(top + [r * q ** k for r in B]))
    return tuple(sorted(out))


@cache
def y_set(n: int, q: int, d: int, variant: str, u_id: int) -> frozenset[int]:
    """Elements fixing the d-part spaces of u pointwise, stabilizing the
    complement, with no matching-degree factor there besides X-1.

    In the basis C of u such an element is diag(I_k, B), so the set is
    C Z C^-1 over the candidates Z of that k."""
    group = build_group(n, q)
    c_id, k = _d_part_basis(group, u_id, d, variant)
    candidates = _y_candidates(n, q, d, variant, k)
    return frozenset(group.conj_pairs(candidates, [group.inverses[c_id]] * len(candidates)))


class SectionCheck(NamedTuple):
    ok: bool
    parts: dict
    section_of: tuple[int, ...]


def centralizer_generators(group: MatrixGroup, cent) -> list[int]:
    """Generators of the subgroup `cent` (ascending ids), chosen greedily:
    each one the first element outside the subgroup generated so far,
    until that subgroup has the order of `cent`."""
    gens, sub = [], {group.id_index}
    for c in cent:
        if len(sub) == len(cent):
            break
        if c not in sub:
            gens.append(c)
            sub = group.generated(gens)
    return gens


def _close(seen: set, frontier, gens, image) -> set:
    """Add to `seen` everything reached from `frontier` by image(xs, s),
    s in gens, taking the images of the newly reached elements only."""
    while frontier:
        found = []
        for s in gens:
            for x in image(frontier, s):
                if x not in seen:
                    seen.add(x)
                    found.append(x)
        frontier = found
    return seen


def oracle_sections(n: int, q: int, d: int, variant: str) -> SectionCheck:
    """Element-level section partition plus the literal property checks.

    Verifies, for every d-element u: the complementary set is a union of
    centralizer classes, centralizers of products embed in the
    centralizer of u, conjugation equivariance, fusion control, and that
    the sections partition the group.

    Only class representatives get a conjugation row.  Each element g has
    a transporter t with g = t^-1 r t, r its representative, read off the
    row of r, so C(g) = t^-1 C(r) t is generated by the conjugates of the
    generators of C(r), which are checked to generate a group of order
    |C(r)|.  The complementary sets and d-parts are still found for every
    element from its own primary spaces, so that parts (iii) and (v)
    compare independent computations.
    """
    data = oracle_classes(n, q)
    group = data.group
    size = len(group.rows)
    xs = d_element_ids(n, q, d, variant)
    ys = {u: y_set(n, q, d, variant, u) for u in xs}
    transporter = {}
    # C(r) read off the row of r; representatives with one centralizer
    # (the central elements, say) share its generators and its check
    rep_gens, checked = [], {}
    for r, order in zip(data.reps, data.centralizer_orders):
        row = group.conj_row(r)
        transporter.update(zip(row, range(size)))
        cent = tuple(h for h, x in enumerate(row) if x == r)
        if cent not in checked:
            checked[cent] = centralizer_generators(group, cent)
            if len(group.generated(checked[cent])) != order:
                raise ArithmeticError(f"generators of C({r}) do not generate a group of order {order}")
        rep_gens.append(checked[cent])

    def conj_by(gs, h):
        return group.conj_pairs(gs, [h] * len(gs))

    def cent_gens(g):
        gens = rep_gens[data.class_of[g]]
        return group.conj_pairs(gens, [transporter[g]] * len(gens))

    def orbit_count(u):
        seen, count, gens = set(), 0, cent_gens(u)
        for p in prods[u]:
            if p not in seen:
                count += 1
                seen.add(p)
                _close(seen, [p], gens, conj_by)
        return count

    y_lists = {u: sorted(ys[u]) for u in xs}
    prods = {u: group.mul_pairs([u] * len(y_lists[u]), y_lists[u]) for u in xs}
    parts = {}
    # (i) closure under centralizer conjugation: for a finite group,
    # closure under each generator of C(u) is closure under C(u)
    parts["i"] = all(ys[u].issuperset(conj_by(y_lists[u], s)) for u in xs for s in cent_gens(u))
    # (ii) centralizer containment: every generator of C(p) commutes with u
    parts["ii"] = all(group.conj(u, s) == u for u in xs for p in prods[u] for s in cent_gens(p))
    # (iii) conjugation equivariance, ys[h^-1 u h] = h^-1 ys[u] h for all u
    # and h.  Once (i) holds, h and c h with c in C(u) act alike, so one h
    # per coset of C(u) suffices; and (iii) at the representative r of u's
    # class carries over to u by its transporter, so the cosets of C(r)
    # suffice: one transporter per element of the class
    parts["iii"] = all(ys[v] == frozenset(conj_by(y_lists[data.reps[data.class_of[v]]],
                                                  transporter[v])) for v in xs)
    # (iv) fusion: products G-conjugate iff centralizer-conjugate.  A
    # C(u)-conjugate never leaves its G-class, so this holds exactly when the
    # products fall into as many C(u)-orbits as G-classes; each orbit is
    # found by closing one product under conjugation by the generators of C(u)
    parts["iv"] = all(orbit_count(u) == len({data.class_of[p] for p in prods[u]}) for u in xs)
    # (v) sections partition the group
    section_of = []
    for g in range(size):
        x = x_part_element(group, g, d, variant)
        if x not in ys:
            raise AssertionError(f"d-part of element {g} is not a d-element")
        section_of.append(data.class_of[x])
    parts["v"] = set(section_of) == {data.class_of[u] for u in xs}
    ok = all(parts.values())
    return SectionCheck(ok, parts, tuple(section_of))


# -- exact cyclotomic arithmetic ---------------------------------------------------

def _int_poly_divmod(num, den):
    """(quotient, remainder) of integer polynomials, den monic; each step
    visits only the nonzero coefficients of den below its leading one, and
    the leading coefficient each step leaves in place is the quotient's."""
    num = list(num)
    dd = len(den) - 1
    terms = [(i, c) for i, c in enumerate(den[:-1]) if c]
    for top in range(len(num) - 1, dd - 1, -1):
        lead = num[top]
        if lead:
            for i, c in terms:
                num[top - dd + i] -= lead * c
    return num[dd:], num[:dd]


@cache
def cyclotomic_poly(e: int) -> tuple[int, ...]:
    num = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            num, rem = _int_poly_divmod(num, cyclotomic_poly(d))
            if any(rem):
                raise ArithmeticError(f"cyclotomic polynomial {d} does not divide x^{e} - 1")
    return tuple(num)


def cyc_reduce(a):
    """Canonical remainder mod the e-th cyclotomic polynomial."""
    e = len(a)
    return tuple(_int_poly_divmod(a, cyclotomic_poly(e))[1] + [0] * e)[:e]


def cyc_as_int(a):
    """The rational integer a represents, or None."""
    red = cyc_reduce(a)
    if any(red[1:]):
        return None
    return red[0]


def _sparse(row):
    """Each value of a row as its nonzero (exponent, multiplicity) pairs."""
    return [[(j, m) for j, m in enumerate(value) if m] for value in row]


def _pairing(e, sizes, a, b):
    """sum_i |C_i| a_i conj(b_i) in Z[zeta_e] as a rational integer, or None;
    a_i and b_i are sparse values, conj(zeta^j) = zeta^-j."""
    acc = [0] * e
    for size, va, vb in zip(sizes, a, b):
        for ja, ma in va:
            for jb, mb in vb:
                acc[(ja - jb) % e] += size * ma * mb
    return cyc_as_int(acc)


# -- Dixon character table ----------------------------------------------------------

def _find_prime(e, order):
    bound = 2 * isqrt(order) + 1
    ell = e + 1
    while True:
        if ell > bound and prime_factors(ell) == (ell,) and order % ell != 0:
            return ell
        ell += e


def _primitive_root_power(ell, e):
    """g^((ell-1)/e) for the least primitive root g mod ell."""
    m = ell - 1
    for g in range(2, ell):
        if all(pow(g, m // p, ell) != 1 for p in prime_factors(m)):
            return pow(g, m // e, ell)
    raise AssertionError("no generator found")


def _rref_mod(rows, ell, n_cols):
    """(pivot columns, rows) of the reduced row echelon form mod ell, with
    pivots sought in the first n_cols columns."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % ell), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, ell)
        rows[r] = [(x * inv) % ell for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] % ell:
                coef = row[c] % ell
                rows[i] = [(x - coef * y) % ell for x, y in zip(row, rows[r])]
        pivots.append(c)
    return pivots, rows


def _restrict_mod(M, basis, ell):
    """Matrix of M on an M-invariant subspace, in the given basis, mod ell:
    [basis | images] reduced, whose first m columns must have full rank."""
    m = len(basis)
    images = [[sum(map(mul, row, b)) % ell for row in M] for b in basis]
    aug = [[b[r] for b in basis] + [image[r] for image in images]
           for r in range(len(basis[0]))]
    pivots, rows = _rref_mod(aug, ell, m)
    if pivots != list(range(m)):
        raise ArithmeticError("basis vectors are dependent")
    if any(x % ell for row in rows[m:] for x in row[m:]):
        raise ArithmeticError("image escaped the subspace")
    return [row[m:] for row in rows[:m]]


def _kernel_mod(M, ell):
    """Basis of the kernel of M mod ell."""
    n = len(M)
    pivots, rows = _rref_mod(M, ell, n)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [0] * n
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-rows[i][fc]) % ell
        basis.append(v)
    return basis


def _charpoly_mod(M, ell):
    """Coefficients c_0, ..., c_m (c_m = 1) of det(xI - M) mod ell.

    M is brought to upper Hessenberg form H by similarity (a row swap with
    the matching column swap, and eliminations below the subdiagonal with
    the inverse column operation); then the characteristic polynomial p_r
    of the leading r x r block of H follows from
    p_r = (x - h_rr) p_{r-1} - sum_{i<r} h_ir h_{i+1,i} ... h_{r,r-1} p_{i-1}."""
    m = len(M)
    H = [[x % ell for x in row] for row in M]
    for j in range(m - 2):
        piv = next((i for i in range(j + 1, m) if H[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            H[piv], H[j + 1] = H[j + 1], H[piv]
            for row in H:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(H[j + 1][j], -1, ell)
        for i in range(j + 2, m):
            if H[i][j]:
                f = H[i][j] * inv % ell
                H[i] = [(a - f * b) % ell for a, b in zip(H[i], H[j + 1])]
                for row in H:
                    row[j + 1] = (row[j + 1] + f * row[i]) % ell
    polys = [[1]]
    for r in range(m):
        p = [0] + polys[r]
        for t, c in enumerate(polys[r]):
            p[t] = (p[t] - H[r][r] * c) % ell
        sub = 1
        for i in range(r - 1, -1, -1):
            sub = sub * H[i + 1][i] % ell
            f = H[i][r] * sub % ell
            if f:
                for t, c in enumerate(polys[i]):
                    p[t] = (p[t] - f * c) % ell
        polys.append(p)
    return polys[m]


def _roots_mod(coeffs, ell):
    """The roots in [0, ell) of a polynomial mod ell, ascending."""
    roots = []
    for x in range(ell):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % ell
        if acc == 0:
            roots.append(x)
    return roots


class CharacterTable(NamedTuple):
    order: int
    exponent: int
    reps: tuple[int, ...]
    sizes: tuple[int, ...]
    inverse_class: tuple[int, ...]
    degrees: tuple[int, ...]
    values: tuple[tuple[tuple[int, ...], ...], ...]   # values[chi][class] cyclotomic

    def value_int(self, chi: int, cls: int):
        return cyc_as_int(self.values[chi][cls])


def _lift(chars_mod, degrees, power_class, e, ell, z):
    """Root-of-unity multiplicities of each character value, from its
    values mod ell on the powers of the class representative.

    m_j = (1/e) sum_{m<e} chi(r^m) z^(-jm) mod ell.  power_class[i] lists
    the classes of r^m for m below o = ord(r), and they repeat with period
    o, so the sum is (e/o) times the sum over m < o when (e/o) divides j.
    Otherwise it is that sum times sum_{t < e/o} z^(-jot), which is 0 mod
    ell because z^(-jo) is a root of unity other than 1."""
    e_inv = pow(e, -1, ell)
    z_pows = [pow(z, m, ell) for m in range(e)]
    # (e/o) z^(-jm) for m < o, one row per (order o, exponent j), shared by
    # every character
    root_rows = {}
    for powers in power_class:
        o = len(powers)
        stride = e // o
        for j in range(0, e, stride):
            if (o, j) not in root_rows:
                root_rows[o, j] = [stride * z_pows[(-j * m) % e] for m in range(o)]
    values = []
    for chi, cm in enumerate(chars_mod):
        rows = []
        for i, powers in enumerate(power_class):
            chi_powers = [cm[c] for c in powers]
            o = len(powers)
            mults = [0] * e
            for j in range(0, e, e // o):
                mj = sum(map(mul, chi_powers, root_rows[o, j])) * e_inv % ell
                if mj > degrees[chi]:
                    raise ArithmeticError("lifted multiplicity exceeds the degree")
                mults[j] = mj
            if sum(map(mul, mults, z_pows)) % ell != cm[i]:
                raise ArithmeticError("modular roundtrip failed")
            rows.append(tuple(mults))
        values.append(tuple(rows))
    return tuple(values)


@cache
def dixon_table(n: int, q: int) -> CharacterTable:
    """Exact complex character table of GL(n,q) for small groups."""
    data = oracle_classes(n, q)
    group = data.group
    k = len(data.reps)
    if k > CLASS_GUARD:
        raise ScaleGuardError(f"{k} classes over guard {CLASS_GUARD}")
    size = len(group.rows)
    reps = data.reps
    sizes = data.sizes
    inv_class = tuple(data.class_of[group.inverses[r]] for r in reps)
    # power_class[i][m] = class of reps[i]^m for m below the order of reps[i]
    power_class = []
    for r in reps:
        row = [data.class_of[group.id_index]]
        cur = r
        while cur != group.id_index:
            row.append(data.class_of[cur])
            cur = group.mul(cur, r)
        power_class.append(row)
    e = lcm(*(len(row) for row in power_class))
    ell = _find_prime(e, size)
    z = _primitive_root_power(ell, e)

    # class multiplication constants: A_i[j][k] = c_{ijk}
    # counted from one row [x^-1 z_k for every x] per representative z_k
    const = [[[0] * k for _ in range(k)] for _ in range(k)]
    class_of = data.class_of
    for kk in range(k):
        row = group.mul_pairs(group.inverses, [reps[kk]] * size)
        for i, j in zip(class_of, map(class_of.__getitem__, row)):
            const[i][j][kk] += 1
    mats = []
    for i in range(k):
        mats.append([[const[i][j][kk] % ell for kk in range(k)] for j in range(k)])

    # split the class algebra into common eigenlines one matrix at a time;
    # distinct characters have distinct eigenvalue vectors, so this always
    # terminates with k lines
    spaces = [[tuple(1 if r == c else 0 for c in range(k)) for r in range(k)]]
    for i in range(k):
        if all(len(sp) == 1 for sp in spaces):
            break
        nxt = []
        for sp in spaces:
            if len(sp) == 1:
                nxt.append(sp)
                continue
            m = len(sp)
            R = _restrict_mod(mats[i], sp, ell)
            # only a root of the characteristic polynomial has a kernel
            found = 0
            for x in _roots_mod(_charpoly_mod(R, ell), ell):
                shifted = [[(R[a][b] - (x if a == b else 0)) % ell
                            for b in range(m)] for a in range(m)]
                ker = _kernel_mod(shifted, ell)
                if not ker:
                    raise ArithmeticError("class algebra failed to split over the chosen prime")
                lifted = [tuple(sum(kv[j] * sp[j][c] for j in range(m)) % ell
                                for c in range(k)) for kv in ker]
                nxt.append(lifted)
                found += len(ker)
            if found != m:
                raise ArithmeticError("class algebra failed to split over the chosen prime")
        spaces = nxt
    if not (len(spaces) == k and all(len(sp) == 1 for sp in spaces)):
        raise ArithmeticError("eigenvector splitting did not reach lines")
    vectors = [list(sp[0]) for sp in spaces]

    id_cls = data.class_of[group.id_index]
    chars_mod = []
    degrees = []
    for v in vectors:
        if v[id_cls] % ell == 0:
            raise ArithmeticError("eigenvector vanishes at the identity class")
        norm = pow(v[id_cls], -1, ell)
        omega = [(x * norm) % ell for x in v]
        t = sum(omega[i] * omega[inv_class[i]] * pow(sizes[i], -1, ell)
                for i in range(k)) % ell
        target = size * pow(t, -1, ell) % ell
        deg = next((s for s in range(1, isqrt(size) + 1) if s * s % ell == target), None)
        if deg is None:
            raise ArithmeticError(f"no degree s <= isqrt(|G|) has s^2 = {target} mod {ell}")
        chars_mod.append([deg * omega[i] * pow(sizes[i], -1, ell) % ell for i in range(k)])
        degrees.append(deg)
    if sum(d * d for d in degrees) != size:
        raise ArithmeticError("squared degrees do not sum to |G|")

    values = _lift(chars_mod, degrees, power_class, e, ell, z)
    tab = CharacterTable(size, e, reps, sizes, inv_class, tuple(degrees), values)
    _verify_orthogonality(tab)
    return tab


def _verify_orthogonality(tab: CharacterTable):
    """sum_i |C_i| chi_a(C_i) conj(chi_b(C_i)) = |G| [a = b], exactly in Z[zeta_e]."""
    sparse = [_sparse(row) for row in tab.values]
    for a, row_a in enumerate(sparse):
        for b in range(a, len(sparse)):
            if _pairing(tab.exponent, tab.sizes, row_a, sparse[b]) != (tab.order if a == b else 0):
                raise ArithmeticError("row orthogonality failed exactly")


# -- the Borel permutation character and its constituents ------------------------------------

def q_hook_degree(lam, q: int) -> int:
    """Degree of the unipotent character lam by the q-hook formula,
    q^n(lam) prod_{i <= n} (q^i - 1) / prod over the hooks h of lam of (q^h - 1);
    written out here so the oracle does not read the engine's degrees."""
    n = sum(lam)
    lam_t = conjugate(lam)
    num = q ** n_stat(lam)
    for i in range(1, n + 1):
        num *= q ** i - 1
    den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            den *= q ** (row - j + lam_t[j] - i - 1) - 1
    degree, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"q-hook formula for {lam} at q = {q} is not an integer")
    return degree


class BorelDecomposition(NamedTuple):
    table: CharacterTable
    perm_values: tuple[int, ...]
    constituents: dict              # partition -> (char index, multiplicity)


@cache
def borel_unipotent_constituents(n: int, q: int) -> BorelDecomposition:
    """Decompose the Borel-coset permutation character; label by degree.

    The permutation character is induced from the trivial character of B,
    the upper triangular matrices (row i's code divisible by q^i): on the
    class of g it is |C(g)| |g^G intersect B| / |B|.  The unipotent constituents
    are matched to partition labels through their q-hook degrees; a tie
    between two degrees raises instead of guessing.
    """
    data = oracle_classes(n, q)
    tab = dixon_table(n, q)
    in_borel = [0] * len(data.reps)
    for g, rows in enumerate(data.group.rows):
        if all(r % q ** i == 0 for i, r in enumerate(rows)):
            in_borel[data.class_of[g]] += 1
    borel_order = (q - 1) ** n * q ** (n * (n - 1) // 2)
    if sum(in_borel) != borel_order:
        raise ArithmeticError(f"{sum(in_borel)} upper triangular matrices, not |B| = {borel_order}")
    perm = tuple(c * m // borel_order for c, m in zip(data.centralizer_orders, in_borel))
    perm_values, mults = [[(0, x)] for x in perm], []
    for chi, row in enumerate(tab.values):
        val = _pairing(tab.exponent, tab.sizes, perm_values, _sparse(row))
        if val is None or val % tab.order:
            raise ArithmeticError(f"Borel multiplicity of character {chi} is not an integer")
        mults.append(val // tab.order)
    if sum(m * d for m, d in zip(mults, tab.degrees)) != perm[data.class_of[data.group.id_index]]:
        raise ArithmeticError("Borel constituents do not add up to the permutation degree")
    degree_to_label = {}
    for lam in partitions_of(n):
        deg = q_hook_degree(lam, q)
        if deg in degree_to_label:
            raise TieError(f"two unipotent labels share degree {deg}")
        degree_to_label[deg] = lam
    constituents = {}
    for chi, m in enumerate(mults):
        if m <= 0:
            continue
        deg = tab.degrees[chi]
        if deg not in degree_to_label:
            raise TieError(f"constituent of degree {deg} has no unipotent label")
        lam = degree_to_label[deg]
        if lam in constituents:
            raise AssertionError(f"two Borel constituents are labeled {lam}")
        constituents[lam] = (chi, m)
    if len(constituents) != len(partitions_of(n)):
        raise AssertionError(f"{len(constituents)} Borel constituents, not {len(partitions_of(n))}")
    return BorelDecomposition(tab, perm, constituents)


def check_d1_duality_identity(n: int, q: int) -> dict:
    """Exact scalar products with the trivial character over unipotents.

    Returns nonvanishing for every irreducible and, for the unipotent
    constituent labeled lam, equality with degree(conjugate(lam)) divided
    by the prime-to-p part of the group order.
    """
    data = oracle_classes(n, q)
    tab = dixon_table(n, q)
    dec = borel_unipotent_constituents(n, q)
    unip_classes = [i for i, r in enumerate(tab.reps)
                    if all(name == "u" for _, name, _, _ in _primary_spaces(n, q, r))]
    if sum(tab.sizes[i] for i in unip_classes) != q ** (n * (n - 1)):
        raise ArithmeticError("unipotent classes do not hold q^(n(n-1)) elements")
    order = tab.order
    p = field(q).p
    order_p = 1
    while order % p == 0:
        order //= p
        order_p *= p
    order_p_prime = tab.order // order_p
    # sum over unipotent classes of |C_i| conj(chi(C_i)), zero iff its conjugate is
    sizes = [tab.sizes[i] for i in unip_classes]
    ones = [[(0, 1)]] * len(unip_classes)
    all_nonzero = all(_pairing(tab.exponent, sizes, ones, _sparse([row[i] for i in unip_classes]))
                      != 0 for row in tab.values)
    exact_match = True
    for lam, (chi, _) in dec.constituents.items():
        total = 0
        for i in unip_classes:
            v = tab.value_int(chi, i)
            if v is None:
                raise ArithmeticError(f"character {chi} is not rational on unipotent class {i}")
            total += tab.sizes[i] * v
        lhs = Fraction(total, tab.order)
        rhs = Fraction(q_hook_degree(conjugate(lam), q), order_p_prime)
        if lhs != rhs:
            exact_match = False
    return {"all_nonzero": all_nonzero, "unipotent_identity": exact_match}


def oracle_dump(n: int, q: int) -> str:
    """JSON snapshot of classes, table and constituents for regression pinning."""
    data = oracle_classes(n, q)
    tab = dixon_table(n, q)
    dec = borel_unipotent_constituents(n, q)
    blob = {
        "n": n, "q": q, "order": tab.order,
        "classes": [
            {"label": label, "size": size, "centralizer": cent}
            for label, size, cent in zip(data.labels, data.sizes, data.centralizer_orders)
        ],
        "degrees": sorted(tab.degrees),
        "borel_permutation_values": list(dec.perm_values),
        "borel_constituents": {
            str(list(lam)): {"degree": tab.degrees[chi], "multiplicity": m}
            for lam, (chi, m) in dec.constituents.items()
        },
    }
    return json.dumps(blob, sort_keys=True)


def cached_oracle_dump(n: int, q: int) -> str:
    """Dump via the cache directory when GLBLOCKS_CACHE_DIR is set.

    Files are named by package version, so a dump written by another
    version is never served, and written whole to a temporary file that
    is then renamed into place, so a partial dump never appears.
    """
    cache_dir = os.environ.get("GLBLOCKS_CACHE_DIR")
    if not cache_dir:
        return oracle_dump(n, q)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"oracle_{__version__}_{n}_{q}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read()
    blob = oracle_dump(n, q)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return blob
