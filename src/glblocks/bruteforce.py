"""Element-level oracle, shared base: small GL(n,q) as explicit matrices.

Everything the label-level engine claims is re-derived from raw matrices
by the oracle's three modules: this base (fields, irreducibles, linear
algebra, the group and its conjugacy classes), `bfsections` (the section
partition and its property checks) and `bftable` (the exact complex
character table, the Borel constituents and the oracle dump).  None of
them imports the engine.

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
and variant.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import NamedTuple

from .errors import ScaleGuardError
from .partitions import conjugate
from .qarith import gl_order, necklace_count, prime_power

# Each guard bounds what it names, set from measured costs (median of
# three cold runs, 2 vCPUs): `oracle` on GL(2,9), with 466,560 table
# entries and 80 classes, takes 0.5 s and 25 MB; `verify prop32 --d 2`
# takes 3.0 s and 34 MB on GL(3,3) and 5.5 s and 46 MB on GL(4,2) (20,160
# elements).  GL(2,11) would need 1,597,200 table entries and is refused;
# every group the table guard admits has at most 20,160 elements.
TABLE_GUARD = 600_000   # lookup tables hold |G| * q^n row codes
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
