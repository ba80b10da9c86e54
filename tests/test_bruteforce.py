import ast
import json
from functools import cache
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from glblocks import bfsections as BS
from glblocks import bftable as BT
from glblocks import bruteforce as BF
from glblocks import charvalue as C
from glblocks import classlist as CL
from glblocks import glclass as G
from glblocks import qarith as Q
from glblocks.errors import ScaleGuardError
from glblocks.symchar import partition_index
import cycref as R
import dixonref as D
import labelref as L

ORACLE_GROUPS = [(2, 2), (2, 3), (3, 2), (2, 4)]
SRC = Path(__file__).resolve().parent.parent / "src"


def test_build_group_sizes():
    for n, q in ORACLE_GROUPS:
        group = BF.build_group(n, q)
        assert len(group.rows) == Q.gl_order(n, q)


def test_build_group_guard():
    with pytest.raises(ScaleGuardError):
        BF.build_group(4, 3)


def poly_divides(div, poly, p):
    """Reference: monic div divides poly over F_p, by long division."""
    rem = list(poly)
    dd = len(div) - 1
    while len(rem) - 1 >= dd:
        lead = rem[-1] % p
        if lead:
            for i in range(dd + 1):
                rem[len(rem) - 1 - dd + i] = (rem[len(rem) - 1 - dd + i] - lead * div[i]) % p
        rem.pop()
    return all(c % p == 0 for c in rem)


def trial_division_modulus(p, e):
    """Reference: the least code among the monic irreducibles of degree e
    over F_p, each candidate tried against every monic of degree 1 .. e/2."""
    def monic(enc, k):
        return [(enc // p ** i) % p for i in range(k)] + [1]
    for enc in range(p ** e):
        poly = monic(enc, e)
        if not any(poly_divides(monic(k_enc, k), poly, p)
                   for k in range(1, e // 2 + 1) for k_enc in range(p ** k)):
            return tuple(poly)


def reference_field_tables(p, e, modulus):
    """Reference add and mul tables of F_p[x]/(modulus) on base-p codes: add
    digit by digit, and each row of mul by linearity, a*b = sum_i b_i a x^i."""
    q = p ** e
    digits = [[(a // p ** i) % p for i in range(e)] for a in range(q)]
    add = []
    for da in digits:
        row = [0]
        for i, x in enumerate(da):
            row = [r + (x + t) % p * p ** i for t in range(p) for r in row]
        add.append(row)
    mul = []
    for a in range(q):
        vec, row = list(digits[a]), [0]
        for i in range(e):
            code = sum(x * p ** t for t, x in enumerate(vec))
            multiples = [0]
            for _ in range(1, p):
                multiples.append(add[multiples[-1]][code])
            row = [add[r][m] for m in multiples for r in row]
            top = vec.pop()  # times x: shift up, then reduce by the modulus
            vec = [(x - top * c) % p for x, c in zip([0] + vec, modulus)]
        mul.append(row)
    return add, mul


def test_field_tables_match_trial_division_modulus():
    # the sieve's first irreducible is the modulus trial division finds, and
    # every table of every F_q with q < 300 is that of F_p[x]/(modulus)
    factored = {}
    for q in range(2, 300):
        try:
            factored[q] = Q.prime_power(q)
        except ValueError:
            continue
    assert len(factored) == 79
    for q, (p, e) in factored.items():
        fq = BF.field(q)
        modulus = trial_division_modulus(p, e)
        if e > 1:
            assert fq.modulus == modulus, q
        add, mul = reference_field_tables(p, e, modulus)
        assert fq.add == add and fq.mul == mul, q
        assert all(add[a][fq.neg[a]] == 0 for a in range(q)), q
        assert fq.inv[0] == 0 and all(mul[a][fq.inv[a]] == 1 for a in range(1, q)), q


def test_class_counts_and_sizes():
    expected = {(2, 2): 3, (2, 3): 8, (3, 2): 6, (2, 4): 15}
    for (n, q), count in expected.items():
        data = BF.oracle_classes(n, q)
        assert len(data.reps) == count
        assert sum(data.sizes) == Q.gl_order(n, q)
        for size in data.sizes:
            assert Q.gl_order(n, q) % size == 0


def test_oracle_labels_match_engine_classes():
    for n, q in ORACLE_GROUPS:
        data = BF.oracle_classes(n, q)
        # every engine key names an oracle class of the same type, and back
        engine = {key: t for batch in CL.class_keys(n, q) for key, _, t in batch}
        oracle = {lab.key(): L.type_of(lab) for lab in L.oracle_labels(data)}
        assert engine == oracle


def test_oracle_centralizers_match_formula():
    for n, q in ORACLE_GROUPS:
        data = BF.oracle_classes(n, q)
        for cid, lab in enumerate(L.oracle_labels(data)):
            assert G.centralizer_order(L.type_of(lab), q) == data.centralizer_orders[cid]
            assert G.class_size(L.type_of(lab), q) == data.sizes[cid]


def canonical_matrix(group, label):
    """Block companion matrix in the class a label names."""
    fq = group.fq
    coeffs_of = {name: coeffs for coeffs, name in BF._poly_pool(group.n, group.q)}
    blocks = []
    items = [("u", p) for p in ([label.unipotent] if label.unipotent else [])]
    items += [(f"f{key.degree}.{key.index}", part) for key, part in label.support]
    for key, part in items:
        coeffs = coeffs_of[key]
        d = len(coeffs) - 1
        for mult in part:
            size = d * mult
            block = [[0] * size for _ in range(size)]
            for rep in range(mult):
                base = rep * d
                for i in range(d - 1):
                    block[base + i][base + i + 1] = 1
                for i in range(d):
                    block[base + d - 1][base + i] = fq.neg[coeffs[i]]
                if rep + 1 < mult:
                    for i in range(d):
                        block[base + i][base + d + i] = 1
            blocks.append(block)
    n = group.n
    out = [[0] * n for _ in range(n)]
    pos = 0
    for block in blocks:
        s = len(block)
        for i in range(s):
            for j in range(s):
                out[pos + i][pos + j] = block[i][j]
        pos += s
    assert pos == n, f"companion blocks fill {pos} of {n} rows"
    return tuple(tuple(row) for row in out)


def test_label_roundtrip_through_canonical_matrix():
    for n, q in ORACLE_GROUPS:
        group = BF.build_group(n, q)
        for lab in L.all_classes(n, q):
            g = group.element_id(as_codes(q, canonical_matrix(group, lab)))
            assert g >= 0
            assert BF.element_key(group, g) == lab.key()


def test_regular_unipotent_centralizer_gl32():
    data = BF.oracle_classes(3, 2)
    for cid, lab in enumerate(L.oracle_labels(data)):
        if lab.unipotent == (3,):
            assert data.centralizer_orders[cid] == 4


# -- matrices as tuples of digit rows, the reference for the row codes ---------

def as_codes(q, A):
    """Row codes of a matrix of digit rows."""
    return tuple(sum(x * q ** j for j, x in enumerate(row)) for row in A)


def as_tuples(group, g):
    """Element g as a tuple of digit rows."""
    q, n = group.q, group.n
    return tuple(tuple(r // q ** j % q for j in range(n)) for r in group.rows[g])


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(fq, A, v):
    out = []
    for row in A:
        acc = 0
        for a, x in zip(row, v):
            acc = fq.add[acc][fq.mul[a][x]]
        out.append(acc)
    return tuple(out)


def schoolbook_mat_mul(fq, A, B):
    """Reference product: each entry a sum of field products, by table."""
    out = []
    for row in A:
        entries = []
        for j in range(len(B[0])):
            acc = 0
            for a, b_row in zip(row, B):
                acc = fq.add[acc][fq.mul[a][b_row[j]]]
            entries.append(acc)
        out.append(tuple(entries))
    return tuple(out)


def tuple_row_reduce(fq, rows):
    """Reference (rank, pivot columns, reduced rows), entry by entry."""
    rows = [list(r) for r in rows]
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        times_inv = fq.mul[fq.inv[rows[r][c]]]
        top = rows[r] = [times_inv[x] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                times = fq.mul[fq.neg[row[c]]]
                rows[i] = [fq.add[x][times[y]] for x, y in zip(row, top)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return r, pivots, [tuple(row) for row in rows]


def tuple_kernel_basis(fq, A):
    """Reference basis of the right kernel of A, as digit tuples."""
    n_cols = len(A[0])
    _, pivots, rows = tuple_row_reduce(fq, A)
    basis = []
    for fc in range(n_cols):
        if fc in pivots:
            continue
        vec = [0] * n_cols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = fq.neg[rows[r][fc]]
        basis.append(tuple(vec))
    return basis


def tuple_poly_at_matrix(fq, coeffs, A):
    """Reference f(A) = sum_t c_t A^t, by schoolbook powers."""
    n = len(A)
    out, power = [[0] * n for _ in range(n)], identity_matrix(n)
    for t, c in enumerate(coeffs):
        if t:
            power = schoolbook_mat_mul(fq, power, A)
        out = [[fq.add[x][fq.mul[c][y]] for x, y in zip(o, p)] for o, p in zip(out, power)]
    return tuple(map(tuple, out))


def mat_inverse(fq, A):
    """Reference inverse: [A | I] row reduced."""
    n = len(A)
    _, pivots, rows = tuple_row_reduce(fq, [A[i] + identity_matrix(n)[i] for i in range(n)])
    assert pivots == list(range(n)), "matrix not invertible"
    return tuple(tuple(row[n:]) for row in rows)


def split_torus_green(mu, q) -> int:
    """The engine's Green value Q^mu at the split torus (1^n), the last
    column of its table."""
    return C.green_values(sum(mu), q)[partition_index(sum(mu))[mu]][-1]


def flag_fixed_points(fq, A) -> int:
    """Reference: the number of complete flags of F_q^n fixed by A.

    A fixed flag is an A-stable line <v> followed by a fixed flag of the
    map A induces on F_q^n/<v>.  With v normalized so that its first
    nonzero coordinate v_k is 1, the e_j (j != k) give a basis of the
    quotient, and A e_j = A_kj v + sum_{i != k} (A_ij - v_i A_kj) e_i."""
    n = len(A)
    if n <= 1:
        return 1
    count = 0
    for code in range(fq.q ** n):
        v = tuple(code // fq.q ** j % fq.q for j in range(n))
        k = next((i for i, x in enumerate(v) if x), None)
        if k is None or v[k] != 1:
            continue
        image = mat_vec(fq, A, v)
        if image != tuple(fq.mul[image[k]][x] for x in v):
            continue  # A v is not a multiple of v
        rest = [i for i in range(n) if i != k]
        count += flag_fixed_points(fq, tuple(
            tuple(fq.add[A[i][j]][fq.neg[fq.mul[v[i]][A[k][j]]]] for j in rest) for i in rest))
    return count


@pytest.mark.parametrize("n,q", ORACLE_GROUPS)
def test_lookup_products_and_conjugates_match_tuples(n, q):
    # every product, every conjugation-row entry and every conj(g, h),
    # against matrix products of tuples; the list forms and the inverses too
    group = BF.build_group(n, q)
    fq = group.fq
    els = [as_tuples(group, g) for g in range(len(group.rows))]
    index = {A: g for g, A in enumerate(els)}
    inverses = [mat_inverse(fq, B) for B in els]
    assert group.inverses == tuple(index[B] for B in inverses)
    everyone = range(len(els))
    for i, A in enumerate(els):
        row = group.conj_row(i)
        assert len(row) == len(els)
        products = group.mul_pairs([i] * len(els), everyone)
        assert group.conj_pairs([i] * len(els), everyone) == row
        for j, B in enumerate(els):
            assert group.mul(i, j) == products[j] == index[schoolbook_mat_mul(fq, A, B)]
            conjugate = index[schoolbook_mat_mul(fq, schoolbook_mat_mul(fq, inverses[j], A), B)]
            assert row[j] == group.conj(i, j) == conjugate


def random_matrices(rng, q):
    """Square matrices of each size n <= 4 whose sums F_q^n x F_q^n pass the
    table guard, random and with a repeated row; the sizes over it, apart."""
    sizes = [n for n in range(1, 5) if q ** (2 * n) <= BF.TABLE_GUARD]
    out = []
    for n in sizes:
        for _ in range(20):
            A = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(n)]
            out.append((n, tuple(A)))
            out.append((n, tuple(A[:-1] + A[:1])))
    return out, [n for n in range(1, 5) if n not in sizes]


def test_mat_mul_matches_schoolbook_product():
    import random
    rng = random.Random(17)
    for q in (2, 3, 4, 5, 8, 9):
        fq = BF.field(q)
        matrices, over = random_matrices(rng, q)
        for n, A in matrices:
            B = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))
            assert BF.mat_mul(n, q, as_codes(q, A), as_codes(q, B)) == \
                as_codes(q, schoolbook_mat_mul(fq, A, B))
        assert over == ([4] if q in (8, 9) else [])
        for n in over:
            # the sums of F_8^4 and F_9^4 are over the table guard
            with pytest.raises(ScaleGuardError, match="sums, over table guard"):
                BF.mat_mul(n, q, (0,) * n, (0,) * n)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_row_code_elimination_matches_tuple_references(q):
    # row_reduce, kernel_basis and poly_at_matrix on row codes, against the
    # entry-by-entry forms, on random and on rank-deficient matrices
    import random
    rng = random.Random(q)
    fq = BF.field(q)
    for n, A in random_matrices(rng, q)[0]:
        codes = as_codes(q, A)
        rank, pivots, rows = BF.row_reduce(n, q, codes)
        ref_rank, ref_pivots, ref_rows = tuple_row_reduce(fq, A)
        assert (rank, pivots, rows) == (ref_rank, ref_pivots, list(as_codes(q, ref_rows)))
        assert BF.kernel_basis(n, q, codes) == list(as_codes(q, tuple_kernel_basis(fq, A)))
        coeffs = tuple(rng.randrange(q) for _ in range(rng.randrange(1, 4))) + (1,)
        assert BF.poly_at_matrix(n, q, coeffs, codes) == \
            as_codes(q, tuple_poly_at_matrix(fq, coeffs, A))


@pytest.mark.parametrize("n,q", ORACLE_GROUPS + [(1, 7), (2, 5)])
def test_row_by_row_enumeration_is_every_invertible_matrix_in_code_order(n, q):
    # reference: every matrix code, kept when row reduction finds rank n
    fq = BF.field(q)
    expected = []
    for code in range(q ** (n * n)):
        digits = [(code // q ** t) % q for t in range(n * n)]
        A = tuple(tuple(digits[i * n:(i + 1) * n]) for i in range(n))
        if tuple_row_reduce(fq, A)[0] == n:
            expected.append(as_codes(q, A))
    group = BF.build_group(n, q)
    assert group.rows == expected
    assert [group.element_id(rows) for rows in expected] == list(range(len(expected)))


def test_lookup_tables_match_row_times_matrix():
    # act[b][r] against the row vector with code r times b, entry by entry
    group = BF.build_group(2, 4)
    fq, q, n = group.fq, group.q, group.n
    vectors = [tuple((r // q ** j) % q for j in range(n)) for r in range(q ** n)]
    for b, rows in enumerate(group.rows):
        B = tuple(vectors[r] for r in rows)
        for r, v in enumerate(vectors):
            assert vectors[group.act[b][r]] == schoolbook_mat_mul(fq, (v,), B)[0]
    assert sorted(i for i in group.id_of if i >= 0) == list(range(len(group.rows)))


@pytest.mark.parametrize("n,q", ORACLE_GROUPS + [(2, 5)])
def test_oracle_classes_build_one_conjugation_row_per_class(n, q):
    BF.build_group.cache_clear()
    BF.oracle_classes.cache_clear()
    data = BF.oracle_classes(n, q)
    assert sorted(data.group._conj_rows) == list(data.reps)
    assert len(data.group._conj_rows) == len(data.reps)


def test_conj_table_guard_builds_no_tables(monkeypatch):
    # the lookup tables of GL(2,11) would hold 13,200 * 121 = 1,597,200 row
    # codes, over TABLE_GUARD: the group is refused when it is constructed,
    # before a matrix is listed or a vector table built
    assert BF.TABLE_GUARD < 13200 * 121
    built = []
    monkeypatch.setattr(BF, "_vector_tables", lambda n, q: built.append((n, q)))
    with pytest.raises(ScaleGuardError, match="lookup tables of GL.2,11. hold 1597200 row codes"):
        BF.MatrixGroup(2, 11)
    assert built == []


def full_power_classes(group, class_of, reps, e):
    """Classes of r^m for every m < e, stepped one product at a time."""
    power_class = []
    for r in reps:
        row, cur = [], group.id_index
        for _ in range(e):
            row.append(class_of[cur])
            cur = group.mul(cur, r)
        power_class.append(row)
    return power_class


def full_length_lift(power_class, chars_mod, degrees, e, ell, z):
    """Reference: the length-e DFT m_j = (1/e) sum_{m<e} chi(r^m) z^(-jm),
    whose multiplicities sum to the degree."""
    e_inv = pow(e, -1, ell)
    z_pows = [pow(z, m, ell) for m in range(e)]
    values = []
    for chi, cm in enumerate(chars_mod):
        rows = []
        for i, powers in enumerate(power_class):
            mults = []
            for j in range(e):
                s = sum(cm[powers[m]] * z_pows[(-j * m) % e] for m in range(e))
                mults.append(s * e_inv % ell)
            assert sum(mults) == degrees[chi]
            assert sum(mults[j] * z_pows[j] for j in range(e)) % ell == cm[i]
            rows.append(tuple(mults))
        values.append(tuple(rows))
    return tuple(values)


def recorded_lift(n, q):
    """(table, its _lift arguments, the full power classes): a fresh
    dixon_table(n, q), recording what its _lift was called with."""
    seen, lift = [], BT._lift
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BT, "_lift", lambda *args: seen.append(args) or lift(*args))
        tab = BT.dixon_table.__wrapped__(n, q)
    (args,) = seen
    data = BF.oracle_classes(n, q)
    return tab, args, full_power_classes(data.group, data.class_of, tab.reps, args[3])


def reference_values(n, q):
    """(table, values): a fresh dixon_table(n, q) and its root-of-unity
    multiplicities, values[chi][class][j], by full_length_lift from the
    arguments of its _lift; the table's residues must be their images."""
    tab, (chars_mod, degrees, _, e, ell, z, modulus, w), full = recorded_lift(n, q)
    values = full_length_lift(full, chars_mod, degrees, e, ell, z)
    assert (tab.modulus, tab.root) == (modulus, w)
    assert tab.residues == tuple(tuple(R.embed(value, modulus, w) for value in row)
                                 for row in values)
    return tab, values


@pytest.mark.parametrize("n,q", [(2, 4), (3, 2), (2, 5)])
def test_lift_over_element_orders_matches_full_length_lift(n, q):
    tab, (_, _, power_class, e, *_), full = recorded_lift(n, q)
    assert tab == BT.dixon_table(n, q) and tab.exponent == e
    # each short row runs up to the first return to the identity class,
    # which holds the identity alone, so its length is the element's order
    data = BF.oracle_classes(n, q)
    id_cls = data.class_of[data.group.id_index]
    for short, row in zip(power_class, full):
        order = row.index(id_cls, 1) if id_cls in row[1:] else e
        assert short == row[:order]
    # the residues are the images of the full-length lift's multiplicities
    reference_values(n, q)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (2, 4)])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("variant", ["divisible", "exact"])
def test_section_properties(n, q, d, variant):
    check = BS.oracle_sections(n, q, d, variant)
    assert check.parts == {"i": True, "ii": True, "iii": True,
                           "iv": True, "v": True}
    assert check.ok


def uncached_conj_row(group, g):
    """h -> h^-1 g h for every h, not stored in the group's row cache."""
    size = len(group.rows)
    return group.conj_pairs([g] * size, range(size))


def all_rows_oracle_sections(n, q, d, variant):
    """Reference: the section checks over every conjugation row, each
    centralizer as a set and part (iii) over every h in G."""
    data = BF.oracle_classes(n, q)
    group = data.group
    size = len(group.rows)
    conj = [uncached_conj_row(group, g) for g in range(size)]
    xs = BS.d_element_ids(n, q, d, variant)
    x_set = set(xs)
    ys = {u: BS.y_set(n, q, d, variant, u) for u in xs}
    centralizer = [frozenset(h for h in range(size) if conj[g][h] == g)
                   for g in range(size)]
    prods = {u: {group.mul(u, y) for y in ys[u]} for u in xs}
    parts = {}
    parts["i"] = all(conj[y][h] in ys[u]
                     for u in xs for y in ys[u] for h in centralizer[u])
    parts["ii"] = all(centralizer[p] <= centralizer[u] for u in xs for p in prods[u])
    parts["iii"] = all(ys[conj[u][h]] == frozenset(conj[y][h] for y in ys[u])
                       for u in xs for h in range(size))
    parts["iv"] = all(
        len({min(conj[p][h] for h in centralizer[u]) for p in prods[u]})
        == len({data.class_of[p] for p in prods[u]}) for u in xs)
    section_of = []
    for g in range(size):
        x = BS.x_part_element(group, g, d, variant)
        assert x in x_set
        section_of.append(data.class_of[x])
    parts["v"] = set(section_of) == {data.class_of[u] for u in xs}
    return parts, tuple(section_of)


@pytest.mark.parametrize("n,q", ORACLE_GROUPS + [(2, 5)])
def test_sections_by_generators_match_all_rows_reference(n, q):
    for d in (1, 2, 3):
        for variant in ("divisible", "exact"):
            check = BS.oracle_sections(n, q, d, variant)
            assert (check.parts, check.section_of) == \
                all_rows_oracle_sections(n, q, d, variant), (d, variant)


@pytest.mark.parametrize("n,q", [(3, 2), (2, 5)])
def test_section_checks_build_rows_only_for_representatives(n, q):
    BF.build_group.cache_clear()
    BF.oracle_classes.cache_clear()
    for d in (1, 2):
        for variant in ("divisible", "exact"):
            assert BS.oracle_sections(n, q, d, variant).ok
    data = BF.oracle_classes(n, q)
    assert sorted(data.group._conj_rows) == list(data.reps)


@pytest.mark.parametrize("n,q,d", [(2, 3, 1), (2, 3, 2), (3, 2, 2), (3, 2, 3)])
@pytest.mark.parametrize("pick", [0, -1])
def test_dropped_complementary_element_fails_section_checks(n, q, d, pick, monkeypatch):
    # one element dropped from the complementary set of a non-central
    # d-element, the first (a class representative) or the last of them
    data = BF.oracle_classes(n, q)
    u = [u for u in BS.d_element_ids(n, q, d, "divisible")
         if data.sizes[data.class_of[u]] > 1][pick]
    real = BS.y_set
    dropped = real(n, q, d, "divisible", u) - {max(real(n, q, d, "divisible", u))}

    def y_set(n_, q_, d_, variant, u_id):
        return dropped if u_id == u else real(n_, q_, d_, variant, u_id)

    monkeypatch.setattr(BS, "y_set", y_set)
    parts = BS.oracle_sections(n, q, d, "divisible").parts
    assert not (parts["i"] and parts["iii"]), parts


def test_one_generator_fails_the_centralizer_order_check(monkeypatch):
    # C(1) = GL(2,3) is not cyclic, nor are all the other centralizers, so
    # the first generator alone fails the order check at one of them
    real = BS.centralizer_generators
    monkeypatch.setattr(BS, "centralizer_generators", lambda group, cent: real(group, cent)[:1])
    with pytest.raises(ArithmeticError, match="do not generate a group of order"):
        BS.oracle_sections(2, 3, 2, "divisible")


@pytest.mark.parametrize("n,q", ORACLE_GROUPS + [(2, 5)])
def test_centralizer_generators_lie_in_and_generate_each_centralizer(n, q):
    data = BF.oracle_classes(n, q)
    group = data.group
    for r, order in zip(data.reps, data.centralizer_orders):
        cent = tuple(h for h, x in enumerate(group.conj_row(r)) if x == r)
        gens = BS.centralizer_generators(group, cent)
        assert set(gens) <= set(cent) and group.generated(gens) == set(cent)
        assert len(cent) == order


def union_find_fusion(n, q, d, variant):
    """Reference part (iv): the products u*y of each d-element u joined by
    a union-find along every conjugation by C(u) that stays among them,
    then every pair compared for G-conjugacy against C(u)-conjugacy."""
    data = BF.oracle_classes(n, q)
    group = data.group
    rows = {}

    def conj_row(g):
        if g not in rows:
            rows[g] = uncached_conj_row(group, g)
        return rows[g]

    ok = True
    for u in BS.d_element_ids(n, q, d, variant):
        centralizer = [h for h, c in enumerate(conj_row(u)) if c == u]
        prods = sorted({group.mul(u, y) for y in BS.y_set(n, q, d, variant, u)})
        pidx = {p: i for i, p in enumerate(prods)}
        parent = list(range(len(prods)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for p in prods:
            row = conj_row(p)
            for h in centralizer:
                t = row[h]
                if t in pidx:
                    ra, rb = find(pidx[p]), find(pidx[t])
                    if ra != rb:
                        parent[ra] = rb
        for i, p in enumerate(prods):
            for p2 in prods[i + 1:]:
                g_conj = data.class_of[p] == data.class_of[p2]
                c_conj = find(pidx[p]) == find(pidx[p2])
                if g_conj != c_conj:
                    ok = False
    return ok


@pytest.mark.parametrize("n,q", ORACLE_GROUPS)
def test_fusion_orbit_count_matches_union_find(n, q):
    for d in (1, 2, 3):
        for variant in ("divisible", "exact"):
            verdict = BS.oracle_sections(n, q, d, variant).parts["iv"]
            assert verdict == union_find_fusion(n, q, d, variant), (d, variant)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_fusion_orbit_count_matches_union_find_on_all_of_g(n, q, monkeypatch):
    # with all of G as every complementary set, two G-conjugate products
    # need not be C(u)-conjugate, and at d = 2 some are not (GL(2,4) is
    # left out: its d = 1 pass alone takes 2 s)
    whole = frozenset(range(Q.gl_order(n, q)))
    monkeypatch.setattr(BS, "y_set", lambda n, q, d, variant, u_id: whole)
    for d in (1, 2, 3):
        for variant in ("divisible", "exact"):
            verdict = BS.oracle_sections(n, q, d, variant).parts["iv"]
            assert verdict == union_find_fusion(n, q, d, variant), (d, variant)
            if d == 2:
                assert verdict is False, variant


def test_unipotent_set_is_identity_section_at_d1():
    # 1-regular elements are exactly the unipotent elements
    data = BF.oracle_classes(3, 2)
    group = data.group
    ident = group.id_index
    y1 = BS.y_set(3, 2, 1, "divisible", ident)
    labels = L.oracle_labels(data)
    unipotent = {g for g, cid in enumerate(data.class_of) if not labels[cid].support}
    assert y1 == frozenset(unipotent)
    assert len(y1) == 2 ** (3 * 2)


def test_identity_section_size_is_regular_count():
    for n, q, d in [(2, 3, 2), (3, 2, 2), (3, 2, 3)]:
        data = BF.oracle_classes(n, q)
        group = data.group
        check = BS.oracle_sections(n, q, d, "divisible")
        ident_cls = data.class_of[group.id_index]
        in_identity_section = sum(1 for cid in check.section_of if cid == ident_cls)
        regular = BS.y_set(n, q, d, "divisible", group.id_index)
        assert in_identity_section == len(regular)


def test_element_sections_match_label_sections():
    for n, q in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        data = BF.oracle_classes(n, q)
        labels = L.oracle_labels(data)
        for d in (1, 2, 3):
            for variant in ("divisible", "exact"):
                check = BS.oracle_sections(n, q, d, variant)
                for g, cid in enumerate(data.class_of):
                    x_cid = check.section_of[g]
                    assert L.section_label(labels[cid], d, variant) == \
                        L.section_label(labels[x_cid], d, variant)


def test_dixon_degrees():
    assert sorted(BT.dixon_table(2, 2).degrees) == [1, 1, 2]
    assert sorted(BT.dixon_table(3, 2).degrees) == [1, 3, 3, 6, 7, 8]
    tab = BT.dixon_table(2, 3)
    assert sorted(tab.degrees) == [1, 1, 2, 2, 2, 3, 3, 4]
    assert sum(d * d for d in tab.degrees) == 48


def dense_orthogonality(tab, values):
    """Reference: the row relations summed as dense vectors in Z[zeta_e]."""
    e = tab.exponent
    for a in range(len(tab.degrees)):
        for b in range(a, len(tab.degrees)):
            acc = tuple([0] * e)
            for i in range(len(tab.reps)):
                term = R.cyc_mul(values[a][i], R.cyc_conj(values[b][i]), e)
                acc = R.cyc_add(acc, R.cyc_scale(tab.sizes[i], term))
            assert R.cyc_as_int(acc) == (tab.order if a == b else 0)


def sparse_orthogonality(tab, values):
    """Reference: the row relations as sparse pairings reduced by Phi_e, the
    check the embedding into Z/M replaced; True when they all hold."""
    rows = [R.sparse(row) for row in values]
    return all(R.pairing(tab.exponent, tab.sizes, rows[a], rows[b]) == (tab.order if a == b else 0)
               for a in range(len(rows)) for b in range(a, len(rows)))


def test_dixon_orthogonality_reverified():
    for n, q in ORACLE_GROUPS:
        tab, values = reference_values(n, q)
        BT._verify_orthogonality(tab)
        dense_orthogonality(tab, values)
        assert sparse_orthogonality(tab, values)
    # one multiplicity moved to another root of unity breaks a relation
    tab, values = reference_values(2, 3)
    chi = tab.degrees.index(2)
    value = list(values[chi][0])
    value[0], value[1] = value[1], value[0]
    rows = list(values[chi])
    rows[0] = tuple(value)
    values = values[:chi] + (tuple(rows),) + values[chi + 1:]
    residues = tuple(tuple(R.embed(value, tab.modulus, tab.root) for value in row)
                     for row in values)
    broken = tab._replace(residues=residues)
    assert not sparse_orthogonality(broken, values)
    with pytest.raises(ArithmeticError, match="orthogonality"):
        BT._verify_orthogonality(broken)


def test_borel_constituents():
    for q in (2, 3, 4):
        dec = BT.borel_unipotent_constituents(2, q)
        degrees = sorted(dec.table.degrees[chi]
                         for chi, _ in dec.constituents.values())
        assert degrees == [1, q]
        assert all(m == 1 for _, m in dec.constituents.values())
    dec = BT.borel_unipotent_constituents(3, 2)
    # multiplicity equals the number of standard tableaux of the label
    assert dec.constituents[(3,)][1] == 1
    assert dec.constituents[(2, 1)][1] == 2
    assert dec.constituents[(1, 1, 1)][1] == 1


def test_green_split_torus_counts_fixed_flags():
    # the Green value against the split torus at a unipotent element is
    # the number of complete flags it fixes, counted here from matrices
    for n, q in ORACLE_GROUPS:
        data = BF.oracle_classes(n, q)
        group = data.group
        for cid, lab in enumerate(L.oracle_labels(data)):
            if lab.support:
                continue
            rep = as_tuples(group, data.reps[cid])
            assert flag_fixed_points(group.fq, rep) == \
                split_torus_green(lab.unipotent, q)


def test_flag_fixed_points_past_n_3():
    # the identity, a transvection and the regular unipotent element of
    # GL(4,2), without building the group: 315, 51 and 1 fixed flags
    fq = BF.field(2)
    transvection = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    regular = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1))
    for A, mu in [(identity_matrix(4), (1, 1, 1, 1)), (transvection, (2, 1, 1)),
                  (regular, (4,))]:
        assert flag_fixed_points(fq, A) == split_torus_green(mu, 2)


def test_engine_values_match_oracle_rows():
    for n, q in ORACLE_GROUPS:
        data = BF.oracle_classes(n, q)
        dec = BT.borel_unipotent_constituents(n, q)
        tab, labels = dec.table, L.oracle_labels(data)
        for lam, (chi, _) in dec.constituents.items():
            for i, r in enumerate(tab.reps):
                label = labels[data.class_of[r]]
                assert tab.value_int(chi, i) == L.label_value(lam, label)


def test_duality_identity():
    for n, q in ORACLE_GROUPS:
        result = BT.check_d1_duality_identity(n, q)
        assert result == {"all_nonzero": True, "unipotent_identity": True}


def test_fifth_group_gl25():
    # one more guard-passing group beyond the standard four
    data = BF.oracle_classes(2, 5)
    assert len(data.reps) == 24
    dec = BT.borel_unipotent_constituents(2, 5)
    tab, labels = dec.table, L.oracle_labels(data)
    assert sorted(set(tab.degrees)) == [1, 4, 5, 6]
    for lam, (chi, _) in dec.constituents.items():
        for i, r in enumerate(tab.reps):
            label = labels[data.class_of[r]]
            assert tab.value_int(chi, i) == L.label_value(lam, label)
    assert BT.check_d1_duality_identity(2, 5) == \
        {"all_nonzero": True, "unipotent_identity": True}


# groups past the first five that the table and class guards admit;
# GL(2,9) (80 classes, about 2 s cold, most of it in the class-algebra split)
# is left to the README's timing table
LARGER_ORACLE_GROUPS = [(2, 7), (2, 8), (3, 3), (4, 2)]


@pytest.mark.parametrize("n,q", LARGER_ORACLE_GROUPS)
def test_engine_values_match_oracle_rows_on_larger_groups(n, q):
    data = BF.oracle_classes(n, q)
    assert len(data.group.rows) * q ** n <= BF.TABLE_GUARD
    assert len(data.reps) <= BT.CLASS_GUARD
    dec = BT.borel_unipotent_constituents(n, q)
    tab, labels = dec.table, L.oracle_labels(data)
    for lam, (chi, _) in dec.constituents.items():
        for i, r in enumerate(tab.reps):
            label = labels[data.class_of[r]]
            assert tab.value_int(chi, i) == L.label_value(lam, label)
    assert BT.check_d1_duality_identity(n, q) == \
        {"all_nonzero": True, "unipotent_identity": True}


@pytest.mark.parametrize("n,q", ORACLE_GROUPS + [(2, 5)] + LARGER_ORACLE_GROUPS)
def test_induced_borel_character_counts_fixed_flags(n, q):
    # |C(g)| |g^G n B| / |B| on each class against the complete flags its
    # representative fixes, counted from the matrix
    data = BF.oracle_classes(n, q)
    perm = BT.borel_unipotent_constituents(n, q).perm_values
    assert perm == tuple(flag_fixed_points(data.group.fq, as_tuples(data.group, r))
                         for r in data.reps)


def test_class_and_enumeration_guards_still_fire():
    # GL(1,83) passes the table guard, but its 82 classes are over the
    # class guard; 2^20 polynomial codes are over the enumeration guard
    assert 82 * 83 <= BF.TABLE_GUARD
    with pytest.raises(ScaleGuardError, match="82 classes over guard 80"):
        BT.dixon_table(1, 83)
    with pytest.raises(ScaleGuardError, match="enumeration guard"):
        BF.enumerate_irreducibles(2, 20)


def dense_remainder(num, den):
    """Reference: division with remainder by a monic den over all of its
    coefficients, the loop that the sparse one replaced."""
    num = list(num)
    dd = len(den) - 1
    while len(num) - 1 >= dd:
        lead = num[-1]
        if lead:
            shift = len(num) - 1 - dd
            for i in range(dd + 1):
                num[shift + i] -= lead * den[i]
        num.pop()
    return num


def poly_times_plus(a, b, c):
    """Coefficients of a*b + c, integer polynomials lowest degree first."""
    out = [0] * max(len(a) + len(b) - 1, len(c))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for i, z in enumerate(c):
        out[i] += z
    return out


monic_divisors = st.one_of(
    st.lists(st.integers(-50, 50), max_size=12).map(lambda low: low + [1]),
    st.integers(1, 120).map(lambda e: list(R.cyclotomic_poly(e))))


@settings(max_examples=300, deadline=None)
@given(num=st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=40), den=monic_divisors)
def test_int_poly_divmod_quotient_times_den_plus_remainder(num, den):
    quotient, remainder = R.int_poly_divmod(num, den)
    assert len(remainder) == min(len(num), len(den) - 1)
    assert len(quotient) == max(len(num) - len(den) + 1, 0)
    total = poly_times_plus(quotient, den, remainder)
    assert total[:len(num)] == num and not any(total[len(num):])


def int_vectors(e):
    """Integer vectors of length e, one 16-bit signed entry per two bytes."""
    return st.binary(min_size=2 * e, max_size=2 * e).map(
        lambda raw: [int.from_bytes(raw[i:i + 2], "little", signed=True)
                     for i in range(0, 2 * e, 2)])


# every e <= 120 draws a vector of fixed length e, so even the smallest
# input is large by construction; the four residues of e mod 4 split them
@pytest.mark.parametrize("start", range(1, 5))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.large_base_example])
@given(data=st.data())
def test_sparse_cyclotomic_reduction_matches_dense_division(start, data):
    for e in range(start, 121, 4):
        a = data.draw(int_vectors(e))
        rem = dense_remainder(a, R.cyclotomic_poly(e))
        assert R.cyc_reduce(tuple(a)) == tuple(rem + [0] * (e - len(rem)))


def test_cyclotomic_helpers():
    e = 12
    zeta = tuple(1 if i == 1 else 0 for i in range(e))
    prod = R.cyc_mul(zeta, zeta, e)
    assert prod[2] == 1 and sum(map(abs, prod)) == 1
    # zeta^6 = -1 in the 12th cyclotomic field
    z6 = tuple(1 if i == 6 else 0 for i in range(e))
    assert R.cyc_as_int(z6) == -1
    assert R.cyc_as_int(R.cyc_mul(z6, z6, e)) == 1
    assert R.cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert not any(R.cyc_reduce(R.cyc_add(z6, tuple([1] + [0] * (e - 1)))))


@cache
def embedding(e):
    """(M, w) for zeta_e, from the least prime ell = 1 mod e above 3, with
    the bound e * 2^12 of `test_embedding_decisions_match_cyclotomic_division`."""
    ell = BT._find_prime(e, 1)
    return BT._embedding(e, ell, BT._primitive_root_power(ell, e), e * 2 ** 12)


def byte_vectors(e):
    """Integer vectors of length e, one signed byte per entry."""
    return st.binary(min_size=e, max_size=e).map(
        lambda raw: [x - 256 if x > 127 else x for x in raw])


# each vector is c + r(zeta) Phi_e(zeta), with noise added to some: a
# rational integer, zero, or neither.  Every conjugate of the value is at
# most s, the sum of the absolute values of its entries, so an integer is
# read within s, and the value less that integer is within 2s; Phi_e has
# coefficient sum at most 113 in absolute value for e <= 120, so every
# entry is below 2^11 and 2s below e * 2^12
@pytest.mark.parametrize("start", range(1, 5))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_embedding_decisions_match_cyclotomic_division(start, data):
    for e in range(start, 121, 4):
        phi_e = R.cyclotomic_poly(e)
        width = e - len(phi_e) + 1
        r = [x % 17 - 8 for x in data.draw(st.binary(min_size=width, max_size=width))]
        a = data.draw(st.one_of(st.just([0] * e), byte_vectors(e)))
        a[0] += data.draw(st.integers(-128, 128))
        for i, x in enumerate(r):
            for j, c in enumerate(phi_e):
                a[i + j] += x * c
        assert max(map(abs, a)) < 2 ** 11
        modulus, w = embedding(e)
        image = R.embed(a, modulus, w)
        assert BT._integer(image, modulus, sum(map(abs, a))) == R.cyc_as_int(a)
        assert (image == 0) == (not any(R.cyc_reduce(a)))


@pytest.mark.parametrize("n,q", ORACLE_GROUPS + [(2, 5)])
def test_lifted_root_is_a_root_of_the_cyclotomic_polynomial(n, q):
    # Phi_e(w) = 0 mod M, M exceeds the table's bound to the phi(e), and
    # Newton's iteration gave w = z^(ell^(k-1)) mod M, z = w mod ell
    tab = BT.dixon_table(n, q)
    phi_e = R.cyclotomic_poly(tab.exponent)
    assert R.embed(phi_e, tab.modulus, tab.root) == 0
    ell = BT._find_prime(tab.exponent, tab.order)
    assert tab.root == pow(tab.root % ell, tab.modulus // ell, tab.modulus)
    top, index = max(tab.degrees), tab.order // BT._borel_order(n, q)
    bound = 2 * tab.order * (top * max(top, index) + 1)
    assert tab.modulus > bound ** (len(phi_e) - 1)


def test_broken_lift_and_borel_pairing_raise(monkeypatch):
    seen = []
    lift = BT._lift

    def recording_lift(*args):
        seen.append(args)
        return lift(*args)

    monkeypatch.setattr(BT, "_lift", recording_lift)
    tab = BT.dixon_table.__wrapped__(2, 3)
    (chars_mod, degrees, *rest), = seen
    # one degree too large: that character's multiplicities sum to less
    with pytest.raises(ArithmeticError, match="multiplicities do not sum to the degree"):
        lift(chars_mod, [degrees[0] + 1, *degrees[1:]], *rest)
    # zeta times the trivial character: |G| times its Borel multiplicity is
    # |G| zeta, not a rational integer
    trivial = tab.residues.index((1,) * len(tab.reps))
    residues = list(tab.residues)
    residues[trivial] = tuple(x * tab.root % tab.modulus for x in residues[trivial])
    broken = tab._replace(residues=tuple(residues))
    monkeypatch.setattr(BT, "dixon_table", lambda n, q: broken)
    with pytest.raises(ArithmeticError, match=f"character {trivial} is not an integer"):
        BT.borel_unipotent_constituents.__wrapped__(2, 3)


def test_oracle_dump_deterministic():
    a = BT.oracle_dump(2, 3)
    assert a == BT.oracle_dump(2, 3)
    blob = json.loads(a)
    assert blob["order"] == 48


ORACLE_MODULES = ("bruteforce", "bfsections", "bftable")


def test_oracle_does_not_import_the_engine():
    # the engine-versus-oracle tests are only independent if the oracle
    # derives its degrees and values without the label-level engine: no
    # module of the oracle imports one, nor verify, whose checks load it
    # (imports inside functions included)
    assert {"bruteforce", *(p.stem for p in (SRC / "glblocks").glob("bf*.py"))} == set(ORACLE_MODULES)
    for module in ORACLE_MODULES:
        tree = ast.parse((SRC / "glblocks" / f"{module}.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
                if isinstance(node, ast.ImportFrom) and node.module:
                    names.append(node.module)
                imported.update(name.rsplit(".", 1)[-1] for name in names)
        engine = {"charvalue", "blockcalc", "glclass", "symchar", "verify"}
        assert not imported & engine, (module, imported & engine)


# -- the eigenvalue split by characteristic polynomial ----------------------------

def every_x_eigenvalues(R, ell):
    """Reference: the scan the characteristic polynomial replaced; it tries
    every x < ell and keeps those where R - xI has a kernel, ascending,
    until the kernels fill the space."""
    m = len(R)
    found, out = 0, []
    for x in range(ell):
        shifted = [[(R[a][b] - (x if a == b else 0)) % ell for b in range(m)]
                   for a in range(m)]
        ker = BT._kernel_mod(shifted, ell)
        if ker:
            out.append(x)
            found += len(ker)
            if found == m:
                break
    return out


def det_mod(M, ell):
    """Reference determinant mod ell by Gaussian elimination."""
    rows = [[x % ell for x in row] for row in M]
    m = len(rows)
    det = 1
    for c in range(m):
        piv = next((i for i in range(c, m) if rows[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det = det * rows[c][c] % ell
        inv = pow(rows[c][c], -1, ell)
        for i in range(c + 1, m):
            f = rows[i][c] * inv % ell
            if f:
                rows[i] = [(a - f * b) % ell for a, b in zip(rows[i], rows[c])]
    return det % ell


def restricted_matrices(n, q, monkeypatch):
    """Every (R, ell) whose characteristic polynomial dixon_table asks for."""
    seen = []
    charpoly = BT._charpoly_mod

    def recording_charpoly(R, ell):
        seen.append((R, ell))
        return charpoly(R, ell)

    with monkeypatch.context() as patch:
        patch.setattr(BT, "_charpoly_mod", recording_charpoly)
        BT.dixon_table.__wrapped__(n, q)
    return seen


DIXON_GROUPS = ORACLE_GROUPS + [(2, 5)]


@pytest.mark.parametrize("n,q", DIXON_GROUPS)
def test_charpoly_split_matches_every_x_scan(n, q, monkeypatch):
    # the old scan stands in for the root search: the table is the same,
    # and on every restricted matrix the roots are the eigenvalues it found
    pairs = []
    charpoly, roots_mod = BT._charpoly_mod, BT._roots_mod

    def scan(R, ell):
        expected = every_x_eigenvalues(R, ell)
        pairs.append((roots_mod(charpoly(R, ell), ell), expected))
        return expected

    monkeypatch.setattr(BT, "_charpoly_mod", lambda R, ell: R)
    monkeypatch.setattr(BT, "_roots_mod", scan)
    assert BT.dixon_table.__wrapped__(n, q) == BT.dixon_table(n, q)
    monkeypatch.undo()
    assert pairs and all(roots == expected for roots, expected in pairs)


def charpoly_value(coeffs, x, ell):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % ell
    return acc


def assert_charpoly_is_det(M, ell):
    m = len(M)
    coeffs = BT._charpoly_mod(M, ell)
    assert len(coeffs) == m + 1 and coeffs[-1] == 1
    for x in range(ell):
        shifted = [[((x if a == b else 0) - M[a][b]) % ell for b in range(m)]
                   for a in range(m)]
        assert charpoly_value(coeffs, x, ell) == det_mod(shifted, ell), (M, x)


@pytest.mark.parametrize("n,q", DIXON_GROUPS)
def test_charpoly_of_every_restricted_matrix(n, q, monkeypatch):
    seen = restricted_matrices(n, q, monkeypatch)
    assert seen
    for R, ell in seen:
        assert_charpoly_is_det(R, ell)


def test_charpoly_of_random_matrices():
    import random
    rng = random.Random(10)
    for ell in (2, 7, 13, 241):
        assert_charpoly_is_det([], ell)
        assert_charpoly_is_det([[rng.randrange(ell)]], ell)
        for m in range(2, 7):
            M = [[rng.randrange(ell) for _ in range(m)] for _ in range(m)]
            assert_charpoly_is_det(M, ell)
            if m >= 3:
                # M[1][0] = 0 under a nonzero M[2][0]: the reduction swaps rows
                swap = [row[:] for row in M]
                swap[1][0], swap[2][0] = 0, 1
                assert_charpoly_is_det(swap, ell)
                # block upper triangular: column 1 is zero below row 1, so
                # the Hessenberg form has a zero subdiagonal entry
                block = [[0 if i >= 2 and j < 2 else x for j, x in enumerate(row)]
                         for i, row in enumerate(M)]
                assert_charpoly_is_det(block, ell)
            assert_charpoly_is_det([[0] * m for _ in range(m)], ell)


def test_split_raises_when_a_root_is_dropped_or_added(monkeypatch):
    roots_mod = BT._roots_mod
    monkeypatch.setattr(BT, "_roots_mod", lambda coeffs, ell: roots_mod(coeffs, ell)[1:])
    with pytest.raises(ArithmeticError, match="failed to split"):
        BT.dixon_table.__wrapped__(2, 3)
    # a non-root has an empty kernel
    monkeypatch.setattr(BT, "_roots_mod", lambda coeffs, ell: list(range(ell)))
    with pytest.raises(ArithmeticError, match="failed to split"):
        BT.dixon_table.__wrapped__(2, 3)


def test_kernels_only_at_roots_gl25(monkeypatch):
    # 5,598 kernels with the every-x scan; now one per (space, root)
    kernels, roots = [], []
    kernel_mod, roots_mod = BT._kernel_mod, BT._roots_mod

    def counting_kernel(M, ell):
        kernels.append(len(M))
        return kernel_mod(M, ell)

    def counting_roots(coeffs, ell):
        found = roots_mod(coeffs, ell)
        roots.append(len(found))
        return found

    monkeypatch.setattr(BT, "_kernel_mod", counting_kernel)
    monkeypatch.setattr(BT, "_roots_mod", counting_roots)
    BT.dixon_table.__wrapped__(2, 5)
    assert len(kernels) == sum(roots) < 100


def test_degree_search_miss_raises(monkeypatch):
    # with isqrt patched to 0 the degree range is empty; on GL(2,2) the
    # prime is still 7, as its search bound only rises above 5
    monkeypatch.setattr(BT, "isqrt", lambda m: 0)
    with pytest.raises(ArithmeticError, match="no degree"):
        BT.dixon_table.__wrapped__(2, 2)


def test_primitive_root_power():
    for ell, e in [(3, 2), (7, 6), (7, 3), (13, 12), (241, 120), (241, 8)]:
        z = BT._primitive_root_power(ell, e)
        assert pow(z, e, ell) == 1
        assert all(pow(z, e // p, ell) != 1 for p in range(2, e + 1)
                   if e % p == 0 and all(p % r for r in range(2, p)))
    # the least primitive root: 3 mod 7, 2 mod 13, 7 mod 241
    assert BT._primitive_root_power(7, 6) == 3
    assert BT._primitive_root_power(13, 12) == 2
    assert BT._primitive_root_power(241, 240) == 7


# -- the split by central characters, the class matrices read, the lift per orbit ------

# every group the tests build a table for: the golden corpus's GL(1,q), the
# first five groups and the larger ones
TABLE_GROUPS = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 7)] + DIXON_GROUPS + LARGER_ORACLE_GROUPS


@pytest.mark.parametrize("n,q", TABLE_GROUPS)
def test_dixon_table_matches_the_whole_space_route(n, q, monkeypatch):
    # the same degrees, the same rows up to their order, and the same dump;
    # at q = 2 there is no centre to split by, and the table is the same
    tab, ref = BT.dixon_table(n, q), D.whole_space_dixon_table(n, q)
    assert sorted(tab.degrees) == sorted(ref.degrees)
    assert (tab.modulus, tab.root) == (ref.modulus, ref.root)
    assert sorted(tab.residues) == sorted(ref.residues)
    assert tab._replace(degrees=ref.degrees, residues=ref.residues) == ref
    if q == 2:
        assert tab == ref
    dump = BT.oracle_dump(n, q)
    monkeypatch.setattr(BT, "dixon_table", lambda n, q: ref)
    monkeypatch.setattr(BT, "borel_unipotent_constituents",
                        BT.borel_unipotent_constituents.__wrapped__)
    assert BT.oracle_dump(n, q) == dump


@pytest.mark.parametrize("n,q", [(1, 7), (2, 3), (2, 4), (2, 5), (2, 7)])
def test_rows_come_grouped_by_central_character(n, q):
    # chi(z) = chi(1) lam for z the centre's generator: the rows come in
    # ascending powers lam of w^(e/(q-1)), one run of rows per power
    tab = BT.dixon_table(n, q)
    data = BF.oracle_classes(n, q)
    powers = BT._power_classes(data.group, data.class_of, tab.reps)
    centre = next(i for i, s in enumerate(tab.sizes) if s == 1 and len(powers[i]) == q - 1)
    step = pow(tab.root, tab.exponent // (q - 1), tab.modulus)
    lams = [pow(step, t, tab.modulus) for t in range(q - 1)]
    exponents = [lams.index(row[centre] * pow(deg, -1, tab.modulus) % tab.modulus)
                 for deg, row in zip(tab.degrees, tab.residues)]
    assert exponents == sorted(exponents) and len(set(exponents)) == q - 1


@pytest.mark.parametrize("n,q", DIXON_GROUPS)
def test_lift_per_orbit_matches_the_lift_per_class(n, q):
    _, args, _ = recorded_lift(n, q)
    assert BT._lift(*args) == D.per_class_lift(*args)


def test_split_builds_only_the_class_matrices_it_reads(monkeypatch):
    # the centre's (at q = 2 the identity's), then those the split reads,
    # at most one per cycle of the centre, each once; all k were built before
    built = []
    real = BT._class_matrix
    monkeypatch.setattr(BT, "_class_matrix",
                        lambda group, i, *rest: built.append(i) or real(group, i, *rest))
    counts = {}
    for n, q in [(3, 2), (2, 4), (2, 5), (3, 3), (4, 2)]:
        built.clear()
        BT.dixon_table.__wrapped__(n, q)
        k = len(BF.oracle_classes(n, q).reps)
        assert len(set(built)) == len(built) < k
        counts[n, q] = len(built)
    assert counts == {(3, 2): 5, (2, 4): 4, (2, 5): 7, (3, 3): 9, (4, 2): 10}


def test_scalar_test_and_restriction():
    # M swaps e_0 and e_1 and fixes e_2 mod 7: one scalar on the span of
    # e_0 + e_1 and e_2, and on no space holding e_0
    ell, M = 7, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert BT._scalar_on(M, [(1, 1, 0), (0, 0, 3)], ell) == 1
    assert BT._scalar_on(M, [(1, 6, 0)], ell) == 6
    assert BT._scalar_on(M, [(1, 1, 0), (1, 6, 0)], ell) is None
    assert BT._scalar_on(M, [(1, 0, 0)], ell) is None
    assert BT._restrict_mod(M, [(1, 1, 0), (1, 6, 0)], ell) == [[1, 0], [0, 6]]
    with pytest.raises(ArithmeticError, match="basis vectors are dependent"):
        BT._restrict_mod(M, [(1, 1, 0), (2, 2, 0)], ell)
    with pytest.raises(ArithmeticError, match="image escaped the subspace"):
        BT._restrict_mod(M, [(1, 0, 0)], ell)


def test_root_scan_matches_horner_per_x():
    import random
    rng = random.Random(32)
    for ell in (2, 7, 241, 1153):
        for degree in range(0, 8):
            coeffs = [rng.randrange(ell) for _ in range(degree)] + [1]
            assert BT._roots_mod(coeffs, ell) == \
                [x for x in range(ell) if charpoly_value(coeffs, x, ell) == 0]


def test_a_changed_class_constant_raises_where_it_is_read(monkeypatch):
    # each constant of the first class matrix the split reads after the
    # centre's, on GL(2,3), one too high: the table is refused, or, where
    # the split never reads the constant's row (it reads the least class of
    # each cycle of the centre), the same table comes back; on GL(2,5), the
    # constant at (0, 0), in a row that is read, is refused
    real, ref = BT._class_matrix, sorted(D.whole_space_dixon_table(2, 3).residues)

    def changed_at(j, kk, read):
        built = []

        class Rows(list):
            def __getitem__(self, a):
                read.add(a)
                return list.__getitem__(self, a)

        def changed(*args):
            M = real(*args)
            built.append(M)
            if len(built) == 2:
                M[j][kk] += 1
                return Rows(M)
            return M
        monkeypatch.setattr(BT, "_class_matrix", changed)
    refused = 0
    k = len(BF.oracle_classes(2, 3).reps)
    for j in range(k):
        for kk in range(k):
            read = set()
            changed_at(j, kk, read)
            try:
                tab = BT.dixon_table.__wrapped__(2, 3)
            except ArithmeticError:
                refused += 1
                continue
            assert j not in read and sorted(tab.residues) == ref
    assert refused == 40
    changed_at(0, 0, set())
    with pytest.raises(ArithmeticError):
        BT.dixon_table.__wrapped__(2, 5)


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (2, 4), (2, 5)])
def test_a_split_step_reported_scalar_raises(n, q, monkeypatch):
    # the first step on which the class matrix is not one scalar reports
    # one: the later steps split the space, and a line disagrees with it
    real, lied = BT._scalar_on, []

    def lie(M, basis, ell):
        lam = real(M, basis, ell)
        if lam is None and not lied:
            lied.append(basis)
            return 1
        return lam
    monkeypatch.setattr(BT, "_scalar_on", lie)
    with pytest.raises(ArithmeticError, match="a line disagrees with an eigenvalue the split gave it"):
        BT.dixon_table.__wrapped__(n, q)
    assert lied


def test_every_step_reported_scalar_reaches_no_lines(monkeypatch):
    monkeypatch.setattr(BT, "_scalar_on", lambda M, basis, ell: 1)
    with pytest.raises(ArithmeticError, match="did not reach lines"):
        BT.dixon_table.__wrapped__(3, 2)


def tampered_powers(power_class, inverse_class):
    """power_class with the j-th and (o-j)-th powers of one class swapped, o
    its order, where they differ and o has units other than 1 and -1, and
    its inverse's row to match: the inverse rows stay reversed, but the
    class of r^a, for a third unit a, no longer has r's powers at a*m."""
    rows = [list(row) for row in power_class]
    for i, row in enumerate(rows):
        o = len(row)
        j = next((j for j in range(2, o) if row[j] != row[o - j]), None)
        if j is not None and sum(gcd(a, o) == 1 for a in range(o)) > 2:
            row[j], row[o - j] = row[o - j], row[j]
            rows[inverse_class[i]] = row[:1] + row[:0:-1]
            return rows
    raise LookupError("no class to tamper with")


def test_tampered_power_classes_raise(monkeypatch):
    # on GL(2,4): one row tampered breaks the reversal of the inverse's; a
    # row and its inverse's tampered alike break the orbit under a -> a*m
    real = BT._power_classes
    data = BF.oracle_classes(2, 4)
    inverse_class = [data.class_of[data.group.inverses[r]] for r in data.reps]

    def one_row(*args):
        # r and r^2 swapped in the row of the first class where they differ
        rows = real(*args)
        i = next(i for i, row in enumerate(rows) if len(row) >= 3 and row[1] != row[2])
        rows[i] = rows[i][:1] + rows[i][2:3] + rows[i][1:2] + rows[i][3:]
        return rows
    monkeypatch.setattr(BT, "_power_classes", one_row)
    with pytest.raises(ArithmeticError, match="the powers of an inverse class are not reversed"):
        BT.dixon_table.__wrapped__(2, 4)
    monkeypatch.setattr(BT, "_power_classes",
                        lambda *args: tampered_powers(real(*args), inverse_class))
    with pytest.raises(ArithmeticError, match="not the powers at a.m"):
        BT.dixon_table.__wrapped__(2, 4)


def test_lift_refuses_a_power_class_or_a_root_that_does_not_fit():
    tab, (chars_mod, degrees, power_class, e, ell, z, modulus, w), _ = recorded_lift(2, 5)
    broken = tampered_powers(power_class, tab.inverse_class)
    with pytest.raises(ArithmeticError, match="not the powers at a.m"):
        BT._lift(chars_mod, degrees, broken, e, ell, z, modulus, w)
    # w^-1 is a primitive e-th root of unity mod M too, but not z mod ell
    with pytest.raises(ArithmeticError, match="modular roundtrip failed"):
        BT._lift(chars_mod, degrees, power_class, e, ell, z, modulus, pow(w, e - 1, modulus))


def test_tampered_centre_permutation_raises(monkeypatch):
    # each pair of classes of GL(2,4) whose images under the centre are
    # swapped, and a map that is no permutation: the centre's class matrix,
    # built from its element, is not the permutation matrix of that map
    real = BT._centre_permutation
    k = len(BF.oracle_classes(2, 4).reps)

    def swapped(a, b):
        def permutation(*args):
            sigma = real(*args)
            sigma[a], sigma[b] = sigma[b], sigma[a]
            return sigma
        return permutation
    for a in range(k):
        for b in range(a + 1, k):
            monkeypatch.setattr(BT, "_centre_permutation", swapped(a, b))
            with pytest.raises(ArithmeticError, match="the centre's class matrix is not a permutation"):
                BT.dixon_table.__wrapped__(2, 4)
    monkeypatch.setattr(BT, "_centre_permutation", lambda *args: [0] * k)
    with pytest.raises(ArithmeticError, match="the centre's class matrix is not a permutation"):
        BT.dixon_table.__wrapped__(2, 4)


def test_centre_of_the_wrong_shape_raises(monkeypatch):
    # a central class of GL(2,3) given size 2: one class of size 1 left
    data = BF.oracle_classes(2, 3)
    sizes = list(data.sizes)
    sizes[sizes.index(1)] = 2
    monkeypatch.setattr(BT, "oracle_classes", lambda n, q: data._replace(sizes=tuple(sizes)))
    with pytest.raises(ArithmeticError, match="the centre is not cyclic with q - 1 classes"):
        BT.dixon_table.__wrapped__(2, 3)


def test_a_line_at_zero_or_a_repeated_root_raises(monkeypatch):
    kernel_mod, roots_mod = BT._kernel_mod, BT._roots_mod
    with monkeypatch.context() as patch:
        patch.setattr(BT, "_kernel_mod",
                      lambda M, ell: [[0] * len(M)] if len(kernel_mod(M, ell)) == 1
                      else kernel_mod(M, ell))
        with pytest.raises(ArithmeticError, match="eigenvector vanishes at the identity class"):
            BT.dixon_table.__wrapped__(2, 3)
    # on GL(2,2), the kernel at the first root taken in place of the last:
    # a character twice and one missing, of another degree
    first = []

    def repeated(coeffs, ell):
        found = roots_mod(coeffs, ell)
        first.append(found)
        return found[:1] + found[:-1] if len(first) == 1 else found
    monkeypatch.setattr(BT, "_roots_mod", repeated)
    with pytest.raises(ArithmeticError, match="squared degrees do not sum to"):
        BT.dixon_table.__wrapped__(2, 2)
    assert len(first[0]) >= 2


# -- primary spaces once per element -------------------------------------------------

def test_growing_kernel_steps_raise(monkeypatch):
    # the j-th kernel step of f(A)^j counts the blocks of size at least j, so
    # the steps never grow; kernels made to grow (1, then 3 of 3 dimensions)
    # are refused, not read as a partition of the wrong size
    sizes = iter([1, 3])
    monkeypatch.setattr(BF, "kernel_basis", lambda n, q, A: list(range(next(sizes))))
    with pytest.raises(ArithmeticError, match=r"kernel dimension steps of u grow: \[1, 2\]"):
        BF._primary_spaces.__wrapped__(3, 2, 0)


def tuple_primary_basis(group, A, match):
    """Reference: bases of the primary spaces selected by `match` and of the
    rest, rebuilt from tuple matrix products on every call."""
    fq, n = group.fq, group.n
    sel, rest = [], []
    for coeffs, name in BF._poly_pool(n, group.q):
        M = tuple_poly_at_matrix(fq, coeffs, A)
        P = identity_matrix(n)
        for _ in range(n):
            P = schoolbook_mat_mul(fq, P, M)
        basis = tuple_kernel_basis(fq, P)
        if basis:
            (sel if match(coeffs, name) else rest).extend(basis)
    assert len(sel) + len(rest) == n
    return sel, rest


def matching(d, variant):
    return lambda coeffs, name: name != "u" and \
        BS._degree_matches(len(coeffs) - 1, d, variant)


def tuple_x_part_element(group, g_id, d, variant):
    """Reference d-part: C D C^-1 by tuple products and an inverse."""
    A = as_tuples(group, g_id)
    fq, n = group.fq, group.n
    sel, rest = tuple_primary_basis(group, A, matching(d, variant))
    cols = sel + rest
    C = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    C_inv = mat_inverse(fq, C)
    D = [[0] * n for _ in range(n)]
    for j, v in enumerate(sel):
        coords = mat_vec(fq, C_inv, mat_vec(fq, A, v))
        for i in range(n):
            D[i][j] = coords[i]
    for j in range(len(sel), n):
        D[j][j] = 1
    x = schoolbook_mat_mul(fq, schoolbook_mat_mul(fq, C, tuple(map(tuple, D))), C_inv)
    return group.element_id(as_codes(group.q, x))


def tuple_y_set(group, d, variant, u_id):
    """Reference complementary set: each y tested by tuple products."""
    fq, nn = group.fq, group.n
    sel, rest = tuple_primary_basis(group, as_tuples(group, u_id), matching(d, variant))
    cols = sel + rest
    C = tuple(tuple(cols[j][i] for j in range(nn)) for i in range(nn))
    C_inv = mat_inverse(fq, C)
    k = len(sel)
    bad_polys = [coeffs for coeffs, name in BF._poly_pool(nn, group.q)
                 if matching(d, variant)(coeffs, name)]
    out = []
    for y_id in range(len(group.rows)):
        Y = as_tuples(group, y_id)
        if any(mat_vec(fq, Y, v) != v for v in sel):
            continue
        YC = schoolbook_mat_mul(fq, C_inv, schoolbook_mat_mul(fq, Y, C))
        if any(YC[i][j] != 0 for j in range(k, nn) for i in range(k)):
            continue
        block = tuple(tuple(YC[i][j] for j in range(k, nn)) for i in range(k, nn))
        if block and any(tuple_kernel_basis(fq, tuple_poly_at_matrix(fq, coeffs, block))
                         for coeffs in bad_polys):
            continue
        out.append(y_id)
    return frozenset(out)


@pytest.mark.parametrize("n,q", ORACLE_GROUPS)
@pytest.mark.parametrize("variant", ["divisible", "exact"])
def test_lookup_sections_match_tuple_arithmetic(n, q, variant):
    group = BF.build_group(n, q)
    for d in (1, 2, 3):
        for g in range(len(group.rows)):
            assert BS.x_part_element(group, g, d, variant) == \
                tuple_x_part_element(group, g, d, variant)
        for u in BS.d_element_ids(n, q, d, variant):
            assert BS.y_set(n, q, d, variant, u) == tuple_y_set(group, d, variant, u)
