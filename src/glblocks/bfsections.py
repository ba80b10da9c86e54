"""Element-level oracle: the section partition of a small GL(n,q) and its
property checks, from the matrices of `bruteforce`.

The d-part of an element and the complementary sets of a d-element are
read off its primary spaces: each is conjugated into and out of the basis
of those spaces one element at a time.  Only `verify prop32` runs this
module.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .bruteforce import (MatrixGroup, _close, _primary_spaces, _vector_tables, build_group,
                         oracle_classes)


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
