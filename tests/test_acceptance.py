"""Acceptance suite: one test and one printed pass/fail line per criterion.

Everything is exact (tolerance zero); run with -s to watch the lines go by.
"""

from glblocks import abacus as A
from glblocks import blockcalc as B
from glblocks import bfsections as BS
from glblocks import bftable as BT
from glblocks import bruteforce as BF
from glblocks import chains as CH
from glblocks import glclass as G
from glblocks import partitions as P
from glblocks import qarith as Q
from glblocks import symchar as S
from glblocks import verify as V
from glblocks.blockcalc import Context
from glblocks.errors import HypothesisError
import hookref
import labelref as L
from paperref import sn_l_blocks, weight_one_singular_value
from test_blockcalc import cross_core_pairs, inner_product, section_grams

ORACLE_GROUPS = [(2, 2), (2, 3), (3, 2), (2, 4)]


def announce(number, name, ok):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_symmetric_group_blocks():
    ok = True
    for n in range(1, 9):
        for ell in (2, 3, 4, 5):
            if sn_l_blocks(n, ell) != S.same_core_grouping(n, ell):
                ok = False
    announce(1, "symmetric-group blocks equal same-core grouping (n<=8)", ok)


def test_criterion_02_section_properties():
    ok = True
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        data = BF.oracle_classes(n, q)
        labels = L.oracle_labels(data)
        for d in (1, 2, 3):
            for variant in ("divisible", "exact"):
                check = BS.oracle_sections(n, q, d, variant)
                ok = ok and check.ok
                for g, cid in enumerate(data.class_of):
                    x_cid = check.section_of[g]
                    if L.section_label(labels[cid], d, variant) != \
                            L.section_label(labels[x_cid], d, variant):
                        ok = False
    announce(2, "element-level section properties and label agreement", ok)


def test_criterion_03_class_equation_and_centralizers():
    ok = True
    for n in range(1, 5):
        for q in (2, 3, 4, 5):
            classes = L.all_classes(n, q)
            if sum(G.class_size(L.type_of(c), q) for c in classes) != Q.gl_order(n, q):
                ok = False
    for n, q in ORACLE_GROUPS:
        data = BF.oracle_classes(n, q)
        for cid, lab in enumerate(L.oracle_labels(data)):
            if G.centralizer_order(L.type_of(lab), q) != data.centralizer_orders[cid]:
                ok = False
    announce(3, "class equation and centralizer formula vs oracle", ok)


def test_criterion_04_character_value_oracle_equivalence():
    ok = True
    for n, q in ORACLE_GROUPS:
        data = BF.oracle_classes(n, q)
        labels = L.oracle_labels(data)
        dec = BT.borel_unipotent_constituents(n, q)
        tab = dec.table
        for lam, (chi, _) in dec.constituents.items():
            for i, r in enumerate(tab.reps):
                label = labels[data.class_of[r]]
                if tab.value_int(chi, i) != L.label_value(lam, label):
                    ok = False
    announce(4, "unipotent values equal oracle constituent rows", ok)


CONTEXTS_45 = [(3, 2, 2), (3, 3, 2), (4, 3, 2), (4, 2, 3), (5, 2, 2)]


def test_criterion_05_cross_core_orthogonality_and_refinement():
    ok = True
    for n, q, d in CONTEXTS_45:
        ctx = Context(n, q, d, "divisible")
        for gram in section_grams(ctx).values():
            if any(gram[pair] != 0 for pair in cross_core_pairs(ctx)):
                ok = False
        comb = S.same_core_grouping(n, d)
        if not all(any(b <= c for c in comb) for b in B.unipotent_blocks(ctx)):
            ok = False
    announce(5, "cross-core sections vanish; computed blocks refine", ok)


def test_criterion_06_closed_form_inner_products():
    ok = True
    found_pairs = 0
    for n, q, d in [(3, 3, 2), (4, 3, 2)]:
        ctx = Context(n, q, d, "divisible")
        pairs = V.find_theorem46_pairs(ctx)
        found_pairs += len(pairs)
        for lam, mu in pairs:
            rhs = V.theorem46_rhs(lam, mu, ctx)
            lhs = inner_product(lam, mu, "d_regular", ctx)
            if lhs != rhs or rhs == 0:
                ok = False
        # weight-1 singular values for every same-core distinct pair
        weight1 = [lam for lam in P.partitions_of(n) if A.d_weight(lam, d) == 1]
        for i, lam in enumerate(weight1):
            for mu in weight1[i + 1:]:
                if P.d_core(lam, d) != P.d_core(mu, d):
                    continue
                if inner_product(lam, mu, "d_singular", ctx) != \
                        weight_one_singular_value(lam, mu, ctx):
                    ok = False
    # the (3,3,2) context supplies pairs; in (4,3,2) the only simple
    # partition occupies both runners, so the hypothesis set is empty
    if found_pairs == 0:
        ok = False
    if V.find_theorem46_pairs(Context(4, 3, 2, "divisible")) != ():
        ok = False
    announce(6, "closed-form restricted inner products", ok)


def test_criterion_07_duality_identity():
    ok = True
    for n, q in ORACLE_GROUPS:
        result = BT.check_d1_duality_identity(n, q)
        if not (result["all_nonzero"] and result["unipotent_identity"]):
            ok = False
    announce(7, "unipotent-support scalar products match dual degrees", ok)


def test_criterion_08_partition_sum_identity():
    ok = all(V.lemma49_check(k, F)
             for k in range(1, 9) for F in range(1, 13))
    ok = ok and all(V.lemma49_polynomial_check(k) for k in range(1, 6))
    announce(8, "falling-factorial partition sum identity", ok)


def test_criterion_09_constructive_chains():
    ok = True

    def constructive(w, d):
        return (w <= 1) or (w == 2 and d >= 2 * w) or (w > 2 and d >= 2 * w - 1)

    # chains with direct inner-product verification where tables fit guards
    direct = [(4, 2, 3), (5, 2, 3), (6, 2, 3), (6, 2, 5), (7, 2, 5)]
    for n, q, d in direct:
        ctx = Context(n, q, d, "divisible")
        labels = P.partitions_of(n)
        for i, lam in enumerate(labels):
            for mu in labels[i + 1:]:
                if P.d_core(lam, d) != P.d_core(mu, d):
                    continue
                w = A.d_weight(lam, d)
                if w != A.d_weight(mu, d) or w == 0:
                    continue
                if not constructive(w, d):
                    direct = A.disjoint(lam, mu, d) and (
                        A.is_simple(lam, d) or A.is_simple(mu, d))
                    if direct:
                        chain = CH.link_chain(lam, mu, d)
                        if chain != (lam, mu) or \
                                inner_product(lam, mu, "d_regular", ctx) == 0:
                            ok = False
                    else:
                        # genuinely outside the constructive hypotheses:
                        # the builder must refuse, not fabricate a chain
                        try:
                            CH.link_chain(lam, mu, d)
                            ok = False
                        except HypothesisError:
                            pass
                    continue
                if ctx.f_number < w:
                    continue
                chain = CH.link_chain(lam, mu, d)
                for a, b in zip(chain, chain[1:]):
                    if not CH.chain_link_ok(a, b, d):
                        ok = False
                    if inner_product(a, b, "d_regular", ctx) == 0:
                        ok = False
    # larger weights: combinatorial chains, nonzero by the closed form
    big = Context(15, 2, 5, "divisible")
    labels = [lam for lam in P.partitions_of(15)
              if P.d_core(lam, 5) == () and A.d_weight(lam, 5) == 3]
    for i, lam in enumerate(labels):
        for mu in labels[i + 1:]:
            chain = CH.link_chain(lam, mu, 5)
            for a, b in zip(chain, chain[1:]):
                if not CH.chain_link_ok(a, b, 5):
                    ok = False
                pair = (a, b) if A.is_simple(b, 5) and A.disjoint(a, b, 5) \
                    else (b, a)
                if V.theorem46_rhs(pair[0], pair[1], big) == 0:
                    ok = False
    announce(9, "constructive chains link same-core same-weight pairs", ok)


def test_criterion_10_domination_and_reconstruction():
    ok = True
    for n, q, d in [(4, 3, 2), (3, 3, 2)]:
        ctx = Context(n, q, d, "divisible")
        if V.smt_check(ctx) is not None:
            ok = False
        # each head's dominated sets: the same-core sets of GL(n - |x|, q)
        for head in V.section_weights(ctx):
            seen = set()
            for members in S.same_core_grouping(n - head.n, d):
                if seen & members:
                    ok = False
                seen |= members
    announce(10, "domination data disjoint and reconstruction exact", ok)


def test_criterion_11_sign_well_definedness():
    ok = True
    for size in range(13):
        for lam in P.partitions_of(size):
            for d in range(1, 6):
                if hookref.path_sign_set(lam, d) != frozenset({V.epsilon(lam, d)}):
                    ok = False
    announce(11, "hook-removal sign independent of the path", ok)
