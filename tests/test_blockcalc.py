import json
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction

import pytest

from glblocks import abacus as A
from glblocks import blockcalc as B
from glblocks import chains as CH
from glblocks import charvalue as C
from glblocks import cli
from glblocks import glclass as G
from glblocks import partitions as P
from glblocks import qarith as Q
from glblocks import symchar as S
from glblocks import verify as V
from glblocks.blockcalc import Context
from glblocks.errors import HypothesisError
from paperref import weight_one_singular_value
from test_charvalue import compose_steps, label_chi_value
import labelref as L
import sectionref as R


CONTEXTS = [Context(3, 2, 2, "divisible"), Context(3, 3, 2, "divisible"),
            Context(4, 2, 3, "divisible"), Context(4, 3, 2, "divisible")]


def test_f_number_and_hypothesis_flag():
    assert Context(3, 3, 2, "divisible").f_number == 3
    assert Context(3, 3, 2, "divisible").f_hypothesis_holds
    assert Context(3, 2, 2, "divisible").f_number == 1
    assert not Context(3, 2, 2, "divisible").f_hypothesis_holds
    assert Context(4, 2, 3, "divisible").f_number == 2
    assert Context(2, 4, 1, "divisible").f_number == 2  # degree-1 count omits X and X-1


def inner_product(nu, nu2, domain, ctx):
    """Exact restricted scalar product of two unipotent characters."""
    return Fraction(B.inner_matrix(ctx, domain)[(tuple(nu), tuple(nu2))], Q.gl_order(ctx.n, ctx.q))


def direct_inner_matrix(ctx, domain):
    """Reference: |G| times the Gram summed over the domain's own types,
    sum_t w_t v_t v_t^T, with no use of the other side."""
    weights = B._type_weights(ctx, domain)
    values = {t: C.class_values(t, ctx.q) for t in weights}
    labels = P.partitions_of(ctx.n)
    return {(nu, nu2): sum(w * values[t][i] * values[t][j] for t, w in weights.items())
            for i, nu in enumerate(labels) for j, nu2 in enumerate(labels)}


def test_cheaper_side_matches_the_direct_sum():
    # inner_matrix sums d_regular and d_singular over the side with fewer
    # types; both must equal the direct sum, and both routes must be taken
    routes = set()
    for n in range(7):
        for q in (2, 3, 4, 5):
            for d in (1, 2, 3):
                for variant in ("divisible", "exact"):
                    ctx = Context(n, q, d, variant)
                    sizes = {dom: len(B._type_weights(ctx, dom))
                             for dom in ("d_regular", "d_singular")}
                    for domain, other in (("d_regular", "d_singular"),
                                          ("d_singular", "d_regular")):
                        assert dict(B.inner_matrix(ctx, domain)) == \
                            direct_inner_matrix(ctx, domain), (ctx, domain)
                        routes.add(sizes[other] < sizes[domain])
    assert routes == {True, False}


def test_class_equation_guards_the_full_weights(monkeypatch):
    # a wrong class size breaks sum_t m_t |G|/|C_t| = |G|, which the
    # cheaper side of inner_matrix rests on
    ctx = Context(4, 3, 2, "divisible")
    monkeypatch.setattr(B, "class_size",
                        lambda t, q: G.class_size(t, q) + (t == G.ClassType(4, (4,), ())))
    with pytest.raises(ArithmeticError, match="do not sum to its order"):
        B._type_weights.__wrapped__(ctx, "full")


def head_type(key, q):
    """The head type of the section with the label-level key `key`."""
    return L.type_of(L.make_label(sum(k.degree * sum(p) for k, p in key), q, (), key))


def label_level_inner_product(nu, nu2, domain, ctx):
    """Reference: one Fraction per class label of the domain, chi chi' / |C_G(c)|."""
    classes = L.all_classes(ctx.n, ctx.q)
    if domain == "d_regular":
        classes = [c for c in classes if G.is_d_regular(L.type_of(c), ctx.d, ctx.variant)]
    elif domain == "d_singular":
        classes = [c for c in classes if not G.is_d_regular(L.type_of(c), ctx.d, ctx.variant)]
    elif domain != "full":
        classes = L.sections(ctx.n, ctx.q, ctx.d, ctx.variant)[domain[1]]
    return sum((Fraction(label_chi_value(nu, c) * label_chi_value(nu2, c),
                         G.centralizer_order(L.type_of(c), ctx.q))
                for c in classes), Fraction(0))


def domain_gram(ctx, domain):
    """{(nu, nu2): <chi^nu, chi^nu2>} over a named domain, as Fractions."""
    order = Q.gl_order(ctx.n, ctx.q)
    return {pair: Fraction(val, order) for pair, val in B.inner_matrix(ctx, domain).items()}


@pytest.mark.parametrize("ctx", [Context(4, 3, 2, "divisible"), Context(4, 3, 2, "exact"),
                                 Context(5, 2, 2, "divisible"), Context(4, 4, 3, "divisible")])
def test_type_weighted_product_matches_label_sum(ctx):
    secs = L.sections(ctx.n, ctx.q, ctx.d, ctx.variant)
    sections = V.section_weights(ctx)
    # pairs (the domain's Gram by type, the same domain by label key)
    domains = [(domain_gram(ctx, name), name) for name in ("full", "d_regular", "d_singular")]
    domains += [(R.section_gram(ctx, sections[head_type(key, ctx.q)]), ("section", key))
                for key in secs]
    for gram, label_domain in domains:
        assert len(gram) == len(P.partitions_of(ctx.n)) ** 2
        for (nu, nu2), value in gram.items():
            assert value == label_level_inner_product(nu, nu2, label_domain, ctx), \
                (label_domain, nu, nu2)


def label_level_weights(classes, q):
    """Reference: type weights folded back from the domain's labels."""
    return {t: m * G.class_size(t, q) for t, m in Counter(map(L.type_of, classes)).items()}


@pytest.mark.parametrize("ctx", [Context(4, 3, 2, "divisible"), Context(4, 3, 2, "exact"),
                                 Context(5, 2, 2, "divisible"), Context(4, 4, 3, "divisible")])
def test_section_heads_match_label_sections(ctx):
    secs = L.sections(ctx.n, ctx.q, ctx.d, ctx.variant)
    sections = V.section_weights(ctx)
    assert set(sections) == {head_type(key, ctx.q) for key in secs}
    for key, classes in secs.items():
        assert sections[head_type(key, ctx.q)] == label_level_weights(classes, ctx.q), key
    assert B._type_weights(ctx, "full") == \
        label_level_weights(L.all_classes(ctx.n, ctx.q), ctx.q)


def test_a_section_is_no_domain():
    # the domains are "full", "d_regular" and "d_singular"; sections are
    # split off the types in verify, not summed by inner_matrix
    ctx = Context(4, 3, 2, "divisible")
    head = G.ClassType(2, (), ((2, (1,)),))
    for domain in (("section", head), "section", "d-regular"):
        with pytest.raises(ValueError, match="unknown domain"):
            B.inner_matrix(ctx, domain)


def test_cached_results_are_read_only():
    # a caller cannot corrupt a memo table: clearing inner_matrix used to
    # leave three singleton blocks behind
    ctx = Context(3, 2, 2, "divisible")
    tables = [G.class_types(3, 2), B._type_weights(ctx, "d_regular"),
              B.inner_matrix(ctx, "d_regular"), C._unipotent_values(3, 2),
              S.signed_removal_map((2, 1), (1,), 1), C.class_values(G.ClassType(3, (3,), ()), 2)]
    for table in tables:
        key = next(iter(table)) if isinstance(table, Mapping) else 0
        with pytest.raises(TypeError):
            table[key] = table[key]
        with pytest.raises(AttributeError):
            table.clear()
    assert set(B.unipotent_blocks.__wrapped__(ctx)) == {
        frozenset({(2, 1)}), frozenset({(3,), (1, 1, 1)})}


def test_inner_product_full_group_orthonormal():
    for ctx in CONTEXTS:
        labels = P.partitions_of(ctx.n)
        for nu in labels:
            for nu2 in labels:
                v = inner_product(nu, nu2, "full", ctx)
                assert v == (1 if nu == nu2 else 0)


def test_regular_plus_singular_is_full():
    for ctx in CONTEXTS:
        labels = P.partitions_of(ctx.n)
        for nu in labels:
            for nu2 in labels:
                reg = inner_product(nu, nu2, "d_regular", ctx)
                sing = inner_product(nu, nu2, "d_singular", ctx)
                full = inner_product(nu, nu2, "full", ctx)
                assert reg + sing == full
                if nu != nu2:
                    assert reg == -sing


def section_grams(ctx):
    """{head: the Gram of one section of that head}, over the split's sections."""
    return {head: R.section_gram(ctx, weights)
            for head, weights in V.section_weights(ctx).items()}


def cross_core_pairs(ctx):
    labels = P.partitions_of(ctx.n)
    return [(nu, nu2) for i, nu in enumerate(labels) for nu2 in labels[i + 1:]
            if P.d_core(nu, ctx.d) != P.d_core(nu2, ctx.d)]


def test_section_additivity():
    # the sections of every label key together are the whole group
    for ctx in CONTEXTS:
        grams = section_grams(ctx)
        heads = [head_type(key, ctx.q) for key in L.sections(ctx.n, ctx.q, ctx.d, ctx.variant)]
        for nu, nu2 in grams[heads[0]]:
            assert sum(grams[head][(nu, nu2)] for head in heads) == (nu == nu2)


def test_cross_core_sections_vanish():
    for ctx in CONTEXTS + [Context(5, 2, 2, "divisible")]:
        for gram in section_grams(ctx).values():
            assert all(gram[pair] == 0 for pair in cross_core_pairs(ctx))


def test_weight_one_pairs_directly_linked():
    # same-core weight-1 pairs: the singular value has the closed form and
    # the regular product is its negative, both nonzero
    for ctx in [Context(3, 3, 2, "divisible"), Context(4, 2, 3, "divisible"),
                Context(5, 2, 2, "divisible")]:
        labels = [lam for lam in P.partitions_of(ctx.n)
                  if A.d_weight(lam, ctx.d) == 1]
        for i, lam in enumerate(labels):
            for mu in labels[i + 1:]:
                if P.d_core(lam, ctx.d) != P.d_core(mu, ctx.d):
                    continue
                expected = weight_one_singular_value(lam, mu, ctx)
                assert expected != 0
                assert inner_product(lam, mu, "d_singular", ctx) == expected
                assert inner_product(lam, mu, "d_regular", ctx) == -expected


def test_theorem46_pairs_and_closed_form():
    ctx = Context(3, 3, 2, "divisible")
    pairs = V.find_theorem46_pairs(ctx)
    assert set(pairs) == {((3,), (1, 1, 1)), ((1, 1, 1), (3,))}
    for lam, mu in pairs:
        rhs = V.theorem46_rhs(lam, mu, ctx)
        assert rhs == inner_product(lam, mu, "d_regular", ctx)
        assert rhs == Fraction(3, 8)
    # no simple partition of 4 leaves a runner free at d = 2
    assert V.find_theorem46_pairs(Context(4, 3, 2, "divisible")) == ()


def test_theorem46_weight_two_context():
    ctx = Context(6, 2, 3, "divisible")
    pairs = V.find_theorem46_pairs(ctx)
    assert pairs
    assert {A.d_weight(lam, 3) for lam, _ in pairs} == {2}
    for lam, mu in pairs:
        rhs = V.theorem46_rhs(lam, mu, ctx)
        assert rhs != 0
        assert rhs == inner_product(lam, mu, "d_regular", ctx)


def test_theorem46_hypothesis_errors():
    ctx = Context(3, 3, 2, "divisible")
    with pytest.raises(HypothesisError):
        V.theorem46_rhs((2, 1), (2, 1), ctx)       # weight 0
    with pytest.raises(HypothesisError):
        V.theorem46_rhs((3,), (2, 1), ctx)         # different cores
    with pytest.raises(HypothesisError):
        V.theorem46_rhs((3,), (1, 1, 1), Context(3, 2, 2, "divisible"))  # F < n/d
    ctx6 = Context(6, 2, 3, "divisible")
    simple = CH.find_simple_disjoint((), 2, 3, frozenset())
    with pytest.raises(HypothesisError):
        V.theorem46_rhs(simple, simple, ctx6)      # not disjoint from itself


def test_sign_bookkeeping_same_epsilon():
    # equal signs make the closed form's sign (-1)^w
    ctx = Context(6, 2, 3, "divisible")
    for lam, mu in V.find_theorem46_pairs(ctx):
        w = A.d_weight(lam, ctx.d)
        rhs = V.theorem46_rhs(lam, mu, ctx)
        sign = 1 if rhs > 0 else -1
        eps = V.epsilon(lam, 3) * V.epsilon(mu, 3)
        assert sign == (-1) ** w * eps


def test_unipotent_blocks_d1_single_block():
    for (n, q) in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]:
        assert len(B.unipotent_blocks(Context(n, q, 1, "divisible"))) == 1


def test_unipotent_blocks_large_d_singletons():
    assert all(len(b) == 1 for b in B.unipotent_blocks(Context(3, 2, 5, "divisible")))
    assert all(len(b) == 1 for b in S.same_core_grouping(3, 5))


def test_weight_zero_characters_alone():
    ctx = Context(3, 3, 2, "divisible")
    assert frozenset({(2, 1)}) in B.unipotent_blocks(ctx)


def test_combinatorial_blocks():
    # the combinatorial blocks are the same-core grouping
    assert len(S.same_core_grouping(4, 2)) == 1  # every partition of 4 has empty 2-core
    cores = {P.d_core(lam, 3) for lam in P.partitions_of(4)}
    assert len(S.same_core_grouping(4, 3)) == len(cores) == 3
    assert len(S.same_core_grouping(5, 1)) == 1


def refines(blocks, coarser):
    """Every block lies inside one block of `coarser`."""
    return all(any(b <= c for c in coarser) for b in blocks)


def test_blocks_refine_and_reports():
    for ctx in CONTEXTS + [Context(5, 2, 2, "divisible")]:
        rep = B.blocks_report(ctx)
        assert rep["verdict"] in ("equal", "refinement")
        assert refines(B.unipotent_blocks(ctx), S.same_core_grouping(ctx.n, ctx.d))
    # the weight-2 observation: blocks equal the same-core grouping here
    assert B.blocks_report(Context(4, 3, 2, "divisible"))["verdict"] == "equal"


def test_blocks_beyond_proved_weights_observed_equal():
    # weight-3 and weight-4 families at d = 2 sit outside every proved
    # case; the computed partitions still agree with the same-core
    # grouping on these contexts (recorded observation, refinement is
    # the proved assertion)
    for ctx in [Context(6, 2, 2, "divisible"), Context(6, 3, 2, "divisible"),
                Context(7, 2, 2, "divisible"), Context(8, 2, 2, "divisible")]:
        rep = B.blocks_report(ctx)
        assert refines(B.unipotent_blocks(ctx), S.same_core_grouping(ctx.n, ctx.d))
        assert rep["verdict"] == "equal"


def test_blocks_equal_when_n_at_most_d_triangle():
    # n <= d(d+1)/2 with the count hypothesis: equality, not just refinement
    for ctx in [Context(3, 3, 2, "divisible"), Context(2, 3, 2, "divisible"),
                Context(5, 2, 3, "divisible"), Context(6, 2, 3, "divisible")]:
        if ctx.n <= ctx.d * (ctx.d + 1) // 2 and ctx.f_hypothesis_holds:
            assert B.blocks_report(ctx)["verdict"] == "equal"


def test_blocks_exact_variant():
    rep = B.blocks_report(Context(3, 3, 2, "exact"))
    assert rep["verdict"] in ("equal", "refinement")


def test_exact_variant_carries_the_results():
    # the degree-exactly-d variant keeps cross-core orthogonality, block
    # refinement and the weight-1 closed form (everything except the d=1
    # single-block statement, which is not asserted here)
    for (n, q, d) in [(4, 2, 2), (4, 3, 2), (5, 2, 2)]:
        ctx = Context(n, q, d, "exact")
        labels = P.partitions_of(n)
        for gram in section_grams(ctx).values():
            assert all(gram[pair] == 0 for pair in cross_core_pairs(ctx))
        assert refines(B.unipotent_blocks(ctx), S.same_core_grouping(n, d))
        weight1 = [lam for lam in labels if A.d_weight(lam, d) == 1]
        for i, lam in enumerate(weight1):
            for mu in weight1[i + 1:]:
                if P.d_core(lam, d) != P.d_core(mu, d):
                    continue
                assert inner_product(lam, mu, "d_singular", ctx) == \
                    weight_one_singular_value(lam, mu, ctx)


def test_lemma49_exact_and_polynomial():
    for k in range(1, 9):
        for F in range(1, 13):
            assert V.lemma49_check(k, F), (k, F)
    for k in range(1, 6):
        assert V.lemma49_polynomial_check(k)
    assert V.lemma49_lhs(3, 5) == Fraction(125, 6)
    assert V.lemma49_lhs(2, 7) == Fraction(7, 2) + Fraction(7 * 6, 2)


def test_link_chain_trivial_and_direct():
    assert CH.link_chain((2, 1), (2, 1), 2) == ((2, 1),)
    # weight-1 pairs: direct link
    ctx = Context(4, 2, 3, "divisible")
    labels = [lam for lam in P.partitions_of(4) if A.d_weight(lam, 3) == 1]
    for i, lam in enumerate(labels):
        for mu in labels[i + 1:]:
            chain = CH.link_chain(lam, mu, 3)
            assert chain == (lam, mu)
            assert inner_product(lam, mu, "d_regular", ctx) != 0


def test_link_chain_simple_disjoint_direct():
    lam = CH.single_runner_partition((), 2, 4, 0)
    mu = CH.find_simple_disjoint((), 2, 4, frozenset({0}))
    chain = CH.link_chain(lam, mu, 4)
    assert chain == (lam, mu)


def test_link_chain_hypothesis_cutoffs():
    # the problematic weight-2 narrow case and mismatched inputs
    lam = CH.single_runner_partition((), 2, 3, 0)
    mu = CH.single_runner_partition((), 2, 3, 1)
    with pytest.raises(HypothesisError):
        CH.link_chain(lam, mu, 3)
    with pytest.raises(HypothesisError):
        CH.link_chain((3,), (2, 1), 2)   # different cores


def test_link_chain_exhaustive_small():
    for d in (3, 4, 5):
        for n in range(2, 9):
            labels = P.partitions_of(n)
            for i, lam in enumerate(labels):
                for mu in labels[i + 1:]:
                    if P.d_core(lam, d) != P.d_core(mu, d):
                        continue
                    w = A.d_weight(lam, d)
                    if w != A.d_weight(mu, d):
                        continue
                    if not ((w <= 1) or (w == 2 and d >= 4) or
                            (w > 2 and d >= 2 * w - 1)):
                        continue
                    chain = CH.link_chain(lam, mu, d)
                    assert chain[0] == lam and chain[-1] == mu
                    for a, b in zip(chain, chain[1:]):
                        assert CH.chain_link_ok(a, b, d)


def test_link_chain_weight_three():
    # weight 3 with d = 5: all pairs over the empty core at n = 15
    labels = [lam for lam in P.partitions_of(15)
              if P.d_core(lam, 5) == () and A.d_weight(lam, 5) == 3]
    assert len(labels) == 65
    ctx = Context(15, 2, 5, "divisible")
    sample = labels[::7]
    for i, lam in enumerate(sample):
        for mu in sample[i + 1:]:
            chain = CH.link_chain(lam, mu, 5)
            for a, b in zip(chain, chain[1:]):
                assert CH.chain_link_ok(a, b, 5)
                pair = (a, b) if A.is_simple(b, 5) and A.disjoint(a, b, 5) else (b, a)
                assert V.theorem46_rhs(pair[0], pair[1], ctx) != 0


def test_centralizer_blocks():
    # the centralizer of a section head of type x contributes the unipotent
    # d-blocks of GL(l,q), l = n - |x|
    ctx = Context(4, 3, 2, "divisible")
    # a weight-2 head leaves nothing: single empty-label block
    head = G.ClassType(4, (), ((2, (2,)),))
    zero = B.unipotent_blocks(Context(ctx.n - head.n, ctx.q, ctx.d, ctx.variant))
    assert zero == (frozenset({()}),)
    head = G.ClassType(2, (), ((2, (1,)),))
    small = B.unipotent_blocks(Context(ctx.n - head.n, ctx.q, ctx.d, ctx.variant))
    assert all(len(b) == 1 for b in small) or len(small) < 2


def test_centralizer_blocks_below_d_are_singletons():
    ctx = Context(4, 2, 3, "divisible")
    head = G.ClassType(3, (), ((3, (1,)),))
    sub = B.unipotent_blocks(Context(ctx.n - head.n, ctx.q, ctx.d, ctx.variant))
    assert sub == (frozenset({(1,)}),)


SMT_CONTEXTS = [Context(3, 3, 2, "divisible"), Context(4, 3, 2, "divisible"),
                Context(4, 2, 3, "divisible"), Context(5, 2, 2, "divisible"),
                Context(3, 3, 2, "exact")]


def test_smt_check():
    for ctx in SMT_CONTEXTS:
        assert V.smt_check(ctx) is None
        heads = list(V.section_weights(ctx))
        assert heads
        # the set each block dominates: one same-core set of GL(l,q) per core
        for head in heads:
            for members in S.same_core_grouping(ctx.n - head.n, ctx.d):
                assert len({P.d_core(lam, ctx.d) for lam in members}) == 1


def test_section_types_split_back_into_head_and_y():
    # the reference builds each type t of a section from its head x and a
    # d-regular type y; splitting t by degree gives (x, y) back
    for ctx in SMT_CONTEXTS:
        for head in R.section_heads(ctx.n, ctx.q, ctx.d, ctx.variant):
            pairs = list(R.section_types(ctx, head))
            assert [t for _, t in pairs] == list(R.head_weights(ctx, head))
            for y, t in pairs:
                assert G.is_d_regular(y, ctx.d, ctx.variant)
                assert L.xy_decompose(t, ctx.d, ctx.variant) == (head, y)


SPLIT_CONTEXTS = [Context(n, q, d, variant) for n in range(8) for q in (2, 3, 4, 5)
                  for d in range(1, 5) for variant in G.VARIANTS]


def test_section_split_matches_the_head_reference():
    # grouping the types of GL(n,q) by their d-part gives the sections that
    # the heads and the merge build: the same heads, types and weights; each
    # split is xy_decompose's, with y d-regular, and every type is split once
    assert len(SPLIT_CONTEXTS) == 256
    for ctx in SPLIT_CONTEXTS:
        split = list(V.section_split(ctx))
        assert [t for _, _, t in split] == list(G.class_types(ctx.n, ctx.q))
        for head, y, t in split:
            assert L.xy_decompose(t, ctx.d, ctx.variant) == (head, y)
            assert G.is_d_regular(y, ctx.d, ctx.variant)
        assert V.section_weights(ctx) == R.sections_by_heads(ctx), ctx


def test_wrong_peel_coefficient_fails_smt_check(monkeypatch, capsys):
    # smt_check reads peel from charvalue, where class_values reads it too:
    # an unpatched run caches the direct values first, so that the doubling
    # reaches the reconstruction alone
    ctx = Context(4, 3, 2, "divisible")
    assert V.smt_check(ctx) is None
    real = C.peel
    monkeypatch.setattr(C, "peel", lambda values, n, degree, jordan, q: tuple(
        2 * v for v in real(values, n, degree, jordan, q)))
    assert V.smt_check(ctx).startswith("reconstruction failed")
    code = cli.main(["verify", "smt55", "--n", "4", "--q", "3", "--d", "2", "--output", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["pass"] is False
    assert payload["details"]["error"].startswith("reconstruction failed")


def test_peel_target_leaving_the_core_fails_smt_check(monkeypatch, capsys):
    # every row gains the target (m), the first partition of its size m; on
    # GL(5,3) the peel of a degree-2 head from size 3 to 5 reaches (3,),
    # whose 2-core (1,) is foreign to the source (2, 2, 1), of 2-core (2, 1);
    # smt_check reads mn_step from charvalue, so the values are cached unpatched first
    ctx = Context(5, 3, 2, "divisible")
    assert V.smt_check(ctx) is None
    real = C.mn_step
    monkeypatch.setattr(C, "mn_step", lambda n, degree, jordan, q: tuple(
        (targets + (0,), coefficients + (1,)) for targets, coefficients in real(n, degree, jordan, q)))
    message = "peel target escaped the source's d-core"
    assert V.smt_check(ctx) == message
    code = cli.main(["verify", "smt55", "--n", "5", "--q", "3", "--d", "2", "--output", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["pass"] is False
    assert payload["details"]["error"] == message


def test_section_inner_products_factor_through_peels():
    # weighted section products decompose over the peel coefficients and
    # the complementary group's regular products
    from glblocks import qarith as Q

    for (n, q, d) in [(4, 3, 2), (4, 2, 3)]:
        ctx = Context(n, q, d, "divisible")
        secs = L.sections(n, q, d, "divisible")
        labels = P.partitions_of(n)
        for key in secs:
            x_size = sum(k.degree * sum(p) for k, p in key)
            l = n - x_size
            sub = Context(l, q, d, "divisible")
            x_part = L.type_of(L.make_label(x_size, q, (), key))
            x_in_g = L.make_label(n, q, (1,) * l, key)
            x_class_size = G.class_size(L.type_of(x_in_g), q)
            gram = R.section_gram(ctx, V.section_weights(ctx)[x_part])
            scale = Fraction(Q.gl_order(l, q), Q.gl_order(n, q))
            for mu in labels:
                amu = compose_steps(mu, x_part.components, q)
                for mu2 in labels:
                    amu2 = compose_steps(mu2, x_part.components, q)
                    lhs = gram[(mu, mu2)] / x_class_size
                    rhs = scale * sum(
                        a * b * inner_product(lam, lam2, "d_regular", sub)
                        for lam, a in amu.items() for lam2, b in amu2.items())
                    assert lhs == rhs, (n, q, d, key, mu, mu2)


def test_blocks_orthogonal_across_sections():
    # characters in distinct computed blocks: zero product on every section
    for ctx in [Context(3, 3, 2, "divisible"), Context(4, 2, 3, "divisible")]:
        block_of = {nu: b for b in B.unipotent_blocks(ctx) for nu in b}
        grams = section_grams(ctx).values()
        labels = P.partitions_of(ctx.n)
        for i, nu in enumerate(labels):
            for nu2 in labels[i + 1:]:
                if block_of[nu] != block_of[nu2]:
                    assert all(gram[(nu, nu2)] == 0 for gram in grams)


def test_reports_serializable():
    ctx = Context(3, 3, 2, "divisible")
    rep = B.blocks_report(ctx)
    assert json.loads(json.dumps(rep, sort_keys=True)) == rep
    mat = B.inner_product_matrix_report(ctx, "d_regular")
    assert "matrix" in mat
    assert all("/" in v for v in mat["matrix"].values())
    assert inner_product((3,), (3,), "full", ctx) == 1
