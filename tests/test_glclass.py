import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from glblocks import classlist as CL
from glblocks import cli
from glblocks import glclass as G
from glblocks import partitions as P
from glblocks import qarith as Q
from labelref import GLClassLabel, make_label
from glblocks.glclass import ClassType, d_type
from test_charvalue import label_chi_value
import labelref as L
import sectionref as R

SRC = Path(__file__).resolve().parent.parent / "src"


def identity_label(n: int, q: int) -> GLClassLabel:
    return make_label(n, q, (1,) * n, ())


def class_d_weight(t: ClassType, d: int, variant: str = "divisible") -> int:
    return sum(k * m for k, m in d_type(t, d, variant))


def test_class_counts():
    for q in (2, 3, 4, 5):
        assert len(L.all_classes(1, q)) == q - 1
    assert len(L.all_classes(2, 2)) == 3
    assert len(L.all_classes(2, 3)) == 8
    assert len(L.all_classes(3, 2)) == 6
    assert len(L.all_classes(0, 5)) == 1


def _assignments_for_degree(q, degree, budget):
    """Reference: all ways to attach partitions to distinct degree-`degree`
    polynomials with total size `budget` (in boxes, not weighted)."""
    count = Q.non_unipotent_count(q, degree)
    if budget == 0:
        yield ()
        return
    for used in range(1, min(count, budget) + 1):
        for indices in itertools.combinations(range(count), used):
            for sizes in _compositions(budget, used):
                pools = [P.partitions_of(s) for s in sizes]
                for parts in itertools.product(*pools):
                    yield tuple((L.PolyKey(degree, indices[i]), parts[i])
                                for i in range(used))


def _compositions(total, k):
    """Compositions of `total` into k positive parts."""
    if k == 1:
        yield (total,)
        return
    for first in range(1, total - k + 2):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def label_level_classes(n, q):
    """Reference: the label enumerator `all_classes` had before it was
    built from `class_types`, degree by degree over indexed polynomials."""
    if n == 0:
        return (L.make_label(0, q, (), ()),)
    out = []
    for u_size in range(n + 1):
        for u_part in P.partitions_of(u_size):
            def rec(degree, remaining, acc, u_part=u_part):
                if degree > remaining:
                    if remaining == 0:
                        out.append(L.make_label(n, q, u_part, tuple(acc)))
                    return
                for budget in range(remaining // degree + 1):
                    for chunk in _assignments_for_degree(q, degree, budget):
                        rec(degree + 1, remaining - degree * budget, acc + list(chunk))
            rec(1, n - u_size, [])
    return tuple(sorted(out, key=lambda c: c.key()))


@pytest.mark.parametrize("n, q", [(n, q) for n in range(6) for q in (2, 3, 4, 5)]
                         + [(6, 2), (6, 3), (6, 4)])
def test_all_classes_match_label_enumerator(n, q):
    assert L.all_classes(n, q) == label_level_classes(n, q)


def _class_count_series(q, top):
    """Coefficients of t^0..t^top in prod_k (1 - t^k) / (1 - q t^k)."""
    series = [1] + [0] * top
    for k in range(1, top + 1):
        series = [series[i] - (series[i - k] if i >= k else 0) for i in range(top + 1)]
        for i in range(k, top + 1):
            series[i] += q * series[i - k]
    return series


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_class_types_count_every_class(q):
    # the number of classes of GL(n,q) (Macdonald IV.2) and the class equation
    series = _class_count_series(q, 10)
    for n in range(11):
        types = G.class_types(n, q)
        assert sum(types.values()) == series[n], n
        assert all(t.components == tuple(sorted(t.components)) for t in types)
        if n <= 8:
            assert sum(m * G.class_size(t, q) for t, m in types.items()) == Q.gl_order(n, q)


def test_class_types_examples():
    assert G.class_types(0, 3) == {ClassType(0, (), ()): 1}
    # GL(2,3): N_1 = 1, N_2 = 3
    assert G.class_types(2, 3) == {
        ClassType(2, (1, 1), ()): 1, ClassType(2, (2,), ()): 1,
        ClassType(2, (1,), ((1, (1,)),)): 1,
        ClassType(2, (), ((1, (1, 1)),)): 1,
        ClassType(2, (), ((1, (2,)),)): 1,
        ClassType(2, (), ((2, (1,)),)): 3}
    # two equal partitions on the 3 linear polynomials of GL(2,5): 3*2/2! classes
    assert G.class_types(2, 5)[ClassType(2, (), ((1, (1,)), (1, (1,))))] == 3


def test_class_equation():
    for n in range(1, 5):
        for q in (2, 3, 4, 5):
            classes = L.all_classes(n, q)
            assert sum(G.class_size(L.type_of(c), q) for c in classes) == Q.gl_order(n, q)


def test_label_validation():
    with pytest.raises(ValueError):
        L.make_label(3, 2, (2,), ())  # sizes do not sum to n
    lab = L.make_label(3, 2, (1,), [((2, 0), (1,))])
    assert lab.key() == "u:1|f2.0:1"
    assert L.parse_key(3, 2, "u:1|f2.0:1") == lab and L.parse_key(0, 2, "id0").key() == "id0"
    for bad in ("u:1|f2.0:2", "f2.0:1|u:1", "u:1|f2.0:1|f2.0:1", "u:1,2", "u:1|f2.0:0"):
        with pytest.raises(ValueError):
            L.parse_key(3, 2, bad)


def test_label_checks_survive_python_O():
    # argument checks are explicit raises, so `python -O` keeps them; those
    # of class_keys run on the call, before its stream yields anything
    script = "\n".join([
        "import labelref as L",
        "from glblocks import classlist as CL",
        "for bad in (lambda: L.make_label(2, 3, (), [((1, 0), (1,)), ((1, 0), (1,))]),",
        "            lambda: CL.class_keys(-1, 2), lambda: CL.class_keys(3, 2, 2, 'bogus')):",
        "    try:",
        "        bad()",
        "    except ValueError as exc:",
        "        print('raised', exc)",
        "    else:",
        "        print('accepted')",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["raised support entry PolyKey(degree=1, index=0) is repeated or empty",
                                "raised n must be at least 0, got -1",
                                "raised unknown variant 'bogus'"]


@pytest.mark.parametrize("n, q", [(n, q) for n in range(5) for q in (2, 3, 4, 5)]
                         + [(5, 2), (5, 3)])
def test_class_type_agrees_with_its_labels(n, q):
    # the round trip: every label's type is enumerated, as often as it has
    # labels, and agrees with the label on values, centralizer order and d-tests
    classes = L.all_classes(n, q)
    types = G.class_types(n, q)
    reps = {}
    for c in classes:
        t = L.type_of(c)
        assert t in types and L.type_of(make_label(n, q, t.unipotent, [
            ((degree, i), part) for i, (degree, part) in enumerate(t.components)])) == t
        kind = (c.unipotent, sorted((k.degree, p) for k, p in c.support))
        assert reps.setdefault(repr(kind), t) == t  # one representative per type
        cent = Q.unipotent_centralizer_order(c.unipotent, q)
        for k, p in c.support:
            cent *= Q.unipotent_centralizer_order(p, q ** k.degree)
        assert G.centralizer_order(t, q) == cent
        assert G.class_size(t, q) == Q.gl_order(n, q) // cent
        for d in (1, 2, 3):
            for variant in G.VARIANTS:
                d_part = L.section_label(c, d, variant)
                assert G.is_d_regular(t, d, variant) == (not d_part)
                assert R.is_d_element(t, d, variant) == (
                    set(c.unipotent) <= {1} and len(d_part) == len(c.support))
                assert G.d_type(t, d, variant) == tuple(sorted(
                    (sum(p), k.degree // d) for k, p in d_part))
        for nu in P.partitions_of(n):
            assert L.label_value(nu, c) == label_chi_value(nu, c)
    assert len(set(reps.values())) == len(reps)
    assert Counter(map(L.type_of, classes)) == types


def test_class_type_examples():
    c = L.make_label(8, 5, (1,), [((1, 2), (1,)), ((1, 0), (2,)), ((2, 5), (1,)), ((2, 3), (1,))])
    assert L.type_of(c) == ClassType(8, (1,), ((1, (1,)), (1, (2,)), (2, (1,)), (2, (1,))))
    assert L.type_of(identity_label(3, 2)) == ClassType(3, (1, 1, 1), ())


def test_identity_and_centralizers():
    for n, q in [(2, 2), (3, 2), (2, 3), (4, 3)]:
        ident = L.type_of(identity_label(n, q))
        assert G.centralizer_order(ident, q) == Q.gl_order(n, q)
        assert G.class_size(ident, q) == 1
    # a single companion block of an irreducible of degree n
    lab = L.type_of(L.make_label(3, 2, (), [((3, 0), (1,))]))
    assert G.centralizer_order(lab, 2) == 2 ** 3 - 1
    reg_unip = L.type_of(L.make_label(3, 2, (3,), ()))
    assert G.centralizer_order(reg_unip, 2) == 4


def test_is_d_element():
    q = 3
    ident = L.type_of(identity_label(3, q))
    assert R.is_d_element(ident, 2, "divisible")
    quad = L.type_of(L.make_label(3, q, (1,), [((2, 0), (1,))]))
    assert R.is_d_element(quad, 2, "divisible")
    bad_unip = L.type_of(L.make_label(3, q, (2, 1), ()))
    assert not R.is_d_element(bad_unip, 2, "divisible")
    lin = L.type_of(L.make_label(3, q, (1,), [((1, 0), (1, 1))]))
    assert not R.is_d_element(lin, 2, "divisible")
    assert R.is_d_element(lin, 1, "divisible")


def test_is_d_regular():
    q = 2
    unip = L.type_of(L.make_label(3, q, (2, 1), ()))
    assert G.is_d_regular(unip, 1, "divisible")          # unipotent iff 1-regular
    assert G.is_d_regular(unip, 2, "divisible") and G.is_d_regular(unip, 3, "divisible")
    cubic = L.type_of(L.make_label(3, q, (), [((3, 0), (1,))]))
    assert not G.is_d_regular(cubic, 3, "divisible")
    assert not G.is_d_regular(cubic, 1, "divisible")
    assert G.is_d_regular(cubic, 2, "divisible")
    assert not G.is_d_regular(cubic, 3, "exact")
    assert G.is_d_regular(cubic, 2, "exact")
    for c in L.all_classes(3, 2):
        assert G.is_d_regular(L.type_of(c), 1, "divisible") == (not c.support)
    # scalar classes are d-regular for every d >= 2
    scalar = L.type_of(L.make_label(2, 3, (), [((1, 0), (1, 1))]))
    for d in (2, 3, 4):
        assert G.is_d_regular(scalar, d, "divisible")
    assert not G.is_d_regular(scalar, 1, "divisible")


def test_xy_decompose():
    # mixed class: an irreducible quadratic with a nontrivial unipotent part
    c = L.type_of(L.make_label(4, 3, (2,), [((2, 0), (1,))]))
    x, y = L.xy_decompose(c, 2)
    assert x.n == 2 and x.components == ((2, (1,)),)
    assert y.n == 2 and y.unipotent == (2,) and not y.components
    assert G.d_type(c, 2, "divisible") == ((1, 1),)
    assert class_d_weight(c, 2) == 1

    for c in G.class_types(4, 3):
        x, y = L.xy_decompose(c, 2)
        assert x.n + y.n == 4
        rebuilt = ClassType(4, y.unipotent,
                            tuple(sorted(tuple(x.components) + tuple(y.components))))
        assert rebuilt == c


def test_xy_decompose_degenerate_cases():
    for c in G.class_types(3, 3):
        x, y = L.xy_decompose(c, 2)
        if G.is_d_regular(c, 2, "divisible"):
            assert x.n == 0 and y == c
        if R.is_d_element(c, 2, "divisible"):
            assert not y.components and all(p == 1 for p in y.unipotent)


def test_decomposition_is_injective():
    seen = {}
    for c in G.class_types(4, 2):
        x, y = L.xy_decompose(c, 2)
        key = (x.components, y)
        assert key not in seen
        seen[key] = c


def test_d_type_examples():
    ident = L.type_of(identity_label(4, 3))
    assert G.d_type(ident, 2, "divisible") == ()
    one = L.type_of(L.make_label(4, 3, (1, 1), [((2, 1), (1,))]))
    assert G.d_type(one, 2, "divisible") == ((1, 1),)
    two = L.type_of(L.make_label(4, 3, (), [((2, 0), (1,)), ((2, 2), (1,))]))
    assert G.d_type(two, 2, "divisible") == ((1, 1), (1, 1))
    assert class_d_weight(two, 2) == 2
    deg4 = L.type_of(L.make_label(4, 3, (), [((4, 7), (1,))]))
    assert G.d_type(deg4, 2, "divisible") == ((1, 2),)


@pytest.mark.parametrize("n, q", [(4, 3), (5, 2)])
def test_d_type_reads_the_d_part(n, q):
    for c in G.class_types(n, q):
        for d in (1, 2, 3):
            for variant in G.VARIANTS:
                x_part = L.xy_decompose(c, d, variant)[0]
                pairs = sorted((sum(p), degree // d) for degree, p in x_part.components)
                assert G.d_type(c, d, variant) == tuple(pairs)


def test_section_heads_examples():
    heads = R.section_heads(3, 3, 2, "divisible")
    assert heads == (ClassType(0, (), ()), ClassType(2, (), ((2, (1,)),)))
    # at d = 1 every type without an X-1 part heads a section
    assert set(R.section_heads(3, 3, 1, "divisible")) == {
        t for m in range(4) for t in G.class_types(m, 3) if not t.unipotent}
    assert len(R.section_heads(3, 3, 1, "divisible")) == 10


def test_weight_bound():
    for (n, q, d) in [(2, 3, 2), (3, 2, 2), (4, 3, 2), (4, 2, 3)]:
        for c in L.all_classes(n, q):
            assert class_d_weight(L.type_of(c), d) * d <= n


def test_sections_partition_classes():
    pairs = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 3)]
    contexts = [(n, q, d) for (n, q) in pairs for d in (1, 2, 3)]
    for (n, q, d) in contexts:
        for variant in ("divisible", "exact"):
            classes = L.all_classes(n, q)
            secs = L.sections(n, q, d, variant)
            covered = [c for group in secs.values() for c in group]
            assert sorted(c.key() for c in covered) == sorted(c.key() for c in classes)
            # identity section is exactly the d-regular classes
            assert set(secs[()]) == {c for c in classes
                                     if G.is_d_regular(L.type_of(c), d, variant)}
            # each d-element class heads its own section
            for key, group in secs.items():
                heads = [c for c in group if R.is_d_element(L.type_of(c), d, variant)
                         and L.section_label(c, d, variant) == key]
                if key != ():
                    assert heads, key


def test_section_class_sizes_sum_to_group_order():
    secs = L.sections(2, 3, 2)
    total = sum(G.class_size(L.type_of(c), 3) for group in secs.values() for c in group)
    assert total == Q.gl_order(2, 3)


def test_classes_json_deterministic():
    a = "".join(CL.classes_json(3, 2, 2, "divisible"))
    b = "".join(CL.classes_json(3, 2, 2, "divisible"))
    assert a == b
    payload = json.loads(a)
    assert payload["n"] == 3 and payload["q"] == 2
    assert len(payload["classes"]) == 6
    rec = payload["classes"][0]
    assert set(rec) == {"assignment", "size", "centralizer_order", "d_type", "section"}


def _stdout(argv, capsys):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def _reference_classes_json(n, q, d, variant):
    return [json.dumps(L.classes_report(n, q, d, variant), sort_keys=True)]


def _reference_classes_text(n, q, d, variant):
    return [f"{rec['assignment']}  size {rec['size']}  cent {rec['centralizer_order']}\n"
            for rec in L.classes_report(n, q, d, variant)["classes"]]


def _reference_table_json(n, q):
    return [json.dumps(L.LabelValueTable(n, q).report(), sort_keys=True)]


def _reference_table_csv(n, q):
    return [L.LabelValueTable(n, q).to_csv()]


# contexts (d, variant) beyond the default d = 1; GL(6,4) d=3 exact places
# repeated partitions on one degree, GL(6,5) is the benchmark's classes size
CONTEXTS = {(6, 4): [(3, "exact")], (6, 5): [(2, "divisible")]}


@pytest.mark.parametrize("n, q", [(n, q) for n in range(6) for q in (2, 3, 4, 5)] + list(CONTEXTS))
def test_classes_and_table_match_label_reference(n, q, monkeypatch, capsys):
    # stdout of `classes` and `table`, streamed from per-type fragments, is
    # byte-identical to json.dumps of the label-level reference (or its text
    # lines and CSV) in every format, with the reference patched in at the
    # streamed forms' entry points; n = 0 is the class `id0`
    contexts = CONTEXTS.get((n, q), [(d, variant) for d in (1, 2, 3) for variant in G.VARIANTS])
    size = ["--n", str(n), "--q", str(q)]
    argvs = [["classes", *size, *d_args, "--output", fmt]
             for d_args in [[]] + [["--d", str(d), "--variant", v] for d, v in contexts]
             for fmt in ("json", "text")]
    argvs += [["table", *size, "--output", fmt] for fmt in ("json", "csv", "text")]
    engine = [_stdout(argv, capsys) for argv in argvs]
    monkeypatch.setattr(CL, "classes_json", _reference_classes_json)
    monkeypatch.setattr(CL, "classes_text", _reference_classes_text)
    monkeypatch.setattr(CL, "table_json", _reference_table_json)
    monkeypatch.setattr(CL, "table_csv", _reference_table_csv)
    for argv, out in zip(argvs, engine):
        assert out == _stdout(argv, capsys), argv


@pytest.mark.parametrize("d, variant", [(d, variant) for d in (2, 3) for variant in G.VARIANTS])
def test_streamed_class_list_is_the_reference_dump(d, variant):
    # the chunks join to json.dumps of the label-level records, and the text
    # chunks to one line per record
    reference = L.classes_report(6, 5, d, variant)
    assert "".join(CL.classes_json(6, 5, d, variant)) == json.dumps(reference, sort_keys=True)
    assert "".join(CL.classes_text(6, 5, d, variant)) == "".join(
        _reference_classes_text(6, 5, d, variant))


def test_class_keys_raise_on_a_missed_class(monkeypatch):
    # class_types counts the types of GL(3,2) with the true pools; one
    # polynomial fewer per degree in the walk leaves classes unlisted, which
    # the count at the end of the stream catches
    monkeypatch.setattr(CL, "non_unipotent_count", lambda q, e: Q.non_unipotent_count(q, e) - 1)
    with pytest.raises(AssertionError, match="repeat or miss a class"):
        list(CL.class_keys(3, 2))


@pytest.mark.parametrize("extra", [lambda e: 1, lambda e: e == 3], ids=["every-degree", "degree-3"])
def test_class_keys_raise_on_an_extra_class(monkeypatch, extra):
    # one polynomial more per degree places partitions on a linear
    # polynomial of F_2, a type that class_types(3, 2) does not have; one
    # more of degree 3 only adds a class of a known type, which the count
    # at the end of the stream catches
    monkeypatch.setattr(CL, "non_unipotent_count",
                        lambda q, e: Q.non_unipotent_count(q, e) + extra(e))
    with pytest.raises(AssertionError, match="repeat or miss a class"):
        list(CL.class_keys(3, 2))


def _rebatch(records, *sizes):
    """`records` cut into lists of the given sizes, and the rest as one more."""
    cuts = [sum(sizes[:i]) for i in range(len(sizes) + 1)] + [len(records)]
    return [records[a:b] for a, b in zip(cuts, cuts[1:])]


@pytest.mark.parametrize("change, kept", [
    (lambda r: _rebatch(r[:2] + r[1:], 1, 3), 1),   # a repeated key inside a batch
    (lambda r: _rebatch(r[:2] + r[1:], 2), 2),      # one that opens a batch
    (lambda r: _rebatch(r[::-1], 2), 0)], ids=["repeat", "repeat-at-cut", "reverse"])
def test_class_keys_raise_mid_stream_on_a_key_out_of_order(monkeypatch, change, kept):
    # each key must follow the one before, within a batch and across two: a
    # repeated or a reversed key raises before its batch is yielded, after
    # the batches before it were
    records = [record for batch in CL._walk(3, 2, {e: False for e in (1, 2, 3)},
                                            {t: t for t in G.class_types(3, 2)})
               for record in batch]
    monkeypatch.setattr(CL, "_walk", lambda *args: iter(change(records)))
    yielded = []
    with pytest.raises(AssertionError, match="follows"):
        yielded.extend(CL.class_keys(3, 2))
    assert sum(map(len, yielded)) == kept


# the groups of the property test below: n <= 5, q up to 13, and at most
# 15,000 classes, so that the label-level reference stays quick
STREAM_GROUPS = [(n, q) for n in range(6) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)
                 if sum(G.class_types(n, q).values()) <= 15_000]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(STREAM_GROUPS), st.sampled_from((1, 2, 3)), st.sampled_from(G.VARIANTS))
def test_class_keys_stream_the_label_reference(group, d, variant):
    # the streamed batches are non-empty and at most BATCH long, and joined
    # their keys and section keys are the label-level reference's, every
    # label sorted by key(); each type equals the label's, and is the very
    # key object of class_types, so dicts keyed by type find it at once
    n, q = group
    batches = list(CL.class_keys(n, q, d, variant))
    assert all(0 < len(batch) <= CL.BATCH for batch in batches)
    streamed = [record for batch in batches for record in batch]
    reference = L.all_classes(n, q)
    assert [(key, section) for key, section, _ in streamed] == [
        (c.key(), L.section_key(c, d, variant)) for c in reference]
    types = {id(t) for t in G.class_types(n, q)}
    assert all(t == L.type_of(c) and id(t) in types for (_, _, t), c in zip(streamed, reference))


def test_class_list_stream_holds_no_per_class_list():
    # the JSON class list of GL(6,5) d=2 (15,600 classes) is written while
    # only the walk's open nodes are held; a sorted list of every class's
    # keys, which the stream replaced, peaked at about 3 MB traced
    G.class_types(6, 5)
    tracemalloc.start()
    try:
        size = sum(map(len, CL.classes_json(6, 5, 2, "divisible")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 2_000_000 and peak < 2_000_000, peak


def test_table_stream_holds_no_whole_row(monkeypatch):
    # the JSON value table of GL(6,5) (15,600 classes, 4 MB) is written in
    # chunks of at most CL.PIECE values, not one string per nu joined over
    # every class (2.1 MB traced at that size); the keys, the types and the
    # value texts, one per type and nu, built here before tracing starts,
    # are all that is held
    parts = CL._table_parts(6, 5)
    monkeypatch.setattr(CL, "_table_parts", lambda n, q: parts)
    tracemalloc.start()
    try:
        size = count = 0
        for chunk in CL.table_json(6, 5):
            size, count = size + len(chunk), count + 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 3_000_000 and peak < 1_000_000, peak
    # 171,600 values, but not one write each
    assert count < 500, count
