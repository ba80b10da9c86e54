import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from glblocks import charvalue as C
from glblocks import glclass as G
from glblocks import partitions as P
from glblocks import qarith as Q

SRC = Path(__file__).resolve().parent.parent / "src"


def test_class_counts():
    for q in (2, 3, 4, 5):
        assert len(G.all_classes(1, q)) == q - 1
    assert len(G.all_classes(2, 2)) == 3
    assert len(G.all_classes(2, 3)) == 8
    assert len(G.all_classes(3, 2)) == 6
    assert len(G.all_classes(0, 5)) == 1


def test_class_equation():
    for n in range(1, 5):
        for q in (2, 3, 4, 5):
            classes = G.all_classes(n, q)
            assert sum(G.class_size(c) for c in classes) == Q.gl_order(n, q)


def test_label_validation():
    with pytest.raises(ValueError):
        G.make_label(3, 2, (2,), ())  # sizes do not sum to n
    lab = G.make_label(3, 2, (1,), [((2, 0), (1,))])
    assert lab.key() == "u:1|f2.0:1"


def test_label_checks_survive_python_O():
    # argument checks are explicit raises, so `python -O` keeps them
    script = "\n".join([
        "from glblocks import glclass as G",
        "for bad in (lambda: G.make_label(2, 3, (), [((1, 0), (1,)), ((1, 0), (1,))]),",
        "            lambda: G.all_classes(-1, 2)):",
        "    try:",
        "        bad()",
        "    except ValueError as exc:",
        "        print('raised', exc)",
        "    else:",
        "        print('accepted')",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["raised support entry PolyKey(degree=1, index=0) is repeated or empty",
                                "raised n must be at least 0, got -1"]


@pytest.mark.parametrize("n, q", [(n, q) for n in range(5) for q in (2, 3, 4, 5)]
                         + [(5, 2), (5, 3)])
def test_class_type_agrees_with_its_labels(n, q):
    classes = set(G.all_classes(n, q))
    reps = {}
    for c in classes:
        t = G.class_type(c)
        assert t in classes and G.class_type(t) == t
        kind = (c.unipotent, sorted((k.degree, p) for k, p in c.support))
        assert reps.setdefault(repr(kind), t) == t  # one representative per type
        assert G.centralizer_order(t) == G.centralizer_order(c)
        assert G.class_size(t) == G.class_size(c)
        for d in (1, 2, 3):
            for variant in G.VARIANTS:
                assert G.is_d_regular(t, d, variant) == G.is_d_regular(c, d, variant)
                assert G.d_type(t, d, variant) == G.d_type(c, d, variant)
        for nu in P.partitions_of(n):
            assert C.chi_value(nu, t) == C.chi_value(nu, c)
    assert len(set(reps.values())) == len(reps)


def test_class_type_examples():
    c = G.make_label(8, 5, (1,), [((1, 2), (1,)), ((1, 0), (2,)), ((2, 5), (1,)), ((2, 3), (1,))])
    assert G.class_type(c) == G.make_label(
        8, 5, (1,), [((1, 0), (1,)), ((1, 1), (2,)), ((2, 0), (1,)), ((2, 1), (1,))])
    assert G.class_type(G.identity_label(3, 2)) == G.identity_label(3, 2)


def test_identity_and_centralizers():
    for n, q in [(2, 2), (3, 2), (2, 3), (4, 3)]:
        ident = G.identity_label(n, q)
        assert G.centralizer_order(ident) == Q.gl_order(n, q)
        assert G.class_size(ident) == 1
    # a single companion block of an irreducible of degree n
    lab = G.make_label(3, 2, (), [((3, 0), (1,))])
    assert G.centralizer_order(lab) == 2 ** 3 - 1
    reg_unip = G.make_label(3, 2, (3,), ())
    assert G.centralizer_order(reg_unip) == 4


def test_is_d_element():
    q = 3
    ident = G.identity_label(3, q)
    assert G.is_d_element(ident, 2)
    quad = G.make_label(3, q, (1,), [((2, 0), (1,))])
    assert G.is_d_element(quad, 2)
    bad_unip = G.make_label(3, q, (2, 1), ())
    assert not G.is_d_element(bad_unip, 2)
    lin = G.make_label(3, q, (1,), [((1, 0), (1, 1))])
    assert not G.is_d_element(lin, 2)
    assert G.is_d_element(lin, 1)


def test_is_d_regular():
    q = 2
    unip = G.make_label(3, q, (2, 1), ())
    assert G.is_d_regular(unip, 1)          # unipotent iff 1-regular
    assert G.is_d_regular(unip, 2) and G.is_d_regular(unip, 3)
    cubic = G.make_label(3, q, (), [((3, 0), (1,))])
    assert not G.is_d_regular(cubic, 3)
    assert not G.is_d_regular(cubic, 1)
    assert G.is_d_regular(cubic, 2)
    assert not G.is_d_regular(cubic, 3, "exact")
    assert G.is_d_regular(cubic, 2, "exact")
    for c in G.all_classes(3, 2):
        assert G.is_d_regular(c, 1) == (not c.support)
    # scalar classes are d-regular for every d >= 2
    scalar = G.make_label(2, 3, (), [((1, 0), (1, 1))])
    for d in (2, 3, 4):
        assert G.is_d_regular(scalar, d)
    assert not G.is_d_regular(scalar, 1)


def test_xy_decompose():
    # mixed class: an irreducible quadratic with a nontrivial unipotent part
    c = G.make_label(4, 3, (2,), [((2, 0), (1,))])
    x, y = G.xy_decompose(c, 2)
    assert x.n == 2 and x.support == ((G.PolyKey(2, 0), (1,)),)
    assert y.n == 2 and y.unipotent == (2,) and not y.support
    assert G.d_type(c, 2) == ((1, 1),)
    assert G.class_d_weight(c, 2) == 1

    for c in G.all_classes(4, 3):
        x, y = G.xy_decompose(c, 2)
        assert x.n + y.n == 4
        rebuilt = G.make_label(4, 3, y.unipotent,
                               tuple(x.support) + tuple(y.support))
        assert rebuilt == c


def test_xy_decompose_degenerate_cases():
    for c in G.all_classes(3, 3):
        x, y = G.xy_decompose(c, 2)
        if G.is_d_regular(c, 2):
            assert x.n == 0 and y == c
        if G.is_d_element(c, 2):
            assert not y.support and all(p == 1 for p in y.unipotent)


def test_decomposition_is_injective():
    seen = {}
    for c in G.all_classes(4, 2):
        x, y = G.xy_decompose(c, 2)
        key = (x.support, y.key())
        assert key not in seen
        seen[key] = c


def test_d_type_examples():
    ident = G.identity_label(4, 3)
    assert G.d_type(ident, 2) == ()
    one = G.make_label(4, 3, (1, 1), [((2, 1), (1,))])
    assert G.d_type(one, 2) == ((1, 1),)
    two = G.make_label(4, 3, (), [((2, 0), (1,)), ((2, 2), (1,))])
    assert G.d_type(two, 2) == ((1, 1), (1, 1))
    assert G.class_d_weight(two, 2) == 2
    deg4 = G.make_label(4, 3, (), [((4, 7), (1,))])
    assert G.d_type(deg4, 2) == ((1, 2),)


def test_weight_bound():
    for (n, q, d) in [(2, 3, 2), (3, 2, 2), (4, 3, 2), (4, 2, 3)]:
        for c in G.all_classes(n, q):
            assert G.class_d_weight(c, d) * d <= n


def test_sections_partition_classes():
    pairs = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 3)]
    contexts = [(n, q, d) for (n, q) in pairs for d in (1, 2, 3)]
    for (n, q, d) in contexts:
        for variant in ("divisible", "exact"):
            classes = G.all_classes(n, q)
            secs = G.sections(n, q, d, variant)
            covered = [c for group in secs.values() for c in group]
            assert sorted(c.key() for c in covered) == sorted(c.key() for c in classes)
            # identity section is exactly the d-regular classes
            assert set(secs[()]) == {c for c in classes if G.is_d_regular(c, d, variant)}
            # each d-element class heads its own section
            for key, group in secs.items():
                heads = [c for c in group if G.is_d_element(c, d, variant)
                         and G.section_label(c, d, variant) == key]
                if key != ():
                    assert heads, key


def test_section_class_sizes_sum_to_group_order():
    secs = G.sections(2, 3, 2)
    total = sum(G.class_size(c) for group in secs.values() for c in group)
    assert total == Q.gl_order(2, 3)


def test_classes_json_deterministic():
    a = G.classes_json(3, 2, 2)
    b = G.classes_json(3, 2, 2)
    assert a == b
    payload = json.loads(a)
    assert payload["n"] == 3 and payload["q"] == 2
    assert len(payload["classes"]) == 6
    rec = payload["classes"][0]
    assert set(rec) == {"assignment", "size", "centralizer_order", "d_type", "section"}
