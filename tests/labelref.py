"""Label-level reference for the class list, the sections and the value table.

The engine expands each class type straight into key strings
(`glclass.class_keys`).  This module keeps the path it replaced: every
class as a validated `bruteforce.GLClassLabel`, keyed and sorted by
`key()`, with its orders, d-type and section taken label by label.  The
tests compare the engine against it, and use its labels where an index
is compared.  It also keeps `xy_decompose`, the split of a type into
its d-part and the rest, which the engine no longer needs: it builds
each section type from its head instead.
"""

from __future__ import annotations

import csv
import io
import itertools
from functools import cache
from types import MappingProxyType

from glblocks.bruteforce import GLClassLabel, PolyKey, make_label
from glblocks.charvalue import class_values
from glblocks.errors import ScaleGuardError
from glblocks.glclass import (
    CLASS_GUARD,
    ClassType,
    _degree_matches,
    centralizer_order,
    class_size,
    class_types,
    d_type,
)
from glblocks.partitions import partitions_of
from glblocks.symchar import partition_index
from glblocks.qarith import non_unipotent_count


def type_of(c: GLClassLabel) -> ClassType:
    """The type of the class c: its polynomials forgotten, their degrees and partitions kept."""
    return ClassType(c.n, c.unipotent, tuple(sorted((key.degree, part) for key, part in c.support)))


def label_value(nu, c: GLClassLabel) -> int:
    """chi^nu at the class c, read off the engine's value vector of its type."""
    return class_values(type_of(c), c.q)[partition_index(c.n)[tuple(nu)]]


@cache
def all_classes(n: int, q: int) -> tuple[GLClassLabel, ...]:
    """Every class label of GL(n,q): each type's partitions on distinct indices in every way."""
    types = class_types(n, q)
    total = sum(types.values())
    if total > CLASS_GUARD:
        raise ScaleGuardError(f"{total} classes of GL({n},{q}) exceed guard {CLASS_GUARD}")
    out = []
    for t in types:
        options = [[tuple(zip((PolyKey(e, i) for i in at), order))
                    for order in set(itertools.permutations(p for _, p in group))
                    for at in itertools.combinations(range(non_unipotent_count(q, e)), len(order))]
                   for e, group in itertools.groupby(t.components, key=lambda x: x[0])]
        out.extend(make_label(n, q, t.unipotent, sum(pick, ()))
                   for pick in itertools.product(*options))
    if len(out) != total or len(set(c.key() for c in out)) != total:
        raise AssertionError(f"class labels of GL({n},{q}) repeat or miss a class")
    return tuple(sorted(out, key=lambda c: c.key()))


def xy_decompose(t: ClassType, d: int, variant: str = "divisible"):
    """Split a type into its d-part and the complementary part.

    Returns (x_part, y_part): x_part collects the components of matching
    degree (a type of GL(m,q) with m its own size, X-1 excluded), and
    y_part the rest including the whole X-1 component, a type of
    GL(n-m, q).  Merging the components recovers t.
    """
    x_comp = tuple(c for c in t.components if _degree_matches(c[0], d, variant))
    y_comp = tuple(c for c in t.components if not _degree_matches(c[0], d, variant))
    x_size = sum(degree * sum(p) for degree, p in x_comp)
    return ClassType(x_size, (), x_comp), ClassType(t.n - x_size, t.unipotent, y_comp)


def section_label(c: GLClassLabel, d: int, variant: str = "divisible"):
    """Canonical key of the section containing c: its sorted d-part support."""
    return tuple(sorted((k, p) for k, p in c.support
                 if _degree_matches(k.degree, d, variant)))


@cache
def sections(n: int, q: int, d: int, variant: str = "divisible"):
    """Map section key -> tuple of classes, keyed by the d-part support."""
    out: dict = {}
    for c in all_classes(n, q):
        out.setdefault(section_label(c, d, variant), []).append(c)
    return MappingProxyType({k: tuple(v) for k, v in out.items()})


def classes_report(n: int, q: int, d: int | None = None,
                   variant: str = "divisible") -> dict:
    """The class list as a JSON-ready dict, one record per label in key order."""
    records = []
    for c in all_classes(n, q):
        t = type_of(c)
        rec = {
            "assignment": c.key(),
            "size": class_size(t, q),
            "centralizer_order": centralizer_order(t, q),
        }
        if d is not None:
            rec["d_type"] = list(map(list, d_type(t, d, variant)))
            sec = section_label(c, d, variant)
            rec["section"] = "|".join(
                f"f{k.degree}.{k.index}:" + ",".join(map(str, p)) for k, p in sec) or "1"
        records.append(rec)
    return {"n": n, "q": q, "classes": records}


class LabelValueTable:
    """All unipotent character values for one GL(n,q), one entry per (nu, label)."""

    def __init__(self, n: int, q: int):
        self.n, self.q = n, q
        self.classes = all_classes(n, q)
        self.labels = partitions_of(n)
        values = {}
        for c in self.classes:
            values.update(zip(((nu, c) for nu in self.labels), class_values(type_of(c), q)))
        self.values = MappingProxyType(values)

    def chi(self, nu, c) -> int:
        return self.values[(tuple(nu), c)]

    def report(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "signs": {str(list(nu)): 1 for nu in self.labels},
            "values": {
                str(list(nu)): {c.key(): self.values[(nu, c)] for c in self.classes}
                for nu in self.labels
            },
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["nu"] + [c.key() for c in self.classes])
        for nu in self.labels:
            writer.writerow([str(list(nu))] +
                            [self.values[(nu, c)] for c in self.classes])
        return buf.getvalue()
