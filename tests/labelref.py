"""Label-level reference for the class list, the sections and the value table.

The engine streams the key strings of every class in key order from a
walk of the polynomial pool (`classlist.class_keys`), and the
element-level oracle reads the same keys off the primary spaces of
matrices (`bruteforce.element_key`).  This module keeps the validated
label type behind a key (`GLClassLabel`, built by `make_label`, read back
from a key by `parse_key`) and the path the engine replaced: every class
as a label, held in one tuple sorted by `key()`, with its orders, d-type
and section (`section_key`) taken label by label.  The tests
compare the engine and the oracle against it, and use its labels where
an index is compared.  It also keeps `xy_decompose`, the split of a type
into its d-part and the rest, which the engine no longer needs: it
builds each section type from its head instead.
"""

from __future__ import annotations

import csv
import io
import itertools
from functools import cache
from types import MappingProxyType
from typing import NamedTuple

from glblocks.abacus import check_partition
from glblocks.charvalue import class_values
from glblocks.classlist import CLASS_GUARD
from glblocks.errors import ScaleGuardError
from glblocks.glclass import (
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


class PolyKey(NamedTuple):
    """(degree, index) into the canonical pool without X and X-1."""
    degree: int
    index: int


class _LabelFields(NamedTuple):
    n: int
    q: int
    unipotent: tuple[int, ...]
    support: tuple[tuple[PolyKey, tuple[int, ...]], ...]


class GLClassLabel(_LabelFields):
    """A class of GL(n,q) as its X-1 partition and its (PolyKey, partition)
    pairs, validated when built; `key()` is the engine's assignment key."""
    __slots__ = ()

    def __init__(self, n, q, unipotent, support):
        self.__post_init__()

    def __post_init__(self):
        check_partition(self.unipotent)
        total = sum(self.unipotent)
        seen = set()
        for key, part in self.support:
            if key in seen or not part:
                raise ValueError(f"support entry {key} is repeated or empty")
            seen.add(key)
            check_partition(part)
            total += key.degree * sum(part)
        if total != self.n:
            raise ValueError(f"support sizes sum to {total}, not n = {self.n}")

    def key(self) -> str:
        bits = []
        if self.unipotent:
            bits.append("u:" + ",".join(map(str, self.unipotent)))
        for pk, part in sorted(self.support):
            bits.append(f"f{pk.degree}.{pk.index}:" + ",".join(map(str, part)))
        return "|".join(bits) if bits else "id0"


def make_label(n: int, q: int, unipotent, support) -> GLClassLabel:
    support = tuple(sorted((PolyKey(*k), tuple(p)) for k, p in support))
    return GLClassLabel(n, q, tuple(unipotent), support)


def parse_key(n: int, q: int, key: str) -> GLClassLabel:
    """The label of GL(n,q) whose `key()` is key, validated as it is built."""
    unipotent, support = (), []
    for bit in key.split("|") if key != "id0" else ():
        name, part = bit.split(":")
        part = tuple(map(int, part.split(",")))
        if name == "u":
            unipotent = part
        else:
            support.append((tuple(map(int, name[1:].split("."))), part))
    label = make_label(n, q, unipotent, support)
    if label.key() != key:
        raise ValueError(f"{key!r} is not the key of its own label {label.key()!r}")
    return label


def oracle_labels(data) -> tuple[GLClassLabel, ...]:
    """The labels of the classes of `bruteforce.oracle_classes`, read back from their keys."""
    return tuple(parse_key(data.group.n, data.group.q, key) for key in data.labels)


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


def section_key(c: GLClassLabel, d: int, variant: str = "divisible") -> str:
    """The section's key string: the d-part of c's key, "1" when there is none."""
    return "|".join(f"f{k.degree}.{k.index}:" + ",".join(map(str, p))
                    for k, p in section_label(c, d, variant)) or "1"


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
            rec["section"] = section_key(c, d, variant)
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
