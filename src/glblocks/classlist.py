"""The class list of GL(n,q) in key order, which only `classes` and `table` load.

`class_keys` streams every class's assignment key (see `glclass`), section
key and type from a depth-first walk of the polynomial pool, with no list,
set or sort of every class.  `classes_json` and `classes_text` write the
class list as text chunks from fragments formatted once per type.
"""

from __future__ import annotations

from .errors import ScaleGuardError
from .glclass import ClassType, _degree_matches, centralizer_order, class_size, class_types, d_type
from .partitions import partitions_of
from .qarith import non_unipotent_count

CLASS_GUARD = 200_000


def class_keys(n: int, q: int, d: int | None = None, variant: str = "divisible"):
    """A stream of (assignment key, section key, type) of every class of GL(n,q)
    in key order; the section key is the part on matching degrees, or "1", and
    the type a key of class_types(n, q).  The guard and input checks run on the
    call; each key being above the one before, and the count of classes, are
    checked in the stream.  GL(0,q) has the one class "id0", no polynomial placed."""
    types = class_types(n, q)
    total = sum(types.values())
    if total > CLASS_GUARD:
        raise ScaleGuardError(f"{total} classes of GL({n},{q}) exceed guard {CLASS_GUARD}")
    matches = {e: d is not None and _degree_matches(e, d, variant) for e in range(1, n + 1)}
    return _in_order(_walk(n, q, matches, {t: t for t in types}) if n
                     else [("id0", "1", *types)], f"GL({n},{q})", total)


def _in_order(records, group, total):
    last, count = "", 0
    for record in records:
        if record[0] <= last:
            raise AssertionError(f"class key {record[0]!r} of {group} follows {last!r}")
        last, count = record[0], count + 1
        yield record
    if count != total:
        raise AssertionError(f"class keys of {group} repeat or miss a class")


def _walk(n, q, matches, canon):
    """The classes of GL(n,q), types from `canon` ({type: type}), sections from `matches`.

    A node is a key so far; its children place the X-1 part (at the root) or
    a partition on a later pool position, (degree, index) in order.  A child
    that fills the size n is a class; one that does not opens the keys that
    extend its token by "|", which sorts above every other character, so each
    node sorts its children by token, "|" appended to those that open keys.
    """
    counts = [0] + [non_unipotent_count(q, e) for e in range(1, n + 1)]

    def child(u, comps, left, *rest):
        """A child's state, its type found once in place of its components if it is a class."""
        if left or (comps := canon.get(ClassType(n, u, comps))):
            return u, comps, left, *rest
        raise AssertionError(f"class keys of GL({n},{q}) repeat or miss a class")

    def node(key, section, u, comps, r, e0, i0):
        kids = [] if key else [
            ("u:" + ",".join(map(str, p)) + "|" * (s < r), -1, child(p, (), r - s, 1, False))
            for s in range(1, r + 1) for p in partitions_of(s)]
        for e in range(e0, r + 1):
            for s in range(1, r // e + 1):
                left = r - e * s
                at = range(i0 if e == e0 else 0, counts[e] - (left == e))
                for p in partitions_of(s) if at and not 0 < left < e else ():
                    how = child(u, tuple(sorted(comps + ((e, p),))), left, e, matches[e])
                    tail = ":" + ",".join(map(str, p)) + "|" * (left > 0)
                    kids += [(f"f{e}.{j}{tail}", j, how) for j in at]
        kids.sort()  # by sort text alone, as no two are equal
        for sort_text, j, (u, comps, left, e, match) in kids:
            token = sort_text[:-1] if left else sort_text
            below = f"{key}|{token}" if key else token
            where = (f"{section}|{token}" if section else token) if match else section
            if left:
                yield from node(below, where, u, comps, left, e, j + 1)
            else:
                yield below, where or "1", comps

    return node("", "", (), (), n, 1, 0)


def classes_json(n: int, q: int, d: int, variant: str):
    """The class list as JSON chunks, byte for byte json.dumps(..., sort_keys=True)
    of {"classes": [a record per class in key order], "n": n, "q": q}.  Each
    type's record is formatted once, and a class splices in its assignment and
    section keys, which JSON never escapes (digits and "u f i . , : |").  The class
    guard and the class-size divisions run before the first chunk; class_keys'
    order and count checks run as the chunks go, a failed one ending the output."""
    keys = class_keys(n, q, d, variant)
    # str() of a list of int lists is its JSON text
    records = {t: f'{{"assignment": "%s", "centralizer_order": {centralizer_order(t, q)}, '
                  f'"d_type": {[list(p) for p in d_type(t, d, variant)]}, "section": "%s", '
                  f'"size": {class_size(t, q)}}}' for t in class_types(n, q)}
    sep = '{"classes": ['
    for key, section, t in keys:
        yield sep + records[t] % (key, section)
        sep = ", "
    yield f'], "n": {n}, "q": {q}}}'


def classes_text(n: int, q: int, d: int, variant: str):
    """The class list as text chunks, a line "key  size S  cent C" per class
    in key order, built like classes_json."""
    keys = class_keys(n, q, d, variant)
    lines = {t: f"%s  size {class_size(t, q)}  cent {centralizer_order(t, q)}\n"
             for t in class_types(n, q)}
    for key, _, t in keys:
        yield lines[t] % key
