"""The class list of GL(n,q) in key order, and the `classes` and `table`
reports, which only those two commands load.

`class_keys` streams every class's assignment key (see `glclass`), section
key and type from a depth-first walk of the polynomial pool, with no list,
set or sort of every class.  `classes_json` and `classes_text` write the
class list as text chunks from fragments formatted once per type.
`CharValueTable` writes the value table as JSON or CSV text chunks of at
most PIECE values each, every value turned into a string once per type;
only it loads the value engine, `charvalue`, so `classes` does not.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, islice
from types import MappingProxyType

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


def cmd_classes(args):
    ctx = args.n, args.q, args.d, args.variant
    return 0, lambda: classes_json(*ctx), lambda: classes_text(*ctx)


# -- the value table ---------------------------------------------------------------

# values (or keys) joined into one chunk at most: each nu's row is written in
# pieces, so no string of a whole row is held
PIECE = 1024


def _pieces(texts, sep):
    """sep.join(texts) as chunks of at most PIECE texts, each led by sep but
    the first; no text is empty, so only an exhausted stream joins to ""."""
    texts, lead = iter(texts), ""
    while piece := sep.join(islice(texts, PIECE)):
        yield lead + piece
        lead = sep


class CharValueTable:
    """All unipotent character values for one GL(n,q), one value vector per class type."""

    def __init__(self, n: int, q: int):
        self.n, self.q = n, q
        # {assignment key: type} in key order, read-only: table(n, q) is
        # cached and shared by every caller
        self.classes = MappingProxyType({key: t for key, _, t in class_keys(n, q)})
        self.labels = partitions_of(n)

    def _columns(self):
        """For each nu, in the order of partitions_of, {type: its value at nu as
        text}: each value is turned into a string once, and every vector is computed here."""
        from .charvalue import class_values  # only the table reads values
        texts = {t: [str(v) for v in class_values(t, self.q)] for t in class_types(self.n, self.q)}
        return [{t: values[i] for t, values in texts.items()} for i in range(len(self.labels))]

    def json_chunks(self):
        """The table as JSON chunks, byte for byte json.dumps(..., sort_keys=True)
        of {"n", "q", "signs", "values": {nu: {key: value}}}."""
        columns = self._columns()
        nus = sorted((str(list(nu)), i) for i, nu in enumerate(self.labels))
        # every degree is positive, so every sign is 1; kept for the format
        yield (f'{{"n": {self.n}, "q": {self.q}, "signs": {{'
               + ", ".join(f'"{nu}": 1' for nu, _ in nus) + '}, "values": {')
        for k, (nu, i) in enumerate(nus):
            column = columns[i]
            yield (", " if k else "") + f'"{nu}": {{'
            yield from _pieces((f'"{key}": {column[t]}' for key, t in self.classes.items()), ", ")
            yield "}"
        yield "}}"

    def csv_chunks(self):
        """The table as CSV chunks, the header and then one row per nu; a
        field is quoted when it holds a comma, as csv.writer does (no key or
        label holds a quote or a line break)."""
        def field(text):
            return f'"{text}"' if "," in text else text
        columns, types = self._columns(), self.classes.values()
        yield from _pieces(chain(["nu"], map(field, self.classes)), ",")
        for nu, column in zip(self.labels, columns):
            yield "\n"
            yield from _pieces(chain([field(str(list(nu)))], map(column.__getitem__, types)), ",")
        yield "\n"


@cache
def table(n: int, q: int) -> CharValueTable:
    return CharValueTable(n, q)


def cmd_table(args):
    tab = table(args.n, args.q)
    return 0, tab.json_chunks, tab.csv_chunks, tab.csv_chunks
