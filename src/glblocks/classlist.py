"""The class list of GL(n,q) in key order, and the `classes` and `table`
reports, which only those two commands load.

`class_keys` streams every class's assignment key (see `glclass`), section
key and type from a depth-first walk of the polynomial pool, with no list,
set or sort of every class, in batches of at most BATCH sibling classes.
`classes_json` and `classes_text` write a text chunk per batch from fragments
formatted once per type.  `table_json` and `table_csv` write the value table
as JSON or CSV text chunks of at most PIECE values each, every value turned
into a string once per type; only they load the value engine, `charvalue`.
"""

from __future__ import annotations

from itertools import chain, groupby, islice

from .errors import ScaleGuardError
from .glclass import ClassType, _degree_matches, centralizer_order, class_size, class_types, d_type
from .partitions import partitions_of
from .qarith import non_unipotent_count

CLASS_GUARD = 200_000
# classes in a batch at most; uncapped, `classes` GL(6,5) peaked 1 MB higher
BATCH = 64


def class_keys(n: int, q: int, d: int | None = None, variant: str = "divisible"):
    """A stream of lists of (assignment key, section key, type), every class of
    GL(n,q) in key order; the section key is the part on matching degrees, or
    "1", and the type a key of class_types(n, q).  The guard and input checks
    run on the call; each key being above the one before (all of a list's
    before it is yielded), and the count of classes, are checked in the
    stream.  GL(0,q) has the one class "id0", no polynomial placed."""
    types = class_types(n, q)
    total = sum(types.values())
    if total > CLASS_GUARD:
        raise ScaleGuardError(f"{total} classes of GL({n},{q}) exceed guard {CLASS_GUARD}")
    matches = {e: d is not None and _degree_matches(e, d, variant) for e in range(1, n + 1)}
    return _in_order(_walk(n, q, matches, {t: t for t in types}) if n
                     else [[("id0", "1", *types)]], f"GL({n},{q})", total)


def _in_order(batches, group, total):
    last, count = "", 0
    for batch in batches:
        for key, _, _ in batch:
            if key <= last:
                raise AssertionError(f"class key {key!r} of {group} follows {last!r}")
            last = key
        count += len(batch)
        yield batch
    if count != total:
        raise AssertionError(f"class keys of {group} repeat or miss a class")


def _walk(n, q, matches, canon):
    """Batches of the classes of GL(n,q), types from `canon` ({type: type}), sections by `matches`.

    A node is a key so far; its children place the X-1 part (at the root) or
    a partition on a later pool position, (degree, index) in order.  A child
    that fills the size n is a class, held as its record (key, section key,
    type); one that does not opens the keys that extend its key by "|", which
    sorts above every other character, so each node sorts its children by key,
    "|" appended to those that open keys, and yields each run of classes.
    """
    counts = [0] + [non_unipotent_count(q, e) for e in range(1, n + 1)]

    def kind(u, comps):
        """The type of the classes with these components, found once per run of them."""
        if t := canon.get(ClassType(n, u, comps)):
            return t
        raise AssertionError(f"class keys of GL({n},{q}) repeat or miss a class")

    def node(key, section, u, comps, r, e0, i0):
        head, lead, rest = key and key + "|", section and section + "|", section or "1"
        # a child that opens keys is (key + "|", j, its node's state)
        kids = [] if key else [
            (f"u:{text}|", -1, p, (), r - s, 1, False) if s < r else (f"u:{text}", "1", kind(p, ()))
            for s in range(1, r + 1) for p in partitions_of(s) for text in (",".join(map(str, p)),)]
        for e in range(e0, r + 1):
            for s in range(1, r // e + 1):
                left = r - e * s
                at = range(i0 if e == e0 else 0, counts[e] - (left == e))
                for p in partitions_of(s) if at and not 0 < left < e else ():
                    tail, placed = ":" + ",".join(map(str, p)), tuple(sorted(comps + ((e, p),)))
                    if left:
                        kids += [(f"{head}f{e}.{j}{tail}|", j, u, placed, left, e, matches[e])
                                 for j in at]
                    elif matches[e]:
                        t, pre = kind(u, placed), f"f{e}."
                        kids += [(head + (token := f"{pre}{j}{tail}"), lead + token, t) for j in at]
                    else:
                        t, pre = kind(u, placed), f"{head}f{e}."
                        kids += [(f"{pre}{j}{tail}", rest, t) for j in at]
        kids.sort()  # by key alone, as no two are equal
        for size, run in groupby(kids, len):
            if size == 3:  # a run of classes
                while batch := list(islice(run, BATCH)):
                    yield batch
            else:
                for text, j, u, comps, left, e, match in run:
                    token = text[len(head):-1]
                    yield from node(text[:-1], lead + token if match else section,
                                    u, comps, left, e, j + 1)

    return node("", "", (), (), n, 1, 0)


def classes_json(n: int, q: int, d: int, variant: str):
    """The class list as JSON chunks, byte for byte json.dumps(..., sort_keys=True)
    of {"classes": [a record per class in key order], "n": n, "q": q}, one per
    batch.  Each type's record is formatted once, in two parts that a class
    follows with its assignment and section keys, which JSON never escapes
    (digits and "u f i . , : |").  The class guard and the class-size divisions
    run before the first chunk; class_keys' order and count checks run as the
    chunks go, a failed one ending the output."""
    keys = class_keys(n, q, d, variant)
    # str() of a list of int lists is its JSON text
    parts = {t: (f'", "centralizer_order": {centralizer_order(t, q)}, "d_type": '
                 f'{[list(p) for p in d_type(t, d, variant)]}, "section": "',
                 f'", "size": {class_size(t, q)}}}') for t in class_types(n, q)}
    sep = '{"classes": ['
    for batch in keys:
        yield sep + ", ".join([f'{{"assignment": "{key}{middle}{section}{end}'
                               for key, section, t in batch for middle, end in (parts[t],)])
        sep = ", "
    yield f'], "n": {n}, "q": {q}}}'


def classes_text(n: int, q: int, d: int, variant: str):
    """The class list as text chunks, a line "key  size S  cent C" per class
    in key order, one chunk per batch, built like classes_json."""
    keys = class_keys(n, q, d, variant)
    ends = {t: f"  size {class_size(t, q)}  cent {centralizer_order(t, q)}\n"
            for t in class_types(n, q)}
    for batch in keys:
        yield "".join([key + ends[t] for key, _, t in batch])


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


def _table_parts(n: int, q: int):
    """(keys, types, columns): every class's assignment key and type, in key
    order, and for each nu, in the order of partitions_of, {type: its value
    at nu as text}; each value is turned into a string once."""
    from .charvalue import class_values  # only the table reads values
    keys, types = [], []
    for batch in class_keys(n, q):
        keys += [key for key, _, _ in batch]
        types += [t for _, _, t in batch]
    texts = {t: [str(v) for v in class_values(t, q)] for t in class_types(n, q)}
    return keys, types, [{t: values[i] for t, values in texts.items()}
                         for i in range(len(partitions_of(n)))]


def table_json(n: int, q: int):
    """The table as JSON chunks, byte for byte json.dumps(..., sort_keys=True)
    of {"n", "q", "signs", "values": {nu: {key: value}}}."""
    keys, types, columns = _table_parts(n, q)
    nus = sorted((str(list(nu)), i) for i, nu in enumerate(partitions_of(n)))
    # every degree is positive, so every sign is 1; kept for the format
    yield (f'{{"n": {n}, "q": {q}, "signs": {{'
           + ", ".join(f'"{nu}": 1' for nu, _ in nus) + '}, "values": {')
    for k, (nu, i) in enumerate(nus):
        column = columns[i]
        yield (", " if k else "") + f'"{nu}": {{'
        yield from _pieces((f'"{key}": {column[t]}' for key, t in zip(keys, types)), ", ")
        yield "}"
    yield "}}"


def table_csv(n: int, q: int):
    """The table as CSV chunks, the header and then one row per nu; a
    field is quoted when it holds a comma, as csv.writer does (no key or
    label holds a quote or a line break)."""
    def field(text):
        return f'"{text}"' if "," in text else text
    keys, types, columns = _table_parts(n, q)
    yield from _pieces(chain(["nu"], map(field, keys)), ",")
    for nu, column in zip(partitions_of(n), columns):
        yield "\n"
        yield from _pieces(chain([field(str(list(nu)))], map(column.__getitem__, types)), ",")
    yield "\n"


def cmd_table(args):
    ctx = args.n, args.q
    return 0, lambda: table_json(*ctx), lambda: table_csv(*ctx), lambda: table_csv(*ctx)
