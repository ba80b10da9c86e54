"""The golden corpus: command lines whose exit code, stdout and stderr are
pinned in tests/golden.txt, one line per command:

    <argv as a JSON list> TAB <exit code> TAB <sha256 of stdout> TAB <sha256 of stderr>

Each command runs in process through `cli.main`; a usage error's
SystemExit gives its exit code.  A change that
alters output on purpose re-records the corpus and explains each changed
line:

    PYTHONPATH=src python tests/golden.py        # rewrites tests/golden.txt

The corpus covers the element-level oracle: `oracle` on GL(1,q) for
q <= 7, GL(2,q) for q <= 5, GL(3,2), and the groups its guards refuse
(exit 4); `verify prop32` at eight contexts; `verify thm45` on five
groups; each in text and json.  It covers the class list and the value
table: `classes` on GL(0,2), GL(1,2), GL(1,7), GL(3,2), GL(4,3) and
GL(5,4) at d = 1, 2, 3 in both variants, and on GL(1,2^18), over the
class guard (exit 4), in text and json; `table` on the same six groups
in text, json and csv.  And `matrix` on its three domains at five
contexts, GL(0,2) to GL(5,4), in text, json and csv.  It covers `blocks` on
seven contexts from GL(0,2) to GL(6,2), in both variants; `verify thm43`,
`thm44` and `smt55` on six groups from GL(0,2) to GL(5,4) at d = 1, 2, 3
in both variants; `verify thm46` at six contexts, two of them outside
F >= n/d (exit 3); `verify lemma49`, with its guard on k (exit 4), and
`thm410chain`; and every `partition` verb on eight partitions, with the
path guard (exit 4) and a literal that is no partition (exit 2); each in
text and json.  It covers
the usage errors (exit 2) that `tests/test_cli.py` pins: `--output csv` on
`blocks`, an `--out-path` in a directory that does not exist, an option
that a `verify` check does not take, `oracle --n 0` and a `--q` that is
not a prime power.  And it covers a d far above n: `partition core` and
`blocks` at d = 300,000, and `blocks` and `verify thm44` on GL(2,2)
around the d where F, the count of irreducibles of degree d, has more
digits than the interpreter turns into a string (4,300 by default),
where the forms that print F exit 4, and `blocks` text, which prints
no F, at d = 3·10⁷ and 3·10⁸.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.txt"

ORACLE_GROUPS = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 7),
                 (2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]
# over the class guard, the table guard (twice) and the field guard
GUARDED_GROUPS = [(1, 83), (2, 11), (4, 3), (1, 10007)]
PROP32 = [(2, 2, 1, None), (2, 2, 2, "exact"), (2, 3, 2, None), (2, 3, 3, "divisible"),
          (3, 2, 1, "exact"), (3, 2, 2, None), (3, 2, 3, None), (2, 4, 2, "divisible")]
THM45 = [(2, 2), (2, 3), (3, 2), (2, 4), (2, 5)]
LIST_GROUPS = [(0, 2), (1, 2), (1, 7), (3, 2), (4, 3), (5, 4)]
# GL(1,2^18) has 2^18 - 1 classes, over the class guard
CLASS_GUARDED = (1, 2 ** 18)
BLOCKS = [(0, 2, 1), (1, 2, 1), (3, 2, 2), (4, 3, 2), (5, 2, 2), (5, 4, 3), (6, 2, 3)]
SECTION_GROUPS = [(0, 2), (1, 3), (3, 2), (4, 3), (5, 2), (5, 4)]
THM46 = [(3, 3, 2, "divisible"), (3, 3, 2, "exact"), (4, 3, 2, "divisible"),
         (6, 2, 3, "divisible"), (3, 2, 2, "divisible"), (5, 2, 2, "exact")]
# the last over the guard on k (exit 4)
LEMMA49 = [(1, 1), (3, 5), (4, 0), (6, 9), (8, 2), (51, 2)]
THM410CHAIN = [(0, 1), (3, 1), (4, 3), (6, 2), (8, 3), (9, 4)]
PARTITIONS = [("[]", 2), ("[1]", 2), ("[1]", 1), ("[3,1]", 2), ("[2,2]", 2),
              ("[4,4,2]", 1), ("[5,3,1]", 4), ("[6,5,5,2,1]", 3)]
# over the path guard, and a literal that is not weakly decreasing
PARTITION_REFUSED = [["partition", "paths", "[6,5,5,2,1]", "--d", "1"],
                     ["partition", "core", "[1,2]", "--d", "2"]]
# exit 2, each command line as given
USAGE = [["blocks", "--n", "2", "--q", "2", "--output", "csv"],
         ["classes", "--n", "2", "--q", "2", "--out-path", "/nonexistent-glblocks-dir/out.txt"],
         ["verify", "thm45", "--n", "2", "--q", "2", "--d", "2"],
         ["verify", "lemma49", "--k", "3", "--n", "2", "--output", "json"],
         ["oracle", "--n", "0", "--q", "2"],
         ["blocks", "--n", "3", "--q", "6"],
         ["table", "--n", "2", "--q", "1", "--output", "csv"]]
# (n, q, d) with d far above n; F has 4,211 digits at d = 14,000 and 4,361
# at 14,500, so the json forms of the last two are over the guard on F (exit 4)
FAR_D = [(2, 2, 14_000), (2, 2, 14_500), (6, 2, 300_000)]
# text only: blocks prints no F there, though F of GL(2,2) at d = 3·10⁷ has
# about 9·10⁶ digits, and at d = 3·10⁸ about 9·10⁷
FAR_D_TEXT = [["blocks", "--n", "2", "--q", "2", "--d", str(d), "--output", "text"]
              for d in (30_000_000, 300_000_000)]
MATRIX = [(0, 2, 1, "divisible"), (3, 2, 1, "exact"), (4, 3, 2, "divisible"),
          (4, 3, 2, "exact"), (5, 4, 3, "divisible")]


def commands():
    base = [["oracle", "--n", str(n), "--q", str(q)] for n, q in ORACLE_GROUPS + GUARDED_GROUPS]
    for n, q, d, variant in PROP32:
        argv = ["verify", "prop32", "--n", str(n), "--q", str(q), "--d", str(d)]
        base.append(argv + (["--variant", variant] if variant else []))
    base += [["verify", "thm45", "--n", str(n), "--q", str(q)] for n, q in THM45]
    base += [["classes", "--n", str(n), "--q", str(q), "--d", str(d), "--variant", variant]
             for n, q in LIST_GROUPS for d in (1, 2, 3) for variant in ("divisible", "exact")]
    base.append(["classes", "--n", str(CLASS_GUARDED[0]), "--q", str(CLASS_GUARDED[1])])
    base += [["blocks", "--n", str(n), "--q", str(q), "--d", str(d), "--variant", variant]
             for n, q, d in BLOCKS for variant in ("divisible", "exact")]
    base += [["verify", check, "--n", str(n), "--q", str(q), "--d", str(d), "--variant", variant]
             for check in ("thm43", "thm44", "smt55") for n, q in SECTION_GROUPS
             for d in (1, 2, 3) for variant in ("divisible", "exact")]
    base += [["verify", "thm46", "--n", str(n), "--q", str(q), "--d", str(d), "--variant", variant]
             for n, q, d, variant in THM46]
    base += [["verify", "lemma49", "--k", str(k), "--F", str(f)] for k, f in LEMMA49]
    base += [["verify", "thm410chain", "--n", str(n), "--d", str(d)] for n, d in THM410CHAIN]
    base += [["partition", verb, lam, "--d", str(d)] for lam, d in PARTITIONS
             for verb in ("core", "quotient", "weight", "abacus", "paths")]
    base += PARTITION_REFUSED
    base.append(["partition", "core", "[3,1]", "--d", "300000"])
    base += [["blocks", "--n", str(n), "--q", str(q), "--d", str(d)] for n, q, d in FAR_D]
    base.append(["verify", "thm44", "--n", "2", "--q", "2", "--d", "14500"])
    with_csv = [["table", "--n", str(n), "--q", str(q)] for n, q in LIST_GROUPS]
    with_csv += [["matrix", "--n", str(n), "--q", str(q), "--d", str(d), "--variant", variant,
                  "--domain", domain] for n, q, d, variant in MATRIX
                 for domain in ("full", "d_regular", "d_singular")]
    return ([argv + ["--output", form] for argv in base for form in ("text", "json")]
            + [argv + ["--output", form] for argv in with_csv for form in ("text", "json", "csv")]
            + USAGE + FAR_D_TEXT)


def run(argv):
    """(exit code, sha256 of stdout, sha256 of stderr) of one in-process run."""
    from glblocks import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return (code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
            hashlib.sha256(err.getvalue().encode()).hexdigest())


def line(argv, result):
    return "\t".join([json.dumps(argv), *map(str, result)])


def read():
    """[(argv, line)] of tests/golden.txt."""
    return [(json.loads(text.split("\t", 1)[0]), text)
            for text in GOLDEN.read_text().splitlines()]


def main():
    GOLDEN.write_text("".join(line(argv, run(argv)) + "\n" for argv in commands()))
    print(f"wrote {len(commands())} lines to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
