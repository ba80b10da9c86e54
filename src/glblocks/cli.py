"""Batch command line front end.

Subcommands:
  partition {core,quotient,weight,abacus,paths}  partition combinatorics
  classes                                        class list export
  table                                          value table export
  blocks                                         block partitions and verdict
  matrix                                         restricted inner-product matrix
  oracle                                         element-level dump
  verify {prop32,thm43,thm44,thm45,thm46,lemma49,thm410chain,smt55}

--d is taken by partition, classes, blocks and matrix; --variant by
classes, blocks and matrix.  table and oracle take neither.  Each verify
check takes only the options it reads (VERIFY_OPTIONS, with their
defaults): prop32, thm43, thm44, thm46 and smt55 take --n, --q, --d and
--variant; thm45 takes --n, --q and --variant; thm410chain takes --n and
--d; lemma49 takes --k and --F.  --variant defaults to divisible, except
that prop32 runs both variants when it is omitted.  Each command compiles
only the modules it runs: it imports the engine, oracle and `verify`
modules it calls when it runs, and a verify check only its own.

Output is text, json or csv, ending in exactly one newline whether it
goes to stdout or to --out-path.  A form is a json dict, or text as one str
or an iterable of str chunks (classes and table stream theirs); nothing is
written, nor --out-path opened, before the first chunk is built.  json maps
are serialized with sorted keys so identical configurations give
byte-identical reports.  Rationals are always "p/q" strings, never floats.
GLBLOCKS_CACHE_DIR, when set, is used to cache oracle dumps.

Exit codes:
  0  pass
  1  a failed check (verify FAIL, blocks VIOLATION)
  2  usage error: an option the subcommand or verify check does not
     take, a negative --n, a --q that is not a prime power or not below
     3317044064679887385961981 (qarith.PRIME_TEST_BOUND), a --d or --k
     below 1, --n 0 for the element-level oracle (oracle, verify prop32,
     verify thm45), a partition literal that is not a JSON list of
     positive integers in weakly decreasing order, --output csv on a
     command without a csv form, or an --out-path that cannot be opened
     for writing
  3  HypothesisError: a verify check's inputs fall outside its hypotheses
  4  ScaleGuardError: the computation is over a size guard (one line),
     the oracle's field guard on q and the count of partition paths
     included
  5  any other exception (traceback on stderr)
"""

from __future__ import annotations

import argparse
import json
import sys

from . import partitions
from .errors import HypothesisError, ScaleGuardError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Report a usage error in one stderr line, without the usage block; runs
        of whitespace, line breaks in an echoed unknown option among them, become one space."""
        self.exit(2, f"{self.prog}: error: {' '.join(message.split())}\n")


def _usage_error(message: str) -> SystemExit:
    """Report bad input in one stderr line; raising the result exits with 2."""
    print(f"glblocks: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _usage_error(f"cannot parse partition {text!r}: "
                           f"expected a JSON list, error at position {exc.pos}")
    if not isinstance(data, list):
        raise _usage_error(f"partition literal must be a JSON array: {text!r}")
    try:
        return partitions.check_partition(data)
    except ValueError as exc:
        # the parts as typed, on one line: the parsed tuple shows true as True, 1e400 as inf
        reason = str(exc).split(": ", 1)[0]
        raise _usage_error(f"{reason}: {' '.join(text.split())}")


def _at_least(low: int):
    """argparse type: an integer no smaller than `low`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _prime_power(text: str) -> int:
    """argparse type: a prime power, the order of a finite field."""
    from . import qarith
    try:
        q = int(text)
        qarith.prime_power(q)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a prime power, got {text!r}") from None
    except OverflowError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return q


def _emit(args, payload, text, csv_text=None):
    """Write the form --output asks for; only its builder, a function of no
    arguments, is called, and a form raising before its first chunk writes nothing."""
    form = {"json": payload, "csv": csv_text}.get(args.output, text)()
    if isinstance(form, dict):
        form = json.dumps(form, sort_keys=True)
    chunks = iter([form] if isinstance(form, str) else form)
    first = next(chunks, "")
    if not args.out_path:
        return _write(sys.stdout, first, chunks)
    try:
        with open(args.out_path, "w") as fh:
            _write(fh, first, chunks)
    except OSError as exc:
        path = " ".join(args.out_path.split())
        raise _usage_error(f"cannot write {path}: {exc.strerror}") from None


def _write(fh, end, chunks):
    """Write `end`, the chunks, and a newline unless the output ends in one."""
    fh.write(end)
    for chunk in chunks:
        fh.write(chunk)
        end = chunk or end
    if not end.endswith("\n"):
        fh.write("\n")


def cmd_partition(args) -> int:
    lam = _parse_partition(args.lam)
    d = args.d
    if args.verb == "core":
        core = partitions.d_core(lam, d)
        _emit(args, lambda: {"core": list(core)}, lambda: str(list(core)))
    elif args.verb == "quotient":
        quo = partitions.d_quotient(lam, d)
        _emit(args, lambda: {"quotient": [list(c) for c in quo]},
              lambda: "(" + ", ".join(str(list(c)) for c in quo) + ")")
    elif args.verb == "weight":
        w = partitions.d_weight(lam, d)
        _emit(args, lambda: {"weight": w}, lambda: str(w))
    elif args.verb == "abacus":
        ab = partitions.AbacusState(lam, d)
        _emit(args, lambda: {"runners": [list(r) for r in ab.runners],
                             "origin_offset": ab.origin_offset,
                             "edge_sequence": ab.edge_sequence()},
              lambda: f"{ab.render()}\n\n{ab.edge_sequence()}")
    elif args.verb == "paths":
        gamma = partitions.d_core(lam, d)
        paths = partitions.removal_paths(lam, d)

        def payload():
            return {"core": list(gamma), "count": len(paths),
                    "paths": [{"total_leg": p.total_leg,
                               "steps": [list(s.result) for s in p.steps]} for p in paths]}

        def lines():
            yield f"core {list(gamma)}  paths {len(paths)}"
            for p in paths:
                chain = " -> ".join(str(list(s.result)) for s in p.steps)
                yield f"\n  legs {p.total_leg}: {list(lam)} -> {chain}"
        _emit(args, payload, lines)
    return 0


def cmd_classes(args) -> int:
    from . import classlist
    ctx = args.n, args.q, args.d, args.variant
    _emit(args, lambda: classlist.classes_json(*ctx), lambda: classlist.classes_text(*ctx))
    return 0


def cmd_table(args) -> int:
    from . import charvalue
    tab = charvalue.table(args.n, args.q)
    _emit(args, tab.json_chunks, tab.csv_chunks, tab.csv_chunks)
    return 0


def cmd_matrix(args) -> int:
    from . import blockcalc
    ctx = blockcalc.Context(args.n, args.q, args.d, args.variant)

    def report():
        return blockcalc.inner_product_matrix_report(ctx, args.domain)
    _emit(args, report, lambda: (f"{k} = {v}\n" for k, v in sorted(report()["matrix"].items())),
          lambda: blockcalc.inner_product_matrix_csv(ctx, args.domain))
    return 0


def cmd_oracle(args) -> int:
    from .bftable import cached_oracle_dump
    blob = cached_oracle_dump(args.n, args.q)
    _emit(args, lambda: json.loads(blob), lambda: blob)
    return 0


def cmd_blocks(args) -> int:
    from . import blockcalc
    ctx = blockcalc.Context(args.n, args.q, args.d, args.variant)
    report = blockcalc.blocks_report(ctx)

    def lines():
        for name in ("computed", "combinatorial"):
            yield f"{name} blocks ({len(report[name + '_blocks'])}):\n"
            for b in report[name + "_blocks"]:
                yield "  " + "  ".join(map(str, b)) + "\n"
        yield f"verdict: {report['verdict']}"
    _emit(args, lambda: report, lines)
    return 0 if report["verdict"] != "VIOLATION" else 1


# the options each check reads, with their defaults; prop32 runs both
# variants when --variant is omitted
_GROUP_OPTIONS = {"n": 3, "q": 2, "d": 1, "variant": "divisible"}
VERIFY_OPTIONS = {
    "prop32": {**_GROUP_OPTIONS, "variant": None},
    "thm43": _GROUP_OPTIONS,
    "thm44": _GROUP_OPTIONS,
    "thm45": {"n": 3, "q": 2, "variant": "divisible"},
    "thm46": _GROUP_OPTIONS,
    "lemma49": {"k": 4, "big_f": 6},
    "thm410chain": {"n": 3, "d": 1},
    "smt55": _GROUP_OPTIONS,
}
_FLAGS = {"n": "--n", "q": "--q", "d": "--d", "variant": "--variant", "k": "--k", "big_f": "--F"}


def _verify_options(args):
    """Refuse the options the check does not read; default the others."""
    takes = VERIFY_OPTIONS[args.check]
    unread = [flag for name, flag in _FLAGS.items() if name in vars(args) and name not in takes]
    if unread:
        raise _usage_error(f"verify {args.check} does not take {', '.join(unread)}")
    for name, default in takes.items():
        vars(args).setdefault(name, default)


def cmd_verify(args) -> int:
    from .verify import VERIFIERS
    try:
        ok, details = VERIFIERS[args.check](args)
    except HypothesisError as exc:
        _emit(args, lambda: {"check": args.check, "pass": False, "hypothesis_error": str(exc)},
              lambda: f"{args.check}: HYPOTHESIS ERROR: {exc}")
        return 3
    _emit(args, lambda: {"check": args.check, "pass": ok, "details": details},
          lambda: f"{args.check}: {'PASS' if ok else 'FAIL'}\n{json.dumps(details, sort_keys=True)}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="glblocks",
        description="Exact computations with generalized sections and "
                    "unipotent blocks of finite general linear groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_nq=True, d=True, variant=True):
        if need_nq:
            p.add_argument("--n", type=_at_least(0), required=True)
            p.add_argument("--q", type=_prime_power, required=True)
        if d:
            p.add_argument("--d", type=_at_least(1), default=1)
        if variant:
            p.add_argument("--variant", choices=["divisible", "exact"],
                           default="divisible")
        p.add_argument("--output", choices=["text", "json", "csv"], default="text")
        p.add_argument("--out-path", default=None)

    p_part = sub.add_parser("partition", help="partition combinatorics")
    p_part.add_argument("verb", choices=["core", "quotient", "weight", "abacus", "paths"])
    p_part.add_argument("lam", help="partition as a JSON list, e.g. [6,5,5,2,1]")
    common(p_part, need_nq=False, variant=False)
    p_part.set_defaults(func=cmd_partition)

    p_cls = sub.add_parser("classes", help="conjugacy class list")
    common(p_cls)
    p_cls.set_defaults(func=cmd_classes)

    p_tab = sub.add_parser("table", help="value table of the unipotent characters")
    common(p_tab, d=False, variant=False)
    p_tab.set_defaults(func=cmd_table)

    p_blk = sub.add_parser("blocks", help="computed and combinatorial block partitions")
    common(p_blk)
    p_blk.set_defaults(func=cmd_blocks)

    p_mat = sub.add_parser("matrix", help="restricted inner-product matrix")
    common(p_mat)
    p_mat.add_argument("--domain", choices=["full", "d_regular", "d_singular"],
                       default="d_regular")
    p_mat.set_defaults(func=cmd_matrix)

    p_orc = sub.add_parser("oracle", help="element-level oracle dump (JSON)")
    common(p_orc, d=False, variant=False)
    p_orc.set_defaults(func=cmd_oracle)

    # an option left out is absent from the namespace, so that
    # _verify_options can tell it from one given with its default value
    p_ver = sub.add_parser("verify", help="machine-checkable pass/fail reports",
                           argument_default=argparse.SUPPRESS)
    p_ver.add_argument("check", choices=sorted(VERIFY_OPTIONS))
    p_ver.add_argument("--n", type=_at_least(0))
    p_ver.add_argument("--q", type=_prime_power)
    p_ver.add_argument("--d", type=_at_least(1))
    p_ver.add_argument("--variant", choices=["divisible", "exact"])
    p_ver.add_argument("--k", type=_at_least(1))
    p_ver.add_argument("--F", dest="big_f", type=int)
    common(p_ver, need_nq=False, d=False, variant=False)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        _verify_options(args)
    if args.output == "csv" and args.command not in ("table", "matrix"):
        raise _usage_error("this command has no csv form; use --output json")
    if (args.command == "oracle" or getattr(args, "check", None) in ("prop32", "thm45")) and args.n < 1:
        parser.error(f"argument --n: the element-level oracle needs at least 1, got {args.n}")
    try:
        return args.func(args)
    except ScaleGuardError as exc:
        print(f"glblocks: scale guard: {exc}", file=sys.stderr)
        return 4
    except Exception:
        import traceback  # imported here, so that only a crash loads it
        traceback.print_exc()
        return 5


if __name__ == "__main__":
    sys.exit(main())
