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
check takes only the options it reads (verify.VERIFY_OPTIONS, with their
defaults): prop32, thm43, thm44, thm46 and smt55 take --n, --q, --d and
--variant; thm45 takes --n, --q and --variant; thm410chain takes --n and
--d; lemma49 takes --k and --F.  --variant defaults to divisible, except
that prop32 runs both variants when it is omitted.

Each command builds only its own parser and compiles only its own code: a
command line that starts with a subcommand's name gets a parser of that
subcommand alone (COMMANDS holds every subcommand's options), any other
(help, no arguments, a typo) gets every subparser, and each handler,
cmd_<command>, is imported from the module that holds the code it runs.
A handler returns its exit code and the builders of its forms (json, text,
and csv where it has one); input that the parser admits but the command
refuses raises UsageError, reported as exit code 2.

Output is text, json or csv, ending in exactly one newline whether it
goes to stdout or to --out-path.  A form is a json dict, or text as one str
or an iterable of str chunks (classes and table stream theirs); nothing is
written, nor --out-path opened, before the first chunk is built.  json maps
are serialized with sorted keys so identical configurations give
byte-identical reports.  Rationals are always "p/q" strings, never floats.
No environment variable is read, and --out-path is the only file opened.

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
     the oracle's field guard on q, the count of partition paths, an F
     too long to print (blocks json, verify thm44) and a lemma49 --k over
     verify.LEMMA49_GUARD included
  5  any other exception (traceback on stderr)
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ScaleGuardError, UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Report a usage error in one stderr line, without the usage block; runs
        of whitespace, line breaks in an echoed unknown option among them, become one space."""
        self.exit(2, f"{self.prog}: error: {' '.join(message.split())}\n")


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
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _write(fh, end, chunks):
    """Write `end`, the chunks, and a newline unless the output ends in one."""
    fh.write(end)
    for chunk in chunks:
        fh.write(chunk)
        end = chunk or end
    if not end.endswith("\n"):
        fh.write("\n")


# the arguments the subcommands share, as (name or flag, add_argument keywords)
_N = ("--n", {"type": _at_least(0), "required": True})
_Q = ("--q", {"type": _prime_power, "required": True})
_D = ("--d", {"type": _at_least(1), "default": 1})
_VARIANT = ("--variant", {"choices": ["divisible", "exact"], "default": "divisible"})
_OUTPUT = (("--output", {"choices": ["text", "json", "csv"], "default": "text"}),
           ("--out-path", {"default": None}))

# each subcommand: its add_parser keywords and its arguments, in the order
# its --help lists them
COMMANDS = {
    "partition": ({"help": "partition combinatorics"}, (
        ("verb", {"choices": ["core", "quotient", "weight", "abacus", "paths"]}),
        ("lam", {"help": "partition as a JSON list, e.g. [6,5,5,2,1]"}), _D, *_OUTPUT)),
    "classes": ({"help": "conjugacy class list"}, (_N, _Q, _D, _VARIANT, *_OUTPUT)),
    "table": ({"help": "value table of the unipotent characters"}, (_N, _Q, *_OUTPUT)),
    "blocks": ({"help": "computed and combinatorial block partitions"},
               (_N, _Q, _D, _VARIANT, *_OUTPUT)),
    "matrix": ({"help": "restricted inner-product matrix"}, (
        _N, _Q, _D, _VARIANT, *_OUTPUT,
        ("--domain", {"choices": ["full", "d_regular", "d_singular"], "default": "d_regular"}))),
    "oracle": ({"help": "element-level oracle dump (JSON)"}, (_N, _Q, *_OUTPUT)),
    # an option left out is absent from the namespace, so that the verify
    # module can tell it from one given with its default value; the checks
    # are the keys of verify.VERIFY_OPTIONS, sorted
    "verify": ({"help": "machine-checkable pass/fail reports",
                "argument_default": argparse.SUPPRESS}, (
        ("check", {"choices": ["lemma49", "prop32", "smt55", "thm410chain", "thm43", "thm44",
                               "thm45", "thm46"]}),
        ("--n", {"type": _at_least(0)}), ("--q", {"type": _prime_power}),
        ("--d", {"type": _at_least(1)}), ("--variant", {"choices": ["divisible", "exact"]}),
        ("--k", {"type": _at_least(1)}), ("--F", {"dest": "big_f", "type": int}), *_OUTPUT)),
}


def _handler(command):
    """The command's handler, from the module that holds the code it runs."""
    if command == "partition":
        from .abacus import cmd_partition as handler
    elif command == "classes":
        from .classlist import cmd_classes as handler
    elif command == "table":
        from .classlist import cmd_table as handler
    elif command == "blocks":
        from .blockcalc import cmd_blocks as handler
    elif command == "matrix":
        from .blockcalc import cmd_matrix as handler
    elif command == "oracle":
        from .bftable import cmd_oracle as handler
    else:
        from .verify import cmd_verify as handler
    return handler


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone: on a command
    line that names `command` both give the same namespace, help and errors."""
    parser = _Parser(
        prog="glblocks",
        description="Exact computations with generalized sections and "
                    "unipotent blocks of finite general linear groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (keywords, arguments) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, **keywords)
            for flag, options in arguments:
                p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command line that does not start with a subcommand (help, none, a
    # typo) gets every subparser, for the full usage and choices
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            from .verify import _verify_options
            _verify_options(args)
        if args.output == "csv" and args.command not in ("table", "matrix"):
            raise UsageError("this command has no csv form; use --output json")
        if (args.command == "oracle" or getattr(args, "check", None) in ("prop32", "thm45")) \
                and args.n < 1:
            parser.error(f"argument --n: the element-level oracle needs at least 1, got {args.n}")
        code, *forms = _handler(args.command)(args)
        _emit(args, *forms)
        return code
    except UsageError as exc:
        print(f"glblocks: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    except ScaleGuardError as exc:
        print(f"glblocks: scale guard: {exc}", file=sys.stderr)
        return 4
    except Exception:
        import traceback  # imported here, so that only a crash loads it
        traceback.print_exc()
        return 5


if __name__ == "__main__":
    sys.exit(main())
