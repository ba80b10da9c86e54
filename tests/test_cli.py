import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from glblocks import blockcalc, charvalue, classlist, cli, verify

SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_partition_core(capsys):
    code, out = run(["partition", "core", "[6,5,5,2,1]", "--d", "3"], capsys)
    assert code == 0 and out.strip() == "[3, 1]"


def test_partition_quotient_json(capsys):
    code, out = run(["partition", "quotient", "[6,5,5,2,1]", "--d", "3",
                     "--output", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"quotient": [[2], [1], [1, 1]]}


def test_partition_paths(capsys):
    code, out = run(["partition", "paths", "[2,2]", "--d", "2",
                     "--output", "json"], capsys)
    payload = json.loads(out)
    assert payload["count"] == 2 and payload["core"] == []


def test_partition_paths_text(capsys):
    # a path lists lam and each partition its hooks leave; a lam that is its
    # own d-core has one empty path, printed as lam alone
    code, out = run(["partition", "paths", "[3,1]", "--d", "2"], capsys)
    assert code == 0 and out == "core []  paths 1\n  legs 1: [3, 1] -> [1, 1] -> []\n"
    for lam in ("[1]", "[]", "[2,1]"):
        code, out = run(["partition", "paths", lam, "--d", "2"], capsys)
        assert code == 0 and out.splitlines()[1:] == [f"  legs 0: {json.loads(lam)}"]


def test_partition_abacus_empty(capsys):
    code, out = run(["partition", "abacus", "[]", "--d", "2"], capsys)
    assert code == 0
    art = out.splitlines()
    assert any("O" in line for line in art)  # beads all packed at the bottom


def test_partition_parse_error(capsys):
    with pytest.raises(SystemExit) as err:
        run(["partition", "core", "[2,", "--d", "2"], capsys)
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "position" in captured.err


def test_classes_json_deterministic(capsys):
    code1, out1 = run(["classes", "--n", "3", "--q", "2", "--d", "2",
                       "--output", "json"], capsys)
    code2, out2 = run(["classes", "--n", "3", "--q", "2", "--d", "2",
                       "--output", "json"], capsys)
    assert code1 == code2 == 0 and out1 == out2
    assert len(json.loads(out1)["classes"]) == 6


def test_table_csv(capsys):
    code, out = run(["table", "--n", "2", "--q", "2", "--output", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("nu,")


def test_blocks_command(capsys):
    code, out = run(["blocks", "--n", "3", "--q", "3", "--d", "2",
                     "--output", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "equal"
    assert payload["f_number"] == 3


def test_blocks_d1(capsys):
    code, out = run(["blocks", "--n", "3", "--q", "2", "--d", "1",
                     "--output", "json"], capsys)
    assert code == 0
    assert len(json.loads(out)["computed_blocks"]) == 1


def test_blocks_d_above_n(capsys):
    code, out = run(["blocks", "--n", "3", "--q", "2", "--d", "5",
                     "--output", "json"], capsys)
    assert code == 0
    assert all(len(b) == 1 for b in json.loads(out)["computed_blocks"])


def test_verify_lemma49(capsys):
    code, out = run(["verify", "lemma49", "--k", "6", "--F", "9",
                     "--output", "json"], capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("k", [verify.LEMMA49_GUARD + 1, 10 ** 9])
@pytest.mark.parametrize("form", ["text", "json"])
def test_lemma49_guard_refuses_a_large_k_first(capsys, monkeypatch, k, form):
    # the sum runs over all p(k) partitions of k, so a k over the guard
    # exits 4 in one line before any partition is listed
    def refuse(k):
        raise RuntimeError("partitions were listed for a refused k")
    monkeypatch.setattr(verify, "partitions_of", refuse)
    assert cli.main(["verify", "lemma49", "--k", str(k), "--F", "2", "--output", form]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"glblocks: scale guard: k = {k} exceeds guard 50: lemma49 sums"
                            " over every partition of k\n")


def test_verify_thm43(capsys):
    code, out = run(["verify", "thm43", "--n", "3", "--q", "3", "--d", "2",
                     "--output", "json"], capsys)
    assert code == 0 and json.loads(out)["pass"] is True


def test_verify_thm45(capsys):
    code, out = run(["verify", "thm45", "--n", "2", "--q", "3",
                     "--output", "json"], capsys)
    assert code == 0
    details = json.loads(out)["details"]
    assert details["single_unipotent_block"] and details["all_nonzero"]


def test_verify_thm46_and_smt(capsys):
    code, out = run(["verify", "thm46", "--n", "3", "--q", "3", "--d", "2",
                     "--output", "json"], capsys)
    assert code == 0
    details = json.loads(out)["details"]
    assert details["pair_count"] == 2
    # the integer Gram entry is printed divided by |G|, in lowest terms
    assert {(r["lhs"], r["rhs"], r["match"]) for r in details["pairs"]} == {("3/8", "3/8", True)}
    code, out = run(["verify", "smt55", "--n", "3", "--q", "3", "--d", "2",
                     "--output", "json"], capsys)
    assert code == 0


def test_verify_thm43_reports_a_nonzero_as_a_rational(capsys, monkeypatch):
    # a cross-core entry k of an integer section Gram is reported as k/|G|:
    # a forged section of transvections alone, six times as heavy, gives
    # 6 chi^(3) chi^(2,1) = 6 * 1 * 2 = 12 = |GL(3,2)|/14 at ((3), (2,1)),
    # and 0 at ((2,1), (1,1,1)), since the Steinberg character vanishes there
    from glblocks.glclass import ClassType
    real = verify.section_weights
    transvection = ClassType(3, (2, 1), ())
    assert charvalue.class_values(transvection, 2) == (1, 2, 0)

    def forged(ctx):
        return {**real(ctx), "forged": {transvection: 6}}
    monkeypatch.setattr(verify, "section_weights", forged)
    code, out = run(["verify", "thm43", "--n", "3", "--q", "2", "--d", "2",
                     "--output", "json"], capsys)
    nonzeros = json.loads(out)["details"]["cross_core_nonzeros"]
    assert code == 1 and nonzeros and all(entry == [[3], [2, 1], "1/14"] for entry in nonzeros)


def test_verify_batch_examples(capsys):
    # the documented batch invocations all pass and exit zero
    for argv in [
        ["verify", "lemma49", "--k", "6", "--F", "9"],
        ["verify", "thm43", "--n", "4", "--q", "3", "--d", "2"],
        ["verify", "thm44", "--n", "4", "--q", "3", "--d", "2"],
        ["verify", "smt55", "--n", "4", "--q", "3", "--d", "2"],
    ]:
        code, _ = run(argv + ["--output", "json"], capsys)
        assert code == 0, argv


def test_verify_prop32(capsys):
    code, out = run(["verify", "prop32", "--n", "2", "--q", "2", "--d", "2",
                     "--output", "json"], capsys)
    assert code == 0
    details = json.loads(out)["details"]
    assert set(details) == {"divisible", "exact"}


@pytest.mark.parametrize("argv", [["--variant=exact"], ["--var", "exact"], ["--variant", "exact"]])
def test_verify_prop32_runs_only_the_named_variant(capsys, argv):
    code, out = run(["verify", "prop32", "--n", "2", "--q", "2", "--d", "2",
                     "--output", "json", *argv], capsys)
    assert code == 0
    assert set(json.loads(out)["details"]) == {"exact"}


def test_verify_thm410chain(capsys):
    code, out = run(["verify", "thm410chain", "--n", "4", "--d", "3",
                     "--output", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True


def test_matrix_command(capsys):
    code, out = run(["matrix", "--n", "3", "--q", "3", "--d", "2",
                     "--domain", "d_regular", "--output", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + one row per partition of 3
    code, out = run(["matrix", "--n", "3", "--q", "3", "--d", "2",
                     "--output", "json"], capsys)
    payload = json.loads(out)
    assert payload["matrix"]["[3]|[1, 1, 1]"] == "3/8"


@pytest.mark.parametrize("domain", ["full", "d_regular", "d_singular"])
def test_matrix_csv_matches_json_and_is_symmetric(capsys, domain):
    argv = ["matrix", "--n", "4", "--q", "3", "--d", "2", "--domain", domain]
    _, out = run(argv + ["--output", "json"], capsys)
    matrix = json.loads(out)["matrix"]
    _, out = run(argv + ["--output", "csv"], capsys)
    header, *rows = list(csv.reader(out.strip().splitlines()))
    labels = [json.loads(h.replace("  ", ", ")) for h in header[1:]]
    assert len(rows) == len(labels) == 5
    entries = {}
    for row in rows:
        nu = json.loads(row[0].replace("  ", ", "))
        for nu2, value in zip(labels, row[1:]):
            entries[f"{nu}|{nu2}"] = value
    assert entries == matrix
    for nu in labels:
        for nu2 in labels:
            assert matrix[f"{nu}|{nu2}"] == matrix[f"{nu2}|{nu}"]


def test_verify_prop32_over_field_of_64(capsys):
    code, out = run(["verify", "prop32", "--n", "1", "--q", "64", "--d", "2",
                     "--output", "json"], capsys)
    assert code == 0 and json.loads(out)["pass"] is True


@pytest.mark.parametrize("argv, message", [
    (["blocks", "--n", "3", "--q", "3", "--d", "0"], "argument --d: must be at least 1, got 0"),
    (["blocks", "--n", "3", "--q", "6", "--d", "2"], "argument --q: must be a prime power, got '6'"),
    (["verify", "lemma49", "--k", "0"], "argument --k: must be at least 1, got 0"),
    (["blocks", "--n", "-1", "--q", "3", "--d", "2"], "argument --n: must be at least 0, got -1"),
    (["oracle", "--n", "0", "--q", "2"], "the element-level oracle needs at least 1, got 0"),
    (["verify", "prop32", "--n", "0", "--q", "2"], "the element-level oracle needs at least 1, got 0"),
    (["verify", "thm45", "--n", "0", "--q", "2"], "the element-level oracle needs at least 1, got 0"),
    (["blocks", "--n", "2", "--q", "2", "--output", "csv"], "this command has no csv form; use --output json"),
    # a part that is not a JSON integer is neither coerced nor a crash
    (["partition", "core", "[2.5,1]", "--d", "2"], "partition parts must be integers: [2.5,1]"),
    (["partition", "core", "[true]", "--d", "2"], "partition parts must be integers: [true]"),
    (["partition", "core", '["3"]', "--d", "2"], 'partition parts must be integers: ["3"]'),
    (["partition", "core", "[[1]]", "--d", "2"], "partition parts must be integers: [[1]]"),
    (["partition", "core", "[null]", "--d", "2"], "partition parts must be integers: [null]"),
    (["partition", "core", "[1e400]", "--d", "2"], "partition parts must be integers: [1e400]"),
])
def test_bad_input_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1].endswith(message)
    assert "Traceback" not in captured.err
    if argv[0] == "partition":
        assert captured.err == f"glblocks: error: {message}\n"


@pytest.mark.parametrize("argv, prefix, phrase", [
    (["blocks", "--n", "3", "--q", "6"], "glblocks blocks", "argument --q: must be a prime power"),
    (["blocks", "--n", "3", "--q", "4", "--foo"], "glblocks", "unrecognized arguments: --foo"),
    (["matrix", "--n", "3", "--q", "4", "--domain", "all"], "glblocks matrix",
     "argument --domain: invalid choice: 'all'"),
    (["oracle", "--n", "0", "--q", "2"], "glblocks",
     "argument --n: the element-level oracle needs at least 1, got 0"),
])
def test_usage_error_is_one_line(capsys, argv, prefix, phrase):
    # argparse's own errors drop the usage block: one stderr line and exit 2
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert captured.err.startswith(f"{prefix}: error: {phrase}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


# every subcommand with options that are all good, as (head, {flag: value});
# each verify check gets exactly the options it takes
GOOD_VALUES = {"n": "2", "q": "3", "d": "1", "k": "4", "big_f": "6"}
CONTRACT_COMMANDS = {
    **{f"partition {verb}": (["partition", verb, "[3,1]"], {"--d": "2"})
       for verb in ("core", "quotient", "weight", "abacus", "paths")},
    **{cmd: ([cmd], {"--n": "2", "--q": "3", "--d": "1"})
       for cmd in ("classes", "blocks", "matrix")},
    **{cmd: ([cmd], {"--n": "2", "--q": "3"}) for cmd in ("table", "oracle")},
    **{f"verify {check}": (["verify", check],
                           {verify._FLAGS[name]: GOOD_VALUES[name]
                            for name in takes if name in GOOD_VALUES})
       for check, takes in verify.VERIFY_OPTIONS.items()},
}
OPTION_STRINGS = ["--n", "--q", "--d", "--k", "--F", "--variant", "--output", "--out-path",
                  "--domain", "--help"]
SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 101, 997]

# q that is not a prime power: at most 1, two distinct primes, or not an integer
BAD_Q = st.one_of(
    st.integers(max_value=1),
    st.tuples(st.sampled_from(SMALL_PRIMES), st.sampled_from(SMALL_PRIMES),
              st.integers(1, 3), st.integers(1, 3))
    .filter(lambda t: t[0] != t[1]).map(lambda t: t[0] ** t[2] * t[1] ** t[3]),
    st.from_regex(r"[a-z][a-z0-9.]{0,5}", fullmatch=True),
    st.floats(0.5, 1e6).map(lambda x: f"{x:.3f}")).map(str)
# a JSON document that is no partition: not a list, or a list with one bad part
NOT_A_LIST = st.one_of(st.integers(), st.text(max_size=4), st.none(), st.booleans(),
                       st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
BAD_PART = st.one_of(st.integers(max_value=0), st.floats(allow_nan=False, allow_infinity=False),
                     st.text(max_size=3), st.booleans(), st.none(),
                     st.lists(st.integers(), max_size=2))
BAD_LIST = st.one_of(
    st.tuples(st.lists(st.integers(1, 9), max_size=3), BAD_PART, st.integers(0, 3))
    .map(lambda t: sorted(t[0], reverse=True)[:t[2]] + [t[1]] + sorted(t[0], reverse=True)[t[2]:]),
    st.tuples(st.integers(1, 8), st.integers(1, 8)).map(lambda t: [t[0], t[0] + t[1]]))
BAD_PARTITION = st.one_of(
    st.tuples(st.one_of(NOT_A_LIST, BAD_LIST), st.sampled_from([None, 1, "\t"]))
    .map(lambda t: json.dumps(t[0], indent=t[1])),
    st.text(min_size=1, max_size=8).filter(lambda t: not t.startswith("-") and not _is_json(t)))
# str.split breaks on every character str.splitlines breaks on, these included
LINE_BREAKS = "\n\r\x85"
UNKNOWN_OPTION = st.from_regex(r"--[a-zA-Z][a-zA-Z0-9\n\r\x85-]{0,8}", fullmatch=True).filter(
    lambda o: not any(known.startswith(o) for known in OPTION_STRINGS))
# a file in a directory that does not exist
BAD_OUT_PATH = st.text(alphabet="ab" + LINE_BREAKS, max_size=6).map(
    lambda name: f"/nonexistent-glblocks-dir/{name}")


def _is_json(text):
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


@st.composite
def bad_argv(draw):
    """A command line with exactly one defect of the kinds that exit 2."""
    head, options = CONTRACT_COMMANDS[draw(st.sampled_from(sorted(CONTRACT_COMMANDS)))]
    head, options = list(head), dict(options)
    kinds = ["unknown option", "out-path"]
    kinds += [kind for kind, flag in [("q", "--q"), ("n", "--n"), ("d", "--d"), ("k", "--k")]
              if flag in options]
    kinds += ["partition"] if head[0] == "partition" else []
    kinds += ["csv"] if head[0] not in ("table", "matrix") else []
    kind = draw(st.sampled_from(kinds))
    tail = []
    if kind == "q":
        options["--q"] = draw(BAD_Q)
    elif kind == "n":
        # the element-level oracle needs n >= 1, every other command n >= 0
        oracle = head[0] == "oracle" or head[1:] in (["prop32"], ["thm45"])
        options["--n"] = str(draw(st.integers(max_value=0 if oracle else -1)))
    elif kind in ("d", "k"):
        options[f"--{kind}"] = str(draw(st.integers(max_value=0)))
    elif kind == "partition":
        head[2] = draw(BAD_PARTITION)
    elif kind == "csv":
        tail = ["--output", "csv"]
    elif kind == "out-path":
        tail = ["--out-path", draw(BAD_OUT_PATH)]
    else:
        tail = [draw(UNKNOWN_OPTION)] + draw(st.sampled_from([[], ["1"]]))
    return head + [x for item in options.items() for x in item] + tail


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bad_argv())
def test_bad_input_exits_2_with_one_stderr_line(argv):
    # the CLI contract on bad input, over every subcommand: exit 2, nothing
    # on stdout and exactly one line on stderr, even where the input has
    # line breaks; no work is done unless the defect is the out-path
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
    assert exc.value.code == 2, argv
    assert out.getvalue() == "", argv
    message = err.getvalue()
    assert message.endswith("\n") and len(message.splitlines()) == 1, (argv, message)


def _parsed(parser, argv):
    """(namespace, or exit code), stdout and stderr of parser.parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CONTRACT_COMMANDS))
def test_command_parser_parses_as_the_full_parser(name):
    # the parser built with the invoked subcommand alone gives the full
    # parser's namespace on good options, its --help text, and its one-line
    # error and exit 2 on a missing required argument, a bad choice and an
    # unknown option
    head, options = CONTRACT_COMMANDS[name]
    argv = head + [x for item in options.items() for x in item]
    if head[0] == "partition":
        missing = head[:2] + argv[3:]  # no partition literal
    elif head[0] == "verify":
        missing = ["verify"]  # no check
    else:
        missing = [head[0]] + argv[3:]  # no --n
    cases = [argv, head + ["--help"], missing, argv + ["--output", "xml"], argv + ["--foo"]]
    for case, expected in zip(cases, ["namespace", 0, 2, 2, 2]):
        alone = _parsed(cli.build_parser(head[0]), case)
        assert alone == _parsed(cli.build_parser(), case), case
        result, out, err = alone
        if expected == "namespace":
            assert vars(result)["command"] == head[0] and not out and not err, case
        elif expected == 0:
            assert result == 0 and out.startswith(f"usage: glblocks {head[0]} ") and not err
        else:
            assert result == 2 and not out and len(err.splitlines()) == 1, (case, err)


def test_main_builds_the_invoked_subcommand_alone(monkeypatch, capsys):
    # a command line that starts with a subcommand builds its parser alone;
    # help, no arguments and a typo get every subparser
    built = []
    real = cli.build_parser

    def spy(command=None):
        built.append(command)
        return real(command)
    monkeypatch.setattr(cli, "build_parser", spy)
    assert cli.main(["partition", "core", "[3,1]", "--d", "2"]) == 0
    for argv in (["--help"], [], ["blokcs"], ["--n", "3", "blocks"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
    capsys.readouterr()
    assert built == ["partition", None, None, None, None]


def test_main_reads_sys_argv(monkeypatch, capsys):
    # the glblocks console script calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["glblocks", "partition", "core", "[6,5,5,2,1]", "--d", "3"])
    assert cli.main() == 0
    assert capsys.readouterr().out == "[3, 1]\n"
    monkeypatch.setattr(sys, "argv", ["glblocks", "--help"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0
    assert "{partition,classes,table,blocks,matrix,oracle,verify}" in capsys.readouterr().out


def test_verify_check_choices_are_the_verify_checks():
    # the parser lists the checks without loading verify
    choices = dict(cli.COMMANDS["verify"][1])["check"]["choices"]
    assert choices == sorted(verify.VERIFY_OPTIONS) == sorted(verify.VERIFIERS)


def test_oracle_command(capsys):
    code, out = run(["oracle", "--n", "2", "--q", "2", "--output", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6


@pytest.mark.parametrize("form", ["text", "json"])
def test_oracle_reads_no_file(capsys, tmp_path, monkeypatch, form):
    # a dump planted under GLBLOCKS_CACHE_DIR is neither printed nor
    # touched: the oracle computes its dump every time
    planted = tmp_path / "oracle_0.1.0_2_2.json"
    planted.write_text('{"forged": true}')
    monkeypatch.setenv("GLBLOCKS_CACHE_DIR", str(tmp_path))
    code, out = run(["oracle", "--n", "2", "--q", "2", "--output", form], capsys)
    from glblocks.bftable import oracle_dump
    assert (code, out) == (0, oracle_dump(2, 2) + "\n")
    assert list(tmp_path.iterdir()) == [planted]
    assert planted.read_text() == '{"forged": true}'


def test_oracle_runs_on_gl33(capsys):
    # 11,232 elements and 303,264 lookup-table entries, under the table guard
    code, out = run(["oracle", "--n", "3", "--q", "3", "--output", "json"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["order"] == 11232 and len(payload["classes"]) == 24
    assert len(payload["borel_constituents"]) == 3


def test_verify_failure_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setitem(verify.VERIFIERS, "lemma49",
                        lambda args: (False, {"forced": True}))
    code, out = run(["verify", "lemma49", "--output", "json"], capsys)
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_hypothesis_violation_reported(capsys):
    # too few degree-2 polynomials over F_2 for the closed form
    code, out = run(["verify", "thm46", "--n", "3", "--q", "2", "--d", "2",
                     "--output", "json"], capsys)
    assert code == 3
    assert "hypothesis_error" in json.loads(out)


def test_verify_thm46_checks_the_hypothesis_before_the_pairs(capsys):
    # GL(10,2) d=2 has no closed-form pair, but F = 1 < n/d = 5, so it exits
    # 3 with the same error as GL(3,2) d=2 rather than pass with no pair
    reports = [run(["verify", "thm46", "--n", n, "--q", "2", "--d", "2", "--output", "json"],
                   capsys) for n in ("3", "10")]
    assert reports[0] == reports[1]
    assert reports[0][0] == 3
    assert json.loads(reports[0][1])["hypothesis_error"] == "F < n/d: outside the standing hypothesis"


def test_verify_thm46_passes_with_no_pair_inside_the_hypothesis(capsys):
    # GL(7,5) d=2: F = 10 >= 7/2, and no pair has the closed form's shape,
    # so the check passes having checked no pair
    code, out = run(["verify", "thm46", "--n", "7", "--q", "5", "--d", "2", "--output", "json"],
                    capsys)
    assert code == 0
    assert json.loads(out) == {"check": "thm46", "pass": True,
                               "details": {"pair_count": 0, "pairs": []}}


def test_scale_guard_is_one_line_exit_4(capsys):
    code = cli.main(["oracle", "--n", "4", "--q", "3"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == ("glblocks: scale guard: lookup tables of GL(4,3) hold 1965150720"
                            " row codes, over table guard 600000\n")


@pytest.mark.parametrize("command", [["oracle"], ["verify", "prop32"], ["verify", "thm45"]])
def test_field_guard_refuses_q_before_building_tables(capsys, command):
    # the lookup tables of GL(1,q) are refused too, but the field's q x q
    # tables are over the table guard first, and refused before they are built
    code = cli.main(command + ["--n", "1", "--q", "10007"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == ("glblocks: scale guard: F_10007 has 100140049 table entries,"
                            " over table guard 600000\n")


def test_partition_paths_guard_counts_before_listing(capsys):
    # the standard tableaux of a 19-box shape: 17,459,442 paths, counted
    # without listing any, over the guard
    code = cli.main(["partition", "paths", "[6,5,5,2,1]", "--d", "1"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == ("glblocks: scale guard: 17459442 removal paths of [6, 5, 5, 2, 1]"
                            " at d = 1 exceed guard 100000\n")


@pytest.mark.parametrize("argv", [
    ["table", "--n", "2", "--q", "2", "--d", "2"],
    ["oracle", "--n", "2", "--q", "2", "--variant", "exact"],
    ["partition", "core", "[2,1]", "--variant", "exact"],
])
def test_unread_option_is_a_usage_error(capsys, argv):
    # table and oracle read neither --d nor --variant, partition reads no --variant
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert "unrecognized arguments" in captured.err.splitlines()[-1]


@pytest.mark.parametrize("argv, unread", [
    (["verify", "thm45", "--d", "5"], "--d"),
    (["verify", "thm45", "--n", "2", "--q", "3", "--d", "1"], "--d"),
    (["verify", "thm410chain", "--q", "9", "--variant", "exact"], "--q, --variant"),
    (["verify", "lemma49", "--n", "3", "--q", "2", "--d", "2", "--variant", "exact"],
     "--n, --q, --d, --variant"),
    (["verify", "prop32", "--k", "4"], "--k"),
    (["verify", "smt55", "--n", "3", "--F", "6"], "--F"),
])
def test_unread_verify_option_is_a_usage_error(capsys, argv, unread):
    # each check takes only the options it reads, so one given with its
    # default value is refused too; the message is one line
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert captured.err == f"glblocks: error: verify {argv[1]} does not take {unread}\n"


def test_verify_defaults_are_per_check(capsys, monkeypatch):
    # an omitted option takes its check's default: both variants for prop32
    # (variant None), divisible elsewhere; the namespace holds no other option
    seen = {}

    def record(args):
        seen[args.check] = {k: v for k, v in vars(args).items()
                            if k not in ("command", "check", "output", "out_path", "func")}
        return True, {}
    for check in verify.VERIFIERS:
        monkeypatch.setitem(verify.VERIFIERS, check, record)
        assert run(["verify", check], capsys)[0] == 0
    group = {"n": 3, "q": 2, "d": 1, "variant": "divisible"}
    assert seen == {"prop32": {**group, "variant": None}, "thm43": group, "thm44": group,
                    "thm45": {"n": 3, "q": 2, "variant": "divisible"}, "thm46": group,
                    "lemma49": {"k": 4, "big_f": 6}, "thm410chain": {"n": 3, "d": 1},
                    "smt55": group}


def test_class_guard_applies_to_labels_only(capsys):
    # GL(8,5) has 390,480 classes: too many labels, but blocks work on types
    code, out = run(["blocks", "--n", "8", "--q", "5", "--d", "2"], capsys)
    assert code == 0 and out.splitlines()[-1] == "verdict: equal"
    code = cli.main(["classes", "--n", "8", "--q", "5"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == ("glblocks: scale guard: 390480 classes of GL(8,5) "
                            "exceed guard 200000\n")


def test_csv_usage_error_comes_before_any_work(capsys, monkeypatch):
    def computing(ctx):
        raise RuntimeError("the report was computed")
    monkeypatch.setattr(blockcalc, "blocks_report", computing)
    with pytest.raises(SystemExit) as err:
        cli.main(["blocks", "--n", "6", "--q", "5", "--d", "2", "--output", "csv"])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert captured.err == "glblocks: error: this command has no csv form; use --output json\n"


def test_internal_error_exits_5_with_traceback(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("broken verifier")
    monkeypatch.setitem(verify.VERIFIERS, "lemma49", broken)
    code = cli.main(["verify", "lemma49"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert "Traceback" in captured.err
    assert captured.err.splitlines()[-1] == "RuntimeError: broken verifier"


@pytest.mark.parametrize("argv", [
    ["table", "--n", "3", "--q", "2"],
    ["matrix", "--n", "3", "--q", "3", "--d", "2"],
])
def test_csv_stdout_equals_out_path_file(tmp_path, capsys, argv):
    target = tmp_path / "out.csv"
    code, out = run(argv + ["--output", "csv"], capsys)
    assert code == 0
    code, _ = run(argv + ["--output", "csv", "--out-path", str(target)], capsys)
    assert code == 0
    assert out.encode() == target.read_bytes()
    assert out.endswith("\n") and not out.endswith("\n\n") and "\r" not in out


TABLE_ARGV = ["table", "--n", "3", "--q", "2"]
MATRIX_ARGV = ["matrix", "--n", "4", "--q", "3", "--d", "2"]
CLASSES_ARGV = ["classes", "--n", "4", "--q", "3", "--d", "2"]


@pytest.mark.parametrize("argv, output, unbuilt", [
    (TABLE_ARGV, "json", (classlist, "table_csv")),
    (TABLE_ARGV, "csv", (classlist, "table_json")),
    (TABLE_ARGV, "text", (classlist, "table_json")),
    (MATRIX_ARGV, "json", (blockcalc, "inner_product_matrix_csv")),
    (MATRIX_ARGV, "csv", (blockcalc, "inner_product_matrix_report")),
    (MATRIX_ARGV, "text", (blockcalc, "inner_product_matrix_csv")),
    (CLASSES_ARGV, "json", (classlist, "classes_text")),
    (CLASSES_ARGV, "text", (classlist, "classes_json")),
], ids=["table-json", "table-csv", "table-text", "matrix-json", "matrix-csv", "matrix-text",
        "classes-json", "classes-text"])
def test_only_the_requested_form_is_built(capsys, monkeypatch, argv, output, unbuilt):
    # the form --output does not ask for is never built: making its builder
    # fail leaves exit code and output as they were
    expected = run(argv + ["--output", output], capsys)

    def refuse(*args):
        raise RuntimeError("a form that --output did not ask for was built")
    monkeypatch.setattr(*unbuilt, refuse)
    assert run(argv + ["--output", output], capsys) == expected
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["classes", "--n", "4", "--q", "3", "--d", "2", "--output", "json"],
    ["classes", "--n", "4", "--q", "3", "--d", "2", "--output", "text"],
    ["table", "--n", "4", "--q", "3", "--output", "json"],
    ["table", "--n", "4", "--q", "3", "--output", "text"],
], ids=["classes-json", "classes-text", "table-json", "table-text"])
def test_streamed_out_path_bytes_equal_stdout(tmp_path, capsys, argv):
    # the chunks reach --out-path as they reach stdout, ending in one newline;
    # the csv forms are covered by test_csv_stdout_equals_out_path_file
    target = tmp_path / "out"
    code, out = run(argv, capsys)
    assert code == 0
    assert run(argv + ["--out-path", str(target)], capsys) == (0, "")
    assert out.encode() == target.read_bytes()
    assert out.endswith("\n") and not out.endswith("\n\n")


FAR_D = ["--n", "2", "--q", "2", "--d", "14500"]


@pytest.fixture
def default_int_digits():
    """The interpreter's default limit on the digits int turns into str, 4,300."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv", [["blocks", *FAR_D, "--output", "json"],
                                  ["verify", "thm44", *FAR_D, "--output", "text"],
                                  ["verify", "thm44", *FAR_D, "--output", "json"]])
def test_an_f_too_long_to_print_is_refused_first(capsys, monkeypatch, default_int_digits, argv):
    # F, the 2^14500 / 14500 or so irreducibles of degree 14,500 over F_2, has
    # 4,361 digits: each form that prints F exits 4 in one line, not in a
    # traceback when the report is dumped, and before any block is computed
    def refuse(ctx):
        raise RuntimeError("blocks were computed for a report that cannot be printed")
    monkeypatch.setattr(blockcalc, "blocks_report", refuse)
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("glblocks: scale guard: F of GL(2,2) at d = 14500 has more than 4300"
                            " digits, the most the interpreter prints of an integer\n")


def test_the_bound_on_f_is_the_interpreters(capsys, default_int_digits):
    # blocks text prints no F and keeps its verdict; d = 14,000 gives an F of
    # 4,211 digits, printed under the default limit and refused under 4,000
    code, out = run(["blocks", *FAR_D], capsys)
    assert code == 0 and out.endswith("verdict: equal\n")
    near = ["blocks", "--n", "2", "--q", "2", "--d", "14000", "--output", "json"]
    code, out = run(near, capsys)
    assert code == 0 and len(str(json.loads(out)["f_number"])) == 4211
    sys.set_int_max_str_digits(4000)
    assert cli.main(near) == 4
    assert capsys.readouterr().err.startswith("glblocks: scale guard: F of GL(2,2) at d = 14000"
                                              " has more than 4000 digits")


def test_blocks_json_forms_f_once(capsys, monkeypatch):
    # blocks json reads F for its guard, its report and the hypothesis flag;
    # the count is formed once (d = 9,973 is prime and read nowhere else)
    from glblocks import qarith
    counted = []

    def count(q, d):
        counted.append((q, d))
        return real(q, d)
    real = qarith.necklace_count
    monkeypatch.setattr(qarith, "necklace_count", count)
    code, out = run(["blocks", "--n", "2", "--q", "2", "--d", "9973", "--output", "json"], capsys)
    assert code == 0 and json.loads(out)["f_hypothesis_holds"]
    assert counted.count((2, 9973)) == 1


def test_blocks_text_at_a_d_of_many_divisors_is_quick():
    # F of GL(2,2) at d = 3·10⁷ takes the primes of d, not a scan of every
    # integer up to d (about 5 s before)
    out = subprocess.run([sys.executable, "-m", "glblocks.cli", "blocks", "--n", "2", "--q", "2",
                          "--d", "30000000"], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=3, check=True).stdout
    assert out.endswith("verdict: equal\n")


@pytest.mark.parametrize("command", ["classes", "table"])
def test_class_guard_writes_nothing(tmp_path, capsys, command):
    # the class guard is checked before the first chunk, so a refused list
    # leaves stdout empty and creates no --out-path file
    argv = [command, "--n", "9", "--q", "5", "--output", "json"]
    target = tmp_path / "out.json"
    for extra in ([], ["--out-path", str(target)]):
        assert cli.main(argv + extra) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("glblocks: scale guard:")
    assert not target.exists()


def test_emit_writes_chunks_in_order_then_one_newline(capsys):
    args = cli.build_parser().parse_args(["classes", "--n", "1", "--q", "2"])
    for form, expected in [(iter(["a", "", "b\n"]), "ab\n"), (iter(["a\n", "b", ""]), "a\nb\n"),
                           (iter([]), "\n"), ("text", "text\n")]:
        cli._emit(args, None, lambda: form)
        assert capsys.readouterr().out == expected


def test_classes_peak_memory_is_near_the_interpreter_baseline():
    # the class list of GL(6,5) (15,600 classes, 2 MB of JSON) is streamed,
    # so the process peaks within a few MB of a one-class run: no per-class
    # record and no whole-report string are held
    if not os.path.exists("/proc/self/status"):
        pytest.skip("VmHWM is read from /proc/self/status")
    script = "\n".join([
        "import sys",
        "from glblocks import cli",
        "code = cli.main(sys.argv[1:])",
        "sys.stdout.flush()",
        "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')][0]",
        "print(code, int(hwm.split()[1]), file=sys.stderr)",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def peak_kb(argv):
        err = subprocess.run([sys.executable, "-c", script, *argv], env=env, check=True,
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True).stderr
        code, kb = map(int, err.split())
        assert code == 0, argv
        return kb

    small = peak_kb(["classes", "--n", "1", "--q", "2"])
    large = peak_kb(["classes", "--n", "6", "--q", "5", "--d", "2", "--output", "json"])
    assert large - small < 6 * 1024, (small, large)


def test_out_path(tmp_path, capsys):
    target = tmp_path / "core.json"
    code, _ = run(["partition", "core", "[4]", "--d", "2",
                   "--output", "json", "--out-path", str(target)], capsys)
    assert code == 0
    assert json.loads(target.read_text()) == {"core": []}


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as err:
        cli.main(["blocks", "--n", "3", "--q", "2", "--d", "2", "--output", "json",
                  "--out-path", str(target)])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert captured.err == f"glblocks: error: cannot write {target}: No such file or directory\n"


ENGINE_COMMANDS = [
    [*verb, "--n", "5", "--q", "3", "--d", "2", "--variant", variant]
    for variant in ("divisible", "exact")
    for verb in (["blocks"], ["matrix", "--domain", "full"], ["matrix", "--domain", "d_regular"],
                 ["matrix", "--domain", "d_singular"], ["verify", "thm43"], ["verify", "thm44"],
                 ["verify", "thm46"], ["verify", "smt55"])]


def test_engine_commands_build_no_class_label():
    # with the oracle's class names (the primary spaces of a matrix) made to
    # fail, every engine command, the class list and the value table
    # included, still gives its usual exit code in a fresh process; the
    # element-level oracle, which names its classes so, does not
    script = "\n".join([
        "import contextlib, io, json, sys",
        "from glblocks import bruteforce, cli",
        "def refuse(*args):",
        "    raise RuntimeError('a class was named from a matrix')",
        "if sys.argv[1] == 'patched':",
        "    bruteforce._primary_spaces = refuse",
        "codes = []",
        "for argv in json.loads(sys.argv[2]):",
        "    with contextlib.redirect_stdout(io.StringIO()), \\",
        "            contextlib.redirect_stderr(io.StringIO()):",
        "        codes.append(cli.main(argv))",
        "print(json.dumps(codes))",
    ])
    commands = ENGINE_COMMANDS + [
        ["classes", "--n", "4", "--q", "3", "--d", "2"], ["classes", "--n", "3", "--q", "4"],
        ["table", "--n", "4", "--q", "3", "--output", "csv"], ["table", "--n", "3", "--q", "4"],
        ["oracle", "--n", "2", "--q", "2"]]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    codes = {mode: json.loads(subprocess.run(
        [sys.executable, "-c", script, mode, json.dumps(commands)], env=env,
        capture_output=True, text=True, check=True).stdout) for mode in ("plain", "patched")}
    assert codes["patched"][:-1] == codes["plain"][:-1]
    assert codes["plain"][-1] == 0 and codes["patched"][-1] == 5


def test_engine_fault_under_smt55_exits_5():
    # a Green value bumped at alpha = (1^k) makes an mn_step coefficient
    # non-integral; that raise is a fault of the engine, not a failed
    # check, so verify smt55 exits 5 with a traceback, as blocks does
    script = "\n".join([
        "import sys",
        "from glblocks import charvalue, cli",
        "real = charvalue.green_values",
        "def bumped(k, q):",  # (1^k) is the last torus type of each row
        "    return tuple(row[:-1] + (row[-1] + 1,) for row in real(k, q))",
        "charvalue.green_values = bumped",
        "sys.exit(cli.main(sys.argv[1:]))",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for verb in (["verify", "smt55"], ["blocks"]):
        run = subprocess.run([sys.executable, "-c", script, *verb, "--n", "4", "--q", "3",
                              "--d", "2", "--output", "json"],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 5 and run.stdout == "", verb
        assert run.stderr.endswith(
            "AssertionError: hook-removal coefficient 3/2 not integral\n"), verb


def test_blocks_builds_no_fraction():
    # blocks tests integer Gram entries for zero, and matrix prints each as
    # p/q reduced by math.gcd, so neither loads fractions (nor decimal, which
    # fractions imports), matrix in none of its forms
    script = ("import sys\nfrom glblocks import cli\ncode = cli.main(sys.argv[1:])\n"
              "print(code, 'fractions' in sys.modules, 'decimal' in sys.modules)")
    matrix = ["matrix", "--n", "5", "--q", "3", "--d", "2", "--domain", "d_singular"]
    for argv in [["blocks", "--n", "6", "--q", "4", "--d", "3"],
                 *(matrix + ["--output", form] for form in ("json", "text", "csv"))]:
        out = subprocess.run([sys.executable, "-c", script, *argv],
                             env=dict(os.environ, PYTHONPATH=str(SRC)),
                             capture_output=True, text=True, check=True).stdout
        assert out.splitlines()[-1] == "0 False False", argv


def test_verify_thm45_builds_no_fraction():
    # thm45 compares its unipotent sums with the q-hook degrees as integers,
    # so it loads neither fractions nor decimal
    script = ("import sys\nfrom glblocks import cli\ncode = cli.main(sys.argv[1:])\n"
              "print(code, 'fractions' in sys.modules, 'decimal' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", script, "verify", "thm45", "--n", "3", "--q", "2"],
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 False False"


def test_large_prime_q_reaches_the_class_guard_at_once():
    # --q = 2^61 - 1 is checked by roots and Miller-Rabin, not trial division
    run = subprocess.run([sys.executable, "-m", "glblocks.cli", "classes", "--n", "1",
                          "--q", str(2 ** 61 - 1)], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=2)
    assert run.returncode == 4 and run.stdout == ""
    assert run.stderr.startswith("glblocks: scale guard:") and len(run.stderr.splitlines()) == 1


# the glblocks modules each command loads besides the package, cli and errors:
# blocks, matrix, classes and oracle load neither abacus nor verify, classes
# no value engine, only oracle, verify prop32 and verify thm45 the
# element-level modules, oracle no section check, verify prop32 no character
# table and no label-level engine module, and only thm410chain the chains
ENGINE = {"partitions", "symchar", "qarith", "glclass", "charvalue", "blockcalc"}
ORACLE_BASE = {"partitions", "qarith", "bruteforce"}
COMMAND_MODULES = [
    (["blocks", "--n", "4", "--q", "3", "--d", "2"], ENGINE),
    (["matrix", "--n", "4", "--q", "3", "--d", "2", "--output", "json"], ENGINE),
    (["classes", "--n", "3", "--q", "3", "--d", "2"],
     {"partitions", "qarith", "glclass", "classlist"}),
    (["table", "--n", "3", "--q", "2", "--output", "json"], ENGINE - {"blockcalc"} | {"classlist"}),
    # the d-sections are split off the types in verify, with no blockcalc
    (["verify", "thm43", "--n", "4", "--q", "3", "--d", "2"], ENGINE - {"blockcalc"} | {"verify"}),
    (["verify", "smt55", "--n", "4", "--q", "3", "--d", "2"], ENGINE - {"blockcalc"} | {"verify"}),
    (["verify", "thm410chain", "--n", "4", "--d", "3"],
     {"partitions", "abacus", "verify", "chains"}),
    (["verify", "prop32", "--n", "2", "--q", "2", "--d", "2"],
     ORACLE_BASE | {"bfsections", "verify"}),
    (["verify", "thm45", "--n", "2", "--q", "2"], ENGINE | ORACLE_BASE | {"bftable", "verify"}),
    (["oracle", "--n", "2", "--q", "2"], ORACLE_BASE | {"bftable"}),
    (["partition", "core", "[3,1]", "--d", "2"], {"partitions", "abacus"}),
]


def test_engine_commands_import_only_what_they_run():
    # each command loads exactly its glblocks modules (COMMAND_MODULES), and
    # none loads dataclasses (which loads inspect, ast and dis), traceback
    # (only a crash prints one) or csv (table quotes its own CSV fields).
    # The same script with no command is the baseline, so modules that the
    # interpreter's site set-up loads do not count.
    script = "\n".join([
        "import contextlib, io, json, sys",
        "code = None",
        "if sys.argv[1:]:",
        "    from glblocks import cli",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        code = cli.main(sys.argv[1:])",
        "print(json.dumps([code, sorted(sys.modules)]))",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def loaded(argv):
        out = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                             capture_output=True, text=True, check=True).stdout
        return json.loads(out)

    _, baseline = loaded([])
    for argv, modules in COMMAND_MODULES:
        code, loads = loaded(argv)
        assert code == 0, argv
        assert {m for m in loads if m.startswith("glblocks.")} == {
            f"glblocks.{m}" for m in modules | {"cli", "errors"}}, argv
        unwanted = (set(loads) - set(baseline)) & {"dataclasses", "inspect", "traceback", "csv"}
        assert not unwanted, (argv, unwanted)
