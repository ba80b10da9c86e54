"""The benchmark's operations, run in process against its recorded payloads.

Each op of every workload in bench/run.py goes through cli.main and is
compared with bench/reference/ by the runner's own payload_of and
first_mismatch, so an output change the benchmark would count as a failed
op fails here first.  The whole stdout must also hash to the reference's
stdout_sha256, which covers the keys the payload leaves out (an oracle
dump's order and Borel permutation values, for one)."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from glblocks import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_runner():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUNNER = _load_runner()
OPS = [op for pools in RUNNER.WORKLOADS.values() for pool in pools for op in pool]


def test_every_op_has_a_reference():
    assert OPS and [op for op in OPS if RUNNER.load_reference(op) is None] == []


@pytest.mark.parametrize("op", OPS)
def test_workload_op_matches_its_reference(op, capsys):
    assert cli.main(op.split() + ["--output", "json"]) == 0
    out = capsys.readouterr().out
    reference = RUNNER.load_reference(op)
    assert RUNNER.first_mismatch(reference["payload"], RUNNER.payload_of(op, out)) is None
    assert hashlib.sha256(out.encode()).hexdigest() == reference["stdout_sha256"]
