"""The benchmark's operations, run in process against its recorded payloads.

Each op of every workload in bench/run.py goes through cli.main and is
compared with bench/reference/ by the runner's own payload_of and
first_mismatch, so an output change the benchmark would count as a failed
op fails here first."""

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
def test_workload_op_matches_its_reference(op, capsys, monkeypatch):
    monkeypatch.delenv("GLBLOCKS_CACHE_DIR", raising=False)
    assert cli.main(op.split() + ["--output", "json"]) == 0
    payload = RUNNER.payload_of(op, capsys.readouterr().out)
    assert RUNNER.first_mismatch(RUNNER.load_reference(op)["payload"], payload) is None
