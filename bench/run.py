"""Benchmark of glblocks as its users run it: one CLI process per operation.

    python3 bench/run.py --workload blocks-wide --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one metrics table
    python3 bench/run.py --workload oracle --trace 1    # per-layer metrics
    python3 bench/run.py --write-reference       # re-record bench/reference/

Operations run one after another, each in a fresh `bench/child.py` process
that calls `glblocks.cli.main` (a closed loop with one client).  Every
operation's output is checked against the reference payload recorded in
bench/reference/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; a record of the run (ops, per-op
times, environment) goes to bench/results/.  bench/README.md describes the
workloads and the metrics.
"""

import argparse
import gzip
import hashlib
import json
import os
import platform
import re
import select
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
RESULTS = BENCH / "results"
SPEC = ROOT / "BENCHMARK.json"

RUN_DEADLINE_S = 170   # a run must have exited after 180 s
# median times of one calibrate.py process on the host that defined the
# benchmark; timed runs report their times as if the host ran at that speed
CALIBRATION = {"wall_s": 0.5, "cpu_s": 0.5, "setup_s": 0.057}
LAYERS = ("partitions", "symchar", "qarith", "glclass", "charvalue",
          "blockcalc", "bruteforce", "cli")

# shown in the table with --trace 0, but not in the final JSON line
UNCALIBRATED = {"fail_ratio": "ratio", "raw_wall_s": "s", "raw_cpu_s": "s",
                "raw_setup_s": "s", "host_slowdown": "ratio"}

# A workload is a list of slots.  A slot is a pool of command lines that
# stress the same layers at about the same cost and peak RSS; the seed picks
# one per slot (its digits in the mixed radix of the pool sizes), so seed 0
# runs the first command of every pool.  A pool holds one command where no
# other context of the same regime matched its cost.  Why each workload
# exists is in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "blocks-wide": [
        ["blocks --n 6 --q 5 --d 2"],
        ["blocks --n 6 --q 4 --d 3", "blocks --n 6 --q 4 --d 2 --variant exact"],
    ],
    "blocks-deep": [
        ["blocks --n 9 --q 2 --d 2"],
        ["blocks --n 9 --q 2 --d 2 --variant exact", "blocks --n 9 --q 2 --d 3"],
    ],
    "labels": [
        ["verify thm43 --n 7 --q 3 --d 2", "verify thm43 --n 7 --q 3 --d 2 --variant exact"],
        ["verify smt55 --n 7 --q 3 --d 2", "verify smt55 --n 7 --q 3 --d 3",
         "verify smt55 --n 7 --q 3 --d 2 --variant exact"],
        ["matrix --domain d_singular --n 6 --q 3 --d 2"],
        ["classes --n 6 --q 5 --d 2", "classes --n 6 --q 5 --d 3"],
    ],
    "oracle": [
        ["oracle --n 2 --q 5"],
        ["oracle --n 2 --q 4", "oracle --n 3 --q 2"],
        ["verify prop32 --n 3 --q 2 --d 2", "verify prop32 --n 3 --q 2 --d 3"],
        ["verify thm45 --n 3 --q 2", "verify thm45 --n 2 --q 4"],
    ],
}

# the mathematical payload of each command; keys added later are ignored
PAYLOAD_KEYS = {
    "blocks": ("computed_blocks", "combinatorial_blocks", "verdict", "f_number"),
    "verify": ("pass", "details"),
    "matrix": ("matrix",),
    "classes": ("classes",),
    "oracle": ("degrees", "classes", "borel_constituents"),
}


def resolve_ops(workload, seed):
    """The command lines one pass of `workload` runs under `seed`."""
    ops = []
    for pool in WORKLOADS[workload]:
        seed, pick = divmod(seed, len(pool))
        ops.append(pool[pick])
    return ops


# -- running one operation -------------------------------------------------------

def child_env():
    env = {k: v for k, v in os.environ.items() if k != "GLBLOCKS_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv, tmp, timeout):
    """Spawn `argv` with stdout and stderr to files in `tmp` and wait for it.

    Returns its start and exit times, wait status, resource usage and
    whether it was killed for overrunning `timeout` seconds.
    """
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(tmp / "stdout"), write, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(tmp / "stderr"), write, 0o644)]
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
    timed_out = True
    try:
        pidfd = os.pidfd_open(pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            timed_out = not poller.poll(max(timeout, 1.0) * 1000)
        finally:
            os.close(pidfd)
        end = time.monotonic()
    finally:
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    return start, end, status, usage, timed_out


def calibrate(timeout):
    """Wall, CPU and set-up seconds of one calibrate.py process, or None if it
    failed."""
    tmp = RESULTS / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    start, end, status, usage, timed_out = run_process(
        [sys.executable, str(BENCH / "calibrate.py")], tmp, timeout)
    if timed_out or os.waitstatus_to_exitcode(status) != 0:
        return None
    try:
        main_entered = float((tmp / "stdout").read_text())
    except ValueError:
        return None
    return {"wall_s": end - start, "cpu_s": usage.ru_utime + usage.ru_stime,
            "setup_s": main_entered - start}


def spawn(op, mode, timeout):
    """Run `op` in a fresh process; return its times, usage and output.

    mode is "run", "probe" or "trace" (see child.py).  Wall time runs from
    just before the spawn to the moment the process exits; set-up time from
    the spawn to the entry of glblocks.cli.main.
    """
    tmp = RESULTS / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    record_path = tmp / "record.json"
    spans_path = tmp / "record.json.spans"
    for path in (record_path, spans_path):
        path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), str(record_path), mode,
            *op.split(), "--output", "json"]
    start, end, status, usage, timed_out = run_process(argv, tmp, timeout)
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):   # the process died before writing it whole
        record = None
    result = {
        "op": op,
        "mode": mode,
        "wall_s": end - start,
        "setup_s": record["main_entered"] - start if record else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": record["peak_rss_kb"] / 1024 if record else None,
        "exit_code": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
        "stdout": (tmp / "stdout").read_bytes(),
        "stderr": (tmp / "stderr").read_text(errors="replace"),
        "trace": record.get("trace") if record else None,
    }
    if spans_path.exists():
        (RESULTS / "spans").mkdir(exist_ok=True)
        spans_path.replace(RESULTS / "spans" / f"{slug(op)}.json.gz")
    return result


def slug(op):
    return re.sub(r"[^A-Za-z0-9]+", "-", op).strip("-")


# -- correctness ------------------------------------------------------------------

def payload_of(op, stdout):
    data = json.loads(stdout)
    return {key: data[key] for key in PAYLOAD_KEYS[op.split()[0]] if key in data}


def first_mismatch(ref, actual, path="$"):
    """Path of the first difference of `actual` from `ref`, or None.

    Exact comparison, except that keys of `actual` missing from `ref` are
    ignored, at every depth.
    """
    if isinstance(ref, dict):
        if not isinstance(actual, dict):
            return path
        for key, value in ref.items():
            if key not in actual:
                return f"{path}.{key}"
            found = first_mismatch(value, actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(ref, list):
        if not isinstance(actual, list) or len(ref) != len(actual):
            return path
        for i, (a, b) in enumerate(zip(ref, actual)):
            found = first_mismatch(a, b, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if type(ref) is type(actual) and ref == actual else path


def load_reference(op):
    path = REFERENCE / f"{slug(op)}.json.gz"
    if not path.exists():
        return None
    return json.loads(gzip.decompress(path.read_bytes()))


def failure(result, reference):
    """Why the op failed, or None when its exit code and payload are right."""
    if result["timed_out"]:
        return "timeout"
    if "Traceback (most recent call last)" in result["stderr"]:
        return "traceback"
    if result["setup_s"] is None:
        return "no record from the op process"
    if result["exit_code"] != 0:
        return f"exit code {result['exit_code']}"
    if result["mode"] == "probe":
        return None
    if reference is None:
        return "no reference payload"
    try:
        payload = payload_of(result["op"], result["stdout"])
    except ValueError:
        return "stdout is not JSON"
    found = first_mismatch(reference["payload"], payload)
    return f"payload differs at {found}" if found else None


def corrupt(value):
    """A copy of `value` with its first leaf changed."""
    if isinstance(value, dict) and value:
        key = sorted(value)[0]
        return {**value, key: corrupt(value[key])}
    if isinstance(value, list) and value:
        return [corrupt(value[0])] + value[1:]
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "?"
    return [value]


def add_key(value):
    """A copy of `value` with a key added to its first dict."""
    if isinstance(value, dict):
        return {**value, "key_added_later": 1}
    if isinstance(value, list) and value:
        return [add_key(value[0])] + value[1:]
    return value


def self_check(result, reference):
    """The check must fail an op against a corrupted reference, and must pass
    an op whose payload gained a key."""
    bad = dict(reference, payload=corrupt(reference["payload"]))
    grown = add_key(payload_of(result["op"], result["stdout"]))
    return {"corrupted_reference_fails": failure(result, bad) is not None,
            "added_key_ignored": first_mismatch(reference["payload"], grown) is None}


# -- runs -------------------------------------------------------------------------

class Run:
    """Executes the ops of one workload run; keeps a log and the failure count."""

    def __init__(self, ops, deadline):
        self.deadline = deadline
        self.references = {op: load_reference(op) for op in ops}
        self.log = []
        self.attempted = self.failed = 0
        self.calibrations = []

    def execute(self, op, mode, counted=True):
        ref = self.references[op]
        result = spawn(op, mode, self.deadline - time.monotonic())
        result["failure"] = failure(result, ref)
        entry = {k: v for k, v in result.items() if k not in ("stdout", "stderr", "trace")}
        if mode != "probe":
            entry["stdout_identical"] = bool(
                ref and hashlib.sha256(result["stdout"]).hexdigest() == ref["stdout_sha256"])
        self.log.append(entry)
        if counted:
            self.attempted += 1
            self.failed += bool(result["failure"])
        if result["failure"]:
            print(f"  FAILED {mode} {op}: {result['failure']}\n{result['stderr'][-2000:]}",
                  file=sys.stderr)
        return result

    def calibrate(self):
        """Run calibrate.py once and return its times.  Without them no time
        can be reported, so the benchmark stops if it fails."""
        calibration = calibrate(self.deadline - time.monotonic())
        if calibration is None:
            sys.exit("calibrate.py failed or gave a wrong answer")
        self.calibrations.append(calibration)
        return calibration

    def out_of_time(self, needed):
        return time.monotonic() + needed > self.deadline


def timed_run(ops, seconds, deadline):
    """Rounds over `ops` for about `seconds`, each op between two calibrations.

    The first round runs every op.  Later rounds run each op again only if
    it is expected to end within `seconds`, so cheap ops fill the time that
    an expensive op would overrun.  A calibrate.py process runs before the
    first op and after every op, so each op sample sits between two.  An op
    sample's wall, CPU and set-up times are divided by the mean of the same
    times of those two calibrations; each op's figure is the median of these
    ratios times the calibration's reference time, and the workload's figure
    sums them over the ops, as for one pass.
    """
    run = Run(ops, deadline)
    run.execute(ops[0], "probe", counted=False)   # warm-up: page cache, bytecode
    samples = {op: [] for op in ops}
    start = time.monotonic()
    run.calibrate()
    while True:
        ran = []
        for op in ops:
            expected = statistics.median(r["wall_s"] + r["bracket"]["wall_s"]
                                         for r in samples[op]) if samples[op] else 0
            if samples[op] and (time.monotonic() - start + expected > seconds
                                or run.out_of_time(expected)):
                continue
            result = run.execute(op, "run")
            before = run.calibrations[-1]
            after = run.calibrate()
            result["bracket"] = {key: (before[key] + after[key]) / 2 for key in before}
            samples[op].append(result)
            ran.append(result)
        print("  round: " + "  ".join(f"{r['wall_s']:.2f}" for r in ran), flush=True)
        if not ran or any(r["timed_out"] for r in ran):
            break
    first = samples[ops[0]][0]
    checked = self_check(first, run.references[ops[0]]) if not first["failure"] else {}

    def median_of(op, key):
        return statistics.median(r[key] or 0.0 for r in samples[op])

    def relative(op, key):
        return statistics.median((r[key] or 0.0) / r["bracket"][key] for r in samples[op])

    metrics = {"fail_ratio": run.failed / run.attempted}
    for key in ("wall_s", "cpu_s", "setup_s"):
        metrics[key] = CALIBRATION[key] * sum(relative(op, key) for op in ops)
        metrics["raw_" + key] = sum(median_of(op, key) for op in ops)
    metrics["peak_rss_mb"] = max(median_of(op, "peak_rss_mb") for op in ops)
    metrics["host_slowdown"] = (statistics.median(c["wall_s"] for c in run.calibrations)
                                / CALIBRATION["wall_s"])
    correct = run.failed == 0 and len(checked) == 2 and all(checked.values())
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics, "samples": {op: len(r) for op, r in samples.items()},
            "self_check": checked, "calibrations": run.calibrations, "ops_log": run.log}


def layer_metrics(results):
    """Per-layer figures summed over the ops of one traced pass.

    Memo sizes are the largest over the ops, like peak RSS.
    """
    m = {f"{layer}.{kind}": 0 for layer in LAYERS for kind in ("self_s", "errors")}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    memo_totals = []
    for r in results:
        trace = r["trace"] or {}
        for name, f in trace.get("functions", {}).items():
            for kind in ("calls", "s", "self_s"):
                add(f"{name}.{kind}", f[kind])
        for layer, s in trace.get("layer_self_s", {}).items():
            add(f"{layer}.self_s", s)
        for layer, n in trace.get("errors", {}).items():
            add(f"{layer}.errors", n)
        for key, n in trace.get("counts", {}).items():
            add(key, n)
        memo = trace.get("memo", {})
        for name, info in memo.items():
            add(f"{name}.hits", info["hits"])
            add(f"{name}.misses", info["misses"])
            m[f"memo.{name}.size"] = max(m.get(f"memo.{name}.size", 0), info["currsize"])
        memo_totals.append(sum(info["currsize"] for info in memo.values()))
        add("cli.output_bytes", len(r["stdout"]))
    for key in [k for k in m if k.endswith(".hits")]:
        name = key[:-len(".hits")]
        lookups = m[key] + m[f"{name}.misses"]
        m[f"{name}.hit_ratio"] = m[key] / lookups if lookups else 0.0
    m["memo.entries"] = max(memo_totals, default=0)
    return m


def layer_checks(workload, m):
    """Does the workload isolate the layers it was chosen for?"""
    layer_s = {key[:-len(".self_s")]: value for key, value in m.items()
               if key.endswith(".self_s") and key.count(".") == 1}
    total = sum(layer_s.values()) or 1.0
    kf = m.get("charvalue.kostka_foulkes.s", 0.0)
    checks = {}
    if workload == "blocks-deep":
        others = max(s for layer, s in layer_s.items() if layer != "charvalue")
        checks["kostka_foulkes.s above the self time of every layer but charvalue"] = kf > others
    if workload == "blocks-wide":
        checks["kostka_foulkes.s under 5% of traced time"] = kf < 0.05 * total
    if workload == "oracle":
        checks["bruteforce self time above 80% of traced time"] = layer_s["bruteforce"] > 0.8 * total
    else:
        checks["bruteforce absent"] = layer_s["bruteforce"] == 0
    return checks


def traced_run(workload, ops, deadline):
    """One untraced and one traced pass; per-layer figures from the traced one."""
    run = Run(ops, deadline)
    run.execute(ops[0], "probe", counted=False)
    plain = [run.execute(op, "run") for op in ops]
    traced = [run.execute(op, "trace") for op in ops]
    for a, b in zip(plain, traced):
        if a["stdout"] != b["stdout"] and not b["failure"]:
            run.failed += 1
            print(f"  FAILED: tracing changed the stdout of {a['op']}", file=sys.stderr)
    m = layer_metrics(traced)
    m["trace.wall_s"] = sum(r["wall_s"] for r in traced)
    m["trace.untraced_wall_s"] = sum(r["wall_s"] for r in plain)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    checks = layer_checks(workload, m)
    m["check.layers_separated"] = int(all(checks.values()))
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": m, "layer_checks": checks, "ops_log": run.log}


# -- the run record ---------------------------------------------------------------

def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "glblocks").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment():
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def declared_metrics(trace):
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace):
    ops = resolve_ops(workload, seed)
    print(f"{workload} seed {seed}: " + " ; ".join(ops), flush=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = environment()
    # The CPUs of a shared host can differ in speed, so every process of the
    # run, calibrations included, runs on the same one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out = traced_run(workload, ops, deadline) if trace else timed_run(ops, seconds, deadline)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "ops": ops, "environment": env, **out}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"  record: {path.relative_to(ROOT)}")
    for name, ok in out.get("layer_checks", {}).items():
        print(f"  layer check {'PASS' if ok else 'FAIL'}: {name}")
    return out


def write_reference(workloads):
    REFERENCE.mkdir(exist_ok=True)
    for workload in workloads:
        for pool in WORKLOADS[workload]:
            for op in pool:
                result = spawn(op, "run", RUN_DEADLINE_S)
                if result["timed_out"] or result["exit_code"] != 0 or result["stderr"]:
                    sys.exit(f"{op}: exit code {result['exit_code']}\n{result['stderr']}")
                blob = json.dumps({
                    "op": op,
                    "stdout_sha256": hashlib.sha256(result["stdout"]).hexdigest(),
                    "payload": payload_of(op, result["stdout"]),
                }, sort_keys=True).encode()
                (REFERENCE / f"{slug(op)}.json.gz").write_bytes(gzip.compress(blob, mtime=0))
                print(f"{result['wall_s']:7.2f} s  {op}", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the payload of every pool op as the reference")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "glblocks" / "cli.py").is_file() or not SPEC.is_file():
        sys.exit(f"cannot benchmark: {SRC / 'glblocks'} or {SPEC} is missing")
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference:
        write_reference(workloads)
        return 0
    units = declared_metrics(args.trace)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in workloads}
    shown = {**units, **({} if args.trace else UNCALIBRATED)}
    print(f"{'workload':<12} {'metric':<42} {'value':>14}  unit")
    for w, out in results.items():
        for name, unit in shown.items():
            print(f"{w:<12} {name:<42} {out['metrics'].get(name, 0):>14.6g}  {unit}")
    if len(workloads) == 1:
        chosen = {name: (name, results[workloads[0]]["metrics"]) for name in units}
    else:
        chosen = {f"{w}.{name}": (name, results[w]["metrics"]) for w in workloads for name in units}
    print(json.dumps({
        "correct": all(out["correct"] for out in results.values()),
        "attempted": sum(out["attempted"] for out in results.values()),
        "failed": sum(out["failed"] for out in results.values()),
        "metrics": {key: {"value": metrics.get(name, 0), "unit": units[name]}
                    for key, (name, metrics) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
