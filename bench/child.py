"""Run one glblocks CLI operation in this process, as `python -m glblocks.cli` would.

Usage: python3 bench/child.py RECORD MODE ARGS...

ARGS are the glblocks command line.  MODE is one of
  run    call glblocks.cli.main(ARGS) and exit with its return code;
  probe  exit as soon as main would be entered (the runner's warm-up);
  trace  like run, with every public glblocks function wrapped by tracer.py.
RECORD is a file that receives one JSON object: the CLOCK_MONOTONIC time at
which main was entered, the process's peak RSS, and the trace aggregates; in
trace mode the spans go to RECORD.spans.
Stdout, stderr and the exit code are exactly those of the CLI.
"""

import json
import os
import sys
import time


def peak_rss_kb():
    """VmHWM of this process.

    ru_maxrss is not used here: glibc spawns children with a shared address
    space until exec, so the kernel also charges the parent's peak to it.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main():
    record_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from glblocks import cli

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    record = {"main_entered": time.monotonic()}
    if mode == "probe":
        record["peak_rss_kb"] = peak_rss_kb()
        with open(record_path, "w") as fh:
            json.dump(record, fh)
        os._exit(0)
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        record["peak_rss_kb"] = peak_rss_kb()
        if tracer is not None:
            record["trace"] = tracer.report()
            tracer.write_spans(record_path + ".spans")
        with open(record_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
