"""Benchmark worker: runs cases one at a time for bench/run.py.

Usage: python3 bench/worker.py GROUP [GROUP ...]

The worker times its own set-up (importing the package, then loading and
validating each named group spec) and announces it on stdout.  It then
reads one JSON request per line on stdin and answers each with one JSON
line on stdout:

    {"id": 3, "group": "z3", "code": "rrr", "shared_ctx": false}
        -> {"id": 3, "seconds": 0.82, "wall_s": 1.08, "lims": ["0", "0", "0", "Z^8"]}
        -> {"id": 3, "seconds": 0.40, "wall_s": 0.51, "error": "CapExceeded: ..."}
    {"trace": true}      wrap the package's layers in spans from now on
    {"finish": true, "spans_path": "..." or null}
        -> {"layers": {...} or null, "clock": {...}}

Times named ``seconds`` and ``setup_s`` are reference seconds of
workclock.WorkClock, which runs in this process from its first line;
``wall_s`` and ``setup_wall_s`` are plain wall times.

With shared_ctx one GroupContext per group is reused across that group's
cases, as a dictionary check over many codes would do.
"""

import time

import workclock

CLOCK = None
if __name__ == "__main__":
    CLOCK = workclock.WorkClock()
    CLOCK.start()

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402

from frlimits.frcode import parse  # noqa: E402
from frlimits.limits import higher_limits  # noqa: E402
from frlimits.permgrp import load_group_file  # noqa: E402
from frlimits.truncring import GroupContext  # noqa: E402

GROUP_DIR = os.path.join(ROOT, "src", "frlimits", "groups")


def load_groups(names):
    return {n: load_group_file(os.path.join(GROUP_DIR, f"{n}.json")) for n in names}


def send(msg):
    sys.stdout.write(json.dumps(msg) + "\n")
    sys.stdout.flush()


def run_case(req, groups, contexts, recorder, clock):
    group = groups[req["group"]]
    ctx = None
    if req.get("shared_ctx"):
        if req["group"] not in contexts:
            contexts[req["group"]] = GroupContext(group)
        ctx = contexts[req["group"]]
    if recorder is not None:
        recorder.case = req["id"]
    span = contextlib.nullcontext() if recorder is None else recorder.span("case")
    out = {"id": req["id"]}
    clock.sample()
    start = time.perf_counter()
    try:
        with span:
            report = higher_limits(parse(req["code"]), group, ctx=ctx)
            out["lims"] = [g.describe() for g in report.lims]
    except Exception as exc:  # a failed case (CapExceeded too) is a result
        out["error"] = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    clock.sample()
    out.update(seconds=clock.seconds(start, end), wall_s=end - start)
    return out


def main(group_names, clock):
    groups = load_groups(group_names)
    ready = time.perf_counter()
    clock.sample()
    send({"ready": True, "setup_s": clock.seconds(_T0, ready),
          "setup_wall_s": ready - _T0, "python": platform.python_version(),
          "numpy": numpy.__version__})
    contexts = {}
    recorder = None
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("trace"):
            import layertrace

            recorder = layertrace.Recorder()
            layertrace.install(recorder)
        elif req.get("finish"):
            clock.stop()
            layers = None
            if recorder is not None:
                layers = recorder.layer_totals(clock.ref_time)
                if req.get("spans_path"):
                    with open(req["spans_path"], "w", encoding="utf-8") as fh:
                        json.dump({"spans": recorder.dump(), "layers": layers,
                                   "probes": {"start": clock.starts, "end": clock.ends,
                                              "probe_s": clock.probes,
                                              "ref_probe_s": clock.ref}}, fh)
            send({"layers": layers, "clock": clock.summary()})
            return
        else:
            send(run_case(req, groups, contexts, recorder, clock))


if __name__ == "__main__":
    main(sys.argv[1:], CLOCK)
