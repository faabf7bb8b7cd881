"""Benchmark of frlimits.higher_limits over bundled groups and fr-codes.

Usage (from the repository root):

    python3 bench/run.py --workload deep-int64 --seed 1 --seconds 20 --trace 0

A closed loop with one client: this script sends one case at a time to one
worker subprocess (bench/worker.py) and waits for its answer.  A round
runs every case of the workload once, in the order the seed gives, in a
fresh worker; rounds start until --seconds have passed, and the last
one runs to its end.  Every answer is checked against the pinned
table in bench/expected.json.

Times are reference seconds of bench/workclock.py: wall time corrected
for the speed of the host, which the worker probes as it runs.  The
result file keeps plain wall times too.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 untraced and traced rounds alternate and it carries the
per-layer metrics of the traced rounds (see bench/README.md).  Each run
also writes bench/results/BENCH_<workload>_seed<seed>_trace<t>.json, and
a traced run the spans of its first traced round.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import selectors
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
RESULTS = os.path.join(BENCH, "results")
EXPECTED = os.path.join(BENCH, "expected.json")

SWEEP_CODES = ["r", "f", "ff", "rr", "fr+rf", "rr+frf", "rr+fff"]

# Why each workload exists is in bench/README.md.
WORKLOADS = {
    "bignum-hnf": {
        "cases": [("s3", "rr+fff")],
        "shared_ctx": False,
        "case_limit_s": 120.0,
    },
    "deep-int64": {
        "cases": [("z3", "fff"), ("z3", "rrr"), ("z4", "fff")],
        "shared_ctx": False,
        "case_limit_s": 60.0,
    },
    "dictionary-sweep": {
        "cases": [
            (g, c)
            for g in ("z2", "z2_rank2", "z3", "z4", "z2xz2")
            for c in SWEEP_CODES
        ]
        + [("s3", c) for c in SWEEP_CODES if c != "rr+fff"]
        + [("z2", "rfr"), ("z2", "ffr+rff")],
        "shared_ctx": True,
        "case_limit_s": 30.0,
    },
}

# A run must end within 180 s: no case starts, and none runs on, past this.
RUN_BUDGET_S = 165.0
READY_TIMEOUT_S = 60.0
SETUP_SAMPLES = 11

# Worker numerics stay on one thread so a run measures one core.
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "slowest_case_s": "s",
    "peak_rss_mb": "MB",
    "solved_frac": "fraction",
}


class SetupError(RuntimeError):
    """The worker could not start: the package or a group spec is missing."""


class Worker:
    """One worker subprocess speaking JSON lines."""

    def __init__(self, groups, stderr_path):
        env = dict(os.environ, **WORKER_ENV)
        self.stderr_path = stderr_path
        with open(stderr_path, "w", encoding="utf-8") as err:
            self.proc = subprocess.Popen(
                [sys.executable, WORKER, *groups],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=err,
                text=True,
                cwd=ROOT,
                env=env,
            )
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)
        ready = self.recv(READY_TIMEOUT_S)
        if not isinstance(ready, dict) or not ready.get("ready"):
            self.kill()
            raise SetupError(f"worker did not start: {self.stderr_tail()}")
        self.ready = ready

    def send(self, msg):
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()

    def recv(self, timeout):
        """Next message, None on timeout, or "eof" if the worker died."""
        if not self.sel.select(timeout=max(timeout, 0.0)):
            return None
        line = self.proc.stdout.readline()
        return json.loads(line) if line else "eof"

    def stderr_tail(self):
        with open(self.stderr_path, encoding="utf-8", errors="replace") as fh:
            return fh.read()[-500:].strip()

    def kill(self):
        self.proc.kill()
        self.wait()

    def finish(self, spans_path=None):
        try:
            self.send({"finish": True, "spans_path": spans_path})
            out = self.recv(READY_TIMEOUT_S)
        except BrokenPipeError:
            out = None
        if not isinstance(out, dict):
            self.kill()
            return None
        self.wait()
        return out

    def wait(self):
        self.sel.close()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except BrokenPipeError:
                pass
        self.proc.wait()


def load_expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def case_key(group, code):
    return f"{group}:{code}"


def merge_layers(parts):
    """Per-layer totals of several workers: counts and times add up, and
    a ``_max`` counter takes the largest value."""
    out = {}
    for part in parts:
        for name, value in part.items():
            if name.endswith("_max"):
                out[name] = max(out.get(name, value), value)
            else:
                out[name] = out.get(name, 0) + value
    return out


def case_order(spec, seed):
    """Indices of spec's cases in the order seed gives.  With a shared
    context a dictionary check goes group by group, so the seed shuffles
    the groups and the cases within each group."""
    rng = random.Random(seed)
    if not spec["shared_ctx"]:
        order = list(range(len(spec["cases"])))
        rng.shuffle(order)
        return order
    blocks = {}
    for i, (group, _) in enumerate(spec["cases"]):
        blocks.setdefault(group, []).append(i)
    blocks = list(blocks.values())
    rng.shuffle(blocks)
    for block in blocks:
        rng.shuffle(block)
    return [i for block in blocks for i in block]


def judge(result, expected_lims):
    """(status, reason) of one answered case."""
    if "error" in result:
        return "error", result["error"]
    if result["lims"] != expected_lims:
        return "wrong", f"lims {result['lims']} != expected {expected_lims}"
    return "ok", ""


class Run:
    """One benchmark run: rounds of spec's cases, in the order seed gives."""

    def __init__(self, spec, seed, seconds, trace, expected, tag):
        self.spec = spec
        self.seconds = seconds
        self.trace = trace
        self.expected = expected
        self.tag = tag
        self.start = time.monotonic()
        self.deadline = self.start + RUN_BUDGET_S
        self.order = case_order(spec, seed)
        self.groups = sorted({g for g, _ in spec["cases"]})
        self.setup_samples = []
        self.setup_wall_samples = []
        self.versions = {}
        self.rounds = []
        self.spans_files = []
        self.peak_rss_kb = None

    def spawn(self):
        w = Worker(self.groups, os.path.join(RESULTS, f"{self.tag}_worker.log"))
        self.setup_samples.append(w.ready["setup_s"])
        self.setup_wall_samples.append(w.ready["setup_wall_s"])
        self.versions = {"python": w.ready["python"], "numpy": w.ready["numpy"]}
        return w

    def run_round(self, traced):
        started = time.monotonic()
        cases = []
        finished = []   # finish() answers of this round's workers
        worker = None
        # the first traced round writes the spans of each of its workers
        keep_spans = traced and not self.spans_files

        def finish(w):
            spans_path = None
            if keep_spans:
                name = f"{self.tag}_spans_w{len(self.spans_files)}.json"
                self.spans_files.append(name)
                spans_path = os.path.join(RESULTS, name)
            out = w.finish(spans_path)
            if out:
                finished.append(out)

        try:
            previous_group = None
            for cid in self.order:
                group, code = self.spec["cases"][cid]
                record = {"id": cid, "group": group, "code": code}
                cases.append(record)
                if worker is not None and self.spec["shared_ctx"] and group != previous_group:
                    # each group of a dictionary check runs in a worker of its own
                    finish(worker)
                    worker = None
                previous_group = group
                limit = min(self.spec["case_limit_s"], self.deadline - time.monotonic())
                if limit <= 0:
                    record.update(status="skipped", seconds=0.0, wall_s=0.0,
                                  reason="run time budget exhausted before the case started")
                    continue
                if worker is None:
                    worker = self.spawn()
                    if traced:
                        worker.send({"trace": True})
                sent = time.monotonic()
                worker.send({"id": cid, "group": group, "code": code,
                             "shared_ctx": self.spec["shared_ctx"]})
                result = worker.recv(limit)
                if isinstance(result, dict):
                    status, reason = judge(result, self.expected.get(case_key(group, code)))
                    record.update(status=status, seconds=result["seconds"],
                                  wall_s=result["wall_s"], reason=reason,
                                  lims=result.get("lims"))
                    continue
                waited = time.monotonic() - sent
                if result is None:
                    worker.kill()
                    reason = f"timeout: killed after {limit:.1f} s"
                    status = "timeout"
                else:
                    worker.wait()
                    reason = f"worker died: {worker.stderr_tail()}"
                    status = "error"
                # a killed case has no probed time: its wall time stands in;
                # the spans of a killed worker are lost
                record.update(status=status, seconds=waited, wall_s=waited, reason=reason)
                worker = None
            if worker is not None:
                finish(worker)
                worker = None
        except BaseException:
            if worker is not None:
                worker.kill()
            raise
        layers = [out["layers"] for out in finished if out["layers"]]
        self.rounds.append({
            "traced": traced,
            "wall_s": time.monotonic() - started,
            "layers": merge_layers(layers) if layers else None,
            "clocks": [out["clock"] for out in finished],
            "cases": cases,
        })

    def elapsed(self):
        return time.monotonic() - self.start

    def measure(self):
        """Start rounds until --seconds have passed; the last round runs to
        its end.  With tracing, untraced and traced rounds alternate and each
        kind runs once at least."""
        kinds = [False, True] if self.trace else [False]
        i = 0
        while i < len(kinds) or self.elapsed() < self.seconds:
            self.run_round(kinds[i % len(kinds)])
            i += 1
        while len(self.setup_samples) < SETUP_SAMPLES:
            w = self.spawn()
            w.finish()
        # every worker has been waited for, so this is the largest peak
        # resident size of any of them
        self.peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def tally(self):
        """All cases, the failed ones, and those whose output is wrong: a
        mismatch or an exception other than a resource cap."""
        cases = [c for r in self.rounds for c in r["cases"]]
        failed = [c for c in cases if c["status"] != "ok"]
        wrong = [c for c in failed if c["status"] == "wrong" or (
            c["status"] == "error" and not c["reason"].startswith("CapExceeded"))]
        return cases, failed, wrong

    def case_medians(self, traced, key="seconds"):
        """Median time of each case over the rounds of one kind."""
        times = {}
        for r in self.rounds:
            if r["traced"] == traced:
                for c in r["cases"]:
                    times.setdefault(c["id"], []).append(c[key])
        return [statistics.median(t) for t in times.values()]

    def wall_figures(self):
        """solve_s, slowest_case_s and setup_s in plain wall seconds."""
        medians = self.case_medians(traced=False, key="wall_s")
        return {
            "solve_s": sum(medians),
            "slowest_case_s": max(medians),
            "setup_s": statistics.median(self.setup_wall_samples),
        }

    def metrics(self):
        cases, failed, _ = self.tally()
        medians = self.case_medians(traced=False)
        values = {
            "setup_s": statistics.median(self.setup_samples),
            "solve_s": sum(medians),
            "slowest_case_s": max(medians),
            "peak_rss_mb": self.peak_rss_kb / 1024,
            "solved_frac": 1 - len(failed) / len(cases),
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def layer_metrics(self):
        traced = [r for r in self.rounds if r["traced"] and r["layers"]]
        out = {}
        if traced:
            for name in traced[0]["layers"]:
                unit = "s" if name.endswith("_s") else "count"
                value = statistics.median(r["layers"][name] for r in traced)
                out[name] = {"value": value, "unit": unit}
        t_solve = sum(self.case_medians(traced=True))
        u_solve = sum(self.case_medians(traced=False))
        out["trace.solve_s"] = {"value": t_solve, "unit": "s"}
        out["trace.overhead_s"] = {"value": t_solve - u_solve, "unit": "s"}
        return out


def environment(run, seed):
    return {
        "python": run.versions.get("python"),
        "numpy": run.versions.get("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "worker_env": WORKER_ENV,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "frlimits")):
        print(f"bench: no frlimits package under {ROOT}/src", file=sys.stderr)
        return 2
    expected = load_expected()
    missing = [case_key(g, c) for g, c in WORKLOADS[args.workload]["cases"]
               if case_key(g, c) not in expected]
    if missing:
        print(f"bench: no pinned answer for {missing}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
              expected, tag)
    try:
        run.measure()
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    cases, failed, wrong = run.tally()
    metrics = run.layer_metrics() if args.trace else run.metrics()
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(run, args.seed),
        "case_order": [case_key(*run.spec["cases"][i]) for i in run.order],
        "setup_samples_s": run.setup_samples,
        "wall_seconds": run.wall_figures(),
        "attempted": len(cases),
        "failed": len(failed),
        "failed_frac": len(failed) / len(cases),
        "failures": [{k: c[k] for k in ("group", "code", "status", "reason")}
                     for c in failed],
        "metrics": metrics,
        "spans_files": run.spans_files,
        "rounds": run.rounds,
    }
    with open(os.path.join(RESULTS, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(cases),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
