"""Self-tests of the benchmark: python3 -m pytest -q bench"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import layertrace  # noqa: E402
import run  # noqa: E402
import workclock  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_calls():
    # outer [0, 10] holds inner [1, 3] (which holds leaf [1.5, 2]) and a
    # second inner [4, 5]
    rec = layertrace.Recorder(clock=FakeClock([0, 1, 1.5, 2, 3, 4, 5, 10]))
    rec.case = 7
    outer = rec.enter("outer")
    inner = rec.enter("inner")
    leaf = rec.enter("leaf")
    rec.exit(leaf)
    rec.exit(inner)
    inner2 = rec.enter("inner")
    rec.exit(inner2)
    rec.exit(outer)
    assert rec.self_times() == pytest.approx({"outer": 7.0, "inner": 2.5, "leaf": 0.5})
    # a map to another time scale applies to every clock reading
    doubled = rec.self_times(lambda t: 2 * t)
    assert doubled == pytest.approx({"outer": 14.0, "inner": 5.0, "leaf": 1.0})
    assert rec.calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert [s[3] for s in rec.spans] == [-1, 0, 1, 0]
    assert {s[4] for s in rec.spans} == {7}


def test_reentrant_span_counts_one_call():
    rec = layertrace.Recorder(clock=FakeClock([0, 1, 2, 3]))
    a = rec.enter("intlin.membership")
    b = rec.enter("intlin.membership")
    rec.exit(b)
    rec.exit(a)
    assert rec.calls == {"intlin.membership": 1}
    assert rec.self_times()["intlin.membership"] == pytest.approx(3.0)


def test_work_clock_scales_wall_time_by_probe_speed():
    clock = workclock.WorkClock(ref=1.0)
    # probes at [0, 1] and [3, 4] took the reference time, then the host
    # ran at half speed: the probe at [10, 12] took twice as long
    clock._record(0.0, 1.0, 1.0)
    clock._record(3.0, 4.0, 1.0)
    clock._record(10.0, 12.0, 2.0)
    assert clock.seconds(1.0, 3.0) == pytest.approx(2.0)
    # time inside a probe is left out
    assert clock.seconds(0.0, 4.0) == pytest.approx(2.0)
    # from 4 to 10 the rate is the mean of 1/1 and 1/2
    assert clock.seconds(4.0, 10.0) == pytest.approx(6.0 * 0.75)
    assert clock.seconds(5.0, 7.0) == pytest.approx(2.0 * 0.75)
    # after the last probe, at its rate
    assert clock.seconds(12.0, 16.0) == pytest.approx(2.0)
    assert clock.seconds(2.0, 2.0) == 0.0


def test_pinned_table_covers_every_case_and_matches_known_values():
    import pin_answers

    assert pin_answers.main(["--check"]) == 0


def small_run(tmp_path, monkeypatch, cases, expected, limit=30.0, trace=False,
              shared_ctx=False):
    monkeypatch.setattr(run, "RESULTS", str(tmp_path))
    spec = {"cases": cases, "shared_ctx": shared_ctx, "case_limit_s": limit}
    r = run.Run(spec, seed=0, seconds=0, trace=trace, expected=expected, tag="t")
    r.measure()
    return r


def test_wrong_answer_counts_as_failed(tmp_path, monkeypatch):
    r = small_run(tmp_path, monkeypatch, [("z2", "r"), ("z2", "ff")],
                  {"z2:r": ["0", "Z/2"], "z2:ff": ["0", "0", "0"]})
    cases, failed, wrong = r.tally()
    assert len(cases) == 2
    assert [(c["code"], c["status"]) for c in failed] == [("r", "wrong")]
    assert wrong == failed
    assert r.metrics()["solved_frac"]["value"] == 0.5


def test_timeout_is_recorded_and_later_cases_still_run(tmp_path, monkeypatch):
    r = small_run(tmp_path, monkeypatch, [("z3", "fff"), ("z2", "r")],
                  {"z3:fff": ["0", "0", "0", "0"], "z2:r": ["0", "Z"]}, limit=0.2)
    by_code = {c["code"]: c for c in r.rounds[0]["cases"]}
    assert by_code["fff"]["status"] == "timeout"
    assert by_code["fff"]["reason"].startswith("timeout")
    assert by_code["r"]["status"] == "ok"
    cases, failed, wrong = r.tally()
    assert len(cases) == 2 and len(failed) == 1 and not wrong


def test_traced_round_reports_every_layer_metric(tmp_path, monkeypatch):
    r = small_run(tmp_path, monkeypatch, [("z2", "rr+fff")],
                  {"z2:rr+fff": ["0", "Z/2", "Z/2", "0"]}, trace=True)
    layers = r.layer_metrics()
    names = set(layertrace.SPAN_METRICS) | set(layertrace.COUNTERS)
    assert names <= set(layers)
    assert layers["intlin.lattice_adds"]["value"] > 0
    assert layers["limits.identities_s"]["value"] > 0
    with open(os.path.join(tmp_path, r.spans_files[0]), encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    assert "case" in spans["names"] and len(spans["start"]) == len(spans["end"])


def test_shared_context_cases_run_group_by_group():
    spec = run.WORKLOADS["dictionary-sweep"]
    for seed in (1, 2):
        order = run.case_order(spec, seed)
        assert sorted(order) == list(range(len(spec["cases"])))
        groups = [spec["cases"][i][0] for i in order]
        starts = [g for k, g in enumerate(groups) if k == 0 or groups[k - 1] != g]
        assert len(starts) == len(set(groups))
    assert run.case_order(spec, 1) == run.case_order(spec, 1)
    assert run.case_order(spec, 1) != run.case_order(spec, 2)


def test_each_group_has_a_worker_and_layers_add_up(tmp_path, monkeypatch):
    r = small_run(tmp_path, monkeypatch, [("z2", "r"), ("z3", "r"), ("z2", "rr")],
                  {"z2:r": ["0", "Z"], "z3:r": ["0", "Z^2"], "z2:rr": ["0", "0", "Z"]},
                  trace=True, shared_ctx=True)
    traced = [rd for rd in r.rounds if rd["traced"]][0]
    assert all(c["status"] == "ok" for c in traced["cases"])
    assert len(r.spans_files) == len(traced["clocks"]) == 2
    per_worker = []
    for name in r.spans_files:
        with open(os.path.join(tmp_path, name), encoding="utf-8") as fh:
            per_worker.append(json.load(fh)["layers"])
    assert traced["layers"] == run.merge_layers(per_worker)
    assert traced["layers"]["truncring.ring_rank_max"] == max(
        p["truncring.ring_rank_max"] for p in per_worker)


def test_fails_without_the_package(tmp_path):
    # only the benchmark's own files, as in a checkout without src/
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "worker.py", "layertrace.py", "workclock.py", "expected.json"):
        (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "deep-int64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_known_values_catch_a_wrong_pin():
    import pin_answers
    from worker import load_groups

    groups = load_groups(["s3", "z3"])
    good = {"s3:rr+fff": ["0", "Z/2", "Z/2", "0"], "z3:rrr": ["0", "0", "0", "Z^8"]}
    assert pin_answers.known_violations(good, groups) == []
    for key, lims in [("s3:rr+fff", ["0", "0", "Z/2", "0"]),
                      ("z3:rrr", ["0", "0", "0", "Z^4"])]:
        assert pin_answers.known_violations({key: lims}, groups)
