"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
import types
from pathlib import Path

import pytest

import run
from tracing import SITES, Patches, Tracer, layer_metrics, layer_totals, repeat_ratio, summarize

HERE = Path(__file__).resolve().parent


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_percentile_needs_ten_samples_beyond():
    xs = list(range(1, 201))  # 200 samples
    assert run.percentile(xs, 0.95) == 190  # nearest rank; 10 samples beyond
    assert run.percentile(xs, 0.50) == 100
    assert run.highest_percentile(200) == pytest.approx(0.95)
    with pytest.raises(ValueError):
        run.percentile(xs[:199], 0.95)  # only 9 beyond
    assert run.percentile(reversed(xs), 0.95) == 190  # order does not matter


def test_self_time_on_nested_spans():
    # a: 0..10 holds b: 1..4 and c: 5..6; b holds d: 2..3.
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    a = tracer.open("a")
    b = tracer.open("b")
    d = tracer.open("d")
    tracer.close(d)
    tracer.close(b)
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(a)
    totals = layer_totals(tracer.spans)
    assert totals["a"]["self_s"] == 10 - 3 - 1
    assert totals["b"]["self_s"] == 3 - 1
    assert totals["d"]["self_s"] == 1
    assert tracer.parent_name(d) == "b"


def test_mismatched_close_is_an_error():
    tracer = Tracer(clock=FakeClock([0, 1, 2]))
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_repeat_ratio_on_a_call_sequence():
    assert repeat_ratio(["a", "b", "a", "c", "b", "a"]) == 0.5
    assert repeat_ratio(["a", "b", "c"]) == 0.0
    assert repeat_ratio([]) == 0.0


def test_fit_model_dispatch_counts_fitters_only_on_fresh_results():
    model = types.SimpleNamespace(
        id="homog_gamma",
        family=types.SimpleNamespace(value="G"),
        trend=types.SimpleNamespace(value="L"),
    )
    cache = {}

    def fit_model(m, inc):
        if inc not in cache:
            cache[inc] = object()
        return cache[inc]

    fake = types.ModuleType("fake_criteria")
    fake.fit_model = fit_model
    real_site = next(site for site in SITES if site[:2] == ("degselect.criteria", "fit_model"))
    site = ("fake_criteria",) + real_site[1:]
    sys.modules["fake_criteria"] = fake
    try:
        tracer = Tracer()
        with Patches(tracer, sites=[site]) as patches:
            for inc in ("x", "y", "x", "x"):
                fake.fit_model(model, inc)
        assert fake.fit_model is fit_model  # restored on exit
        assert "fitting.fit_homog_gamma" in patches.sources
    finally:
        del sys.modules["fake_criteria"]
    summary = summarize(tracer)
    assert summary["fitting.fit_model.calls"] == 4
    assert summary["fitting.fit_homog_gamma.calls"] == 2  # x and y computed once
    assert summary["fitting.fit_model.repeats"] == 2


def test_missing_site_makes_its_metrics_absent():
    tracer = Tracer()
    with Patches(tracer, sites=[("no_such_module_here", "fn", "x", None, ("x",))]) as p:
        pass
    assert p.missing == ["no_such_module_here.fn"]
    values, absent = layer_metrics({}, 1, sources={"criteria.ic"})
    assert "criteria.ic.calls" in values
    assert "criteria.cv.calls" in absent and "criteria.cv.calls" not in values


def test_changed_fingerprint_is_detected():
    picks = ["linear_wiener", "homog_gamma", "nonhomog_gamma"]
    recorded = {"long_select": run.fingerprint(picks)}
    assert run.compare_fingerprint(recorded, "long_select", run.fingerprint(list(picks))) == "match"
    changed = ["linear_wiener", "homog_gamma", "homog_gamma"]
    assert run.compare_fingerprint(recorded, "long_select", run.fingerprint(changed)) == "mismatch"
    assert run.compare_fingerprint(recorded, "case1_robustness", run.fingerprint(picks)) == "unrecorded"
    # Key order of a confusion matrix does not change the fingerprint.
    assert run.fingerprint({"a": 1, "b": 2}) == run.fingerprint({"b": 2, "a": 1})


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.MIN_REPS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    values, absent = layer_metrics({}, 1, sources=set())
    assert set(per_layer) == set(absent) | {"bench.trace_overhead_s"}
    assert all(per_layer[name] == run.layer_unit(name) for name in per_layer)
    recorded = json.loads((HERE / "fingerprints.json").read_text())
    assert set(recorded) == set(run.MIN_REPS)


def test_worker_workloads_match_run(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    import workloads

    assert set(workloads.WORKLOADS) == set(run.MIN_REPS)
