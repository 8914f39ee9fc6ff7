"""The benchmark's workloads: inputs from a seed, a timed body, output checks.

Every workload is a fixed amount of work per repetition (one fresh
interpreter), so a repetition is a deterministic function of its seed.
Only public names of degselect are called.

Why these three:
- case2_experiment: the paper's headline protocol; fitting and 5-fold CV
  scoring dominate, and the fit cache is shared across methods.
- case1_robustness: the bypass workload; only the closed-form linear
  fitters and the family hierarchy run, so evidence, the family decision,
  perturbation and the discarded baselines dominate.
- long_select: one closed-loop caller, as `degselect select`, on long
  paths, where the trend decision's fits dominate and the fitters are bound
  by arithmetic on 2k- and 10k-element arrays rather than by call overhead;
  no baselines, no CV.

A fourth workload, the same loop on short 30/50/70% windows, was left out:
on a shared 2-core host its throughput spread between runs of one seed set
by more than 25%, and four workloads leave too little time per run to
average that out.  Its layers all run in the three kept here.

Selection latency.  In the stream it is the duration of each run_inference
call.  An experiment is a batch: all its selections are asked for when the
call starts, so a selection's latency is the time from the start of the
run_experiment / run_robustness call to the return of the call that made it
(run_inference for the proposed method, select_argmin for a baseline).

Stream mix.  A Wiener-favoured call costs about a fifth of a gamma-favoured
one (the trend decision fits the non-homogeneous gamma model), so latency is
bimodal by family.  With the four kinds in equal numbers the median would
fall in the gap between the two modes and jump from seed to seed; the
stream therefore draws two Wiener units per gamma unit, which puts p50
inside the Wiener mode and p95 inside the gamma mode.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import degselect
from degselect import bench, pipeline
from degselect.bench import ExperimentConfig
from degselect.fitting import FitError
from degselect.pipeline import Case
from degselect.simulate import SimKind

DEFAULT_SEED = 2024
CASE2_IDS = tuple(degselect.default_case_sets()[1].ids())

# One block of stream units: two Wiener units per gamma unit (see above).
STREAM_MIX = (
    SimKind.LINEAR_WIENER,
    SimKind.NONLINEAR_WIENER,
    SimKind.LINEAR_WIENER,
    SimKind.NONLINEAR_WIENER,
    SimKind.HOMOG_GAMMA,
    SimKind.NONHOMOG_GAMMA,
)

# Sizes: a repetition takes a few seconds on one core of a 2-core machine.
CASE2_PER_CLASS = 20  # 16 test units: 288 selections per repetition
ROBUSTNESS_SEEDS = 3  # run_robustness(case1) calls per repetition
# Long paths: three 2k-step blocks, then one 10k-step block; 10k-step gamma
# paths are 1 call in 12, so p95 falls among them.
LONG_LENGTHS = (2000, 2000, 2000, 10000) * 3  # x 6 units = 72 calls

# Input sets of the default-seed selection fingerprint: small, so every run
# can afford to recompute it off the clock.
CHECK_CASE2_PER_CLASS = 5
CHECK_CASE1_PER_CLASS = 10
CHECK_LONG_LENGTHS = (2000, 10000)


@dataclass
class RepOutcome:
    """What one repetition delivered, judged off the clock."""

    attempted: int = 0
    failed: int = 0
    selections: int = 0
    correct_picks: int = 0
    scored_picks: int = 0  # denominator of accuracy
    problems: list[str] = field(default_factory=list)
    picks: object = None  # selection record the fingerprint is taken over


# --- experiments -----------------------------------------------------------


def _case2_configs(seed: int, per_class: int = CASE2_PER_CLASS):
    return [ExperimentConfig(case=Case.CASE2, seed=seed, per_class_count=per_class)]


def _case1_configs(seed: int):
    return [
        ExperimentConfig(case=Case.CASE1, seed=seed * ROBUSTNESS_SEEDS + i)
        for i in range(ROBUSTNESS_SEEDS)
    ]


@contextmanager
def _on_return(owner, names, callback):
    """Call ``callback()`` whenever a call through ``owner.<name>`` returns or raises."""
    originals = {name: getattr(owner, name) for name in names}

    def wrap(fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                callback()

        return wrapper

    for name, fn in originals.items():
        setattr(owner, name, wrap(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(owner, name, fn)


def _experiment_body(runner: str, selection_calls: tuple[str, ...]):
    """Run each config; ``selection_calls`` are the bench names whose calls
    produce the selections the report delivers."""

    def body(configs, bank, latencies):
        reports = []
        batch_start = 0.0

        def delivered():
            latencies.append((time.perf_counter() - batch_start) * 1000.0)

        with _on_return(bench, selection_calls, delivered):
            for cfg in configs:
                batch_start = time.perf_counter()
                try:
                    # Looked up per call, so a traced body sees the span wrapper.
                    reports.append(getattr(bench, runner)(cfg, bank))
                except Exception as exc:  # every selection of it failed
                    reports.append(exc)
        return reports

    return body


def _methods(cfg: ExperimentConfig, robustness: bool) -> list[str]:
    if robustness:
        return [m.value for m in bench.Perturbation]
    return ["proposed"] + [c.value for c in degselect.Criterion]


def _check_reports(configs, reports, robustness: bool) -> RepOutcome:
    """Report complete, confusion totals equal to the test size."""
    out = RepOutcome(picks={})
    accuracy_method = "none" if robustness else "proposed"
    case1, case2 = degselect.default_case_sets()
    for i, (cfg, report) in enumerate(zip(configs, reports)):
        classes = list((case1 if cfg.case is Case.CASE1 else case2).ids())
        per_class = cfg.per_class_count or bench.DEFAULT_PER_CLASS[cfg.case]
        test_size = len(bench.CASE_KINDS[cfg.case]) * (per_class // 5)
        expected = {(n, m) for n in cfg.n_values for m in _methods(cfg, robustness)}
        out.attempted += len(expected) * test_size
        if isinstance(report, Exception):
            out.problems.append(f"config {i}: raised {report!r}")
            out.picks[str(i)] = f"error:{type(report).__name__}"
            continue
        if set(report.entries) != expected:
            out.problems.append(
                f"config {i}: report entries {sorted(report.entries)} != {sorted(expected)}")
        for (n, method), metrics in sorted(report.entries.items()):
            confusion = metrics.confusion
            total = sum(sum(row.values()) for row in confusion.values())
            if sorted(confusion) != sorted(classes) or total != test_size:
                out.problems.append(
                    f"config {i} n={n} {method}: confusion total {total} != {test_size}")
            diag = sum(confusion[c][c] for c in classes if c in confusion)
            if not math.isclose(metrics.accuracy, diag / total if total else 0.0):
                out.problems.append(f"config {i} n={n} {method}: accuracy disagrees")
            out.selections += total
            if method == accuracy_method:
                out.correct_picks += diag
                out.scored_picks += total
            out.picks[f"{i}/{n}/{method}"] = confusion
    out.failed = max(0, out.attempted - out.selections)
    return out


# --- stream ----------------------------------------------------------------


def _long_inputs(seed: int, lengths=LONG_LENGTHS):
    """Paths of in-service units observed for 2k or 10k steps, no failure yet."""
    inputs = []
    for block, length in enumerate(lengths):
        for k, kind in enumerate(STREAM_MIX):
            params = degselect.default_params(
                kind, seed=seed * 100_003 + block * 101 + k,
                max_steps=length, failure_threshold=math.inf)
            traj = degselect.generate(params, unit_id=f"{kind.value}-{block}-{k}").trajectory
            inputs.append(degselect.InferenceInput.for_case(
                Case.CASE2, traj, bench.correct_context(traj)))
    return inputs


def _stream_body(inputs, bank, latencies):
    """Closed loop, one caller: the next call starts when the last returns."""
    results = []
    for inp in inputs:
        t0 = time.perf_counter()
        try:
            result = pipeline.run_inference(inp, bank)
        except Exception as exc:  # a failed operation, counted by the check
            results.append(exc)
            continue
        latencies.append((time.perf_counter() - t0) * 1000.0)
        results.append(result)
    return results


def _check_stream(inputs, results) -> RepOutcome:
    """A call fails if it raised or its pick cannot score its own data."""
    out = RepOutcome(picks=[], attempted=len(inputs))
    for i, (inp, result) in enumerate(zip(inputs, results)):
        if isinstance(result, Exception):
            out.failed += 1
            out.picks.append(f"error:{type(result).__name__}")
            continue
        chosen = result.chosen
        out.picks.append(chosen.id)
        if chosen.id not in CASE2_IDS or chosen not in result.retained:
            out.problems.append(f"call {i}: pick {chosen.id} outside the retained set")
        try:
            ll = degselect.fit_model(chosen, degselect.increments(inp.trajectory)).loglik
        except FitError:
            ll = math.nan
        if not math.isfinite(ll):
            out.failed += 1
            continue
        out.selections += 1
        out.scored_picks += 1
        out.correct_picks += chosen.id == inp.trajectory.true_model_id
    return out


# --- registry --------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable  # seed -> inputs
    body: Callable  # (inputs, bank, latencies) -> outputs; the timed part
    check: Callable  # (inputs, outputs) -> RepOutcome
    check_inputs: Callable  # () -> inputs of the default-seed fingerprint


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "case2_experiment",
            _case2_configs,
            _experiment_body("run_experiment", ("run_inference", "select_argmin")),
            lambda cfgs, reports: _check_reports(cfgs, reports, robustness=False),
            lambda: _case2_configs(DEFAULT_SEED, CHECK_CASE2_PER_CLASS),
        ),
        Workload(
            "case1_robustness",
            _case1_configs,
            _experiment_body("run_robustness", ("run_inference",)),
            lambda cfgs, reports: _check_reports(cfgs, reports, robustness=True),
            lambda: [ExperimentConfig(case=Case.CASE1, seed=DEFAULT_SEED,
                                      per_class_count=CHECK_CASE1_PER_CLASS)],
        ),
        Workload(
            "long_select",
            _long_inputs,
            _stream_body,
            _check_stream,
            lambda: _long_inputs(DEFAULT_SEED, CHECK_LONG_LENGTHS),
        ),
    )
}
