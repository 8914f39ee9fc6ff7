"""Benchmark harness: dataset protocol, baselines, metrics, perturbations."""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .criteria import Criterion, FitTable, NoApplicableModelError, select_argmin
from .decisions import ProviderPair, RemoteTextGenProvider, default_providers
from .evidence import EvidenceBank, default_bank
from .model_space import Case, Family, Hierarchy, condition, default_case_sets
from .pipeline import InferenceInput, PipelineConfig, run_inference
from .simulate import (
    SimKind,
    Trajectory,
    default_params,
    generate,
    split_positions,
    truncate_at_progress,
)

REMOTE_URL_ENV = "DEGSELECT_REMOTE_URL"

# Domain context text per generating family, used as the "correct" context.
CONTEXT_BY_FAMILY = {
    Family.GAMMA: (
        "pipeline wall thickness loss from corrosion and cumulative wear; "
        "irreversible damage accumulation with monotonic material loss"
    ),
    Family.WIENER: (
        "vibration-based health indicator of rotating machinery; load "
        "fluctuations and operating condition changes cause local increases "
        "and decreases with measurement noise"
    ),
}

# Generating family of a labelled unit, by its label: a model id of either
# case.  A SimKind's value is its case-2 model id.
_FAMILY_BY_ID = {m.id: m.family for cset in default_case_sets() for m in cset}

CASE_KINDS = {
    Case.CASE1: (SimKind.LINEAR_WIENER, SimKind.HOMOG_GAMMA),
    Case.CASE2: (
        SimKind.LINEAR_WIENER,
        SimKind.NONLINEAR_WIENER,
        SimKind.HOMOG_GAMMA,
        SimKind.NONHOMOG_GAMMA,
    ),
}

DEFAULT_PER_CLASS = {Case.CASE1: 60, Case.CASE2: 120}

CENSOR_RETRIES = 10


class Perturbation(Enum):
    NONE = "none"
    WRONG_HI = "wrong_hi"
    WRONG_CONTEXT = "wrong_context"
    WRONG_BOTH = "wrong_both"


class ProviderMode(Enum):
    HEURISTIC = "heuristic"
    REMOTE = "remote"


@dataclass(frozen=True)
class ExperimentConfig:
    case: Case = Case.CASE1
    n_values: tuple[int, ...] = (30, 50, 70)
    per_class_count: Optional[int] = None
    seed: int = 2024
    criterion: Criterion = Criterion.EAL
    provider_mode: ProviderMode = ProviderMode.HEURISTIC
    perturbation: Perturbation = Perturbation.NONE

    def __post_init__(self) -> None:
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        if self.per_class_count is not None and self.per_class_count < 5:
            raise ValueError("per_class_count must be >= 5")


@dataclass
class MethodMetrics:
    """Label metrics of one method on one window's test units.

    ``runtime_seconds`` is the method's wall time over those units.  Each
    unit's fits are made once and shared, so the proposed method pays for
    its trend decision's and its scoring's fits, the first baseline
    criterion (AIC) for the other fits the baselines need, and CV for its
    own fold fits.  CV's non-homogeneous gamma folds start from that
    model's whole-series fit, which AIC or the proposed method has made.
    In a robustness sweep ``WRONG_BOTH`` takes each unit's ``WRONG_HI``
    input and swaps only its context, so it does not pay for building the
    substitute trajectory.
    """

    accuracy: float
    macro_precision: float
    macro_recall: float
    f1: float
    confusion: dict[str, dict[str, int]]
    runtime_seconds: float = 0.0


@dataclass
class MetricsReport:
    case: Case
    entries: dict[tuple[int, str], MethodMetrics] = field(default_factory=dict)


def compute_metrics(
    true_labels: Sequence[str], predicted_labels: Sequence[str], classes: Sequence[str]
) -> MethodMetrics:
    """Accuracy, macro precision/recall, and their harmonic-mean F1."""
    if len(true_labels) != len(predicted_labels):
        raise ValueError("label lists must have equal length")
    classes = list(classes)
    confusion = {t: {p: 0 for p in classes} for t in classes}
    for t, p in zip(true_labels, predicted_labels):
        if t not in confusion or p not in confusion:
            raise ValueError(f"label outside class list: {t!r} / {p!r}")
        confusion[t][p] += 1
    correct = sum(confusion[c][c] for c in classes)
    total = len(true_labels)
    accuracy = correct / total if total else 0.0
    precisions, recalls = [], []
    for c in classes:
        tp = confusion[c][c]
        pred_c = sum(confusion[t][c] for t in classes)
        true_c = sum(confusion[c].values())
        precisions.append(tp / pred_c if pred_c else 0.0)
        recalls.append(tp / true_c if true_c else 0.0)
    macro_p = float(np.mean(precisions))
    macro_r = float(np.mean(recalls))
    f1 = 2.0 * macro_p * macro_r / (macro_p + macro_r) if macro_p + macro_r else 0.0
    return MethodMetrics(
        accuracy=accuracy,
        macro_precision=macro_p,
        macro_recall=macro_r,
        f1=f1,
        confusion=confusion,
    )


class _Unit(NamedTuple):
    """One unit of a dataset: its kind's position in ``CASE_KINDS``, its
    index within the kind, and its label."""

    kind_idx: int
    index: int
    label: str


def _dataset_units(case: Case, per_class_count: int) -> list[_Unit]:
    """The units of a dataset, in dataset order: each kind's units in turn,
    labelled as ``generate_dataset`` describes."""
    units = []
    for kind_idx, kind in enumerate(CASE_KINDS[case]):
        label = kind.value
        if case is Case.CASE1:
            (label,) = condition(case.candidates, {Hierarchy.FAMILY: _FAMILY_BY_ID[label]}).ids()
        units.extend(_Unit(kind_idx, index, label) for index in range(per_class_count))
    return units


def _simulate_unit(case: Case, unit: _Unit, seed: int) -> Trajectory:
    """The unit's run-to-failure trajectory, from its own seed stream; a
    censored path is drawn again from the next stream, up to
    ``CENSOR_RETRIES`` times."""
    kind = CASE_KINDS[case][unit.kind_idx]
    base = seed + 1_000_003 * unit.kind_idx + 97 * unit.index
    for retry in range(CENSOR_RETRIES + 1):
        result = generate(
            default_params(kind, seed=base + 10_000_019 * retry),
            unit_id=f"{kind.value}-{unit.index:04d}",
        )
        if not result.censored:
            break
    else:
        raise RuntimeError(
            f"unit {kind.value}-{unit.index} censored after {CENSOR_RETRIES} retries"
        )
    traj = result.trajectory
    return traj if traj.true_model_id == unit.label else replace(traj, true_model_id=unit.label)


def generate_dataset(case: Case, per_class_count: int, seed: int) -> list[Trajectory]:
    """Labeled run-to-failure trajectories, one independent stream per unit,
    ``per_class_count`` of each of the case's kinds in turn.

    A case-2 unit is labelled with its kind's model, a case-1 unit with the
    case-1 model of that model's family.  An experiment reads only this
    dataset's test split, and simulates only those units (``_test_units``):
    the same trajectories, since a unit's seed stream depends on its place in
    the dataset, not on the other units.
    """
    return [_simulate_unit(case, unit, seed) for unit in _dataset_units(case, per_class_count)]


def _test_units(case: Case, per_class_count: int, seed: int) -> list[Trajectory]:
    """``split_dataset(generate_dataset(case, per_class_count, seed), seed).test``,
    simulating only the test units: the split reads labels, not paths."""
    units = _dataset_units(case, per_class_count)
    _, _, test = split_positions([unit.label for unit in units], seed)
    return [_simulate_unit(case, units[i], seed) for i in test]


def correct_context(traj: Trajectory) -> str:
    return CONTEXT_BY_FAMILY[_family_of(traj)]


def wrong_context(traj: Trajectory) -> str:
    family = _family_of(traj)
    return next(text for fam, text in CONTEXT_BY_FAMILY.items() if fam is not family)


def _family_of(traj: Trajectory) -> Family:
    return _FAMILY_BY_ID[traj.true_model_id]


def perturb_input(
    input: InferenceInput,
    mode: Perturbation,
    pool: Sequence[Trajectory] = (),
    rng_seed: int = 0,
) -> InferenceInput:
    """Substitute the trajectory and/or context with opposite-family versions.

    The substitute is a unit of ``pool`` picked by ``rng_seed``, cut to the
    input's length and carrying its label.  ``WRONG_BOTH`` is ``WRONG_HI``
    followed by ``WRONG_CONTEXT``, so a caller holding the ``WRONG_HI`` input
    gets the same result from ``perturb_input(that, WRONG_CONTEXT)``, as the
    robustness sweep does, without building the substitute again.
    """
    if mode is Perturbation.NONE:
        return input
    out = input
    if mode in (Perturbation.WRONG_HI, Perturbation.WRONG_BOTH):
        if not pool:
            raise ValueError("wrong_hi perturbation needs an opposite-family pool")
        rng = np.random.default_rng(rng_seed)
        substitute = pool[int(rng.integers(len(pool)))]
        npts = min(len(substitute), len(input.trajectory))
        substitute = replace(
            substitute,
            times=substitute.times[:npts],
            values=substitute.values[:npts],
            true_model_id=input.trajectory.true_model_id,  # label kept
        )
        out = replace(out, trajectory=substitute)
    if mode in (Perturbation.WRONG_CONTEXT, Perturbation.WRONG_BOTH):
        out = replace(out, context=wrong_context(input.trajectory))
    return out


def _make_providers(cfg: ExperimentConfig) -> ProviderPair:
    if cfg.provider_mode is ProviderMode.REMOTE:
        endpoint = os.environ.get(REMOTE_URL_ENV)
        if not endpoint:
            raise ValueError(f"remote provider mode needs {REMOTE_URL_ENV} set")
        remote = RemoteTextGenProvider(endpoint)
        return ProviderPair(internal=remote, contextual=remote)
    return default_providers()


def _proposed_by_window(
    cfg: ExperimentConfig, bank: Optional[EvidenceBank], modes: Sequence[Perturbation]
):
    """Simulate the test units once; for each window n, yield the truncated
    test units and, under each perturbation mode, the proposed pipeline's
    metrics and each unit's fit table."""
    bank = bank or default_bank()
    providers = _make_providers(cfg)
    pipe_cfg = PipelineConfig(criterion=cfg.criterion)
    classes = cfg.case.candidates.ids()
    per_class = cfg.per_class_count or DEFAULT_PER_CLASS[cfg.case]
    units = _test_units(cfg.case, per_class, cfg.seed)
    for n in cfg.n_values:
        test = [truncate_at_progress(t, n) for t in units]
        true_labels = [t.true_model_id for t in test]
        # Substitute pools: the units of the other family, in test order.
        opposite = {fam: [t for t in test if _family_of(t) is not fam] for fam in Family}
        by_mode, fits = {}, {}
        wrong_hi = []  # each unit's WRONG_HI input, once that mode has run
        for mode in modes:
            start = time.perf_counter()
            predictions, fits[mode] = [], []
            for idx, traj in enumerate(test):
                if mode is Perturbation.WRONG_BOTH and wrong_hi:
                    # The same substitute as WRONG_HI; only the context changes.
                    inp = perturb_input(wrong_hi[idx], Perturbation.WRONG_CONTEXT)
                else:
                    inp = InferenceInput.for_case(cfg.case, traj, correct_context(traj))
                    if mode is not Perturbation.NONE:
                        pool = opposite[_family_of(traj)]
                        inp = perturb_input(inp, mode, pool, rng_seed=cfg.seed + idx)
                if mode is Perturbation.WRONG_HI:
                    wrong_hi.append(inp)
                result = run_inference(inp, bank, providers, pipe_cfg)
                predictions.append(result.chosen.id)
                fits[mode].append(result.fits)
            by_mode[mode] = compute_metrics(true_labels, predictions, classes)
            by_mode[mode].runtime_seconds = time.perf_counter() - start
        yield n, test, by_mode, fits


def run_experiment(
    cfg: ExperimentConfig, bank: Optional[EvidenceBank] = None
) -> MetricsReport:
    """Full protocol: generate, split, truncate, run all methods, score."""
    cset = cfg.case.candidates
    candidates = cset.ids()
    report = MetricsReport(case=cfg.case)
    for n, test, proposed, fits in _proposed_by_window(cfg, bank, (cfg.perturbation,)):
        report.entries[(n, "proposed")] = proposed[cfg.perturbation]

        # Statistical baselines over the full candidate set, no conditioning;
        # the five criteria share one fit table per test unit: the proposed
        # method's, unless a perturbation gave it another trajectory.
        true_labels = [t.true_model_id for t in test]
        tables = [
            table if table.traj is traj else FitTable(traj)
            for traj, table in zip(test, fits[cfg.perturbation])
        ]
        for crit in Criterion:
            start = time.perf_counter()
            predictions = []
            for table in tables:
                try:
                    chosen, _ = select_argmin(cset, table, crit)
                    predictions.append(chosen.id)
                except NoApplicableModelError:
                    predictions.append(candidates[0])
            metrics = compute_metrics(true_labels, predictions, candidates)
            metrics.runtime_seconds = time.perf_counter() - start
            report.entries[(n, crit.value)] = metrics
    return report


def run_robustness(
    cfg: ExperimentConfig, bank: Optional[EvidenceBank] = None
) -> MetricsReport:
    """Perturbation sweep: proposed pipeline under all four input modes; a
    config that names one mode is refused."""
    if cfg.perturbation is not Perturbation.NONE:
        raise ValueError(f"run_robustness sweeps every mode; got {cfg.perturbation.value!r}")
    report = MetricsReport(case=cfg.case)
    for n, _, proposed, _ in _proposed_by_window(cfg, bank, tuple(Perturbation)):
        for mode, metrics in proposed.items():
            report.entries[(n, mode.value)] = metrics
    return report


METRIC_FIELDS = ("accuracy", "macro_precision", "macro_recall", "f1", "runtime_seconds")


def emit_report(report: MetricsReport, path, format: str = "csv") -> None:
    """Write the report as CSV (one row per n/method/metric) or markdown."""
    if format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "method", "metric", "value"])
            for (n, method), metrics in sorted(report.entries.items()):
                for fieldname in METRIC_FIELDS:
                    writer.writerow([n, method, fieldname, repr(getattr(metrics, fieldname))])
    elif format == "markdown":
        lines = [f"# Benchmark report ({report.case.value})", ""]
        n_values = sorted({n for n, _ in report.entries})
        for n in n_values:
            lines.append(f"## Observation window n = {n}%")
            lines.append("")
            lines.append("| method | accuracy | precision | recall | F1 | runtime (s) |")
            lines.append("|---|---|---|---|---|---|")
            for (n2, method), m in sorted(report.entries.items()):
                if n2 != n:
                    continue
                lines.append(
                    f"| {method} | {m.accuracy:.3f} | {m.macro_precision:.3f} "
                    f"| {m.macro_recall:.3f} | {m.f1:.3f} | {m.runtime_seconds:.2f} |"
                )
            lines.append("")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
    else:
        raise ValueError(f"unknown report format: {format!r}")
