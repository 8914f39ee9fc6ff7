"""Acceptance gate: one test per release criterion.

Every test prints a single PASS/FAIL line so the suite output doubles as the
acceptance report.  Thresholds are pinned here and must not be loosened to
make a failing criterion pass.
"""

import itertools
import math
import time

import numpy as np
import pytest

from degselect.bench import (
    ExperimentConfig,
    Perturbation,
    compute_metrics,
    generate_dataset,
    run_experiment,
    run_robustness,
)
from degselect.criteria import Criterion, FitTable, select_argmin
from degselect.decisions import Answer, ArbitrationConfig, ProviderPair, arbitrate
from degselect.evidence import (
    EvidenceBank,
    EvidenceCategory,
    EvidenceRecord,
    Query,
    retrieve_top_k,
    tokenize,
)
from degselect.fitting import fit_model, increments, loglik
from degselect.model_space import (
    Family,
    Hierarchy,
    Trend,
    Uncertain,
    condition,
    default_case_sets,
)
from degselect.pipeline import Case, InferenceInput, PipelineConfig, run_inference
from degselect.simulate import (
    SimKind,
    SimParams,
    default_params,
    generate,
    split_dataset,
    truncate_at_progress,
)

CASE1, CASE2 = default_case_sets()


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# --- 1. Arbitration rule fidelity ------------------------------------------


def _reference_arbitrate(li, ci, lc, cc, delta):
    if li == lc:
        return lc
    if ci - cc > delta:
        return li
    if cc - ci > delta:
        return lc
    return Uncertain(Hierarchy.FAMILY)


def test_criterion_1_arbitration_rule_fidelity():
    rng = np.random.default_rng(101)
    labels = (Family.WIENER, Family.GAMMA)
    cases = []
    for _ in range(9_800):
        li, lc = labels[rng.integers(2)], labels[rng.integers(2)]
        ci, cc = rng.uniform(0, 1), rng.uniform(0, 1)
        cases.append((li, ci, lc, cc, float(rng.uniform(0, 0.5))))
    # Force boundary tuples where the confidence gap equals delta exactly.
    for _ in range(200):
        ci = float(rng.uniform(0.2, 0.8))
        delta = float(rng.uniform(0, 0.15))
        cases.append((Family.WIENER, ci + delta, Family.GAMMA, ci, delta))

    start = time.perf_counter()
    outputs = [
        arbitrate(Answer(li, ci), Answer(lc, cc), ArbitrationConfig(delta))
        for li, ci, lc, cc, delta in cases
    ]
    elapsed = time.perf_counter() - start
    matches = sum(
        out == _reference_arbitrate(*case) for out, case in zip(outputs, cases)
    )
    ok = matches == len(cases) and elapsed < 1.0
    report(
        1,
        ok,
        f"{matches}/{len(cases)} tuples match the reference rule in {elapsed:.3f}s",
    )


# --- 2. Conditioning algebra -------------------------------------------------


def test_criterion_2_conditioning_algebra():
    family_choices = [Family.WIENER, Family.GAMMA, Uncertain(Hierarchy.FAMILY)]
    trend_choices = [Trend.LINEAR, Trend.NONLINEAR, Uncertain(Hierarchy.TREND)]
    mismatches = 0
    for fd, td in itertools.product(family_choices, trend_choices):
        out = condition(CASE2, {Hierarchy.FAMILY: fd, Hierarchy.TREND: td})
        brute = [
            m
            for m in CASE2
            if (isinstance(fd, Uncertain) or m.family == fd)
            and (isinstance(td, Uncertain) or m.trend == td)
        ]
        if list(out) != brute:
            mismatches += 1
    all_uncertain = condition(
        CASE2,
        {
            Hierarchy.FAMILY: Uncertain(Hierarchy.FAMILY),
            Hierarchy.TREND: Uncertain(Hierarchy.TREND),
        },
    )
    full_set_ok = all_uncertain.ids() == CASE2.ids()
    ok = mismatches == 0 and full_set_ok
    report(
        2,
        ok,
        f"9/9 decision combinations match brute-force filtering; "
        f"all-uncertain returns the full set: {full_set_ok}",
    )


# --- 3. Simulator correctness ------------------------------------------------


def test_criterion_3_simulator_correctness():
    neg_steps = 0
    for i in range(500):
        for kind in (SimKind.HOMOG_GAMMA, SimKind.NONHOMOG_GAMMA):
            traj = generate(default_params(kind, seed=300 + i)).trajectory
            neg_steps += int(np.sum(np.diff(traj.values) < 0))
    part_a = neg_steps == 0

    part_b = True
    n = 10_000
    for beta in (0.5, 1.0, 1.5, 2.0):
        j = np.arange(1, n + 1, dtype=float)
        total = float(np.sum(j**beta - (j - 1.0) ** beta))
        if abs(total - n**beta) > 1e-9 * n**beta:
            part_b = False

    m, s = 0.5, 0.4
    within = 0
    for seed in range(100):
        params = SimParams(
            kind=SimKind.LINEAR_WIENER,
            m=m,
            s=s,
            failure_threshold=1e18,
            max_steps=n,
            seed=seed,
        )
        traj = generate(params).trajectory
        mean = float(np.mean(np.diff(traj.values)))
        if abs(mean - m) < 3.0 * s / math.sqrt(n):
            within += 1
    part_c = within >= 99

    ok = part_a and part_b and part_c
    report(
        3,
        ok,
        f"gamma negative increments: {neg_steps}; time-transform sums exact: "
        f"{part_b}; Wiener mean within 3 sigma in {within}/100 seeds",
    )


# --- 4. Fitter recovery -------------------------------------------------------

TRUE_PARAMS = {
    SimKind.LINEAR_WIENER: {"m": 0.5, "s": 0.4},
    SimKind.NONLINEAR_WIENER: {"m": 0.05, "s": 0.4, "beta": 1.5},
    SimKind.HOMOG_GAMMA: {"alpha": 6.0, "theta": 1.0 / 12.0},
    SimKind.NONHOMOG_GAMMA: {"alpha": 0.6, "theta": 1.0 / 12.0, "beta": 1.5},
}

MODEL_BY_KIND = {
    SimKind.LINEAR_WIENER: "linear_wiener",
    SimKind.NONLINEAR_WIENER: "nonlinear_wiener",
    SimKind.HOMOG_GAMMA: "homog_gamma",
    SimKind.NONHOMOG_GAMMA: "nonhomog_gamma",
}


def _scaled_gradient(model, params, inc):
    base = loglik(model, params, inc)
    worst = 0.0
    for key, value in params.items():
        h = 1e-5 * max(1.0, abs(value))
        hi = dict(params, **{key: value + h})
        lo = dict(params, **{key: value - h})
        grad = (loglik(model, hi, inc) - loglik(model, lo, inc)) / (2.0 * h)
        worst = max(worst, abs(grad) * max(1.0, abs(value)) / max(1.0, abs(base)))
    return worst


def test_criterion_4_fitter_recovery():
    start = time.perf_counter()
    n = 10_000
    summary = []
    ok = True
    for kind, true_params in TRUE_PARAMS.items():
        model = next(m for m in CASE2 if m.id == MODEL_BY_KIND[kind])
        recovered = 0
        worst_grad = 0.0
        for seed in range(100):
            params = default_params(
                kind, seed=40_000 + seed, failure_threshold=1e18, max_steps=n
            )
            inc = increments(generate(params).trajectory)
            fit = fit_model(model, inc)
            hit = all(
                abs(fit.params[k] - v) <= 0.05 * abs(v) for k, v in true_params.items()
            )
            recovered += int(hit)
            worst_grad = max(worst_grad, _scaled_gradient(model, fit.params, inc))
        summary.append(f"{model.id}: {recovered}/100, grad {worst_grad:.1e}")
        if recovered < 95 or worst_grad >= 1e-3:
            ok = False
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        ok = False
    report(4, ok, "; ".join(summary) + f"; runtime {elapsed:.1f}s")


# --- 5. Criterion sanity -------------------------------------------------------

# Pre-build Monte-Carlo oracle rates for the per-increment average
# log-likelihood score (no complexity penalty): the three-parameter superset
# model always matches or beats its nested two-parameter version, so the
# score recovers the truth only for the two nonlinear generating kinds.
# Measured oracle recovery is 0.50 at both window sizes; the assertions pin
# those measured rates within five points.
ORACLE_RATE_N70 = 0.50
ORACLE_RATE_LONG = 0.50
ORACLE_TOL = 0.05

KINDS = (
    SimKind.LINEAR_WIENER,
    SimKind.NONLINEAR_WIENER,
    SimKind.HOMOG_GAMMA,
    SimKind.NONHOMOG_GAMMA,
)


def test_criterion_5_criterion_sanity():
    correct70 = total70 = 0
    for i in range(200):
        kind = KINDS[i % 4]
        result = generate(default_params(kind, seed=777 + 13 * i))
        if result.censored:
            continue
        traj = truncate_at_progress(result.trajectory, 70)
        chosen, _ = select_argmin(CASE2, FitTable(traj), Criterion.EAL)
        correct70 += int(chosen.id == kind.value)
        total70 += 1
    rate70 = correct70 / total70

    correct_long = 0
    for i in range(200):
        kind = KINDS[i % 4]
        params = default_params(
            kind, seed=777 + 13 * i, failure_threshold=1e9, max_steps=500
        )
        traj = generate(params).trajectory
        chosen, _ = select_argmin(CASE2, FitTable(traj), Criterion.EAL)
        correct_long += int(chosen.id == kind.value)
    rate_long = correct_long / 200

    ok = (
        abs(rate70 - ORACLE_RATE_N70) <= ORACLE_TOL
        and abs(rate_long - ORACLE_RATE_LONG) <= ORACLE_TOL
    )
    report(
        5,
        ok,
        f"per-increment loglik recovery {rate70:.3f} at n=70 "
        f"(oracle {ORACLE_RATE_N70}) and {rate_long:.3f} on long runs "
        f"(oracle {ORACLE_RATE_LONG}), tolerance {ORACLE_TOL}",
    )


# --- 6. Metric computation -----------------------------------------------------


def test_criterion_6_metric_computation():
    p, r = 1.000, 0.968
    f1 = 2.0 * p * r / (p + r)
    formula_ok = abs(f1 - 0.983) <= 0.001

    # The report code must combine macro precision and recall the same way.
    m = compute_metrics(
        ["a"] * 10 + ["b"] * 10, ["a"] * 9 + ["b"] * 11, ["a", "b"]
    )
    expected = (
        2.0
        * m.macro_precision
        * m.macro_recall
        / (m.macro_precision + m.macro_recall)
    )
    code_ok = abs(m.f1 - expected) < 1e-12
    ok = formula_ok and code_ok
    report(
        6,
        ok,
        f"P=1.000, R=0.968 -> F1={f1:.4f} (target 0.983 +/- 0.001); "
        f"harness uses the same harmonic combination: {code_ok}",
    )


# --- 7 and 8. Benchmark patterns ------------------------------------------------

BASELINES = ("aic", "bic", "mdl", "cv", "eal")


@pytest.fixture(scope="module")
def case1_report(bank):
    return run_experiment(ExperimentConfig(case=Case.CASE1), bank=bank)


def test_criterion_7_benchmark_pattern(bank, case1_report):
    start = time.perf_counter()
    run_experiment(ExperimentConfig(case=Case.CASE2), bank=bank)
    case2_elapsed = time.perf_counter() - start
    case1_elapsed = sum(
        m.runtime_seconds for m in case1_report.entries.values()
    )
    total = case1_elapsed + case2_elapsed

    dominated = []
    for n in (30, 50, 70):
        prop = case1_report.entries[(n, "proposed")].f1
        worst_gap = min(
            prop - case1_report.entries[(n, b)].f1 for b in BASELINES
        )
        dominated.append(worst_gap > 0)
    f1_30 = case1_report.entries[(30, "proposed")].f1
    ok = all(dominated) and f1_30 >= 0.90 and total < 60.0
    report(
        7,
        ok,
        f"proposed beats every baseline at n=30/50/70: {dominated}; "
        f"F1(n=30)={f1_30:.3f} (>=0.90); benchmark runtime {total:.1f}s (<60s)",
    )


def test_criterion_8_robustness_pattern(bank):
    report_rob = run_robustness(ExperimentConfig(case=Case.CASE1), bank=bank)
    wrong_hi_acc = max(
        report_rob.entries[(n, "wrong_hi")].accuracy for n in (30, 50, 70)
    )
    wrong_both_acc = max(
        report_rob.entries[(n, "wrong_both")].accuracy for n in (30, 50, 70)
    )
    wrong_ctx_f1 = min(
        report_rob.entries[(n, "wrong_context")].f1 for n in (30, 50, 70)
    )
    ok = wrong_hi_acc < 0.25 and wrong_both_acc < 0.25 and wrong_ctx_f1 >= 0.75
    report(
        8,
        ok,
        f"wrong trajectory: accuracy <= {wrong_hi_acc:.3f} (with correct "
        f"context) and {wrong_both_acc:.3f} (with wrong context), both < "
        f"0.25; wrong context only: F1 >= {wrong_ctx_f1:.3f} (>= 0.75)",
    )


# --- 9. Retrieval determinism and oracle equivalence ----------------------------

VOCAB = (
    "corrosion wear fatigue crack vibration drift noise monotone gradual "
    "accelerating linear trend degradation indicator threshold bearing pump "
    "pipeline turbine erosion creep fracture load thermal cycle oxidation "
    "stochastic increment shock inspection maintenance"
).split()


def _synthetic_bank(n_records=50, seed=900):
    rng = np.random.default_rng(seed)
    records = []
    for rid in range(1, n_records + 1):
        words = rng.choice(VOCAB, size=int(rng.integers(5, 13)), replace=True)
        records.append(
            EvidenceRecord(
                id=rid,
                proposition=" ".join(words),
                doc_id=f"doc-{rid % 7}",
                category=EvidenceCategory.REVIEW,
                citation=f"doc-{rid % 7} s{rid}",
            )
        )
    return EvidenceBank(records)


def _brute_force_bm25(records, query_text, k):
    docs = {r.id: tokenize(r.proposition) for r in records}
    avg = sum(len(t) for t in docs.values()) / len(docs)
    scores = {}
    for term in tokenize(query_text):
        df = sum(term in toks for toks in docs.values())
        idf = math.log(1.0 + (len(docs) - df + 0.5) / (df + 0.5))
        for rid, toks in docs.items():
            tf = toks.count(term)
            if tf == 0:
                continue
            denom = tf + 1.2 * (1.0 - 0.75 + 0.75 * len(toks) / avg)
            scores[rid] = scores.get(rid, 0.0) + idf * tf * 2.2 / denom
    ranked = sorted(
        ((rid, s) for rid, s in scores.items() if s > 0.0),
        key=lambda item: (-item[1], item[0]),
    )
    return [rid for rid, _ in ranked[:k]]


def test_criterion_9_retrieval_oracle_equivalence():
    synth = _synthetic_bank()
    # A bank keeps the sets it retrieved, so a repeat run is made on a second
    # bank built from the same records.
    twin = EvidenceBank(synth.records)
    rng = np.random.default_rng(901)
    mismatches = 0
    deterministic = True
    for _ in range(20):
        words = rng.choice(VOCAB, size=int(rng.integers(3, 7)), replace=True)
        query = Query(" ".join(words), None)
        got = retrieve_top_k(synth, query, k=8)
        expected = _brute_force_bm25(synth.records, query.text, k=8)
        if [r.id for r in got.records()] != expected:
            mismatches += 1
        if retrieve_top_k(twin, query, k=8) != got:
            deterministic = False
    ok = mismatches == 0 and deterministic
    report(
        9,
        ok,
        f"20/20 query rankings on a 50-record bank match the brute-force "
        f"scorer ({mismatches} mismatches); repeat runs bit-identical: "
        f"{deterministic}",
    )


# --- 10. Baseline degeneration ---------------------------------------------------


class _FixedProvider:
    def __init__(self, answers):
        self.answers = answers

    def decide(self, hierarchy, obs, evidence=None):
        return self.answers[hierarchy]


def _always_uncertain_pair():
    # Equal-confidence disagreement on both hierarchies lands every
    # arbitration in the uncertain branch.
    internal = _FixedProvider(
        {
            Hierarchy.FAMILY: Answer(Family.WIENER, 0.7),
            Hierarchy.TREND: Answer(Trend.LINEAR, 0.7),
        }
    )
    contextual = _FixedProvider(
        {
            Hierarchy.FAMILY: Answer(Family.GAMMA, 0.7),
            Hierarchy.TREND: Answer(Trend.NONLINEAR, 0.7),
        }
    )
    return ProviderPair(internal=internal, contextual=contextual)


def test_criterion_10_baseline_degeneration(bank):
    trajs = generate_dataset(Case.CASE2, 20, seed=1234)
    split = split_dataset(trajs, seed=1234)
    pair = _always_uncertain_pair()
    cfg = PipelineConfig(criterion=Criterion.EAL)
    identical = 0
    test = [truncate_at_progress(t, 50) for t in split.test]
    for traj in test:
        inp = InferenceInput.for_case(Case.CASE2, traj)
        result = run_inference(inp, bank, providers=pair, cfg=cfg)
        assert all(
            isinstance(rec.final, Uncertain) for rec in result.decisions.values()
        )
        baseline, _ = select_argmin(CASE2, FitTable(traj), Criterion.EAL)
        identical += int(result.chosen.id == baseline.id)
    ok = identical == len(test)
    report(
        10,
        ok,
        f"forced-uncertain pipeline matches the standalone per-increment "
        f"loglik selector on {identical}/{len(test)} test trajectories",
    )
