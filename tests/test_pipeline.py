import json
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degselect.bench import correct_context
from degselect.criteria import Criterion, NoApplicableModelError
from degselect.decisions import Answer, HeuristicProvider, ProviderPair, default_providers
from degselect.model_space import Family, Hierarchy, Trend, Uncertain
from degselect.pipeline import (
    Case,
    EmptyRetainedSetError,
    InferenceInput,
    LeakageError,
    PipelineConfig,
    run_inference,
    validate_input,
)
from degselect.simulate import SimKind, Trajectory

from conftest import make_path


class FixedProvider:
    """Returns a preset answer per hierarchy, ignoring the trajectory."""

    def __init__(self, answers):
        self.answers = answers

    def decide(self, hierarchy, obs, evidence=None):
        return self.answers[hierarchy]


def fixed_pair(family=None, trend=None, conf=0.9, conf2=None):
    answers = {}
    if family is not None:
        answers[Hierarchy.FAMILY] = Answer(family, conf)
    if trend is not None:
        answers[Hierarchy.TREND] = Answer(trend, conf)
    second = dict(answers)
    if conf2 is not None:
        second = {h: Answer(a.label, conf2) for h, a in answers.items()}
    return ProviderPair(internal=FixedProvider(answers), contextual=FixedProvider(second))


class ContraryProvider:
    """The heuristic answer with the other label at the same confidence, so
    arbitration is uncertain and scoring follows the heuristic's fits."""

    FLIP = {
        Family.WIENER: Family.GAMMA,
        Family.GAMMA: Family.WIENER,
        Trend.LINEAR: Trend.NONLINEAR,
        Trend.NONLINEAR: Trend.LINEAR,
    }

    def __init__(self):
        self.heuristic = HeuristicProvider()

    def decide(self, hierarchy, obs, evidence=None):
        answer = self.heuristic.decide(hierarchy, obs)
        return Answer(self.FLIP[answer.label], answer.confidence)


def opposing_pair(conf=0.7):
    flip = {Family.WIENER: Family.GAMMA, Trend.LINEAR: Trend.NONLINEAR}
    internal = {
        Hierarchy.FAMILY: Answer(Family.WIENER, conf),
        Hierarchy.TREND: Answer(Trend.LINEAR, conf),
    }
    contextual = {h: Answer(flip[a.label], conf) for h, a in internal.items()}
    return ProviderPair(internal=FixedProvider(internal), contextual=FixedProvider(contextual))


class TestInferenceInput:
    def test_case1_restricts_to_family(self):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11)
        inp = InferenceInput.for_case(Case.CASE1, traj)
        assert inp.hierarchies == (Hierarchy.FAMILY,)
        assert len(inp.candidates) == 2

    def test_case2_uses_both_hierarchies(self):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11)
        inp = InferenceInput.for_case(Case.CASE2, traj)
        assert inp.hierarchies == (Hierarchy.FAMILY, Hierarchy.TREND)
        assert len(inp.candidates) == 4


class TestValidateInput:
    def test_banned_token_warning(self):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11)
        inp = InferenceInput.for_case(Case.CASE2, traj, context="observed RUL was 40h")
        warnings = validate_input(inp)
        assert any("leak" in w for w in warnings)

    def test_short_trajectory_warning(self):
        traj = Trajectory("u", (0.0, 1.0, 2.0), (0.0, 0.4, 0.9))
        inp = InferenceInput.for_case(Case.CASE2, traj)
        assert any("points" in w for w in validate_input(inp))

    def test_clean_input_no_warnings(self):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11)
        inp = InferenceInput.for_case(Case.CASE2, traj, context="bearing wear")
        assert validate_input(inp) == []

    def test_strict_leakage_raises(self, bank):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11)
        inp = InferenceInput.for_case(Case.CASE2, traj, context="remaining life 12h")
        with pytest.raises(LeakageError):
            run_inference(inp, bank, cfg=PipelineConfig(strict_leakage=True))


class TestRunInference:
    def test_confident_decisions_pin_single_model(self, bank):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11, n_percent=70)
        inp = InferenceInput.for_case(Case.CASE2, traj)
        pair = fixed_pair(family=Family.GAMMA, trend=Trend.LINEAR)
        out = run_inference(inp, bank, providers=pair)
        assert out.chosen.id == "homog_gamma"
        assert out.retained.ids() == ("homog_gamma",)
        # Singleton shortcut: the statistical criterion is never consulted.
        assert out.scores is None

    def test_uncertain_decisions_fall_back_to_criterion(self, bank):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11, n_percent=70)
        inp = InferenceInput.for_case(Case.CASE2, traj)
        out = run_inference(inp, bank, providers=opposing_pair())
        assert len(out.retained) == 4
        assert out.scores is not None
        assert set(out.scores.entries) == set(inp.candidates.ids())
        assert out.chosen.family is Family.GAMMA

    def test_partial_conditioning(self, bank):
        traj = make_path(SimKind.LINEAR_WIENER, seed=11, n_percent=70)
        inp = InferenceInput.for_case(Case.CASE2, traj)
        answers = {
            Hierarchy.FAMILY: Answer(Family.WIENER, 0.9),
            Hierarchy.TREND: Answer(Trend.LINEAR, 0.6),
        }
        contextual = {
            Hierarchy.FAMILY: Answer(Family.WIENER, 0.9),
            Hierarchy.TREND: Answer(Trend.NONLINEAR, 0.6),
        }
        pair = ProviderPair(FixedProvider(answers), FixedProvider(contextual))
        out = run_inference(inp, bank, providers=pair)
        assert out.decisions[Hierarchy.TREND].final == Uncertain(Hierarchy.TREND)
        assert out.retained.ids() == ("linear_wiener", "nonlinear_wiener")
        assert out.chosen.family is Family.WIENER

    def test_case1_decides_family_only(self, bank):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11, n_percent=70)
        inp = InferenceInput.for_case(Case.CASE1, traj)
        out = run_inference(inp, bank)
        assert set(out.decisions) == {Hierarchy.FAMILY}
        assert out.chosen.id in ("wiener_family", "gamma_family")

    def test_evidence_trail_per_hierarchy(self, bank):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11, n_percent=70)
        inp = InferenceInput.for_case(Case.CASE2, traj, context="pump impeller erosion")
        out = run_inference(inp, bank)
        assert set(out.decisions) == {Hierarchy.FAMILY, Hierarchy.TREND}
        assert all(len(rec.evidence) > 0 for rec in out.decisions.values())

    def test_end_to_end_defaults_recover_each_kind(self, bank):
        for kind, expected in [
            (SimKind.LINEAR_WIENER, "linear_wiener"),
            (SimKind.NONLINEAR_WIENER, "nonlinear_wiener"),
            (SimKind.HOMOG_GAMMA, "homog_gamma"),
            (SimKind.NONHOMOG_GAMMA, "nonhomog_gamma"),
        ]:
            traj = make_path(kind, seed=29, n_percent=70)
            inp = InferenceInput.for_case(Case.CASE2, traj)
            out = run_inference(inp, bank)
            assert out.chosen.id == expected, kind

    def test_criterion_override(self, bank):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11, n_percent=70)
        inp = InferenceInput.for_case(Case.CASE2, traj)
        out = run_inference(
            inp, bank, providers=opposing_pair(), cfg=PipelineConfig(criterion=Criterion.BIC)
        )
        assert out.scores.criterion is Criterion.BIC

    def test_empty_retained_set_raises(self, bank):
        from degselect.model_space import CandidateModel, CandidateSet

        wieners_only = CandidateSet.of(
            [CandidateModel("linear_wiener", Family.WIENER, Trend.LINEAR, 2)]
        )
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11, n_percent=70)
        inp = InferenceInput(traj, "", wieners_only, (Hierarchy.FAMILY,))
        pair = fixed_pair(family=Family.GAMMA)
        with pytest.raises(EmptyRetainedSetError):
            run_inference(inp, bank, providers=pair)

    def test_diagnostics_carry_fit_failures(self, bank):
        traj = make_path(SimKind.LINEAR_WIENER, seed=11, n_percent=70)
        inp = InferenceInput.for_case(Case.CASE2, traj)
        out = run_inference(inp, bank, providers=opposing_pair())
        # Wiener path has negative steps, so the gamma fits fail and get noted.
        assert any("gamma" in d for d in out.diagnostics)


@contextmanager
def counting_fits():
    """Count fits per (family, trend): requests through ``criteria.fit_model``
    and calls of any fitter ``decisions`` binds, so that a trend decision
    bypassing the fit table is counted too."""
    import degselect.criteria as crit
    import degselect.decisions as dec
    from degselect.fitting import _FITTERS

    counts = Counter()
    fit_model = crit.fit_model

    def counted_fit_model(model, inc):
        counts[(model.family, model.trend)] += 1
        return fit_model(model, inc)

    def counted_fitter(fitter, key):
        return lambda inc: counts.update([key]) or fitter(inc)

    with ExitStack() as stack:
        stack.enter_context(patch.object(crit, "fit_model", counted_fit_model))
        for key, fitter in _FITTERS.items():
            if getattr(dec, fitter.__name__, None) is fitter:
                stack.enter_context(
                    patch.object(dec, fitter.__name__, counted_fitter(fitter, key))
                )
        yield counts


@contextmanager
def counting_feature_passes():
    """Count ``feature_summary`` calls through ``evidence`` and, if bound
    there, ``decisions``."""
    import degselect.decisions as dec
    import degselect.evidence as ev

    calls = []
    with ExitStack() as stack:
        for module in (ev, dec):
            summary = getattr(module, "feature_summary", None)
            if summary is not None:
                stack.enter_context(patch.object(
                    module, "feature_summary",
                    lambda traj, summary=summary: calls.append(traj) or summary(traj),
                ))
        yield calls


@st.composite
def integer_time_paths(draw):
    """4-200 points at times 0, 1, 2, ...: mixed-sign or positive steps
    interleaved with flat runs."""
    n = draw(st.integers(3, 199))
    low = draw(st.sampled_from([-1.0, 1e-3]))
    deltas: list[float] = []
    while len(deltas) < n:
        if draw(st.booleans()):
            deltas += [0.0] * draw(st.integers(1, 10))
        else:
            deltas += draw(st.lists(st.floats(low, 2.0), min_size=1, max_size=30))
    values = np.concatenate([[1.0], 1.0 + np.cumsum(deltas[:n])])
    return Trajectory("u", tuple(float(t) for t in range(n + 1)), tuple(map(float, values)))


class TestSinglePass:
    def test_one_nonhomog_gamma_fit_per_inference(self, bank):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11, n_percent=70)
        with counting_fits() as counts:
            out = run_inference(InferenceInput.for_case(Case.CASE2, traj), bank)
        assert out.decisions[Hierarchy.FAMILY].final is Family.GAMMA
        assert counts[(Family.GAMMA, Trend.NONLINEAR)] == 1

    @pytest.mark.parametrize("case", [Case.CASE1, Case.CASE2])
    def test_one_feature_pass_per_inference(self, bank, case):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11, n_percent=70)
        with counting_feature_passes() as calls:
            run_inference(InferenceInput.for_case(case, traj), bank)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", [SimKind.HOMOG_GAMMA, SimKind.LINEAR_WIENER])
    def test_trend_decision_and_scoring_share_fits(self, bank, kind):
        # Seed 8 at 50% leaves the trend uncertain, so the family's two
        # models are scored after the trend decision fitted them.
        traj = make_path(kind, seed=8, n_percent=50)
        with counting_fits() as counts:
            out = run_inference(InferenceInput.for_case(Case.CASE2, traj), bank)
        assert out.scores is not None and len(out.retained) == 2
        assert set(counts.values()) == {1}
        assert {(m.family, m.trend) for m in out.retained} == set(counts)

    @settings(max_examples=40, deadline=None)
    @given(traj=integer_time_paths(), contrary=st.booleans())
    def test_each_fit_at_most_once_per_inference(self, bank, traj, contrary):
        pair = default_providers()
        if contrary:
            pair = ProviderPair(internal=HeuristicProvider(), contextual=ContraryProvider())
        with counting_fits() as counts:
            try:
                run_inference(InferenceInput.for_case(Case.CASE2, traj), bank, pair)
            except NoApplicableModelError:
                pass  # every retained model inapplicable: a typed error
        assert all(c == 1 for c in counts.values()), counts


class TestNonWholeStepTimes:
    # Picks at half-step spacing: the trend decision cannot form increments
    # and falls back to linear, and every pick is a singleton.
    EXPECTED = {
        (SimKind.LINEAR_WIENER, 11): "linear_wiener",
        (SimKind.LINEAR_WIENER, 29): "linear_wiener",
        (SimKind.NONLINEAR_WIENER, 11): "linear_wiener",
        (SimKind.NONLINEAR_WIENER, 29): "nonlinear_wiener",
        (SimKind.HOMOG_GAMMA, 11): "homog_gamma",
        (SimKind.HOMOG_GAMMA, 29): "homog_gamma",
        (SimKind.NONHOMOG_GAMMA, 11): "nonhomog_gamma",
        (SimKind.NONHOMOG_GAMMA, 29): "nonhomog_gamma",
    }

    @pytest.mark.parametrize("kind, seed", list(EXPECTED))
    def test_half_step_picks(self, bank, kind, seed):
        traj = make_path(kind, seed=seed, n_percent=70)
        half = replace(traj, times=tuple(0.5 * t for t in traj.times))
        case1 = run_inference(InferenceInput.for_case(Case.CASE1, half), bank)
        case2 = run_inference(InferenceInput.for_case(Case.CASE2, half), bank)
        expected = self.EXPECTED[(kind, seed)]
        family = "gamma_family" if "gamma" in expected else "wiener_family"
        assert (case1.chosen.id, case2.chosen.id) == (family, expected)
        assert case1.scores is None and case2.scores is None
        assert case2.decisions[Hierarchy.TREND].internal == Answer(Trend.LINEAR, 0.5)


def answer_pin_inputs():
    """The inferences whose answers are pinned in answer_pins.json.

    Windows of 30/50/70% of default paths for every kind and seeds 1-5, each
    as case 1 and case 2, with the correct context and with none.
    """
    out = {}
    for kind in SimKind:
        for seed in range(1, 6):
            for pct in (30, 50, 70):
                traj = make_path(kind, seed=seed, n_percent=pct)
                for case in Case:
                    for name, context in (("correct", correct_context(traj)), ("none", "")):
                        key = f"{kind.value}-{seed}-{pct}-{case.value}-{name}"
                        out[key] = InferenceInput.for_case(case, traj, context)
    return out


def answer_record(result):
    """Each hierarchy's two answers and final decision, the retained ids and the pick."""

    def answer(a):
        return [a.label.value, a.confidence]

    return {
        "decisions": {
            h.value: {
                "internal": answer(rec.internal),
                "contextual": answer(rec.contextual),
                "final": "uncertain" if isinstance(rec.final, Uncertain) else rec.final.value,
            }
            for h, rec in result.decisions.items()
        },
        "retained": list(result.retained.ids()),
        "chosen": result.chosen.id,
    }


ANSWER_PINS = json.loads((Path(__file__).parent / "data" / "answer_pins.json").read_text())


class TestPinnedAnswers:
    """The default providers' answers agree exactly with outcomes recorded at
    commit 256c22e, when the heuristic's constants were fields of a config
    object; ``answer_pins.json`` holds ``answer_record`` of ``run_inference``
    on ``answer_pin_inputs()``."""

    def test_matches_recorded_answers(self, bank):
        inputs = answer_pin_inputs()
        assert inputs.keys() == ANSWER_PINS.keys()
        for name, inp in inputs.items():
            assert answer_record(run_inference(inp, bank)) == ANSWER_PINS[name], name
