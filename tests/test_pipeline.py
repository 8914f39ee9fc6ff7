import gc
import json
import math
import types
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
from degselect.criteria import Criterion, FitTable, NoApplicableModelError, score
from degselect.decisions import Answer, HeuristicProvider, ProviderPair, default_providers
from degselect.model_space import CandidateSet, Family, Hierarchy, Trend, Uncertain
from degselect.pipeline import (
    Case,
    EmptyRetainedSetError,
    InferenceInput,
    LeakageError,
    PipelineConfig,
    run_inference,
    validate_input,
)
from degselect.simulate import (
    SimKind,
    Trajectory,
    default_params,
    generate,
    truncate_at_progress,
)

from conftest import counting_feature_passes, integer_time_paths, make_path


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
        assert inp.candidates.hierarchies == (Hierarchy.FAMILY,)
        assert len(inp.candidates) == 2

    def test_case2_uses_both_hierarchies(self):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11)
        inp = InferenceInput.for_case(Case.CASE2, traj)
        assert inp.candidates.hierarchies == (Hierarchy.FAMILY, Hierarchy.TREND)
        assert len(inp.candidates) == 4


class TestValidateInput:
    def test_banned_token_warning(self):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11)
        inp = InferenceInput.for_case(Case.CASE2, traj, context="observed RUL was 40h")
        warnings = validate_input(inp)
        assert any("leak" in w for w in warnings)

    @pytest.mark.parametrize("context", ["observed RUL 40h", "failure time: 12 h"])
    def test_banned_word_flagged(self, context):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11)
        inp = InferenceInput.for_case(Case.CASE2, traj, context=context)
        assert any("leak" in w for w in validate_input(inp))

    @pytest.mark.parametrize(
        "context", ["rule-based maintenance schedule", "unruly vibration on the feed pump"]
    )
    def test_banned_tokens_match_whole_words(self, bank, context):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11)
        inp = InferenceInput.for_case(Case.CASE2, traj, context=context)
        assert validate_input(inp) == []
        run_inference(inp, bank, cfg=PipelineConfig(strict_leakage=True))  # no LeakageError

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
        # The two models differ on both hierarchies, so both are decided, and
        # no model is gamma and linear.
        cset = CandidateSet.of(
            m for m in Case.CASE2.candidates if m.id in ("linear_wiener", "nonhomog_gamma")
        )
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11, n_percent=70)
        inp = InferenceInput(traj, "", cset)
        pair = fixed_pair(family=Family.GAMMA, trend=Trend.LINEAR)
        with pytest.raises(EmptyRetainedSetError):
            run_inference(inp, bank, providers=pair)

    def test_gamma_only_set_decides_the_trend_only(self, bank):
        cset = CandidateSet.of(m for m in Case.CASE2.candidates if m.family is Family.GAMMA)
        traj = make_path(SimKind.NONHOMOG_GAMMA, seed=11, n_percent=70)
        out = run_inference(InferenceInput(traj, "", cset), bank)
        assert set(out.decisions) == {Hierarchy.TREND}
        assert out.chosen.family is Family.GAMMA

    def test_a_direct_input_decides_what_its_set_needs(self, bank):
        """A case-1 set passed directly, not through ``for_case``, decides the
        family only: it never raises, and agrees with ``for_case``."""
        for kind in SimKind:
            for seed in range(1, 11):
                traj = generate(default_params(kind, seed=seed)).trajectory
                for pct in (30, 50, 70):
                    window = truncate_at_progress(traj, pct)
                    direct = run_inference(
                        InferenceInput(window, "", Case.CASE1.candidates), bank
                    )
                    via_case = run_inference(InferenceInput.for_case(Case.CASE1, window), bank)
                    assert direct.chosen == via_case.chosen, (kind, seed, pct)
                    assert {h: r.final for h, r in direct.decisions.items()} == {
                        h: r.final for h, r in via_case.decisions.items()
                    }, (kind, seed, pct)

    def test_a_set_with_nothing_to_decide_retrieves_no_evidence(self, bank, monkeypatch):
        import degselect.decisions as dec

        calls = []
        retrieve = dec.retrieve_top_k
        monkeypatch.setattr(
            dec, "retrieve_top_k", lambda *a, **kw: calls.append(a) or retrieve(*a, **kw)
        )
        linear_wiener = next(m for m in Case.CASE2.candidates if m.id == "linear_wiener")
        for kind in SimKind:
            traj = make_path(kind, seed=11, n_percent=70)
            out = run_inference(InferenceInput(traj, "", CandidateSet.of([linear_wiener])), bank)
            assert (out.chosen, out.decisions, calls) == (linear_wiener, {}, [])

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
    import degselect.fitting as fitting

    fitters = {
        (Family.WIENER, Trend.LINEAR): fitting.fit_linear_wiener,
        (Family.WIENER, Trend.NONLINEAR): fitting.fit_nonlinear_wiener,
        (Family.GAMMA, Trend.LINEAR): fitting.fit_homog_gamma,
        (Family.GAMMA, Trend.NONLINEAR): fitting.fit_nonhomog_gamma,
    }
    counts = Counter()
    fit_model = crit.fit_model

    def counted_fit_model(model, inc):
        counts[(model.family, model.trend)] += 1
        return fit_model(model, inc)

    def counted_fitter(fitter, key):
        return lambda inc: counts.update([key]) or fitter(inc)

    with ExitStack() as stack:
        stack.enter_context(patch.object(crit, "fit_model", counted_fit_model))
        for key, fitter in fitters.items():
            if getattr(dec, fitter.__name__, None) is fitter:
                stack.enter_context(
                    patch.object(dec, fitter.__name__, counted_fitter(fitter, key))
                )
        yield counts


def reachable_arrays(root) -> list:
    """The ndarrays reachable from ``root`` through containers, instances and
    exceptions; classes, modules and functions are not followed."""
    seen, todo, found = set(), [root], []
    opaque = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        else:
            todo.extend(gc.get_referents(obj))
    return found


class TestSinglePass:
    def test_one_nonhomog_gamma_fit_per_inference(self, bank):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11, n_percent=70)
        with counting_fits() as counts:
            out = run_inference(InferenceInput.for_case(Case.CASE2, traj), bank)
        assert out.decisions[Hierarchy.FAMILY].final is Family.GAMMA
        assert counts[(Family.GAMMA, Trend.NONLINEAR)] == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", list(SimKind))
    def test_two_fit_requests_for_a_singleton_pick(self, bank, kind, seed, monkeypatch):
        # The trend answer's two fits, requested by the heuristic answer that
        # both default providers read; the singleton pick scores nothing.
        traj = make_path(kind, seed=seed, n_percent=70)
        requested = []
        fit = FitTable.fit
        monkeypatch.setattr(
            FitTable, "fit", lambda self, model: requested.append(model.id) or fit(self, model)
        )
        out = run_inference(InferenceInput.for_case(Case.CASE2, traj), bank)
        assert out.scores is None
        assert len(requested) == 2

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

    def test_result_exposes_the_inference_fits(self, bank):
        traj = make_path(SimKind.LINEAR_WIENER, seed=8, n_percent=50)
        out = run_inference(InferenceInput.for_case(Case.CASE2, traj), bank)
        with counting_fits() as counts:
            for model in out.retained:
                out.fits.fit(model)
        assert out.fits.traj is traj
        assert not counts  # every retained model's fit was made by the inference
        assert "inc" not in vars(out.fits)  # a kept result holds no copy of the data

    @pytest.mark.parametrize(
        "kind,steps",
        [
            (SimKind.HOMOG_GAMMA, None),
            (SimKind.LINEAR_WIENER, None),
            (SimKind.NONHOMOG_GAMMA, 10_000),
        ],
    )
    def test_kept_fits_and_trajectory_reach_no_series_array(self, bank, kind, steps):
        # Seed 8 at 50% scores the trend pair after fitting it; the 10k-step
        # path shares its gamma fits' exponent-1 solve on the increments.
        if steps is None:
            traj = make_path(kind, seed=8, n_percent=50)
        else:
            params = default_params(kind, seed=1, max_steps=steps, failure_threshold=math.inf)
            traj = generate(params).trajectory
        out = run_inference(InferenceInput.for_case(Case.CASE2, traj), bank)
        sizes = {len(traj), len(traj) - 1}

        def copies():
            """Series-sized arrays the kept fits reach other than the trajectory's own."""
            return [
                a.shape
                for a in reachable_arrays(vars(out.fits))
                if a.size in sizes and a is not traj.times and a is not traj.values
            ]

        assert not copies()
        assert [k for k, v in vars(traj).items() if isinstance(v, np.ndarray)] == ["times", "values"]
        # The same after the table has scored CV, and keeps each model's
        # folds or fold error.
        for model in Case.CASE2.candidates:
            score(model, out.fits, Criterion.CV)
        out.fits.release_increments()
        assert len(out.fits._folds) == len(Case.CASE2.candidates)
        assert not copies()

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


def scaled_times(traj, scale):
    return replace(traj, times=tuple(scale * t for t in traj.times))


def assert_same_answers(got, want, tol=1e-12):
    """Two ``answer_record``s agree: labels, finals, retained sets and picks
    equal, and confidences within ``tol``."""
    assert got["decisions"].keys() == want["decisions"].keys()
    for h, rec in want["decisions"].items():
        for side in ("internal", "contextual"):
            (label, conf), (want_label, want_conf) = got["decisions"][h][side], rec[side]
            assert label == want_label and abs(conf - want_conf) <= tol, (h, side)
        assert got["decisions"][h]["final"] == rec["final"], h
    assert (got["retained"], got["chosen"]) == (want["retained"], want["chosen"])


class TestNonWholeStepTimes:
    # Half-step stamps are modelled over their real intervals, not rounded:
    # every answer is the unit grid's.  While stamps were rounded to steps the
    # trend decision could not form increments here and answered linear at
    # confidence 0.5, so (NONLINEAR_WIENER, 11) picked linear_wiener.
    EXPECTED = {
        (SimKind.LINEAR_WIENER, 11): "linear_wiener",
        (SimKind.LINEAR_WIENER, 29): "linear_wiener",
        (SimKind.NONLINEAR_WIENER, 11): "nonlinear_wiener",
        (SimKind.NONLINEAR_WIENER, 29): "nonlinear_wiener",
        (SimKind.HOMOG_GAMMA, 11): "homog_gamma",
        (SimKind.HOMOG_GAMMA, 29): "homog_gamma",
        (SimKind.NONHOMOG_GAMMA, 11): "nonhomog_gamma",
        (SimKind.NONHOMOG_GAMMA, 29): "nonhomog_gamma",
    }

    @pytest.mark.parametrize("kind, seed", list(EXPECTED))
    def test_half_step_picks_equal_unit_grid_picks(self, bank, kind, seed):
        traj = make_path(kind, seed=seed, n_percent=70)
        half = scaled_times(traj, 0.5)
        for case in Case:
            got = run_inference(InferenceInput.for_case(case, half), bank)
            want = run_inference(InferenceInput.for_case(case, traj), bank)
            assert_same_answers(answer_record(got), answer_record(want))
        assert got.chosen.id == self.EXPECTED[(kind, seed)]
        assert got.decisions[Hierarchy.TREND].internal != Answer(Trend.LINEAR, 0.5)
        assert not got.diagnostics


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
    on ``answer_pin_inputs()``.

    The commit after a0003fa, which takes the gamma shape-rate Newton step in
    1/alpha, re-recorded the 38 inputs whose trend confidences moved (30
    ``homog_gamma`` and 8 ``nonhomog_gamma`` case-2 windows, by at most
    1.9e-14).  The commit after ee86948, which fits the linear models as the
    profile kernels at beta = 1, re-recorded the 40 whose trend confidences
    moved (30 ``homog_gamma``, 4 ``nonhomog_gamma``, 4 ``nonlinear_wiener``
    and 2 ``linear_wiener`` case-2 windows, by at most 1.4e-14).  The commit
    after 9cd1a9a, whose shape-rate solve takes secant steps in 1/alpha after
    its first Newton step, re-recorded the 40 whose trend confidences moved
    (30 ``homog_gamma`` and 10 ``nonhomog_gamma`` case-2 windows, by at most
    4.6e-14).  The commit after 779aeb9, whose gamma exponent search runs on
    every 4th grid exponent and takes its fit at the maximizer from the
    search, re-recorded the 48 whose trend confidences moved (30
    ``homog_gamma`` and 18 ``nonhomog_gamma`` case-2 windows, by at most
    7.2e-13).  The commit after b18097a, whose gamma exponent search walks
    the grid by the profile's slope and finds the slope's zero by Brent's
    zero finder, re-recorded the 48 whose trend confidences moved (30
    ``homog_gamma`` and 18 ``nonhomog_gamma`` case-2 windows, by at most
    6.3e-13).  The commit after f0f725f, whose Wiener exponent search finds
    the zero of the profile's slope, re-recorded the 56 whose trend
    confidences moved (28 ``linear_wiener`` and 28 ``nonlinear_wiener``
    case-2 windows, by at most 4.4e-14).  Every label, final decision,
    retained set and pick is as recorded at 256c22e."""

    def test_matches_recorded_answers(self, bank):
        inputs = answer_pin_inputs()
        assert inputs.keys() == ANSWER_PINS.keys()
        for name, inp in inputs.items():
            assert answer_record(run_inference(inp, bank)) == ANSWER_PINS[name], name


class TestTimeUnit:
    """Answers do not depend on the unit of the time stamps."""

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_pinned_inferences_with_scaled_stamps(self, bank, scale):
        inputs = answer_pin_inputs()
        for name, inp in inputs.items():
            scaled = replace(inp, trajectory=scaled_times(inp.trajectory, scale))
            assert_same_answers(answer_record(run_inference(scaled, bank)), ANSWER_PINS[name])
