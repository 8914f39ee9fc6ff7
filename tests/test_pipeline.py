import pytest

from degselect.criteria import Criterion
from degselect.decisions import Answer, ProviderPair
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

    def decide(self, hierarchy, traj, context="", evidence=None):
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
        assert set(out.evidence_trail) == {Hierarchy.FAMILY, Hierarchy.TREND}
        assert all(len(ev) > 0 for ev in out.evidence_trail.values())

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


class TestSinglePass:
    def test_one_nonhomog_gamma_fit_per_inference(self, bank, monkeypatch):
        import degselect.decisions as dec

        calls = []
        fit = dec.fit_nonhomog_gamma
        monkeypatch.setattr(
            dec, "fit_nonhomog_gamma", lambda inc: calls.append(inc) or fit(inc)
        )
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11, n_percent=70)
        out = run_inference(InferenceInput.for_case(Case.CASE2, traj), bank)
        assert out.decisions[Hierarchy.FAMILY].final is Family.GAMMA
        assert len(calls) == 1
