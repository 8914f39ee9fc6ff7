import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from degselect.criteria import (
    Criterion,
    FitError,
    FitTable,
    NoApplicableModelError,
    score,
    select_argmin,
)
from degselect.fitting import IncrementSeries, fit_model, increments, loglik
from degselect.model_space import CandidateModel, CandidateSet, Family, Trend
from degselect.simulate import (
    SimKind,
    Trajectory,
    default_params,
    generate,
    truncate_at_progress,
)

from conftest import make_path


def by_id(cset, model_id):
    return next(m for m in cset if m.id == model_id)


@pytest.fixture(scope="module")
def setup(case2_set):
    traj = make_path(SimKind.LINEAR_WIENER, seed=21, n_percent=70)
    model = by_id(case2_set, "linear_wiener")
    fit = fit_model(model, increments(traj))
    n = len(traj) - 1
    return traj, model, fit, n


class TestScoreFormulas:

    def test_aic(self, setup):
        traj, model, fit, n = setup
        assert score(model, FitTable(traj), Criterion.AIC) == pytest.approx(
            2 * 2 - 2 * fit.loglik
        )

    def test_bic(self, setup):
        traj, model, fit, n = setup
        assert score(model, FitTable(traj), Criterion.BIC) == pytest.approx(
            2 * math.log(n) - 2 * fit.loglik
        )

    def test_mdl_is_half_bic(self, setup):
        traj, model, fit, n = setup
        assert score(model, FitTable(traj), Criterion.MDL) == pytest.approx(
            0.5 * score(model, FitTable(traj), Criterion.BIC)
        )

    def test_eal(self, setup):
        traj, model, fit, n = setup
        assert score(model, FitTable(traj), Criterion.EAL) == pytest.approx(-fit.loglik / n)

    def test_k_uses_declared_param_count(self, setup, case2_set):
        traj, _, _, n = setup
        lin = by_id(case2_set, "linear_wiener")
        non = by_id(case2_set, "nonlinear_wiener")
        fit_lin = fit_model(lin, increments(traj))
        fit_non = fit_model(non, increments(traj))
        fits = FitTable(traj)
        gap = score(non, fits, Criterion.AIC) - score(lin, fits, Criterion.AIC)
        assert gap == pytest.approx(2 * (3 - 2) - 2 * (fit_non.loglik - fit_lin.loglik))


class TestInapplicableFits:
    def test_gamma_inf_on_wiener_path_with_negative_steps(self, case2_set):
        traj = make_path(SimKind.LINEAR_WIENER, seed=21, n_percent=70)
        deltas = np.diff(traj.values)
        assert np.any(deltas < 0)  # the fixture path must exercise the branch
        for mid in ("homog_gamma", "nonhomog_gamma"):
            assert score(by_id(case2_set, mid), FitTable(traj), Criterion.EAL) == math.inf

    def test_nonlinear_cv_inf_on_a_path_from_a_negative_stamp(self, case2_set):
        traj = make_path(SimKind.NONHOMOG_GAMMA, seed=21, n_percent=70)
        shifted = replace(traj, times=tuple(t - 5.0 for t in traj.times))
        for mid in ("nonlinear_wiener", "nonhomog_gamma"):
            notes = []
            model = by_id(case2_set, mid)
            assert score(model, FitTable(shifted), Criterion.CV, notes) == math.inf
            assert "time stamps >= 0, got -5.0" in notes[0]

    def test_notes_record_failure_reason(self, case2_set):
        traj = make_path(SimKind.LINEAR_WIENER, seed=21, n_percent=70)
        notes = []
        score(by_id(case2_set, "homog_gamma"), FitTable(traj), Criterion.AIC, notes=notes)
        assert notes and "homog_gamma" in notes[0]


def cv_pin_inputs():
    """The trajectories whose CV scores and picks are pinned in cv_pins.json:
    windows of 30/50/70% of default paths for every kind and seeds 1-5."""
    out = {}
    for kind in SimKind:
        for seed in range(1, 6):
            traj = generate(default_params(kind, seed=seed)).trajectory
            for pct in (30, 50, 70):
                out[f"{kind.value}-{seed}-{pct}"] = truncate_at_progress(traj, pct)
    return out


CV_PINS = json.loads((Path(__file__).parent / "data" / "cv_pins.json").read_text())


class TestCrossValidation:
    def test_too_few_increments_is_inf(self, case2_set):
        traj = Trajectory("u", tuple(map(float, range(6))), (0.0, 0.4, 1.1, 1.4, 2.2, 2.5))
        notes = []
        model = by_id(case2_set, "linear_wiener")
        assert score(model, FitTable(traj), Criterion.CV, notes) == math.inf
        assert notes == ["linear_wiener: cross-validation needs at least 10 increments, got 5"]

    @pytest.mark.parametrize("model_id", [k.value for k in SimKind])
    def test_matches_manual_fold_computation(self, case2_set, model_id):
        # Each fold fitted on its own compacted training series, as the folds
        # were before they became one batched problem.
        traj = make_path(SimKind(model_id), seed=33, n_percent=70)
        model = by_id(case2_set, model_id)
        inc = increments(traj)
        n = len(inc)
        bounds = np.linspace(0, n, 6).astype(int)
        expected = []
        for f in range(5):
            lo, hi = bounds[f], bounds[f + 1]
            train = IncrementSeries(
                *(v[:lo] + v[hi:] for v in (inc.deltas, inc.starts, inc.ends))
            )
            held = IncrementSeries(inc.deltas[lo:hi], inc.starts[lo:hi], inc.ends[lo:hi])
            fit = fit_model(model, train)
            expected.append(-loglik(model, fit.params, held) / len(held))
        assert score(model, FitTable(traj), Criterion.CV) == pytest.approx(
            float(np.mean(expected)), rel=1e-5
        )

    def test_matches_recorded_scores_and_picks(self, case2_set):
        """CV scores within 1e-5 relative, and the CV baseline's picks exactly,
        of those recorded at commit bed3a56, which fitted every fold as its own
        compacted series; ``None`` records an infinite score or no pick."""
        inputs = cv_pin_inputs()
        assert inputs.keys() == CV_PINS.keys()
        for name, traj in inputs.items():
            pin = CV_PINS[name]
            assert len(traj) - 1 == pin["n"], name
            for model in case2_set:
                got, want = score(model, FitTable(traj), Criterion.CV), pin["scores"][model.id]
                if want is None:
                    assert got == math.inf, (name, model.id)
                else:
                    assert abs(got - want) <= 1e-5 * abs(want), (name, model.id, got, want)
            try:
                pick = select_argmin(case2_set, FitTable(traj), Criterion.CV)[0].id
            except NoApplicableModelError:
                pick = None
            assert pick == pin["pick"], name

    def test_gamma_cv_inf_on_negative_increments(self, case2_set):
        traj = make_path(SimKind.LINEAR_WIENER, seed=21, n_percent=70)
        assert score(by_id(case2_set, "homog_gamma"), FitTable(traj), Criterion.CV) == math.inf

    def test_cv_finite_on_gamma_path(self, case2_set, gamma_path):
        val = score(by_id(case2_set, "homog_gamma"), FitTable(gamma_path), Criterion.CV)
        assert math.isfinite(val)

    @pytest.mark.parametrize("model_id", ["homog_gamma", "nonhomog_gamma"])
    def test_note_names_the_first_failing_fold(self, case2_set, model_id):
        # 20 increments, 4 per fold; the one negative increment lies in the
        # first fold's held-out block, so the first fold trains on positive
        # increments and the second fold is the first that cannot.
        deltas = [-0.1] + [0.3 + 0.05 * (i % 3) for i in range(19)]
        traj = Trajectory("u", tuple(map(float, range(21))), tuple(np.cumsum([1.0] + deltas)))
        notes = []
        model = by_id(case2_set, model_id)
        assert score(model, FitTable(traj), Criterion.CV, notes) == math.inf
        assert notes == [f"{model_id}: fold 2: gamma model requires positive increments"]

    def test_note_on_non_finite_held_out_likelihood(self, case2_set, wiener_path, monkeypatch):
        import degselect.criteria as crit

        monkeypatch.setattr(crit, "loglik", lambda *args: -math.inf)
        notes = []
        model = by_id(case2_set, "linear_wiener")
        assert score(model, FitTable(wiener_path), Criterion.CV, notes) == math.inf
        assert notes == ["linear_wiener: fold 1: non-finite held-out log-likelihood"]

    def test_select_argmin_notes_cv_failures(self, case2_set, wiener_path):
        _, table = select_argmin(case2_set, FitTable(wiener_path), Criterion.CV)
        assert [note.split(":")[0] for note in table.notes] == ["homog_gamma", "nonhomog_gamma"]


class TestSelectArgmin:
    def test_picks_minimum_score(self, case2_set, gamma_path):
        chosen, table = select_argmin(case2_set, FitTable(gamma_path), Criterion.BIC)
        finite = {k: v for k, v in table.entries.items() if math.isfinite(v)}
        assert chosen.id == min(finite, key=finite.get)

    def test_singleton_short_circuits(self, case2_set, wiener_path):
        only = CandidateSet.of([by_id(case2_set, "homog_gamma")])
        chosen, table = select_argmin(only, FitTable(wiener_path), Criterion.EAL)
        # No scoring happens, so even an otherwise-inapplicable model is kept.
        assert chosen.id == "homog_gamma"
        assert table is None

    def test_all_inf_raises(self, wiener_path):
        gammas = CandidateSet.of(
            [
                CandidateModel("homog_gamma", Family.GAMMA, Trend.LINEAR, 2),
                CandidateModel("nonhomog_gamma", Family.GAMMA, Trend.NONLINEAR, 3),
            ]
        )
        with pytest.raises(NoApplicableModelError):
            select_argmin(gammas, FitTable(wiener_path), Criterion.AIC)

    def test_tie_breaks_by_param_count_then_id(self, wiener_path, monkeypatch):
        import degselect.criteria as crit

        monkeypatch.setattr(crit, "score", lambda *a, **kw: 1.0)
        models = CandidateSet.of(
            [
                CandidateModel("b", Family.WIENER, Trend.NONLINEAR, 3),
                CandidateModel("c", Family.WIENER, Trend.LINEAR, 2),
                CandidateModel("a", Family.WIENER, Trend.LINEAR, 2),
            ]
        )
        chosen, _ = crit.select_argmin(models, FitTable(wiener_path), Criterion.AIC)
        assert chosen.id == "a"

    def test_bic_prefers_true_family_on_gamma_path(self, case2_set, gamma_path):
        chosen, _ = select_argmin(case2_set, FitTable(gamma_path), Criterion.BIC)
        assert chosen.family is Family.GAMMA

    def test_eal_never_prefers_nested_submodel(self, case2_set, wiener_path):
        # Without a complexity penalty the 3-parameter superset model always
        # matches or beats its nested 2-parameter version.
        _, table = select_argmin(case2_set, FitTable(wiener_path), Criterion.EAL)
        assert table.entries["nonlinear_wiener"] <= table.entries["linear_wiener"] + 1e-12

    @pytest.mark.parametrize("criterion", list(Criterion))
    def test_every_criterion_selects_something(self, criterion, case2_set, gamma_path):
        chosen, _ = select_argmin(case2_set, FitTable(gamma_path), criterion)
        assert chosen in list(case2_set)


class TestFitTable:
    @pytest.mark.parametrize("path", ["gamma_path", "wiener_path"])
    def test_each_fit_runs_once_per_table(self, path, case2_set, request, monkeypatch):
        import degselect.criteria as crit

        traj = request.getfixturevalue(path)
        requested = []
        fit_model_orig = crit.fit_model

        def counting_fit_model(model, inc):
            requested.append((model.family, model.trend))
            return fit_model_orig(model, inc)

        monkeypatch.setattr(crit, "fit_model", counting_fit_model)
        fits = FitTable(traj)
        for criterion in (Criterion.AIC, Criterion.BIC, Criterion.MDL, Criterion.EAL):
            select_argmin(case2_set, fits, criterion)
        for model in case2_set:
            try:
                assert fits.fit(model) is fits.fit(model)
            except crit.FitError:
                pass  # gamma on a Wiener path: the failure is remembered too
        assert sorted(requested, key=str) == sorted(
            ((m.family, m.trend) for m in case2_set), key=str
        )

    def test_failed_fit_kept_without_the_fitter_frames(self, case2_set, wiener_path):
        # The fitter's frames hold its arrays; a kept table must not pin them.
        fits = FitTable(wiener_path)
        for _ in range(2):
            with pytest.raises(FitError) as info:
                fits.fit(by_id(case2_set, "homog_gamma"))
            tb, files = info.value.__traceback__, []
            while tb is not None:
                files.append(Path(tb.tb_frame.f_code.co_filename).name)
                tb = tb.tb_next
            assert "fitting.py" not in files

    @pytest.mark.parametrize("request_name,kept", [("fit", "_fits"), ("folds", "_folds")])
    def test_a_kept_error_is_raised_as_a_fresh_copy(
        self, case2_set, wiener_path, request_name, kept
    ):
        # Raising the kept error itself would chain each raise's frames onto it.
        fits = FitTable(wiener_path)
        gamma = by_id(case2_set, "homog_gamma")
        raised = []
        for _ in range(5):
            with pytest.raises(FitError) as info:
                getattr(fits, request_name)(gamma)
            raised.append(info.value)
        (stored,) = getattr(fits, kept).values()
        assert stored.__traceback__ is None
        assert len({id(stored), *map(id, raised)}) == 6
        assert {(type(e), str(e)) for e in raised} == {(type(stored), str(stored))}

    def test_released_increments_are_formed_again(self, case2_set, gamma_path):
        fits = FitTable(gamma_path)
        first = fits.fit(by_id(case2_set, "homog_gamma"))
        fits.release_increments()
        assert "inc" not in vars(fits)
        assert fits.fit(by_id(case2_set, "homog_gamma")) is first
        assert fits.fit(by_id(case2_set, "linear_wiener")).loglik == fit_model(
            by_id(case2_set, "linear_wiener"), increments(gamma_path)
        ).loglik
