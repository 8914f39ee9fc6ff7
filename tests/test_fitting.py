import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import polygamma
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm

from degselect.fitting import (
    _BETA_GRID,
    BETA_BOUNDS,
    DegenerateVarianceError,
    FitError,
    IncrementSeries,
    NonPositiveIncrementError,
    _gamma_profile_rows,
    _trigamma,
    _wiener_profile_rows,
    fit_homog_gamma,
    fit_linear_wiener,
    fit_model,
    fit_nonhomog_gamma,
    fit_nonlinear_wiener,
    increments,
    loglik,
)
from degselect.model_space import default_case_sets
from degselect.simulate import (
    SimKind,
    SimParams,
    default_params,
    generate,
    time_transform_increments,
    truncate_at_progress,
)

_, CASE2 = default_case_sets()


def series(deltas, start=1):
    deltas = tuple(float(d) for d in deltas)
    return IncrementSeries(deltas, tuple(range(start, start + len(deltas))))


def long_run(kind, seed=0, n=5000, **overrides):
    params_kw = dict(failure_threshold=1e18, max_steps=n, seed=seed)
    params_kw.update(overrides)
    return increments(generate(default_params(kind, **params_kw)).trajectory)


def pinned_inputs():
    """The increment series whose profile fits are pinned in fit_pins.json.

    Windows of 30/50/70% of default paths for every kind and seeds 1-5, one
    CV training fold (a gap in its step indices), and two 2k-step paths.
    """
    out = {}
    for kind in SimKind:
        for seed in range(1, 6):
            traj = generate(default_params(kind, seed=seed)).trajectory
            for pct in (30, 50, 70):
                out[f"{kind.value}-{seed}-{pct}"] = increments(truncate_at_progress(traj, pct))
    full = out["nonhomog_gamma-3-70"]
    lo, hi = 2 * len(full) // 5, 3 * len(full) // 5
    out["cv-fold-nonhomog_gamma-3-70"] = IncrementSeries(
        full.deltas[:lo] + full.deltas[hi:], full.step_indices[:lo] + full.step_indices[hi:]
    )
    out["nonhomog_gamma-2k"] = long_run(SimKind.NONHOMOG_GAMMA, seed=4, n=2000)
    out["nonlinear_wiener-2k"] = long_run(SimKind.NONLINEAR_WIENER, seed=4, n=2000)
    return out


def profile_fit_outcome(fitter, inc):
    """(beta, loglik, converged) of a profile fit, or the name of its FitError."""
    try:
        res = fitter(inc)
    except FitError as exc:
        return {"error": type(exc).__name__}
    return {"beta": res.params["beta"], "loglik": res.loglik, "converged": res.converged}


class TestTrigamma:
    def test_matches_scipy_over_wide_range(self):
        x = np.concatenate(
            [np.linspace(0.01, 6, 400), np.geomspace(6, 1e6, 400)]
        )
        ours = _trigamma(x)
        ref = polygamma(1, x)
        assert np.max(np.abs(ours / ref - 1.0)) < 1e-8

    def test_scalar_like_input(self):
        assert _trigamma(np.array([1.0]))[0] == pytest.approx(math.pi**2 / 6, rel=1e-10)


class TestIncrements:
    def test_values_and_indices(self):
        from degselect.simulate import Trajectory

        traj = Trajectory("u", (0.0, 1.0, 2.0, 3.0), (0.0, 0.5, 1.5, 3.0))
        inc = increments(traj)
        assert inc.deltas == (0.5, 1.0, 1.5)
        assert inc.step_indices == (1, 2, 3)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            IncrementSeries((0.1, 0.2), (2, 1))
        with pytest.raises(ValueError):
            IncrementSeries((0.1,), (0,))


class TestLinearWiener:
    def test_closed_form_equals_sample_moments(self):
        d = (0.1, 0.4, 0.3, 0.6, 0.1)
        res = fit_linear_wiener(series(d))
        arr = np.asarray(d)
        assert res.params["m"] == pytest.approx(arr.mean())
        assert res.params["s"] == pytest.approx(arr.std())  # MLE, ddof=0

    def test_loglik_matches_scipy(self):
        d = (0.1, 0.4, 0.3, 0.6, 0.1)
        res = fit_linear_wiener(series(d))
        ref = float(
            np.sum(norm.logpdf(d, loc=res.params["m"], scale=res.params["s"]))
        )
        assert res.loglik == pytest.approx(ref, rel=1e-12)

    def test_recovers_truth_on_long_run(self):
        inc = long_run(SimKind.LINEAR_WIENER, seed=4)
        res = fit_linear_wiener(inc)
        assert res.params["m"] == pytest.approx(0.5, abs=0.02)
        assert res.params["s"] == pytest.approx(0.4, abs=0.02)

    def test_mle_is_likelihood_maximum(self):
        inc = long_run(SimKind.LINEAR_WIENER, seed=8, n=200)
        res = fit_linear_wiener(inc)
        model = next(m for m in CASE2 if m.id == "linear_wiener")
        for dm in (-0.05, 0.05):
            bumped = dict(res.params, m=res.params["m"] + dm)
            assert loglik(model, bumped, inc) < res.loglik

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVarianceError):
            fit_linear_wiener(series((0.5, 0.5, 0.5, 0.5)))

    def test_too_short(self):
        with pytest.raises(FitError):
            fit_linear_wiener(series((0.1, 0.2)))


class TestNonlinearWiener:
    def test_recovers_truth_on_long_run(self):
        inc = long_run(SimKind.NONLINEAR_WIENER, seed=4)
        res = fit_nonlinear_wiener(inc)
        assert res.params["beta"] == pytest.approx(1.5, abs=0.05)
        assert res.params["m"] == pytest.approx(0.05, abs=0.01)

    def test_noise_free_power_drift(self):
        n = 60
        d = time_transform_increments(n, 1.7) * 0.2
        res = fit_nonlinear_wiener(series(d))
        assert res.params["beta"] == pytest.approx(1.7, abs=1e-3)
        assert res.params["m"] == pytest.approx(0.2, abs=1e-4)

    def test_nests_linear_fit(self):
        # With one extra free parameter the fit can never be worse.
        inc = long_run(SimKind.LINEAR_WIENER, seed=12, n=150)
        lin = fit_linear_wiener(inc)
        non = fit_nonlinear_wiener(inc)
        assert non.loglik >= lin.loglik - 1e-9

    def test_beta_stays_in_bounds(self):
        inc = long_run(SimKind.NONLINEAR_WIENER, seed=5, n=300)
        assert 0.2 <= fit_nonlinear_wiener(inc).params["beta"] <= 5.0


class TestHomogGamma:
    def test_score_equation_satisfied(self):
        inc = long_run(SimKind.HOMOG_GAMMA, seed=4, n=500)
        res = fit_homog_gamma(inc)
        d = np.asarray(inc.deltas)
        from scipy.special import psi

        s = math.log(d.mean()) - np.mean(np.log(d))
        a = res.params["alpha"]
        assert math.log(a) - psi(a) == pytest.approx(s, rel=1e-8)
        assert a * res.params["theta"] == pytest.approx(d.mean(), rel=1e-10)

    def test_loglik_matches_scipy(self):
        inc = long_run(SimKind.HOMOG_GAMMA, seed=4, n=100)
        res = fit_homog_gamma(inc)
        ref = float(
            np.sum(
                gamma_dist.logpdf(
                    inc.deltas, a=res.params["alpha"], scale=res.params["theta"]
                )
            )
        )
        assert res.loglik == pytest.approx(ref, rel=1e-10)

    def test_recovers_truth_on_long_run(self):
        inc = long_run(SimKind.HOMOG_GAMMA, seed=6)
        res = fit_homog_gamma(inc)
        assert res.params["alpha"] == pytest.approx(6.0, rel=0.1)
        assert res.params["theta"] == pytest.approx(1.0 / 12.0, rel=0.1)

    def test_matches_scipy_fit(self):
        inc = long_run(SimKind.HOMOG_GAMMA, seed=9, n=200)
        res = fit_homog_gamma(inc)
        a_ref, _, th_ref = gamma_dist.fit(inc.deltas, floc=0)
        assert res.params["alpha"] == pytest.approx(a_ref, rel=1e-4)
        assert res.params["theta"] == pytest.approx(th_ref, rel=1e-4)

    def test_rejects_non_positive_increments(self):
        with pytest.raises(NonPositiveIncrementError):
            fit_homog_gamma(series((0.5, -0.1, 0.4, 0.2)))

    def test_constant_increments_hit_shape_cap(self):
        res = fit_homog_gamma(series((0.5, 0.5, 0.5, 0.5)))
        assert res.params["alpha"] == 1e6
        assert not res.converged


class TestNonhomogGamma:
    def test_recovers_truth_on_long_run(self):
        inc = long_run(SimKind.NONHOMOG_GAMMA, seed=4, n=2000)
        res = fit_nonhomog_gamma(inc)
        assert res.params["beta"] == pytest.approx(1.5, abs=0.1)
        assert res.params["alpha"] == pytest.approx(0.6, rel=0.2)
        assert res.converged is True

    def test_capped_profile_solve_reports_not_converged(self, monkeypatch):
        import degselect.fitting as fitting

        solve = fitting._fit_gamma_profile

        def capped(inc, beta, init=None):
            alpha, theta, ll, _, _ = solve(inc, beta, init)
            return alpha, theta, ll, 100, False

        monkeypatch.setattr(fitting, "_fit_gamma_profile", capped)
        res = fit_nonhomog_gamma(long_run(SimKind.NONHOMOG_GAMMA, seed=4, n=300))
        assert (res.converged, res.iterations) == (False, 100)

    def test_nests_homogeneous_fit(self):
        inc = long_run(SimKind.HOMOG_GAMMA, seed=12, n=150)
        homog = fit_homog_gamma(inc)
        non = fit_nonhomog_gamma(inc)
        assert non.loglik >= homog.loglik - 1e-9

    def test_stationarity_at_optimum(self):
        inc = long_run(SimKind.NONHOMOG_GAMMA, seed=7, n=300)
        res = fit_nonhomog_gamma(inc)
        model = next(m for m in CASE2 if m.id == "nonhomog_gamma")
        base = loglik(model, res.params, inc)
        for key, scale in (("alpha", 0.01), ("theta", 0.001), ("beta", 0.01)):
            for sign in (-1, 1):
                bumped = dict(res.params)
                bumped[key] += sign * scale
                assert loglik(model, bumped, inc) <= base + 1e-6

    def test_rejects_non_positive_increments(self):
        with pytest.raises(NonPositiveIncrementError):
            fit_nonhomog_gamma(series((0.5, 0.0, 0.4, 0.2)))


class TestLoglikFunction:
    def test_neg_inf_for_gamma_on_negative_increments(self):
        model = next(m for m in CASE2 if m.id == "homog_gamma")
        inc = series((0.5, -0.1, 0.4))
        assert loglik(model, {"alpha": 2.0, "theta": 0.5}, inc) == float("-inf")

    def test_missing_param_raises(self):
        model = next(m for m in CASE2 if m.id == "nonlinear_wiener")
        with pytest.raises(ValueError):
            loglik(model, {"m": 0.1, "s": 0.2}, series((0.1, 0.2, 0.3)))

    def test_wiener_matches_scipy(self):
        model = next(m for m in CASE2 if m.id == "linear_wiener")
        inc = series((0.1, 0.3, -0.2, 0.4))
        ll = loglik(model, {"m": 0.15, "s": 0.3}, inc)
        ref = float(np.sum(norm.logpdf(inc.deltas, loc=0.15, scale=0.3)))
        assert ll == pytest.approx(ref, rel=1e-12)


class TestDispatch:
    @pytest.mark.parametrize(
        "model_id,kind",
        [
            ("linear_wiener", SimKind.LINEAR_WIENER),
            ("nonlinear_wiener", SimKind.NONLINEAR_WIENER),
            ("homog_gamma", SimKind.HOMOG_GAMMA),
            ("nonhomog_gamma", SimKind.NONHOMOG_GAMMA),
        ],
    )
    def test_fit_model_routes_by_labels(self, model_id, kind):
        inc = long_run(kind, seed=3, n=80)
        model = next(m for m in CASE2 if m.id == model_id)
        res = fit_model(model, inc)
        assert res.model_id == model_id
        assert res.k == model.param_count
        assert math.isfinite(res.loglik)


PINS = json.loads((Path(__file__).parent / "data" / "fit_pins.json").read_text())


class TestPinnedProfileFits:
    """Profile fits agree with outcomes recorded at commit 2956c2c.

    That commit solved the exponent grid one exponent at a time and refined
    it by golden-section search; ``fit_pins.json`` holds
    ``profile_fit_outcome`` of both profile fitters on ``pinned_inputs()``.
    """

    @pytest.fixture(scope="class")
    def inputs(self):
        return pinned_inputs()

    @pytest.mark.parametrize("fitter", [fit_nonlinear_wiener, fit_nonhomog_gamma])
    def test_matches_recorded_outcomes(self, inputs, fitter):
        key = fitter.__name__.removeprefix("fit_")
        assert inputs.keys() == PINS.keys()
        for name, inc in inputs.items():
            pin, got = PINS[name][key], profile_fit_outcome(fitter, inc)
            assert len(inc) == PINS[name]["n"], name
            if "error" in pin:
                assert got == pin, name
                continue
            assert got.get("converged") == pin["converged"], name
            assert abs(got["loglik"] - pin["loglik"]) <= 1e-9 * max(1.0, abs(pin["loglik"])), name
            assert abs(got["beta"] - pin["beta"]) <= 1e-5, name


class TestNonFiniteIncrements:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "fitter", [fit_nonlinear_wiener, fit_nonhomog_gamma, fit_linear_wiener, fit_homog_gamma]
    )
    def test_profile_fitters_raise_fit_error(self, fitter, bad):
        with pytest.raises(FitError, match="finite"):
            fitter(series((0.3, bad, 0.5, 0.4, 0.6)))


positive_increments = st.lists(
    st.floats(min_value=1e-3, max_value=10.0), min_size=4, max_size=300
)
signed_increments = st.lists(
    st.floats(min_value=-10.0, max_value=10.0), min_size=4, max_size=300
)


class TestProfileProperties:
    """Invariants of the batched profile fitters over random increment series."""

    @settings(max_examples=40, deadline=None)
    @given(deltas=positive_increments, gamma=st.booleans())
    def test_batched_rows_equal_one_row_evaluations(self, deltas, gamma):
        x = np.asarray(deltas)
        steps = np.arange(1.0, x.size + 1)
        rows = _gamma_profile_rows if gamma else _wiener_profile_rows
        batched = rows(x, steps, _BETA_GRID)[2]  # profile log-likelihoods
        for beta, ll in zip(_BETA_GRID, batched):
            single = rows(x, steps, np.array([beta]))[2][0]
            assert abs(ll - single) <= 1e-10 * max(1.0, abs(single)), (beta, ll, single)

    @settings(max_examples=40, deadline=None)
    @given(deltas=positive_increments)
    def test_nonhomog_gamma_nests_homog_and_keeps_beta_in_bounds(self, deltas):
        inc = series(deltas)
        try:
            non = fit_nonhomog_gamma(inc)
        except FitError:
            assume(False)  # zero dispersion: the profile is unbounded
        assert BETA_BOUNDS[0] <= non.params["beta"] <= BETA_BOUNDS[1]
        assert non.loglik >= fit_homog_gamma(inc).loglik - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(deltas=st.one_of(signed_increments, positive_increments))
    def test_nonlinear_wiener_nests_linear_and_keeps_beta_in_bounds(self, deltas):
        inc = series(deltas)
        non = fit_nonlinear_wiener(inc)
        assert BETA_BOUNDS[0] <= non.params["beta"] <= BETA_BOUNDS[1]
        try:
            lin = fit_linear_wiener(inc)
        except DegenerateVarianceError:
            assume(False)
        assert non.loglik >= lin.loglik - 1e-9


def test_profile_fits_leave_scipy_optimize_unimported():
    # scipy.optimize alone adds ~23 MB of resident memory to every process.
    code = (
        "import sys, degselect\n"
        "from degselect.fitting import fit_nonhomog_gamma, fit_nonlinear_wiener, increments\n"
        "from degselect.simulate import SimKind, default_params, generate\n"
        "inc = increments(generate(default_params(SimKind.NONHOMOG_GAMMA, seed=3)).trajectory)\n"
        "fit_nonhomog_gamma(inc), fit_nonlinear_wiener(inc)\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    assert out.stdout.strip() == "False"
