import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dataclasses import replace

from degselect.bench import Perturbation, perturb_input
from degselect.criteria import NoApplicableModelError
from degselect.evidence import feature_summary
from degselect.fitting import increments
from degselect.pipeline import Case, InferenceInput, run_inference
from degselect.simulate import (
    FIRST_CHUNK,
    SimKind,
    SimParams,
    Trajectory,
    WindowTooShortError,
    default_params,
    first_hitting_time,
    generate,
    load_trajectories,
    save_trajectories,
    split_dataset,
    time_transform,
    truncate_at_progress,
)

from conftest import integer_time_paths, shape_paths


class TestTimeTransform:
    def test_first_unit_interval_is_one_for_any_beta(self):
        for beta in (0.5, 1.0, 1.7, 3.0):
            assert time_transform(0.0, 1.0, beta) == pytest.approx(1.0)

    def test_hand_values(self):
        assert time_transform(1.0, 2.0, 2.0) == pytest.approx(3.0)
        assert time_transform(0.5, 2.5, 2.0) == pytest.approx(6.0)

    def test_interval_lengths_at_beta_one(self):
        t = np.cumsum(np.random.default_rng(1).uniform(0.1, 3.0, 50))
        assert time_transform(t[:-1], t[1:], 1.0) == pytest.approx(np.diff(t), rel=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0])
    def test_telescoping_sum(self, beta):
        t = np.concatenate([[0.0], np.cumsum(np.random.default_rng(2).uniform(0.3, 1.7, 10_000))])
        total = float(np.sum(time_transform(t[:-1], t[1:], beta)))
        assert total == pytest.approx(t[-1] ** beta, rel=1e-9)

    @pytest.mark.parametrize("beta", [0.5, 1.5, 2.0])
    def test_time_unit_scales_by_its_power(self, beta):
        t = np.arange(20.0)
        scaled = time_transform(2.5 * t[:-1], 2.5 * t[1:], beta)
        assert scaled == pytest.approx(2.5**beta * time_transform(t[:-1], t[1:], beta), rel=1e-12)


class TestGenerate:
    def test_starts_at_zero_and_unit_steps(self):
        traj = generate(default_params(SimKind.LINEAR_WIENER, seed=3)).trajectory
        assert traj.values[0] == 0.0
        assert list(traj.times) == list(range(len(traj)))

    def test_gamma_paths_monotone(self):
        traj = generate(default_params(SimKind.HOMOG_GAMMA, seed=5)).trajectory
        assert np.all(np.diff(traj.values) >= 0)

    def test_zero_noise_linear_wiener_is_exact_drift(self):
        params = SimParams(
            kind=SimKind.LINEAR_WIENER, m=0.5, s=0.0, failure_threshold=10, seed=1
        )
        traj = generate(params).trajectory
        assert traj.values[-1] == pytest.approx(0.5 * traj.times[-1])

    def test_deterministic_given_seed(self):
        p = default_params(SimKind.NONHOMOG_GAMMA, seed=42)
        a = generate(p).trajectory
        b = generate(p).trajectory
        assert np.array_equal(a.values, b.values) and np.array_equal(a.times, b.times)

    def test_different_seeds_differ(self):
        a = generate(default_params(SimKind.LINEAR_WIENER, seed=1)).trajectory
        b = generate(default_params(SimKind.LINEAR_WIENER, seed=2)).trajectory
        assert not np.array_equal(a.values, b.values)

    def test_censored_flag_when_threshold_unreachable(self):
        params = SimParams(
            kind=SimKind.LINEAR_WIENER,
            m=0.001,
            s=0.001,
            failure_threshold=50,
            max_steps=100,
            seed=1,
        )
        assert generate(params).censored

    def test_wiener_increment_mean_lln(self):
        n = 10_000
        params = SimParams(
            kind=SimKind.LINEAR_WIENER,
            m=0.5,
            s=0.5,
            failure_threshold=1e18,
            max_steps=n,
            seed=17,
        )
        traj = generate(params).trajectory
        mean = float(np.mean(np.diff(traj.values)))
        assert abs(mean - 0.5) < 3 * 0.5 / math.sqrt(n)

    def test_nonlinear_wiener_normalized_increment_mean(self):
        n = 10_000
        beta = 1.5
        params = SimParams(
            kind=SimKind.NONLINEAR_WIENER,
            m=0.3,
            s=0.4,
            beta=beta,
            failure_threshold=1e18,
            max_steps=n,
            seed=23,
        )
        traj = generate(params).trajectory
        d = time_transform(np.arange(n), np.arange(1, n + 1), beta)
        normalized = np.diff(traj.values) / d
        tol = 3 * 0.4 / math.sqrt(n) * float(np.max(1.0 / d))
        assert abs(float(np.mean(normalized)) - 0.3) < tol


def reference_generate(params):
    """``generate`` with the time transform drawn for every kind and each
    element converted by ``float``."""
    rng = np.random.default_rng(params.seed)
    n = params.max_steps
    d = time_transform(np.arange(n), np.arange(1, n + 1), params.beta)
    if params.kind is SimKind.LINEAR_WIENER:
        deltas = rng.normal(params.m, params.s, size=n)
    elif params.kind is SimKind.NONLINEAR_WIENER:
        deltas = rng.normal(params.m * d, params.s)
    elif params.kind is SimKind.HOMOG_GAMMA:
        deltas = rng.gamma(shape=params.alpha, scale=params.theta, size=n)
    else:
        deltas = rng.gamma(shape=params.alpha * d, scale=params.theta)
    x = np.concatenate([[0.0], np.cumsum(deltas)])
    crossed = np.nonzero(x >= params.failure_threshold)[0]
    end = int(crossed[0]) if crossed.size else n
    times = tuple(float(j) for j in range(end + 1))
    return times, tuple(float(v) for v in x[: end + 1]), not crossed.size


def reference_truncate(times, values, n_percent):
    cutoff = math.ceil(n_percent / 100.0 * times[-1])
    keep = [k for k, t in enumerate(times) if t <= cutoff]
    return tuple(times[k] for k in keep), tuple(values[k] for k in keep)


def as_tuples(traj):
    """The trajectory's times and values as tuples of Python floats, exact."""
    return tuple(traj.times.tolist()), tuple(traj.values.tolist())


def assert_read_only_float64(traj):
    for a in (traj.times, traj.values):
        assert a.dtype == np.float64 and not a.flags.writeable


class TestAgainstReferenceLoops:
    @pytest.mark.parametrize("kind", list(SimKind))
    def test_generate_and_truncate_bit_identical(self, kind):
        for seed in range(20):
            params = default_params(kind, seed=seed)
            result = generate(params)
            times, values, censored = reference_generate(params)
            traj = result.trajectory
            assert (*as_tuples(traj), result.censored) == (times, values, censored)
            for pct in (30, 50, 70, 100):
                out = truncate_at_progress(traj, pct)
                assert as_tuples(out) == reference_truncate(times, values, pct)
                assert_read_only_float64(out)


# First-crossing steps: the first, each side of the ends of ``generate``'s
# first two chunks (steps 128 and 384), the horizon, or None for a censored path.
SEAM_STEPS = (
    1,
    *(end + k for end in (FIRST_CHUNK, 3 * FIRST_CHUNK) for k in (-1, 0, 1)),
    "horizon",
    None,
)


class TestChunkSeams:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(list(SimKind)),
        seed=st.integers(0, 2**32 - 1),
        max_steps=st.integers(1, 3000),
        crossing=st.sampled_from(SEAM_STEPS),
    )
    def test_matches_the_single_draw(self, kind, seed, max_steps, crossing):
        params = default_params(kind, seed=seed, max_steps=max_steps, failure_threshold=math.inf)
        _, path, _ = reference_generate(params)
        if crossing is None:
            threshold = float(np.nextafter(max(path), math.inf))
        else:
            step = max_steps if crossing == "horizon" else min(crossing, max_steps)
            # The threshold is the path's value at the step: reached there first
            # when that value exceeds every earlier one.
            assume(path[step] > max(path[:step]))
            threshold = path[step]
        params = replace(params, failure_threshold=threshold)
        result = generate(params)
        times, values, censored = reference_generate(params)
        assert (crossing is None) == censored
        traj = result.trajectory
        assert (*as_tuples(traj), result.censored) == (times, values, censored)
        assert_read_only_float64(traj)


class TestTrajectoryType:
    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError):
            Trajectory("u", (0.0, 1.0, 1.0), (0.0, 1.0, 2.0))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            Trajectory("u", (0.0,), (0.0,))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory("u", (0.0, 1.0), (0.0,))

    @pytest.mark.parametrize(
        "times,values",
        [
            (((0.0, 1.0), (2.0, 3.0)), ((0.0, 1.0), (2.0, 3.0))),
            (np.arange(4.0).reshape(2, 2), (0.0, 1.0)),
            (0.0, 1.0),
        ],
    )
    def test_rejects_non_1d(self, times, values):
        with pytest.raises(ValueError, match="1-D"):
            Trajectory("u", times, values)

    @pytest.mark.parametrize(
        "times,values",
        [
            ((0.0, 1.0, 2.0), (0.0, math.nan, 1.0)),
            ((0.0, 1.0, 2.0), (0.0, 0.5, math.inf)),
            ((0.0, 1.0, math.inf), (0.0, 0.5, 1.0)),
            ((0.0, math.nan, 2.0), (0.0, 0.5, 1.0)),
        ],
    )
    def test_rejects_non_finite(self, times, values):
        with pytest.raises(ValueError, match="finite"):
            Trajectory("u", times, values)


any_paths = st.one_of(integer_time_paths(), shape_paths())
FORMS = ("tuples", "lists", "arrays")


def rebuilt(traj, form):
    """A trajectory of ``traj``'s fields passed in as tuples, lists or
    writeable arrays."""
    convert = {"tuples": lambda a: tuple(a.tolist()), "lists": np.ndarray.tolist, "arrays": np.array}
    return replace(traj, times=convert[form](traj.times), values=convert[form](traj.values))


def outcome(traj, bank):
    """The case-2 inference's pick, retained ids and each hierarchy's two
    answers (labels and confidences) and final decision, or its error."""
    try:
        out = run_inference(InferenceInput.for_case(Case.CASE2, traj), bank)
    except NoApplicableModelError as exc:
        return type(exc), str(exc)
    answers = {h: (r.internal, r.contextual, r.final) for h, r in out.decisions.items()}
    return out.chosen.id, out.retained.ids(), answers


class TestArrayFields:
    @settings(max_examples=100, deadline=None)
    @given(traj=any_paths, form=st.sampled_from(FORMS))
    def test_every_form_gives_equal_read_only_float64_fields(self, traj, form):
        other = rebuilt(traj, form)
        assert other == traj and hash(other) == hash(traj)
        assert other.times.tolist() == traj.times.tolist()
        assert other.values.tolist() == traj.values.tolist()
        for a in (other.times, other.values):
            assert a.dtype == np.float64 and a.ndim == 1 and not a.flags.writeable
        assert replace(traj, unit_id="other") != traj

    @settings(max_examples=100, deadline=None)
    @given(traj=any_paths)
    def test_held_arrays_and_copies(self, traj):
        # Read-only arrays over memory nothing can write are held as they are.
        same = Trajectory("v", traj.times, traj.values)
        assert same.times is traj.times and same.values is traj.values
        # A writeable array, or a read-only view of one, is copied once.
        times, values = traj.times.copy(), traj.values.copy()
        view = values[:]
        view.flags.writeable = False
        held = Trajectory("w", times, view)
        assert not np.shares_memory(held.times, times)
        assert not np.shares_memory(held.values, values)
        times += 1.0
        values[:] = 0.0
        assert np.array_equal(held.times, traj.times)
        assert np.array_equal(held.values, traj.values)

    @settings(max_examples=100, deadline=None)
    @given(traj=any_paths, pool_unit=any_paths, pct=st.integers(1, 100))
    def test_windows_and_substitutes_are_views(self, traj, pool_unit, pct):
        try:
            window = truncate_at_progress(traj, pct)
        except WindowTooShortError:
            window = None
        if window is not None:
            for part, whole in ((window.times, traj.times), (window.values, traj.values)):
                assert np.shares_memory(part, whole) and not part.flags.writeable
                assert np.array_equal(part, whole[: len(window)])
        inp = InferenceInput.for_case(Case.CASE2, replace(traj, true_model_id="homog_gamma"))
        sub = perturb_input(inp, Perturbation.WRONG_HI, [pool_unit]).trajectory
        npts = min(len(traj), len(pool_unit))
        assert sub.true_model_id == "homog_gamma" and len(sub) == npts
        for part, whole in ((sub.times, pool_unit.times), (sub.values, pool_unit.values)):
            assert np.shares_memory(part, whole) and not part.flags.writeable
            assert np.array_equal(part, whole[:npts])

    @settings(max_examples=40, deadline=None)
    @given(traj=any_paths, pct=st.sampled_from([30, 50, 70, 100]))
    def test_results_do_not_depend_on_the_form(self, bank, traj, pct):
        # A window (a view) against the same points passed in each form.
        try:
            window = truncate_at_progress(traj, pct)
        except WindowTooShortError:
            window = traj
        assume(len(window) >= 4)
        want_inc = increments(window).arrays
        want = feature_summary(window), outcome(window, bank)
        for form in FORMS:
            other = rebuilt(window, form)
            got_inc = increments(other).arrays
            assert all((a == b).all() for a, b in zip(got_inc, want_inc))
            assert (feature_summary(other), outcome(other, bank)) == want


class TestFirstHittingTime:
    def test_first_index_reaching_threshold(self):
        traj = Trajectory("u", (0.0, 1.0, 2.0, 3.0), (0.0, 2.0, 5.0, 9.0))
        assert first_hitting_time(traj, 5.0) == 2.0

    def test_absent_when_never_crossed(self):
        traj = Trajectory("u", (0.0, 1.0, 2.0, 3.0), (0.0, 2.0, 5.0, 9.0))
        assert first_hitting_time(traj, 100.0) is None

    def test_zero_threshold_hits_initial_point(self):
        traj = Trajectory("u", (0.0, 1.0), (0.0, 2.0))
        assert first_hitting_time(traj, 0.0) == 0.0


class TestTruncate:
    def _ramp(self, n):
        return Trajectory(
            "u", tuple(float(t) for t in range(n + 1)), tuple(float(v) for v in range(n + 1))
        )

    def test_keeps_proportional_prefix(self):
        traj = self._ramp(100)
        out = truncate_at_progress(traj, 30)
        assert out.times[-1] == 30.0

    def test_full_percentage_is_identity(self):
        traj = self._ramp(50)
        out = truncate_at_progress(traj, 100)
        assert np.array_equal(out.times, traj.times)

    def test_ceil_rule_small_fht(self):
        # 30% of FHT 10 -> cutoff ceil(3.0) = 3 -> points t = 0, 1, 2, 3.
        traj = self._ramp(10)
        out = truncate_at_progress(traj, 30)
        assert len(out) == 4

    def test_window_too_short(self):
        traj = Trajectory("u", (0.0, 10.0), (0.0, 10.0))
        with pytest.raises(WindowTooShortError):
            truncate_at_progress(traj, 1)

    def test_prefix_nesting_across_percentages(self):
        traj = generate(default_params(SimKind.HOMOG_GAMMA, seed=9)).trajectory
        t30 = truncate_at_progress(traj, 30)
        t70 = truncate_at_progress(traj, 70)
        assert np.array_equal(t70.times[: len(t30)], t30.times)
        assert np.array_equal(t70.values[: len(t30)], t30.values)


class TestSplit:
    def _units(self, n, label="k"):
        return [
            Trajectory(f"u{i}", (0.0, 1.0), (0.0, 1.0), true_model_id=label)
            for i in range(n)
        ]

    def test_exact_proportions_120(self):
        split = split_dataset(self._units(120), seed=1)
        assert (len(split.train), len(split.validation), len(split.test)) == (72, 24, 24)

    def test_exact_proportions_10(self):
        split = split_dataset(self._units(10), seed=1)
        assert (len(split.train), len(split.validation), len(split.test)) == (6, 2, 2)

    def test_deterministic(self):
        trajs = self._units(30)
        a = split_dataset(trajs, seed=7)
        b = split_dataset(trajs, seed=7)
        assert [t.unit_id for t in a.test] == [t.unit_id for t in b.test]

    def test_disjoint_unit_ids(self):
        split = split_dataset(self._units(25), seed=3)
        groups = [
            {t.unit_id for t in split.train},
            {t.unit_id for t in split.validation},
            {t.unit_id for t in split.test},
        ]
        assert not (groups[0] & groups[1] or groups[0] & groups[2] or groups[1] & groups[2])

    def test_stratified_by_label(self):
        trajs = self._units(20, "a") + [
            Trajectory(f"b{i}", (0.0, 1.0), (0.0, 1.0), true_model_id="b")
            for i in range(20)
        ]
        split = split_dataset(trajs, seed=5)
        test_labels = [t.true_model_id for t in split.test]
        assert test_labels.count("a") == 4 and test_labels.count("b") == 4

    def test_too_few_trajectories(self):
        with pytest.raises(ValueError):
            split_dataset(self._units(4), seed=1)


def test_trajectory_file_roundtrip(tmp_path):
    trajs = [
        generate(default_params(SimKind.LINEAR_WIENER, seed=s), unit_id=f"u{s}").trajectory
        for s in range(3)
    ]
    path = tmp_path / "trajs.jsonl"
    save_trajectories(path, trajs)
    loaded = load_trajectories(path)
    assert [t.unit_id for t in loaded] == [t.unit_id for t in trajs]
    assert np.array_equal(loaded[0].values, trajs[0].values)
    assert loaded[0].true_model_id == "linear_wiener"
