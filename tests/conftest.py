import os
from contextlib import ExitStack, contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from degselect.evidence import default_bank
from degselect.model_space import default_case_sets
from degselect.simulate import (
    SimKind,
    Trajectory,
    default_params,
    generate,
    truncate_at_progress,
)

# CI sets HYPOTHESIS_PROFILE=ci: the same examples on every run, so a property
# with a float tolerance cannot pass on one run and fail on the next.
settings.register_profile("ci", derandomize=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def case_sets():
    return default_case_sets()


@pytest.fixture(scope="session")
def case1_set(case_sets):
    return case_sets[0]


@pytest.fixture(scope="session")
def case2_set(case_sets):
    return case_sets[1]


@pytest.fixture(scope="session")
def bank():
    return default_bank()


def make_path(kind: SimKind, seed: int = 7, n_percent: int | None = None, **kw):
    """Run-to-failure trajectory with shipped defaults, optionally truncated."""
    result = generate(default_params(kind, seed=seed, **kw), unit_id=f"{kind.value}-{seed}")
    assert not result.censored
    traj = result.trajectory
    if n_percent is not None:
        traj = truncate_at_progress(traj, n_percent)
    return traj


@pytest.fixture(scope="session")
def gamma_path():
    return make_path(SimKind.HOMOG_GAMMA, seed=11)


@pytest.fixture(scope="session")
def wiener_path():
    return make_path(SimKind.LINEAR_WIENER, seed=11)


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
def shape_paths(draw):
    """3-300 points for the feature pass: mixed-sign steps, flat runs (or a
    wholly flat path), values that may be zero or negative, and times that
    start at 0 or after it, on a unit or an irregular grid."""
    n = draw(st.integers(3, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    deltas = rng.normal(draw(st.floats(-1.0, 2.0)), draw(st.floats(0.0, 2.0)), size=n - 1)
    flat_share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    deltas[rng.random(n - 1) < flat_share] = 0.0
    values = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(deltas)])
    start = draw(st.sampled_from([0.0, 0.5, 3.0]))
    if draw(st.booleans()):
        times = start + np.arange(n, dtype=float)
    else:
        times = start + np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 4.0, size=n - 1))])
    return Trajectory("shape", tuple(times.tolist()), tuple(values.tolist()))


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
