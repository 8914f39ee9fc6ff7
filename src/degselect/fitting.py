"""Maximum-likelihood fitting of the four candidate degradation processes.

All fitters consume increment series.  The Wiener fits are closed-form; the
gamma fits use Newton iteration on the shape score equation; the two
nonlinear kinds profile the time-transform exponent over a bounded grid
refined by golden-section search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np
from scipy.special import gammaln, polygamma, psi


def _trigamma(x: np.ndarray) -> np.ndarray:
    """Vectorized trigamma via recurrence + asymptotic series.

    scipy's polygamma(1, .) is ~30x slower than psi on large arrays, which
    dominates the profile-likelihood Newton solves; this stays within 1e-12.
    """
    x = np.asarray(x, dtype=float)

    def series(z: np.ndarray) -> np.ndarray:
        inv = 1.0 / z
        inv2 = inv * inv
        return inv * (
            1.0
            + inv
            * (0.5 + inv * (1.0 / 6.0 + inv2 * (-1.0 / 30.0 + inv2 * (1.0 / 42.0 - inv2 / 30.0))))
        )

    small = x < 6.0
    if not small.any():
        return series(x)
    out = np.empty_like(x)
    out[~small] = series(x[~small])
    # Shift small arguments past 6 with psi'(z) = psi'(z+1) + 1/z^2.
    z = x[small]
    acc = np.zeros_like(z)
    for _ in range(6):
        acc += 1.0 / (z * z)
        z = z + 1.0
    out[small] = acc + series(z)
    return out

from .model_space import CandidateModel, Family, Trend
from .simulate import Trajectory, time_transform_at

NEG_INF = float("-inf")

VARIANCE_FLOOR = 1e-12
SHAPE_MAX = 1e6
SHAPE_MIN = 1e-8
BETA_BOUNDS = (0.2, 5.0)
BETA_GRID_SIZE = 25
BETA_TOL = 1e-6


class FitError(ValueError):
    """Raised when a fitter cannot produce a usable estimate."""


class DegenerateVarianceError(FitError):
    pass


class NonPositiveIncrementError(FitError):
    """Gamma models are inapplicable to non-positive increments."""


@dataclass(frozen=True)
class IncrementSeries:
    deltas: tuple[float, ...]
    step_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.deltas) != len(self.step_indices):
            raise ValueError("deltas and step_indices must have equal length")
        idx = np.asarray(self.step_indices)
        if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 1):
            raise ValueError("step indices must be positive and strictly increasing")

    def __len__(self) -> int:
        return len(self.deltas)


@dataclass(frozen=True)
class FitResult:
    model_id: str
    params: Mapping[str, float]
    loglik: float
    k: int
    converged: bool
    iterations: int


def increments(traj: Trajectory) -> IncrementSeries:
    """Successive differences of the trajectory, indexed by inspection step."""
    if len(traj) < 2:
        raise ValueError("need at least 2 observations to form increments")
    vals = np.asarray(traj.values)
    idx = tuple(int(round(t)) for t in traj.times[1:])
    return IncrementSeries(
        deltas=tuple(float(d) for d in np.diff(vals)), step_indices=idx
    )


def _golden_max(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Golden-section search for the maximizer of f on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def _profile_beta(profile_ll: Callable[[float], float]) -> float:
    """Maximize a profile log-likelihood over the bounded exponent range."""
    lo, hi = BETA_BOUNDS
    grid = np.geomspace(lo, hi, BETA_GRID_SIZE)
    grid = np.unique(np.append(grid, 1.0))  # keep the nested linear case exact
    vals = np.array([profile_ll(b) for b in grid])
    i = int(np.nanargmax(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    beta = _golden_max(profile_ll, a, b, BETA_TOL)
    # Guard the nested case: never do worse than beta = 1.
    for cand in (grid[i], 1.0):
        if profile_ll(cand) > profile_ll(beta):
            beta = cand
    return float(beta)


def _normal_loglik(deltas: np.ndarray, mean: np.ndarray, var: float) -> float:
    n = deltas.size
    return float(
        -0.5 * n * math.log(2.0 * math.pi * var)
        - 0.5 * np.sum((deltas - mean) ** 2) / var
    )


def fit_linear_wiener(inc: IncrementSeries) -> FitResult:
    """Closed-form MLE for Gaussian increments with constant drift."""
    if len(inc) < 3:
        raise FitError("linear Wiener fit needs at least 3 increments")
    d = np.asarray(inc.deltas)
    m_hat = float(np.mean(d))
    s2 = float(np.mean((d - m_hat) ** 2))
    if s2 < VARIANCE_FLOOR:
        raise DegenerateVarianceError(f"increment variance {s2} below floor")
    ll = _normal_loglik(d, m_hat, s2)
    return FitResult(
        model_id="linear_wiener",
        params={"m": m_hat, "s": math.sqrt(s2)},
        loglik=ll,
        k=2,
        converged=True,
        iterations=0,
    )


def fit_nonlinear_wiener(inc: IncrementSeries) -> FitResult:
    """Profile-likelihood MLE for Gaussian increments with power drift."""
    if len(inc) < 4:
        raise FitError("nonlinear Wiener fit needs at least 4 increments")
    deltas = np.asarray(inc.deltas)

    def closed_form(beta: float) -> tuple[float, float, float]:
        d = time_transform_at(inc.step_indices, beta)
        m_hat = float(np.sum(deltas * d) / np.sum(d * d))
        s2 = float(np.mean((deltas - m_hat * d) ** 2))
        s2 = max(s2, VARIANCE_FLOOR)  # noise-free data stays scorable
        return m_hat, s2, _normal_loglik(deltas, m_hat * d, s2)

    beta_hat = _profile_beta(lambda b: closed_form(b)[2])
    m_hat, s2, ll = closed_form(beta_hat)
    if not math.isfinite(ll):
        raise FitError("non-finite profile likelihood")
    return FitResult(
        model_id="nonlinear_wiener",
        params={"m": m_hat, "s": math.sqrt(s2), "beta": beta_hat},
        loglik=ll,
        k=3,
        converged=True,
        iterations=0,
    )


def _gamma_loglik(deltas: np.ndarray, shape: np.ndarray, scale: float) -> float:
    return float(
        np.sum(
            (shape - 1.0) * np.log(deltas)
            - deltas / scale
            - shape * math.log(scale)
            - gammaln(shape)
        )
    )


def fit_homog_gamma(inc: IncrementSeries) -> FitResult:
    """Newton MLE for i.i.d. gamma increments (shape, scale)."""
    if len(inc) < 3:
        raise FitError("homogeneous gamma fit needs at least 3 increments")
    d = np.asarray(inc.deltas)
    if np.any(d <= 0):
        raise NonPositiveIncrementError("gamma model requires positive increments")
    mean = float(np.mean(d))
    s = math.log(mean) - float(np.mean(np.log(d)))
    converged = False
    iterations = 0
    if s <= 0:
        alpha = SHAPE_MAX  # zero-dispersion limit: all increments (numerically) equal
    else:
        # Moment-matched closed-form initializer for the shape equation.
        alpha = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
        for iterations in range(1, 101):
            g = math.log(alpha) - psi(alpha) - s
            h = 1.0 / alpha - polygamma(1, alpha)
            step = g / h
            alpha = min(max(alpha - step, SHAPE_MIN), SHAPE_MAX)
            if abs(step) < 1e-10:
                converged = True
                break
    theta = mean / alpha
    ll = _gamma_loglik(d, np.full_like(d, alpha), theta)
    return FitResult(
        model_id="homog_gamma",
        params={"alpha": alpha, "theta": theta},
        loglik=ll,
        k=2,
        converged=converged,
        iterations=iterations,
    )


def _fit_gamma_profile(
    inc: IncrementSeries, beta: float, init: Optional[float] = None
) -> tuple[float, float, float, int, bool]:
    """MLE of (shape rate, scale) for gamma increments at a fixed exponent.

    The scale is profiled out analytically; the remaining score equation in
    the shape rate is solved by safeguarded Newton iteration.  Returns
    (shape rate, scale, loglik, iterations, converged before the cap).
    """
    deltas = np.asarray(inc.deltas)
    d = time_transform_at(inc.step_indices, beta)
    sum_d = float(np.sum(d))
    sum_dlog = float(np.sum(d * np.log(deltas)))
    c = float(np.sum(deltas)) / sum_d  # = alpha * theta at the optimum

    def score(a: float) -> float:
        return sum_dlog - sum_d * math.log(c / a) - float(np.sum(d * psi(a * d)))

    def dscore(a: float) -> float:
        return sum_d / a - float(np.sum(d * d * _trigamma(a * d)))

    if init is not None:
        alpha = init
    else:
        # Moment init: slope ~ alpha*theta, residual scale ~ alpha*theta^2.
        a_mom = float(np.sum(deltas * d) / np.sum(d * d))
        w = float(np.sum((deltas - a_mom * d) ** 2) / sum_d)
        alpha = a_mom * a_mom / w if w > 0 else SHAPE_MAX
    alpha = min(max(alpha, SHAPE_MIN), SHAPE_MAX)

    lo, hi = SHAPE_MIN, SHAPE_MAX
    converged = False
    for iterations in range(1, 101):
        g = score(alpha)
        # score decreases in alpha: keep a shrinking root bracket as safeguard
        if g > 0:
            lo = alpha
        else:
            hi = alpha
        h = dscore(alpha)
        nxt = alpha - g / h if h != 0 else 0.5 * (lo + hi)
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        if abs(nxt - alpha) < 1e-10 * max(1.0, alpha):
            alpha, converged = nxt, True
            break
        alpha = nxt
    theta = c / alpha
    return alpha, theta, _gamma_loglik(deltas, alpha * d, theta), iterations, converged


def fit_nonhomog_gamma(inc: IncrementSeries) -> FitResult:
    """Profile-likelihood MLE for gamma increments with power shape rate."""
    if len(inc) < 4:
        raise FitError("non-homogeneous gamma fit needs at least 4 increments")
    deltas = np.asarray(inc.deltas)
    if np.any(deltas <= 0):
        raise NonPositiveIncrementError("gamma model requires positive increments")
    if math.log(float(np.mean(deltas))) - float(np.mean(np.log(deltas))) <= 0:
        raise FitError("zero-dispersion increments: gamma profile is unbounded")

    warm: dict[str, Optional[float]] = {"alpha": None}

    def profile_ll(beta: float) -> float:
        alpha, _, ll, _, _ = _fit_gamma_profile(inc, beta, init=warm["alpha"])
        warm["alpha"] = alpha  # shape varies smoothly with the exponent
        return ll

    beta_hat = _profile_beta(profile_ll)
    alpha, theta, ll, iterations, converged = _fit_gamma_profile(inc, beta_hat)
    if not math.isfinite(ll):
        raise FitError("non-finite profile likelihood")
    return FitResult(
        model_id="nonhomog_gamma",
        params={"alpha": alpha, "theta": theta, "beta": beta_hat},
        loglik=ll,
        k=3,
        converged=converged,
        iterations=iterations,
    )


def loglik(model: CandidateModel, params: Mapping[str, float], inc: IncrementSeries) -> float:
    """Sum of per-increment log densities; -inf when gamma is inapplicable."""
    deltas = np.asarray(inc.deltas)
    if model.family is Family.WIENER:
        if "m" not in params or "s" not in params:
            raise ValueError(f"Wiener params need m and s, got {dict(params)}")
        s2 = params["s"] ** 2
        if model.trend is Trend.NONLINEAR:
            if "beta" not in params:
                raise ValueError("nonlinear Wiener params need beta")
            mean = params["m"] * time_transform_at(inc.step_indices, params["beta"])
        else:
            mean = np.full_like(deltas, params["m"])
        return _normal_loglik(deltas, mean, s2)

    if "alpha" not in params or "theta" not in params:
        raise ValueError(f"gamma params need alpha and theta, got {dict(params)}")
    if np.any(deltas <= 0):
        return NEG_INF
    if model.trend is Trend.NONLINEAR:
        if "beta" not in params:
            raise ValueError("non-homogeneous gamma params need beta")
        shape = params["alpha"] * time_transform_at(inc.step_indices, params["beta"])
    else:
        shape = np.full_like(deltas, params["alpha"])
    return _gamma_loglik(deltas, shape, params["theta"])


_FITTERS = {
    (Family.WIENER, Trend.LINEAR): fit_linear_wiener,
    (Family.WIENER, Trend.NONLINEAR): fit_nonlinear_wiener,
    (Family.GAMMA, Trend.LINEAR): fit_homog_gamma,
    (Family.GAMMA, Trend.NONLINEAR): fit_nonhomog_gamma,
}


def fit_model(model: CandidateModel, inc: IncrementSeries) -> FitResult:
    """Dispatch to the fitter matching the model's structural labels."""
    return _FITTERS[(model.family, model.trend)](inc)
