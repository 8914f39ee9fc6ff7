"""Maximum-likelihood fitting of the four candidate degradation processes.

All fitters consume increment series.  The Wiener fits are closed-form; the
gamma fits use Newton iteration on the shape score equation; the two
nonlinear kinds profile the time-transform exponent over a bounded grid,
evaluated as row blocks of one exponents-by-increments array, refined by
Brent's method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np
from scipy.special import gammaln, polygamma, psi


def _trigamma(x: np.ndarray) -> np.ndarray:
    """Vectorized trigamma via six recurrence steps + asymptotic series.

    scipy's polygamma(1, .) is ~15x slower than psi on large arrays, which
    would dominate the profile-likelihood Newton solves; this stays within
    1e-12.  Every element takes all six steps, with no mask.  Measured on a
    2-core x86 host (Python 3.11, numpy 2.4, scipy 1.17): 54 us for the
    26 x 50 block of a short window's exponent grid (polygamma 437 us, psi
    16 us) and 233 us for 10,000 elements (polygamma 3.8 ms, psi 242 us).
    """
    z = np.asarray(x, dtype=float)
    # Shift past 6 with psi'(z) = psi'(z+1) + 1/z^2, then the series in 1/z.
    acc = 1.0 / (z * z)
    for _ in range(5):
        z = z + 1.0
        acc += 1.0 / (z * z)
    inv = 1.0 / (z + 1.0)
    inv2 = inv * inv
    return acc + inv * (
        1.0
        + inv
        * (0.5 + inv * (1.0 / 6.0 + inv2 * (-1.0 / 30.0 + inv2 * (1.0 / 42.0 - inv2 / 30.0))))
    )

from .model_space import CandidateModel, Family, Trend
from .simulate import Trajectory, time_transform_at

NEG_INF = float("-inf")

VARIANCE_FLOOR = 1e-12
SHAPE_MAX = 1e6
SHAPE_MIN = 1e-8
BETA_BOUNDS = (0.2, 5.0)
BETA_GRID_SIZE = 25
BETA_TOL = 1e-6
# Largest exponents x increments array one profile block evaluates: short
# windows solve the whole grid at once, 10k-step paths one exponent at a time.
PROFILE_BLOCK = 8192

# The nested linear case beta = 1 is kept exact on the grid.
_BETA_GRID = np.unique(np.append(np.geomspace(*BETA_BOUNDS, BETA_GRID_SIZE), 1.0))
_BETA_ONE = int(np.flatnonzero(_BETA_GRID == 1.0)[0])


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


def _finite_deltas(inc: IncrementSeries) -> np.ndarray:
    """The increments as an array; FitError unless every one is finite."""
    d = np.asarray(inc.deltas)
    if not np.isfinite(d).all():
        raise FitError("increments must be finite")
    return d


def _brent_max(f: Callable[[float], float], a: float, b: float, tol: float) -> tuple[float, float]:
    """Maximizer of f on [a, b] and its value, by Brent's method.

    Parabolic steps through the three best points, with a golden-section step
    whenever the parabola is unsafe (Brent 1973, ch. 5); stops when the
    maximizer is located to within ``tol``.
    """
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    x = w = v = a + golden * (b - a)
    fx = fw = fv = -f(x)
    d = e = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol1 = 1.5e-8 * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            return x, -fx
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                parabolic = True
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if x <= mid else -tol1
        if not parabolic:
            e = (a if x >= mid else b) - x
            d = golden * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = -f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _profile_beta(profile_ll: Callable[[np.ndarray], np.ndarray], n: int) -> float:
    """Maximize a profile log-likelihood over the bounded exponent range.

    ``profile_ll`` maps a vector of exponents to their profile
    log-likelihoods; the grid goes to it in blocks of at most
    ``PROFILE_BLOCK`` exponents x ``n`` increments, each refinement step as
    one exponent.
    """
    rows = max(1, PROFILE_BLOCK // n)
    vals = np.concatenate(
        [profile_ll(_BETA_GRID[k : k + rows]) for k in range(0, _BETA_GRID.size, rows)]
    )
    finite = np.isfinite(vals)
    if not finite.any():
        raise FitError("no exponent on the grid gives a finite profile likelihood")
    vals = np.where(finite, vals, NEG_INF)
    i = int(np.argmax(vals))

    def refine_ll(beta: float) -> float:
        ll = float(profile_ll(np.array([beta]))[0])
        return ll if math.isfinite(ll) else NEG_INF

    a = _BETA_GRID[max(i - 1, 0)]
    b = _BETA_GRID[min(i + 1, _BETA_GRID.size - 1)]
    beta, best = _brent_max(refine_ll, a, b, BETA_TOL)
    # Guard the nested case: never do worse than the grid maximum or beta = 1.
    for j in (i, _BETA_ONE):
        if vals[j] > best:
            beta, best = _BETA_GRID[j], vals[j]
    return float(beta)


def _normal_loglik(resid: np.ndarray, var) -> np.ndarray:
    """Gaussian log-likelihood of each row of residuals (last axis: increments)."""
    n = resid.shape[-1]
    return -0.5 * n * np.log(2.0 * math.pi * var) - 0.5 * (resid * resid).sum(axis=-1) / var


def fit_linear_wiener(inc: IncrementSeries) -> FitResult:
    """Closed-form MLE for Gaussian increments with constant drift."""
    if len(inc) < 3:
        raise FitError("linear Wiener fit needs at least 3 increments")
    d = _finite_deltas(inc)
    m_hat = float(np.mean(d))
    s2 = float(np.mean((d - m_hat) ** 2))
    if s2 < VARIANCE_FLOOR:
        raise DegenerateVarianceError(f"increment variance {s2} below floor")
    ll = float(_normal_loglik(d - m_hat, s2))
    return FitResult(
        model_id="linear_wiener",
        params={"m": m_hat, "s": math.sqrt(s2)},
        loglik=ll,
        k=2,
        converged=True,
        iterations=0,
    )


def _wiener_profile_rows(
    deltas: np.ndarray, steps: np.ndarray, betas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form (drift, variance, loglik) at each exponent in ``betas``."""
    d = time_transform_at(steps, betas[:, None])
    m_hat = (d @ deltas) / (d * d).sum(axis=1)
    resid = deltas - m_hat[:, None] * d
    s2 = (resid * resid).sum(axis=1) / deltas.size
    s2 = np.maximum(s2, VARIANCE_FLOOR)  # noise-free data stays scorable
    return m_hat, s2, _normal_loglik(resid, s2)


def fit_nonlinear_wiener(inc: IncrementSeries) -> FitResult:
    """Profile-likelihood MLE for Gaussian increments with power drift."""
    if len(inc) < 4:
        raise FitError("nonlinear Wiener fit needs at least 4 increments")
    deltas = _finite_deltas(inc)
    steps = np.asarray(inc.step_indices, dtype=float)

    beta_hat = _profile_beta(lambda b: _wiener_profile_rows(deltas, steps, b)[2], len(inc))
    m_hat, s2, ll = (float(v[0]) for v in _wiener_profile_rows(deltas, steps, np.array([beta_hat])))
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


def _gamma_loglik(deltas: np.ndarray, shape: np.ndarray, scale) -> np.ndarray:
    """Gamma log-likelihood of each row of ``shape`` (last axis: increments)."""
    return np.sum(
        (shape - 1.0) * np.log(deltas) - deltas / scale - shape * np.log(scale) - gammaln(shape),
        axis=-1,
    )


def fit_homog_gamma(inc: IncrementSeries) -> FitResult:
    """Newton MLE for i.i.d. gamma increments (shape, scale)."""
    if len(inc) < 3:
        raise FitError("homogeneous gamma fit needs at least 3 increments")
    d = _finite_deltas(inc)
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
    ll = float(_gamma_loglik(d, np.full_like(d, alpha), theta))
    return FitResult(
        model_id="homog_gamma",
        params={"alpha": alpha, "theta": theta},
        loglik=ll,
        k=2,
        converged=converged,
        iterations=iterations,
    )


def _gamma_profile_rows(
    deltas: np.ndarray,
    steps: np.ndarray,
    betas: np.ndarray,
    init: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """MLE of (shape rate, scale) for gamma increments at each exponent in ``betas``.

    The scale is profiled out analytically; the remaining score equation in
    the shape rate is solved for all rows at once by safeguarded Newton
    iteration, a row leaving the loop once its step falls below 1e-10
    (relative).  Returns per-row (shape rate, scale, loglik, iterations,
    converged before the 100-iteration cap).
    """
    d = time_transform_at(steps, betas[:, None])
    sum_d = d.sum(axis=1)
    sum_dlog = d @ np.log(deltas)
    c = deltas.sum() / sum_d  # = alpha * theta at the optimum

    if init is not None:
        alpha = np.asarray(init, dtype=float)
    else:
        # Moment init: slope ~ alpha*theta, residual scale ~ alpha*theta^2.
        a_mom = (d @ deltas) / (d * d).sum(axis=1)
        resid = deltas - a_mom[:, None] * d
        w = (resid * resid).sum(axis=1) / sum_d
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.where(w > 0, a_mom * a_mom / w, SHAPE_MAX)
    alpha = np.clip(alpha, SHAPE_MIN, SHAPE_MAX)

    rows = betas.size
    out_alpha = np.empty(rows)
    iterations = np.full(rows, 100)
    converged = np.zeros(rows, dtype=bool)
    # The loop runs on the rows not yet converged; ``idx`` maps them back.
    idx = np.arange(rows)
    lo, hi = np.full(rows, SHAPE_MIN), np.full(rows, SHAPE_MAX)
    dd, dd2, sd, sdl, cc = d, d * d, sum_d, sum_dlog, c
    # A zero slope gives a non-finite step, which the bracket test rejects.
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, 101):
            shape = alpha[:, None] * dd
            g = sdl - sd * np.log(cc / alpha) - (dd * psi(shape)).sum(axis=1)
            # score decreases in alpha: keep a shrinking root bracket as safeguard
            up = g > 0
            lo = np.where(up, alpha, lo)
            hi = np.where(up, hi, alpha)
            h = sd / alpha - (dd2 * _trigamma(shape)).sum(axis=1)
            nxt = alpha - g / h
            nxt = np.where((lo < nxt) & (nxt < hi), nxt, 0.5 * (lo + hi))
            done = np.abs(nxt - alpha) < 1e-10 * np.maximum(1.0, alpha)
            alpha = nxt
            if done.any():
                out_alpha[idx[done]] = alpha[done]
                iterations[idx[done]] = it
                converged[idx[done]] = True
                keep = ~done
                idx, alpha, lo, hi = idx[keep], alpha[keep], lo[keep], hi[keep]
                dd, dd2, sd, sdl, cc = dd[keep], dd2[keep], sd[keep], sdl[keep], cc[keep]
                if not idx.size:
                    break
    out_alpha[idx] = alpha
    theta = c / out_alpha
    ll = _gamma_loglik(deltas, out_alpha[:, None] * d, theta[:, None])
    return out_alpha, theta, ll, iterations, converged


def _fit_gamma_profile(
    inc: IncrementSeries, beta: float, init: Optional[float] = None
) -> tuple[float, float, float, int, bool]:
    """One-exponent ``_gamma_profile_rows``: (shape rate, scale, loglik, iterations, converged)."""
    rows = _gamma_profile_rows(
        np.asarray(inc.deltas),
        np.asarray(inc.step_indices, dtype=float),
        np.array([beta], dtype=float),
        None if init is None else np.array([init], dtype=float),
    )
    alpha, theta, ll, iterations, converged = (v[0] for v in rows)
    return float(alpha), float(theta), float(ll), int(iterations), bool(converged)


def fit_nonhomog_gamma(inc: IncrementSeries) -> FitResult:
    """Profile-likelihood MLE for gamma increments with power shape rate."""
    if len(inc) < 4:
        raise FitError("non-homogeneous gamma fit needs at least 4 increments")
    deltas = _finite_deltas(inc)
    if np.any(deltas <= 0):
        raise NonPositiveIncrementError("gamma model requires positive increments")
    if math.log(float(np.mean(deltas))) - float(np.mean(np.log(deltas))) <= 0:
        raise FitError("zero-dispersion increments: gamma profile is unbounded")
    steps = np.asarray(inc.step_indices, dtype=float)
    solved_betas: list[float] = []
    solved_alphas: list[float] = []

    def profile_ll(betas: np.ndarray) -> np.ndarray:
        init = None
        if solved_betas:
            # shape varies smoothly with the exponent: start from the rows solved so far
            order = np.argsort(solved_betas)
            init = np.interp(betas, np.take(solved_betas, order), np.take(solved_alphas, order))
        alpha, _, ll, _, _ = _gamma_profile_rows(deltas, steps, betas, init)
        solved_betas.extend(betas)
        solved_alphas.extend(alpha)
        return ll

    beta_hat = _profile_beta(profile_ll, len(inc))
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
        return float(_normal_loglik(deltas - mean, s2))

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
    return float(_gamma_loglik(deltas, shape, params["theta"]))


_FITTERS = {
    (Family.WIENER, Trend.LINEAR): fit_linear_wiener,
    (Family.WIENER, Trend.NONLINEAR): fit_nonlinear_wiener,
    (Family.GAMMA, Trend.LINEAR): fit_homog_gamma,
    (Family.GAMMA, Trend.NONLINEAR): fit_nonhomog_gamma,
}


def fit_model(model: CandidateModel, inc: IncrementSeries) -> FitResult:
    """Dispatch to the fitter matching the model's structural labels."""
    return _FITTERS[(model.family, model.trend)](inc)
