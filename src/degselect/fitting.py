"""Maximum-likelihood fitting of the four candidate degradation processes.

All fitters consume increments over their real inspection intervals.  There
is one kernel per family, which fits at given exponents of the time transform
d_j = t_j^beta - t_{j-1}^beta: the Wiener kernel is closed-form, the gamma
kernel solves the shape score equation by one Newton step, then secant
steps.  What depends only on the series is done once per series
(``_SeriesTerms``): the time stamps and their logarithms, and the
increments' logarithms; a kernel row takes t^beta once per stamp.  The
linear fits are these kernels at the fixed exponent 1, where
d_j = t_j - t_{j-1}.  The two nonlinear fits profile the exponent on
[0.2, 5], evaluated as row blocks of one exponents-by-increments array,
from a grid that holds 1.  Both kernels
return the profile's slope in the exponent with its value, and both fits
find the exponent at a zero of that slope by one search (``_search``): from
the best exponent evaluated, it steps the way the slope points, asking for a
block of grid exponents at a time, to a grid interval over which the slope
changes sign, and there runs Brent's zero finder (an interval where it does
not is searched as a finer grid).  The fits differ only in grid and block:
the Wiener fit, whose profile may have several maxima, evaluates all 25
grid points at once; the gamma fit walks every 4th grid point out from 1,
``PROFILE_BLOCK // n`` points at a time.  Each fitter
also fits several training subsets of one series at once, as rows of a mask
over its increments; ``fit_folds`` fits the cross-validation folds so, every
fold's search in lockstep with the others.  Given the whole-series
non-homogeneous gamma fit, a start within a few percent of every fold's
optimum, ``fit_folds`` solves that model's folds instead by Newton's method
on the joint log-likelihood in (ln alpha, beta), all folds at once
(``_seeded_nonhomog_gamma_rows``); a fold that solve cannot finish gets
its profile-search fit.

At each profiled exponent the non-homogeneous gamma fit solves the score
equation of the shape rate alpha in 1/alpha, in which the equation is nearly
linear (Minka 2002, "Estimating a Gamma distribution"): with a_j = alpha*d_j,
its slope is sum_j a_j^2 (psi'(a_j) - 1/a_j), and each term lies in
(1/2, 1), so the slope lies in (n/2, n) for n increments.  One Newton step,
then secant steps through the last two iterates, converge from a start far
off on either side in a few steps, and evaluate trigamma once per solve.
Each solve is warm-started from the rates already solved for the same
problem (``_warm_start``).  The fit at the chosen exponent is the search's
own row there: its iterations and converged flag describe that solve.
This solve and the joint Newton solve read the gamma log-likelihood, its
score and its derivatives from one set of terms (``_GammaTerms``), which
holds the sums that do not depend on alpha.  Above ``PROFILE_BLOCK // 2``
increments a whole-series search's first row, at beta = 1, is the
homogeneous fit's solve, made once per series for both.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Generator, Mapping, Optional

import numpy as np
from scipy.special import gammaln, psi

from .model_space import CandidateModel, Family, Trend
from .simulate import Trajectory, time_transform


def _trigamma(x: np.ndarray) -> np.ndarray:
    """Vectorized trigamma via six recurrence steps + asymptotic series.

    scipy's polygamma(1, .) is ~15x slower than psi on large arrays; this
    stays within 1e-12.  Its one caller, ``_GammaTerms.score``, runs it once
    per shape-rate solve, for the first (Newton) step, whose later steps are
    secant steps, and once per evaluation of the joint Newton solve, for its
    Hessian.  Every element takes all six steps, with no mask.  Measured on
    a 2-core x86 host (Python 3.11, numpy 2.4, scipy 1.17): 39 us for the
    7 x 50 block of a short window's gamma exponent grid (polygamma 131 us,
    psi 7 us) and 278 us for 10,000 elements (polygamma 3.8 ms, psi 225 us).
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


NEG_INF = float("-inf")

VARIANCE_FLOOR = 1e-12
DISPERSION_FLOOR = 1e-12  # a gamma dispersion s at or below: rounding; 1/(2s) > SHAPE_MAX
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


class FitError(ValueError):
    """Raised when a fitter cannot produce a usable estimate."""


class DegenerateVarianceError(FitError):
    pass


class NonPositiveIncrementError(FitError):
    """Gamma models are inapplicable to non-positive increments."""


class IncrementSeries:
    """Increment j is the change over the interval (starts[j], ends[j]]; the
    intervals are non-empty, in time order, and may leave gaps between them.

    Held as float arrays, ``arrays``: an array passed in is held, not copied.
    ``deltas``, ``starts`` and ``ends`` read them back as tuples.  Series
    with equal arrays are equal and hash alike.
    """

    def __init__(self, deltas, starts, ends) -> None:
        x, t0, t1 = (np.asarray(v, dtype=float) for v in (deltas, starts, ends))
        if not (x.size == t0.size == t1.size and np.all(t0 < t1) and np.all(t1[:-1] <= t0[1:])):
            raise ValueError("need one non-empty interval per increment, in time order")
        self.arrays = x, t0, t1

    deltas = property(lambda self: tuple(self.arrays[0].tolist()))
    starts = property(lambda self: tuple(self.arrays[1].tolist()))
    ends = property(lambda self: tuple(self.arrays[2].tolist()))

    @cached_property
    def _terms(self) -> "_SeriesTerms":
        """What the kernels read of the series, computed at the first fit."""
        return _SeriesTerms(*self.arrays)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IncrementSeries):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.arrays, other.arrays))

    def __hash__(self) -> int:
        return hash(tuple((a + 0.0).tobytes() for a in self.arrays))  # + 0.0: -0.0 == 0.0

    def __len__(self) -> int:
        return self.arrays[0].size

    def __repr__(self) -> str:
        return f"IncrementSeries(<{len(self)} increments>)"


class _SeriesTerms:
    """The work on one increment series that every kernel call reads, done once.

    The stamps are the interval ends in time order: where the intervals
    abut, as they do for ``increments(traj)``, each shared end once (the
    trajectory's times); else each interval's own two ends.  A kernel row
    takes t^beta once per stamp; d_j = t1_j^beta -
    t0_j^beta, ``time_transform``'s formula, and its derivative in the
    exponent d'_j = t1_j^beta ln t1_j - t0_j^beta ln t0_j are differences of
    the stamps' t^beta and t^beta ln t (``transform``).  ln t is 0 at t <= 0,
    so t^beta ln t is 0 at t = 0 (and, unused by any fit, at t < 0).  ln t
    and ln x are taken at their first use: every kernel row reads ln t, and
    only gamma fits, on positive increments, read ln x.
    """

    def __init__(self, deltas: np.ndarray, t0: np.ndarray, t1: np.ndarray) -> None:
        self.deltas, self.t0, self.t1 = deltas, t0, t1
        if np.array_equal(t1[:-1], t0[1:]):
            self.stamps, self._step = np.concatenate([t0[:1], t1]), 1
        else:
            self.stamps, self._step = np.column_stack([t0, t1]).ravel(), 2

    @cached_property
    def log_t(self) -> np.ndarray:
        return np.log(self.stamps, out=np.zeros_like(self.stamps), where=self.stamps > 0)

    @cached_property
    def log_x(self) -> np.ndarray:
        return np.log(self.deltas)

    @cached_property
    def homog_gamma(self) -> tuple:
        """The homogeneous gamma solve of the whole series, ``_homog_gamma_solve``'s
        output: made once, and read by both gamma fits."""
        return _homog_gamma_solve(self, None)

    def _between(self, at_stamps: np.ndarray) -> np.ndarray:
        """Per row of a value per stamp, each interval's end value minus its
        start value.  Of slices, so C-ordered, and the kernels' dot products
        sum in the order they do on a fresh array (a fancy-index gather is
        Fortran-ordered, and moved the last bits of gamma fits)."""
        step = self._step
        return at_stamps[:, 1::step] - at_stamps[:, :-1:step]

    def transform(self, betas: np.ndarray, slope: bool = False):
        """d (exponents x increments) at each exponent of ``betas``; with
        ``slope``, the pair (d, d')."""
        powers = self.stamps ** betas[:, None]
        d = self._between(powers)
        return (d, self._between(powers * self.log_t)) if slope else d

    def curvature(self, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(d, d', d'') at each exponent of ``betas``, from one power per stamp:
        d''_j = t1_j^beta ln^2 t1_j - t0_j^beta ln^2 t0_j."""
        powers = self.stamps ** betas[:, None]
        slope = powers * self.log_t
        return self._between(powers), self._between(slope), self._between(slope * self.log_t)


@dataclass(frozen=True)
class FitResult:
    params: Mapping[str, float]
    loglik: float
    converged: bool
    iterations: int


def increments(traj: Trajectory) -> IncrementSeries:
    """Successive differences of the trajectory, each over its inspection interval."""
    times = traj.times
    return IncrementSeries(np.diff(traj.values), times[:-1], times[1:])


def _block_rows(n: int) -> int:
    """Profile rows of ``n`` increments that fit in one ``PROFILE_BLOCK``, at least 1."""
    return max(1, PROFILE_BLOCK // n)


def _brent_zero(
    a: float, b: float, fa: float, fb: float, tol: float
) -> Generator[float, float, None]:
    """Search for a zero of a function that changes sign on [a, b], by Brent's method.

    Inverse quadratic and secant steps, with a bisection step whenever they
    are unsafe (Brent 1973, ch. 4, ``zeroin``); ``fa`` and ``fb`` are the
    function's values at the ends.  Stops when the zero is located to within
    ``tol``.  A coroutine: it yields each abscissa to evaluate and is sent
    the function's value there.
    """
    eps = np.finfo(float).eps
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * eps * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = yield b
        if fb * math.copysign(1.0, fc) > 0.0:
            c, fc = a, fa
            d = e = b - a


def _one_at_a_time(search: Generator[float, float, None]):
    """Run a search that asks for one abscissa at a time as a profile search,
    sending it the profile's slope at each."""
    x = next(search)
    while True:
        out = yield np.array([x])
        try:
            x = search.send(float(out[1][0]))
        except StopIteration:
            return


def _search(grid: np.ndarray, block: int, known: Optional[dict] = None):
    """Profile search on ``grid``, asking for up to ``block`` exponents at a time.

    ``known`` maps exponents already evaluated to their profile
    log-likelihood and slope.  The first block is the exponents nearest the
    grid's exponent 1 (on a finer grid, its exponent nearest 1), nearest
    first.  Then, from the best exponent evaluated: where its value or slope
    is not finite, the rest of the grid; else the grid interval its slope
    points into, asking for the block from there on in that direction while
    the far end is not evaluated.  Where the slope changes sign over the
    interval, Brent's zero finder on the slope there.  Where it does not,
    the profile rises from the best exponent into an interval whose far end
    is no higher, so a maximum lies inside: that interval is searched in
    turn, as a grid of 5 exponents, down to ``BETA_TOL``.  Where the slope
    at the best is 0 or NaN, or points out of ``grid``, the best exponent
    stands.
    """
    got = dict(known or {})
    at = grid.tolist()
    one = int(np.abs(grid - 1.0).argmin())
    ask = sorted((k for k, b in enumerate(at) if b not in got), key=lambda k: abs(k - one))[:block]
    while True:
        if ask:
            out = yield grid[ask]
            got.update(zip((at[k] for k in ask), zip(out[0].tolist(), out[1].tolist())))
        # An exponent not evaluated yet counts as -inf.
        vals, slope = np.array([got.get(b, (NEG_INF, math.nan)) for b in at]).T
        i = int(vals.argmax())
        rest = [k for k, b in enumerate(at) if b not in got]
        if rest and not (vals[i] > NEG_INF and math.isfinite(slope[i])):
            ask = rest
            continue
        step = 1 if slope[i] > 0.0 else -1
        j = i + step
        if not (vals[i] > NEG_INF and 0 <= j < grid.size and slope[i] * step > 0.0):
            return
        if j not in rest:
            break
        ask = [k for k in range(j, j + step * block, step) if k in rest]
    if slope[j] * step < 0.0:
        yield from _one_at_a_time(_brent_zero(grid[i], grid[j], slope[i], slope[j], BETA_TOL))
    elif slope[j] * step >= 0.0 and abs(grid[j] - grid[i]) > BETA_TOL:  # not NaN
        yield from _search(np.linspace(*sorted((grid[i], grid[j])), 5), block, got)


def _profile_beta(profile: Callable, searches: list, n: int) -> np.ndarray:
    """Maximize one profile log-likelihood per search over the exponent, in lockstep.

    A search is a coroutine: it yields an array of exponents to evaluate, is
    sent the profile's outputs at them, and returns when done.
    ``profile(rows, betas)`` maps problem indices and exponents, one pair per
    row, to the two per-row outputs the search reads: the profile
    log-likelihoods and their slopes in the exponent.  Each step evaluates
    what every search still running asks for, in blocks of at most
    ``PROFILE_BLOCK`` rows x ``n`` increments.  Returns each problem's
    exponent of highest finite profile likelihood among those evaluated (the
    first in a step, the later on a tie between steps): NaN where none is
    finite.
    """
    per_block = _block_rows(n)
    beta, best = np.full(len(searches), math.nan), np.full(len(searches), NEG_INF)
    pending = {p: next(search) for p, search in enumerate(searches)}
    while pending:
        asked = list(pending.values())
        rows = np.repeat(list(pending), [a.size for a in asked])
        betas = np.concatenate(asked)
        blocks = [
            profile(rows[k : k + per_block], betas[k : k + per_block])
            for k in range(0, rows.size, per_block)
        ]
        outs = [np.concatenate(v) for v in zip(*blocks)]
        outs[0] = np.where(np.isfinite(outs[0]), outs[0], NEG_INF)
        stepped, start = {}, 0
        for p, at in zip(pending, asked):
            mine = tuple(v[start : start + at.size] for v in outs)
            start += at.size
            i = int(mine[0].argmax())
            if mine[0][i] > NEG_INF and mine[0][i] >= best[p]:
                beta[p], best[p] = at[i], mine[0][i]
            try:
                stepped[p] = searches[p].send(mine)
            except StopIteration:
                pass
        pending = stepped
    return beta


def _masked(x: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
    """``x`` with each row's held-out columns zeroed; ``mask`` None holds none out."""
    return x if mask is None else x * mask


def _counts(n: int, mask: Optional[np.ndarray]):
    """Training increments per row: ``n``, or each mask row's sum."""
    return n if mask is None else mask.sum(axis=1)


def _problems(mask: Optional[np.ndarray]) -> int:
    """Rows fitted at once: one per mask row, or one for the whole series."""
    return 1 if mask is None else mask.shape[0]


def _take(mask: Optional[np.ndarray], rows: np.ndarray) -> Optional[np.ndarray]:
    return None if mask is None else mask[rows]


def _normal_loglik(sum_sq, var, n):
    """Gaussian log-likelihood at variance ``var`` of ``n`` residuals whose
    squares sum to ``sum_sq``."""
    return -0.5 * n * np.log(2.0 * math.pi * var) - 0.5 * sum_sq / var


def _profile_failure(beta: float, ll: float) -> Optional[FitError]:
    if math.isnan(beta):
        return FitError("no exponent on the grid gives a finite profile likelihood")
    if not math.isfinite(ll):
        return FitError("non-finite profile likelihood")
    return None


def _solved(beta: np.ndarray) -> np.ndarray:
    """The exponents to evaluate fits at; a failed row (NaN) takes beta = 1."""
    return np.where(np.isnan(beta), 1.0, beta)


def _linear_wiener_rows(series: _SeriesTerms, mask) -> list:
    m_hat, s2, ll, _ = _wiener_profile_rows(series, np.ones(_problems(mask)), mask)
    return [
        # The kernel floors the variance, so a row at the floor had variance
        # at or below it.
        DegenerateVarianceError(f"increment variance at or below floor {VARIANCE_FLOOR}")
        if v <= VARIANCE_FLOOR
        else FitResult({"m": float(m), "s": math.sqrt(v)}, float(l), True, 0)
        for m, v, l in zip(m_hat, s2, ll)
    ]


def _drift(deltas: np.ndarray, d: np.ndarray, mask) -> tuple:
    """Per row of the masked ``d``, the least-squares drift m of ``deltas`` on
    d, the masked residuals x_j - m d_j and the sum of their squares."""
    m_hat = (d @ deltas) / (d * d).sum(axis=1)
    resid = _masked(deltas - m_hat[:, None] * d, mask)
    return m_hat, resid, (resid * resid).sum(axis=1)


def _wiener_profile_rows(
    series: _SeriesTerms, betas: np.ndarray, mask: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form (drift, variance, loglik, slope in beta) of ``series`` at
    each exponent in ``betas``.  ``mask`` (rows x increments, 1 = training)
    fits each row to its own training increments.

    By the envelope theorem the profile loglik's slope in the exponent is its
    partial derivative at the fitted (m, s^2): m * sum_j r_j d'_j / s^2, with
    residuals r_j = x_j - m d_j and d'_j = dd_j/dbeta.
    """
    deltas = series.deltas
    d, d_beta = series.transform(betas, slope=True)
    count = _counts(deltas.size, mask)
    m_hat, resid, sum_sq = _drift(deltas, _masked(d, mask), mask)
    s2 = np.maximum(sum_sq / count, VARIANCE_FLOOR)  # noise-free data stays scorable
    slope = m_hat * np.einsum("ij,ij->i", resid, d_beta) / s2
    return m_hat, s2, _normal_loglik(sum_sq, s2, count), slope


def _nonlinear_wiener_rows(series: _SeriesTerms, mask) -> list:
    beta = _profile_beta(
        lambda rows, b: _wiener_profile_rows(series, b, _take(mask, rows))[2:],
        [_search(_BETA_GRID, _BETA_GRID.size) for _ in range(_problems(mask))],
        series.deltas.size,
    )
    m_hat, s2, ll, _ = _wiener_profile_rows(series, _solved(beta), mask)
    return [
        _profile_failure(b, l)
        or FitResult({"m": float(m), "s": math.sqrt(v), "beta": float(b)}, float(l), True, 0)
        for b, m, v, l in zip(beta, m_hat, s2, ll)
    ]


def _gamma_loglik(
    deltas: np.ndarray, shape: np.ndarray, scale, mask=None, log_x=None
) -> np.ndarray:
    """Gamma log-likelihood of each row of ``shape`` (last axis: increments);
    ``log_x``, when given, is ln ``deltas``."""
    log_x = np.log(deltas) if log_x is None else log_x
    terms = (shape - 1.0) * log_x - deltas / scale - shape * np.log(scale) - gammaln(shape)
    return _masked(terms, mask).sum(axis=-1)


class _GammaTerms:
    """The gamma log-likelihood of rows of increments, each at its own
    exponent, with shape alpha d_j and the scale theta profiled out, and its
    derivatives: the one place both gamma solves form them.

    Built once per set of rows from the masked d and d' (and d'', for the
    second derivatives in beta), the training ``mask`` (None: every increment
    trains) and each row's training sum ``total``, it holds the sums that do
    not depend on alpha.  Over each row's training increments, D = sum d_j,
    L = sum d_j ln x_j and c = total / D, so that theta = c / alpha at the
    optimum; primes are derivatives in beta.  With psi and psi' at alpha d_j:
    g_alpha = L - D ln theta - sum d_j psi, the score in alpha;
    g_beta = alpha (L' - D' ln theta - sum d'_j psi), the slope in beta;
    H_alpha_alpha = D / alpha - sum d_j^2 psi';
    H_alpha_beta = L' - D' ln theta + D' - sum d'_j psi - alpha sum d_j d'_j psi';
    H_beta_beta = alpha (L'' - D'' ln theta + D'^2 / D - sum d''_j psi
    - alpha sum d'_j^2 psi').
    Held-out columns see shape 1 with weight 0: finite psi, psi' and gammaln.
    """

    def __init__(self, series: _SeriesTerms, d, d1, mask, total, d2=None) -> None:
        self.series, self.mask, self.d, self.d1, self.d2 = series, mask, d, d1, d2
        self.D, self.D1 = d.sum(axis=1), d1.sum(axis=1)
        self.L, self.L1 = d @ series.log_x, d1 @ series.log_x
        self.c = total / self.D

    @cached_property
    def hole(self) -> np.ndarray:
        """1 at each held-out column: the shape it reads."""
        return np.zeros((self.d.shape[0], 1)) if self.mask is None else 1.0 - self.mask

    def shape(self, alpha: np.ndarray) -> np.ndarray:
        """The gamma shape alpha d_j of each row's increments (1 where held out)."""
        return alpha[:, None] * self.d + self.hole

    def score(self, alpha: np.ndarray, shape: np.ndarray, curvature: bool = False) -> list:
        """[g_alpha, g_beta] at each row's ``alpha``, whose ``shape`` is
        ``self.shape(alpha)``; with ``curvature``, then H_alpha_alpha and,
        given d'', H_alpha_beta and H_beta_beta."""
        d, d1, d2 = self.d, self.d1, self.d2
        digamma, log_theta = psi(shape), np.log(self.c / alpha)
        partial = self.L1 - self.D1 * log_theta - (d1 * digamma).sum(axis=1)
        out = [self.L - self.D * log_theta - (d * digamma).sum(axis=1), alpha * partial]
        if curvature:
            trigamma = _trigamma(shape)
            out.append(self.D / alpha - (d * d * trigamma).sum(axis=1))
        if curvature and d2 is not None:
            out.append(partial + self.D1 - alpha * (d * d1 * trigamma).sum(axis=1))
            inner = d2 @ self.series.log_x - d2.sum(axis=1) * log_theta + self.D1 * self.D1 / self.D
            inner -= (d2 * digamma).sum(axis=1)
            out.append(alpha * (inner - alpha * (d1 * d1 * trigamma).sum(axis=1)))
        return out

    def loglik(self, alpha: np.ndarray, shape: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(theta, loglik) of each row at its ``alpha``, whose ``shape`` is
        ``self.shape(alpha)``; theta = c / alpha."""
        theta, series = self.c / alpha, self.series
        return theta, _gamma_loglik(series.deltas, shape, theta[:, None], self.mask, series.log_x)

    def take(self, rows: np.ndarray) -> "_GammaTerms":
        """These terms of ``rows`` only, as row indices or a row mask."""
        out = copy.copy(self)
        vars(out).update((k, v[rows]) for k, v in vars(self).items() if isinstance(v, np.ndarray))
        return out


def _homog_gamma_solve(series: _SeriesTerms, mask) -> tuple[np.ndarray, tuple]:
    """Which rows are flat, and the gamma kernel's solve at exponent 1 from
    the homogeneous fit's closed-form start."""
    # Dispersion s = log(sum x / sum dt) - sum dt log(x / dt) / sum dt >= 0 of the
    # training increments x over intervals dt; 0, a flat row, when x is ~ dt.
    deltas = series.deltas
    dt = time_transform(series.t0, series.t1, 1.0)
    w = _masked(dt[None, :], mask)
    total = w.sum(axis=1)
    mean_log = (w * (series.log_x - np.log(dt))).sum(axis=1) / total
    s = np.log(_masked(deltas[None, :], mask).sum(axis=1) / total) - mean_log
    flat = s <= DISPERSION_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        # Moment-matched closed-form start for log(a) - psi(a) = s, the shape a
        # over the mean interval; a flat row starts, and stays, at the shape cap.
        init = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
        init /= total / _counts(deltas.size, mask)
    init[flat] = SHAPE_MAX
    return flat, _gamma_profile_rows(series, np.ones(s.size), init, mask)


def _inside(alpha: float, converged) -> bool:
    """Whether a solve that stopped at shape rate ``alpha`` found a root.  A
    row whose root lies beyond SHAPE_MIN or SHAPE_MAX stops at that bound, or
    within its step tolerance 1e-10 * max(1, alpha) of it, as if converged."""
    tol = 1e-10 * max(1.0, alpha)
    return bool(converged) and SHAPE_MIN + tol < alpha < SHAPE_MAX - tol


def _homog_gamma_rows(series: _SeriesTerms, mask) -> list:
    flat, out = series.homog_gamma if mask is None else _homog_gamma_solve(series, mask)
    alpha, theta, ll, iterations, converged, _ = out
    return [
        FitResult(
            {"alpha": float(a), "theta": float(t)}, float(l), _inside(a, c), 0 if f else int(i)
        )
        for a, t, l, i, c, f in zip(alpha, theta, ll, iterations, converged, flat)
    ]


def _gamma_profile_rows(
    series: _SeriesTerms,
    betas: np.ndarray,
    init: Optional[np.ndarray] = None,
    mask: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """MLE of (shape rate, scale) of the gamma increments ``series``, per exponent in ``betas``.

    The scale is profiled out analytically; the remaining score equation in
    the shape rate alpha is solved for all rows at once in 1/alpha, where the
    score's slope lies in (n/2, n) for n training increments (Minka 2002).
    The first step is Newton's, the one trigamma evaluation; every later one
    is a secant step through the last two iterates.  A row leaves the loop
    once its step falls below 1e-10 * max(1, alpha).  A step outside the
    shrinking root bracket bisects it instead; the bracket includes its
    ends, so a step landing on an end, as one does where the score is
    exactly 0, is kept.  A row starts from ``init`` or, where that is None
    or NaN, from a moment estimate.  ``mask`` (rows x increments,
    1 = training) fits each row to its own training increments.

    Each row also gets the profile loglik's slope in the exponent.  By the
    envelope theorem it is the partial derivative g_beta at the solved
    (alpha, theta) (``_GammaTerms``, whose score and loglik the solve
    evaluates); a row's slope is extrapolated from its last two iterates to
    the rate it returns.  Returns
    per-row (shape rate, scale, loglik, iterations, converged before the
    100-iteration cap, slope in beta).
    """
    deltas = series.deltas
    d, d_beta = (_masked(v, mask) for v in series.transform(betas, slope=True))
    total = deltas.sum() if mask is None else mask @ deltas
    terms = full = _GammaTerms(series, d, d_beta, mask, total)

    alpha = np.full(betas.size, math.nan) if init is None else np.asarray(init, dtype=float)
    fresh = np.isnan(alpha)
    if fresh.any():
        # Moment init: slope ~ alpha*theta, residual scale ~ alpha*theta^2.
        a_mom, _, sum_sq = _drift(deltas, d, mask)
        w = sum_sq / full.D
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.where(fresh, np.where(w > 0, a_mom * a_mom / w, SHAPE_MAX), alpha)
    alpha = np.clip(alpha, SHAPE_MIN, SHAPE_MAX)

    rows = betas.size
    out_alpha, out_slope = np.empty(rows), np.empty(rows)
    iterations, converged = np.full(rows, 100), np.zeros(rows, dtype=bool)
    # The loop runs on the rows not yet converged; ``idx`` maps them back.
    idx, lo, hi = np.arange(rows), np.full(rows, SHAPE_MIN), np.full(rows, SHAPE_MAX)
    # A zero or NaN slope gives a step to 0 or NaN, which the bracket test
    # rejects.
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, 101):
            # The first iteration also reads H_alpha_alpha: the solve's one trigamma.
            g, s, *h = terms.score(alpha, terms.shape(alpha), curvature=it == 1)
            # score decreases in alpha: keep a shrinking root bracket as safeguard
            up = g > 0
            lo, hi = np.where(up, alpha, lo), np.where(up, hi, alpha)
            if it == 1:
                # One Newton step in 1/alpha.
                nxt = alpha / (1.0 + g / (alpha * h[0]))
            else:
                # A secant step in 1/alpha through the last two iterates,
                # written so that g = 0 returns alpha itself.
                slope = (g - g_prev) / (1.0 / alpha - 1.0 / alpha_prev)
                nxt = alpha / (1.0 - alpha * g / slope)
            nxt = np.where((lo <= nxt) & (nxt <= hi), nxt, 0.5 * (lo + hi))
            done = np.abs(nxt - alpha) < 1e-10 * np.maximum(1.0, alpha)
            # The slope in beta at the next iterate, extrapolated through the
            # last two: below alpha = 1 the stopping rule is absolute, so the
            # last step can be a sizeable part of alpha (at beta = 3 on a
            # 2k-step path the last iterate's slope was 6e-4 relative off).
            ahead = 0.0 if it == 1 else (s - s_prev) * (nxt - alpha) / (alpha - alpha_prev)
            out_slope[idx] = s + ahead
            alpha_prev, g_prev, s_prev, alpha = alpha, g, s, nxt
            if done.any():
                out_alpha[idx[done]] = alpha[done]
                iterations[idx[done]], converged[idx[done]] = it, True
                keep = ~done
                idx, alpha, lo, hi = idx[keep], alpha[keep], lo[keep], hi[keep]
                alpha_prev, g_prev, s_prev = alpha_prev[keep], g_prev[keep], s_prev[keep]
                if not idx.size:
                    break
                terms = terms.take(keep)
    out_alpha[idx] = alpha
    theta, ll = full.loglik(out_alpha, full.shape(out_alpha))
    return out_alpha, theta, ll, iterations, converged, out_slope


def _warm_start(betas: np.ndarray, known_b: list, known_a: list) -> np.ndarray:
    """Starting shape rates at ``betas`` from the rates solved at exponents ``known_b``.

    Inside the solved exponents, linear interpolation of the rate.  Outside
    them, linear extrapolation of log(rate) through the two nearest, or the
    nearest rate where there is one or the two are equal; the solve clips
    the start.
    """
    order = np.argsort(known_b)
    xb, xa = np.take(known_b, order), np.take(known_a, order)
    start = np.interp(betas, xb, xa)
    if xb.size > 1:
        for out, near, far in ((betas < xb[0], 0, 1), (betas > xb[-1], -1, -2)):
            run = xb[far] - xb[near]
            if run and out.any():
                slope = math.log(xa[far] / xa[near]) / run
                log_start = math.log(xa[near]) + slope * (betas[out] - xb[near])
                start[out] = np.exp(np.minimum(log_start, math.log(SHAPE_MAX)))
    return start


def _nonhomog_gamma_rows(series: _SeriesTerms, mask) -> list:
    n, problems = series.deltas.size, _problems(mask)
    # Per problem, each exponent solved so far -> its row's (shape rate,
    # scale, loglik, iterations, converged, slope in beta).
    solved = [{} for _ in range(problems)]
    # Above PROFILE_BLOCK // 2 increments, a whole-series search asks for
    # beta = 1 alone first: that row is the homogeneous fit's solve, made once
    # per series for both fits.
    shared = mask is None and _block_rows(n) == 1

    def profile(rows: np.ndarray, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if shared and not solved[0] and betas.tolist() == [1.0]:
            out = series.homog_gamma[1]
        else:
            # shape varies smoothly with the exponent: start each row from its
            # own problem's rows solved so far
            init = np.full(betas.size, math.nan)
            for p in set(rows.tolist()):
                known = solved[p]
                if known:
                    at = rows == p
                    init[at] = _warm_start(betas[at], list(known), [r[0] for r in known.values()])
            out = _gamma_profile_rows(series, betas, init, _take(mask, rows))
        for p, b, *row in zip(rows.tolist(), betas.tolist(), *(v.tolist() for v in out)):
            solved[p][b] = row
        return out[2], out[5]

    # Every 4th grid exponent, with 0.2, 1 and 5: the unimodal profile's
    # slope changes sign once between two of them.  The search walks out to
    # it from 1, as many exponents at a time as one profile block holds.
    searches = [_search(_BETA_GRID[::4], _block_rows(n)) for _ in range(problems)]
    beta = _profile_beta(profile, searches, n)
    # The fit at each maximizer, or at beta = 1 for a failed search, is a row
    # the search solved: a missing one is a KeyError, not a fresh solve.
    fits = [solved[p][b] for p, b in enumerate(_solved(beta).tolist())]
    return [
        _profile_failure(b, l)
        or FitResult(
            {"alpha": float(a), "theta": float(t), "beta": float(b)},
            float(l),
            _inside(a, c),
            int(i),
        )
        for b, (a, t, l, i, c, _) in zip(beta, fits)
    ]


# A joint Newton solve stops once a full step moves beta by less than
# ``_BETA_STEP`` and ln alpha by less than ``_LOG_ALPHA_STEP``; a row still
# running after ``_NEWTON_CAP`` evaluations falls back to the profile search.
_BETA_STEP, _LOG_ALPHA_STEP, _NEWTON_CAP = 1e-9, 1e-10, 20
# A Newton step whose predicted gain is below this, relative to
# max(1, |loglik|), gains less than the log-likelihood's rounding resolves:
# it is taken without the test that the log-likelihood did not fall.
_LL_RESOLUTION = 1e-12


def _joint_terms(series: _SeriesTerms, total, alpha, beta, mask) -> tuple:
    """The non-homogeneous gamma log-likelihood at each row's (alpha, beta),
    with the scale theta = sum x / (alpha D) profiled out, and its gradient
    and Hessian in (u = ln alpha, beta), from ``_GammaTerms`` of each row's
    training increments (``mask``), whose sum is ``total``.

    In u, g_u = alpha g_alpha, H_uu = alpha^2 H_alpha_alpha + alpha g_alpha
    and H_u_beta = alpha H_alpha_beta.  A row with a training alpha d_j that
    is not positive and finite reads stand-in terms, d = 1 and
    d' = d'' = 0, and gets loglik -inf.  Returns per row (loglik, theta,
    g_u, g_beta, H_uu, H_u_beta, H_beta_beta).
    """
    d, d1, d2 = (v * mask for v in series.curvature(beta))
    hole = 1.0 - mask
    shape = alpha[:, None] * d + hole
    usable = (np.isfinite(shape) & (shape > 0)).all(axis=1)
    if not usable.all():
        keep = usable[:, None]
        d, d1, d2 = np.where(keep, d, mask), np.where(keep, d1, 0.0), np.where(keep, d2, 0.0)
        shape = alpha[:, None] * d + hole
    # The terms read this shape, so they never form their own hole.
    terms = _GammaTerms(series, d, d1, mask, total, d2)
    g_alpha, g_beta, h_aa, h_ab, h_bb = terms.score(alpha, shape, curvature=True)
    theta, ll = terms.loglik(alpha, shape)
    g_u = alpha * g_alpha
    h_uu = alpha * alpha * h_aa + g_u
    return np.where(usable, ll, NEG_INF), theta, g_u, g_beta, h_uu, alpha * h_ab, h_bb


def _seeded_nonhomog_gamma_rows(series: _SeriesTerms, mask: np.ndarray, start: Mapping) -> list:
    """The non-homogeneous gamma fit of each row of ``mask`` by Newton's
    method on the joint log-likelihood in (ln alpha, beta) (Nocedal & Wright
    2006, ch. 3), every row from the whole-series fit's ``start`` parameters.

    A fold's optimum lies within a few percent of the whole series', where
    Newton's method converges quadratically.  Each step is halved until the
    log-likelihood does not fall; an iterate is clipped to ``BETA_BOUNDS`` and
    the shape-rate bounds.  A row stops once a full step moves beta by less
    than ``_BETA_STEP`` and ln alpha by less than ``_LOG_ALPHA_STEP``, at the
    point that step starts from.  A row falls back to its unseeded fit, the
    profile search (``_nonhomog_gamma_rows``), where it starts from a
    non-finite log-likelihood, meets a Hessian that is not negative definite,
    accepts an iterate on a bound, or is still running after ``_NEWTON_CAP``
    evaluations.
    """
    rows = mask.shape[0]
    total = mask @ series.deltas
    bounds_u = (math.log(SHAPE_MIN), math.log(SHAPE_MAX))
    fits: list = [None] * rows  # None: falls back
    # Per running row (``idx``): the trial point (u, beta); the last accepted
    # point (u, beta) with alpha, theta and loglik there; the Newton step from
    # it, its predicted gain, and the share of the step the trial takes.
    idx = np.arange(rows)
    u = np.full(rows, math.log(start["alpha"])).clip(*bounds_u)
    beta = np.full(rows, start["beta"]).clip(*BETA_BOUNDS)
    at_u, at_beta, at_alpha, at_theta = u, beta, np.exp(u), np.ones(rows)
    at_ll, gain = np.full(rows, NEG_INF), np.full(rows, math.inf)
    step_u, step_beta, share = np.zeros(rows), np.zeros(rows), np.ones(rows)
    for it in range(1, _NEWTON_CAP + 1):
        alpha = np.exp(u)
        ll, theta, g_u, g_b, h_uu, h_ub, h_bb = _joint_terms(
            series, total[idx], alpha, beta, mask[idx]
        )
        # The trial did not lower the loglik, or its step gains too little to tell.
        unresolved = gain < _LL_RESOLUTION * np.maximum(1.0, np.abs(at_ll))
        up = np.isfinite(ll) & ((ll >= at_ll) | unresolved)
        at_u, at_beta = np.where(up, u, at_u), np.where(up, beta, at_beta)
        at_alpha, at_theta = np.where(up, alpha, at_alpha), np.where(up, theta, at_theta)
        at_ll = np.where(up, ll, at_ll)
        det = h_uu * h_bb - h_ub * h_ub
        curved = (h_uu < 0.0) & (det > 0.0) & np.isfinite(det + g_u + g_b)
        det = np.where(curved, det, 1.0)
        step_u = np.where(up, (h_ub * g_b - h_bb * g_u) / det, step_u)
        step_beta = np.where(up, (h_ub * g_u - h_uu * g_b) / det, step_beta)
        gain = np.where(up, 0.5 * (g_u * step_u + g_b * step_beta), gain)
        share = np.where(up, 1.0, 0.5 * share)
        on_bound = (at_beta == BETA_BOUNDS[0]) | (at_beta == BETA_BOUNDS[1])
        on_bound |= (at_u == bounds_u[0]) | (at_u == bounds_u[1])
        failed = (up & (~curved | on_bound)) | ((it == 1) & ~up)
        small = (np.abs(step_u) < _LOG_ALPHA_STEP) & (np.abs(step_beta) < _BETA_STEP)
        done = up & ~failed & small
        for k in np.flatnonzero(done):
            a, t, b = (float(v[k]) for v in (at_alpha, at_theta, at_beta))
            fits[idx[k]] = FitResult(
                {"alpha": a, "theta": t, "beta": b}, float(at_ll[k]), _inside(a, True), it
            )
        keep = ~(done | failed)
        if not keep.any():
            break
        idx, at_u, at_beta, at_alpha, at_theta, at_ll, gain, step_u, step_beta, share = (
            v[keep]
            for v in (idx, at_u, at_beta, at_alpha, at_theta, at_ll, gain, step_u, step_beta, share)
        )
        u = (at_u + share * step_u).clip(*bounds_u)
        beta = (at_beta + share * step_beta).clip(*BETA_BOUNDS)
    if None in fits:
        # The unseeded batch of every row: a subset of rows would round its
        # matrix-vector products differently from the unseeded folds.
        unseeded = _nonhomog_gamma_rows(series, mask)
        fits = [ref if fit is None else fit for fit, ref in zip(fits, unseeded)]
    return fits


# Per (family, trend): the fitter's name, its fewest increments, and the
# function that fits each row of a training mask (None: the whole series)
# to a series' increments.
_ROW_FITTERS = {
    (Family.WIENER, Trend.LINEAR): ("linear Wiener", 3, _linear_wiener_rows),
    (Family.WIENER, Trend.NONLINEAR): ("nonlinear Wiener", 4, _nonlinear_wiener_rows),
    (Family.GAMMA, Trend.LINEAR): ("homogeneous gamma", 3, _homog_gamma_rows),
    (Family.GAMMA, Trend.NONLINEAR): ("non-homogeneous gamma", 4, _nonhomog_gamma_rows),
}


def _training_error(key: tuple[Family, Trend], x, t0, t1) -> Optional[FitError]:
    """Why the fitter for ``key`` cannot use training increments ``x``, or None."""
    name, least, _ = _ROW_FITTERS[key]
    if x.size < least:
        return FitError(f"{name} fit needs at least {least} increments")
    if not np.isfinite(x).all():
        return FitError("increments must be finite")
    if key[0] is Family.GAMMA and np.any(x <= 0):
        return NonPositiveIncrementError("gamma model requires positive increments")
    error = _stamp_error(key, t0)
    if not error and key == (Family.GAMMA, Trend.NONLINEAR):
        r = x / time_transform(t0, t1, 1.0)  # constant when x is proportional to dt
        if math.log(float(np.mean(r))) - float(np.mean(np.log(r))) <= DISPERSION_FLOOR:
            error = FitError("zero-dispersion increments: gamma profile is unbounded")
    return error


def _stamp_error(key: tuple[Family, Trend], t0) -> Optional[FitError]:
    """Why the model for ``key`` cannot use intervals from the starts ``t0``, or None."""
    if key[1] is Trend.NONLINEAR and t0.size and t0[0] < 0:  # t**beta of t < 0 is not real
        return FitError(f"{_ROW_FITTERS[key][0]} model needs time stamps >= 0, got {t0[0]}")
    return None


def _fit_series(key: tuple[Family, Trend], inc: IncrementSeries) -> FitResult:
    x, t0, t1 = inc.arrays
    out = _training_error(key, x, t0, t1) or _ROW_FITTERS[key][2](inc._terms, None)[0]
    if isinstance(out, FitError):
        raise out
    return out


def fit_linear_wiener(inc: IncrementSeries) -> FitResult:
    """Closed-form MLE for Gaussian increments with constant drift: the
    Wiener kernel at exponent 1."""
    return _fit_series((Family.WIENER, Trend.LINEAR), inc)


def fit_nonlinear_wiener(inc: IncrementSeries) -> FitResult:
    """Profile-likelihood MLE for Gaussian increments with power drift."""
    return _fit_series((Family.WIENER, Trend.NONLINEAR), inc)


def fit_homog_gamma(inc: IncrementSeries) -> FitResult:
    """Newton MLE for i.i.d. gamma increments (shape, scale): the gamma
    kernel at exponent 1."""
    return _fit_series((Family.GAMMA, Trend.LINEAR), inc)


def fit_nonhomog_gamma(inc: IncrementSeries) -> FitResult:
    """Profile-likelihood MLE for gamma increments with power shape rate."""
    return _fit_series((Family.GAMMA, Trend.NONLINEAR), inc)


def loglik(
    model: CandidateModel,
    params: Mapping[str, float],
    inc: IncrementSeries,
    span: slice = slice(None),
) -> float:
    """Sum of the log densities of the increments ``inc[span]``; -inf when gamma
    is inapplicable.  FitError, as the fitters raise it, for a nonlinear model
    on intervals from a negative time stamp."""
    deltas, t0, t1 = (a[span] for a in inc.arrays)
    nonlinear = model.trend is Trend.NONLINEAR  # a linear model is the exponent-1 model
    if nonlinear and "beta" not in params:
        raise ValueError(f"{model.id} params need beta")
    stamps = _stamp_error((model.family, model.trend), t0)
    if stamps:
        raise stamps
    d = time_transform(t0, t1, params["beta"] if nonlinear else 1.0)
    if model.family is Family.WIENER:
        if "m" not in params or "s" not in params:
            raise ValueError(f"Wiener params need m and s, got {dict(params)}")
        resid = deltas - params["m"] * d
        return float(_normal_loglik((resid * resid).sum(), params["s"] ** 2, resid.size))

    if "alpha" not in params or "theta" not in params:
        raise ValueError(f"gamma params need alpha and theta, got {dict(params)}")
    if np.any(deltas <= 0):
        return NEG_INF
    return float(_gamma_loglik(deltas, params["alpha"] * d, params["theta"]))


def fit_model(model: CandidateModel, inc: IncrementSeries) -> FitResult:
    """Fit the model matching the structural labels to the whole series."""
    return _fit_series((model.family, model.trend), inc)


def fit_folds(
    model: CandidateModel,
    inc: IncrementSeries,
    bounds: np.ndarray,
    start: Optional[FitResult] = None,
) -> list[FitResult]:
    """Fit ``model`` once per fold f, to the increments outside ``bounds[f]:bounds[f + 1]``.

    The folds are one batched problem: rows of a training mask over the whole
    series, so each training increment keeps its interval around the held-out
    gap.  Each fold's training increments pass the fitter's checks before any
    fold is fitted; the first fold that fails raises its FitError, naming it.
    ``start``, the whole-series fit of a non-homogeneous gamma ``model``,
    seeds its folds' joint Newton solve (``_seeded_nonhomog_gamma_rows``);
    without it every model's folds are fitted as its whole series is.
    """
    key = (model.family, model.trend)
    if start is not None and key != (Family.GAMMA, Trend.NONLINEAR):
        raise ValueError(f"only non-homogeneous gamma folds take a start, not {model.id}")
    x, t0, t1 = inc.arrays
    cols = np.arange(x.size)
    train = (cols < bounds[:-1, None]) | (cols >= bounds[1:, None])
    checks = [_training_error(key, x[keep], t0[keep], t1[keep]) for keep in train]
    if any(checks):
        outcomes = checks
    elif start is not None:
        outcomes = _seeded_nonhomog_gamma_rows(inc._terms, train.astype(float), start.params)
    else:
        outcomes = _ROW_FITTERS[key][2](inc._terms, train.astype(float))
    for f, out in enumerate(outcomes):
        if isinstance(out, FitError):
            raise type(out)(f"fold {f + 1}: {out}")
    return outcomes
