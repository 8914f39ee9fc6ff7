"""Statistical model-selection scores and the argmin selection rule.

All scores are lower-is-better.  Inapplicable fits (gamma models facing
non-positive increments, degenerate variance, ...) score +inf so the
selection rule can reject them naturally.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .fitting import (
    FitError,
    FitResult,
    IncrementSeries,
    fit_folds,
    fit_model,
    increments,
    loglik,
)
from .model_space import CandidateModel, CandidateSet, Family, Trend
from .simulate import Trajectory

INF = float("inf")

CV_FOLDS = 5


class Criterion(Enum):
    AIC = "aic"
    BIC = "bic"
    MDL = "mdl"
    CV = "cv"
    EAL = "eal"


@dataclass
class ScoreTable:
    criterion: Criterion
    entries: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


class NoApplicableModelError(ValueError):
    pass


class FitTable:
    """Fits of one trajectory's increments, each (family, trend) run at most once.

    Calls that score the same trajectory share one table.  It holds each
    model's whole-series fit (``fit``) and its cross-validation fold fits
    (``folds``); a failed fit or fold batch is remembered, and each later
    request raises a fresh copy of its error.
    The non-homogeneous gamma folds start from that model's whole-series
    fit, made first if no other call has made it.
    """

    def __init__(self, traj: Trajectory):
        self.traj = traj
        self._fits: dict[tuple[Family, Trend], FitResult | FitError] = {}
        self._folds: dict[tuple[Family, Trend], list[FitResult] | FitError] = {}

    @cached_property
    def inc(self) -> IncrementSeries:
        """The increments, formed at the first fit, not at construction."""
        return increments(self.traj)

    def release_increments(self) -> None:
        """Drop the cached increments and keep the fits; a later fit forms
        the increments again.  A table kept after its last fit then holds no
        second copy of the trajectory's data."""
        vars(self).pop("inc", None)

    def fit(self, model: CandidateModel) -> FitResult:
        return _kept(self._fits, model, lambda: fit_model(model, self.inc))

    def folds(self, model: CandidateModel) -> list[FitResult]:
        """The model's fit to the training increments of each of the
        ``CV_FOLDS`` contiguous folds (``_fold_bounds``), made once."""

        def make() -> list[FitResult]:
            bounds = _fold_bounds(len(self.inc))
            start = None
            if (model.family, model.trend) == (Family.GAMMA, Trend.NONLINEAR):
                with suppress(FitError):  # else the folds are fitted unseeded
                    start = self.fit(model)
            return fit_folds(model, self.inc, bounds, start)

        return _kept(self._folds, model, make)


def _kept(store: dict, model: CandidateModel, make: Callable):
    """``store``'s entry for the model's (family, trend), made by ``make`` at
    the first request.  A FitError that ``make`` raises is kept in its place,
    and each request raises a fresh copy of it."""
    key = (model.family, model.trend)
    if key not in store:
        try:
            store[key] = make()
        except FitError as exc:
            # Kept without the fitter's frames, which hold its arrays.
            store[key] = exc.with_traceback(None)
    if isinstance(store[key], FitError):
        raise _copy(store[key])
    return store[key]


def _copy(exc: FitError) -> FitError:
    """A new error of the same type and message.  Raising the kept error
    itself would attach each raise's frames to it, and a kept table would
    pin its callers' locals through them."""
    return type(exc)(*exc.args)


def _fold_bounds(n: int) -> np.ndarray:
    """Fold f holds out increments ``bounds[f]:bounds[f + 1]`` of ``n``."""
    if n < 2 * CV_FOLDS:
        raise FitError(f"cross-validation needs at least {2 * CV_FOLDS} increments, got {n}")
    return np.linspace(0, n, CV_FOLDS + 1).astype(int)


def _cv_score(model: CandidateModel, fits: FitTable) -> float:
    """Mean held-out negative log-likelihood over contiguous folds.

    The folds are fitted as one batched problem, and kept, by the table;
    FitError, naming the fold, when one cannot be fitted or scores a
    non-finite held-out likelihood.
    """
    folds = fits.folds(model)
    inc = fits.inc
    bounds = _fold_bounds(len(inc))
    fold_means = []
    for f, fit in enumerate(folds):
        lo, hi = bounds[f], bounds[f + 1]
        ll = loglik(model, fit.params, inc, slice(lo, hi))
        if not math.isfinite(ll):
            raise FitError(f"fold {f + 1}: non-finite held-out log-likelihood")
        fold_means.append(-ll / (hi - lo))
    return float(np.mean(fold_means))


def score(
    model: CandidateModel,
    fits: FitTable,
    criterion: Criterion,
    notes: Optional[list[str]] = None,
) -> float:
    """Score one candidate on the trajectory of ``fits``; +inf when the fit
    fails.  The table shares the fit with other calls."""
    n = len(fits.inc)
    try:
        if criterion is Criterion.CV:
            return _cv_score(model, fits)
        fit = fits.fit(model)
    except FitError as exc:
        if notes is not None:
            notes.append(f"{model.id}: {exc}")
        return INF
    ll = fit.loglik
    if not math.isfinite(ll):
        return INF
    k = model.param_count
    if criterion is Criterion.AIC:
        return 2.0 * k - 2.0 * ll
    if criterion is Criterion.BIC:
        return k * math.log(n) - 2.0 * ll
    if criterion is Criterion.MDL:
        # Two-part code; half the BIC, so the selection order is identical.
        return 0.5 * k * math.log(n) - ll
    return -ll / n  # EAL


def select_argmin(
    cset: CandidateSet, fits: FitTable, criterion: Criterion
) -> tuple[CandidateModel, Optional[ScoreTable]]:
    """Minimum-score model of a candidate set, on the trajectory of ``fits``.

    A singleton set is returned unscored, as ``(model, None)``.  Ties break by
    fewer parameters, then lexicographic id.
    """
    if len(cset) == 1:
        return next(iter(cset)), None
    table = ScoreTable(criterion=criterion)
    for m in cset:
        table.entries[m.id] = score(m, fits, criterion, notes=table.notes)
    if all(v == INF for v in table.entries.values()):
        raise NoApplicableModelError(f"no applicable model among {list(cset.ids())}")
    best = min(cset, key=lambda m: (table.entries[m.id], m.param_count, m.id))
    return best, table
