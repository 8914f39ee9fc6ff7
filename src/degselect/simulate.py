"""Run-to-failure trajectory simulation for the four degradation processes.

Increment j over the inspection interval (t_{j-1}, t_j] has a mean (Wiener) or
shape (gamma) proportional to d_j = t_j^beta - t_{j-1}^beta (van Noortwijk 2009),
from ``time_transform``.  ``generate`` inspects at t = 0, 1, 2, ... from state
zero and stops at the first inspection that reaches the failure threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np


class SimKind(Enum):
    LINEAR_WIENER = "linear_wiener"
    NONLINEAR_WIENER = "nonlinear_wiener"
    HOMOG_GAMMA = "homog_gamma"
    NONHOMOG_GAMMA = "nonhomog_gamma"


@dataclass(frozen=True)
class Trajectory:
    """One unit's time-ordered health-indicator observations.

    ``times`` and ``values`` are held as 1-D read-only float64 arrays.  Input
    that already is one, over memory nothing can write (a slice of another
    trajectory's arrays), is held as it is; anything else is copied once.
    Trajectories with equal fields are equal and hash alike.
    """

    unit_id: str
    times: np.ndarray
    values: np.ndarray
    true_model_id: Optional[str] = None

    def __post_init__(self) -> None:
        t, x = (_frozen(v) for v in (self.times, self.values))
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", x)
        if t.ndim != 1 or x.ndim != 1:
            raise ValueError("times and values must be 1-D")
        if t.size != x.size:
            raise ValueError("times and values must have equal length")
        if t.size < 2:
            raise ValueError("trajectory needs at least 2 observations")
        if not (np.isfinite(t).all() and np.isfinite(x).all()):
            raise ValueError("times and values must be finite")
        if (t[1:] <= t[:-1]).any():
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return self.times.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            (self.unit_id, self.true_model_id) == (other.unit_id, other.true_model_id)
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        arrays = ((a + 0.0).tobytes() for a in (self.times, self.values))  # + 0.0: -0.0 == 0.0
        return hash((self.unit_id, self.true_model_id, *arrays))


def _frozen(v) -> np.ndarray:
    """``v`` as a read-only float64 array: itself if it already is one over
    memory that no array can write, else a read-only copy."""
    if isinstance(v, np.ndarray) and v.dtype == np.float64:
        owner = v
        while isinstance(owner, np.ndarray) and not owner.flags.writeable:
            owner = owner.base
        if owner is None:
            return v
    out = np.array(v, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SimParams:
    kind: SimKind
    m: float = 0.0  # Wiener drift
    s: float = 1.0  # Wiener diffusion
    beta: float = 1.0  # time-transform exponent
    alpha: float = 1.0  # gamma shape rate
    theta: float = 1.0  # gamma scale
    failure_threshold: float = 50.0
    max_steps: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError("diffusion s must be non-negative")
        if self.beta <= 0 or self.alpha <= 0 or self.theta <= 0:
            raise ValueError("beta, alpha, theta must be positive")
        if self.failure_threshold <= 0:
            raise ValueError("failure threshold must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if self.kind in (SimKind.LINEAR_WIENER, SimKind.HOMOG_GAMMA) and self.beta != 1.0:
            raise ValueError(f"beta must be 1 for {self.kind.value}")


# Shipped simulation defaults.  Chosen so every kind has mean first hitting
# time near 100 steps at threshold 50, Wiener paths show ~10-25% negative
# increments, and the gamma kinds are close enough to Gaussian that short
# windows leave the families statistically overlapping.
DEFAULT_SIM_PARAMS = {
    SimKind.LINEAR_WIENER: dict(m=0.5, s=0.4),
    SimKind.NONLINEAR_WIENER: dict(m=0.05, s=0.4, beta=1.5),
    SimKind.HOMOG_GAMMA: dict(alpha=6.0, theta=1.0 / 12.0),
    SimKind.NONHOMOG_GAMMA: dict(alpha=0.6, theta=1.0 / 12.0, beta=1.5),
}


def default_params(kind: SimKind, seed: int = 0, **overrides) -> SimParams:
    """SimParams with the shipped defaults for one process kind."""
    kw = dict(DEFAULT_SIM_PARAMS[kind])
    kw.update(overrides)
    return SimParams(kind=kind, seed=seed, **kw)


def time_transform(starts, ends, beta) -> np.ndarray:
    """Power time-scale increments d_j = ends_j**beta - starts_j**beta of the
    intervals (starts_j, ends_j]; at beta = 1 the interval lengths."""
    return np.asarray(ends, dtype=float) ** beta - np.asarray(starts, dtype=float) ** beta


@dataclass(frozen=True)
class SimResult:
    trajectory: Trajectory
    censored: bool  # threshold not reached within max_steps


# Steps in the first chunk of increments ``generate`` draws; each later chunk
# is twice the one before.  The default paths fail near step 100.
FIRST_CHUNK = 128


def generate(params: SimParams, unit_id: str = "unit") -> SimResult:
    """Simulate one run-to-failure trajectory, deterministic given the seed.

    The increments and their running sum are drawn in chunks of
    ``FIRST_CHUNK``, then twice as many steps each time, up to the chunk
    that holds the first crossing (or to ``max_steps``).  A chunk takes d_j
    of its own intervals only and the next draws of the seed's stream, and
    its running sum continues from the last value in the same order of
    additions, so the path is bit for bit the one a draw of all
    ``max_steps`` increments would give.
    """
    rng = np.random.default_rng(params.seed)
    n = params.max_steps
    t = np.arange(n + 1.0)
    wiener = params.kind in (SimKind.LINEAR_WIENER, SimKind.NONLINEAR_WIENER)
    x = np.zeros(n + 1)
    lo, size, end = 0, FIRST_CHUNK, None
    while end is None and lo < n:
        hi = min(lo + size, n)
        d = time_transform(t[lo:hi], t[lo + 1 : hi + 1], params.beta)
        if wiener:
            x[lo + 1 : hi + 1] = rng.normal(params.m * d, params.s)
        else:
            x[lo + 1 : hi + 1] = rng.gamma(params.alpha * d, params.theta)
        np.cumsum(x[lo : hi + 1], out=x[lo : hi + 1])  # x[lo] is the sum so far
        crossed = np.nonzero(x[lo + 1 : hi + 1] >= params.failure_threshold)[0]
        if crossed.size:
            end = lo + 1 + int(crossed[0])
        lo, size = hi, 2 * size
    censored = end is None
    if censored:
        end = n
    traj = Trajectory(
        unit_id=unit_id,
        times=t[: end + 1],
        values=x[: end + 1],
        true_model_id=params.kind.value,
    )
    return SimResult(trajectory=traj, censored=censored)


def first_hitting_time(traj: Trajectory, threshold: float) -> Optional[float]:
    """Smallest observation time whose value reaches the threshold."""
    hits = np.flatnonzero(traj.values >= threshold)
    return float(traj.times[hits[0]]) if hits.size else None


class WindowTooShortError(ValueError):
    pass


def truncate_at_progress(traj: Trajectory, n_percent: int) -> Trajectory:
    """Keep observations up to a percentage of the realized failure time.

    The failure time is the final observation time: run-to-failure
    trajectories end at the first crossing.  Observations with
    t <= ceil(n% * FHT) are kept.
    """
    if not 0 < n_percent <= 100:
        raise ValueError(f"n_percent must be in (0, 100], got {n_percent}")
    cutoff = math.ceil(n_percent / 100.0 * traj.times[-1])
    keep = int(np.searchsorted(traj.times, cutoff, side="right"))  # times increase strictly
    if keep < 2:
        raise WindowTooShortError(f"truncation at {n_percent}% leaves {keep} points")
    return replace(traj, times=traj.times[:keep], values=traj.values[:keep])


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[Trajectory, ...]
    validation: tuple[Trajectory, ...]
    test: tuple[Trajectory, ...]


def split_positions(
    labels: Sequence[Optional[str]], seed: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Positions of the train, validation and test units of a 60/20/20 split
    of units with these labels, as ``split_dataset`` takes them.

    Stratified by label when every unit carries one; each stratum, in label
    order, gives the first fifth of a seeded permutation to test, the next
    fifth to validation and the rounding remainder to train.
    """
    if len(labels) < 5:
        raise ValueError(f"need at least 5 trajectories, got {len(labels)}")
    rng = np.random.default_rng(seed)
    if all(label is not None for label in labels):
        groups: dict[str, list[int]] = {}
        for i, label in enumerate(labels):
            groups.setdefault(label, []).append(i)
        strata = [groups[k] for k in sorted(groups)]
    else:
        strata = [list(range(len(labels)))]

    train: list[int] = []
    val: list[int] = []
    test: list[int] = []
    for group in strata:
        shuffled = [group[i] for i in rng.permutation(len(group))]
        fifth = len(group) // 5
        test.extend(shuffled[:fifth])
        val.extend(shuffled[fifth : 2 * fifth])
        train.extend(shuffled[2 * fifth :])
    return tuple(train), tuple(val), tuple(test)


def split_dataset(trajs: Sequence[Trajectory], seed: int) -> DatasetSplit:
    """Deterministic 60/20/20 trajectory-level split at ``split_positions``
    of the trajectories' labels (``true_model_id``)."""
    positions = split_positions([t.true_model_id for t in trajs], seed)
    return DatasetSplit(*(tuple(trajs[i] for i in part) for part in positions))


def save_trajectories(path, trajs: Sequence[Trajectory]) -> None:
    """Write trajectories as line-delimited JSON records."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in trajs:
            fh.write(
                json.dumps(
                    {
                        "unit_id": t.unit_id,
                        "true_model_id": t.true_model_id,
                        "times": t.times.tolist(),
                        "values": t.values.tolist(),
                    }
                )
                + "\n"
            )


def load_trajectories(path) -> list[Trajectory]:
    """Read a line-delimited trajectory record file."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                out.append(
                    Trajectory(
                        unit_id=str(rec["unit_id"]),
                        times=rec["times"],
                        values=rec["values"],
                        true_model_id=rec.get("true_model_id"),
                    )
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad trajectory record: {exc}")
    return out
