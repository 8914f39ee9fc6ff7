"""Candidate degradation model space and its conditioning algebra.

Candidate models carry two structural labels: the process family (Wiener or
gamma) and the trend structure (linear or nonlinear).  Per-hierarchy
decisions, which may be an uncertain state, condition the candidate set down
to the subset consistent with every confident decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Union


class Hierarchy(Enum):
    FAMILY = "F"
    TREND = "T"


class Family(Enum):
    WIENER = "W"
    GAMMA = "G"


class Trend(Enum):
    LINEAR = "L"
    NONLINEAR = "NL"


Label = Union[Family, Trend]


@dataclass(frozen=True)
class Uncertain:
    """Uncertain state for one hierarchy; suspends conditioning there."""

    hierarchy: Hierarchy


Decision = Union[Family, Trend, Uncertain]


def label_hierarchy(label: Label) -> Hierarchy:
    """Hierarchy a label belongs to."""
    if isinstance(label, Family):
        return Hierarchy.FAMILY
    if isinstance(label, Trend):
        return Hierarchy.TREND
    raise TypeError(f"not a hierarchy label: {label!r}")


def parse_label(hierarchy: Hierarchy, token: str) -> Label:
    """Parse a label token ("W", "G", "L", "NL") for the given hierarchy."""
    space = Family if hierarchy is Hierarchy.FAMILY else Trend
    try:
        return space(token)
    except ValueError:
        raise ValueError(f"invalid {hierarchy.value} label: {token!r}") from None


@dataclass(frozen=True)
class CandidateModel:
    id: str
    family: Family
    trend: Trend
    param_count: int

    def __post_init__(self) -> None:
        if self.param_count < 2:
            raise ValueError(f"param_count must be >= 2, got {self.param_count}")


def structural_label(model: CandidateModel, h: Hierarchy) -> Label:
    """Structural label of a model on one hierarchy."""
    return model.family if h is Hierarchy.FAMILY else model.trend


@dataclass(frozen=True)
class CandidateSet:
    """Ordered, duplicate-free collection of candidate models."""

    models: tuple[CandidateModel, ...]

    def __post_init__(self) -> None:
        if not self.models:
            raise ValueError("candidate set must be non-empty at construction")
        ids = [m.id for m in self.models]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate model ids: {ids}")

    @classmethod
    def of(cls, models: Iterable[CandidateModel]) -> "CandidateSet":
        return cls(tuple(models))

    def __len__(self) -> int:
        return len(self.models)

    def __iter__(self):
        return iter(self.models)

    def __contains__(self, model: CandidateModel) -> bool:
        return model in self.models

    def ids(self) -> tuple[str, ...]:
        return tuple(m.id for m in self.models)


class EmptyRetainedSetError(ValueError):
    """Confident decisions that no candidate model satisfies together."""


def condition(
    cset: CandidateSet, decisions: Mapping[Hierarchy, Decision]
) -> CandidateSet:
    """Intersection over confident hierarchies of their label subspaces.

    Hierarchies that are absent or decided Uncertain impose no constraint;
    an all-uncertain decision map returns the full input set.  Raises
    EmptyRetainedSetError when no model satisfies every confident decision.
    """
    confident = {h: d for h, d in decisions.items() if not isinstance(d, Uncertain)}
    for h, d in confident.items():
        if label_hierarchy(d) is not h:
            raise ValueError(f"decision {d} does not belong to hierarchy {h}")
    retained = tuple(
        m for m in cset if all(structural_label(m, h) == d for h, d in confident.items())
    )
    if not retained:
        raise EmptyRetainedSetError(
            f"decisions {[d.value for d in confident.values()]} "
            f"leave none of {list(cset.ids())}"
        )
    return CandidateSet(retained)


# Model ids shared with the simulator and the benchmark harness.
WIENER_FAMILY = "wiener_family"
GAMMA_FAMILY = "gamma_family"
LINEAR_WIENER = "linear_wiener"
NONLINEAR_WIENER = "nonlinear_wiener"
HOMOG_GAMMA = "homog_gamma"
NONHOMOG_GAMMA = "nonhomog_gamma"


_CASE_SETS = (
    CandidateSet.of(
        [
            CandidateModel(WIENER_FAMILY, Family.WIENER, Trend.LINEAR, 2),
            CandidateModel(GAMMA_FAMILY, Family.GAMMA, Trend.LINEAR, 2),
        ]
    ),
    CandidateSet.of(
        [
            CandidateModel(LINEAR_WIENER, Family.WIENER, Trend.LINEAR, 2),
            CandidateModel(NONLINEAR_WIENER, Family.WIENER, Trend.NONLINEAR, 3),
            CandidateModel(HOMOG_GAMMA, Family.GAMMA, Trend.LINEAR, 2),
            CandidateModel(NONHOMOG_GAMMA, Family.GAMMA, Trend.NONLINEAR, 3),
        ]
    ),
)


def default_case_sets() -> tuple[CandidateSet, CandidateSet]:
    """Shipped candidate sets: family-level (2 models) and detailed (4).

    Both are frozen and built once, so every call returns the same two sets.
    """
    return _CASE_SETS
