"""Candidate degradation model space and its conditioning algebra.

Candidate models carry two structural labels: the process family (Wiener or
gamma) and the trend structure (linear or nonlinear).  Per-hierarchy
decisions, which may be an uncertain state, condition the candidate set down
to the subset consistent with every confident decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Optional, Union


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

# Per hierarchy: its label enum, and the attribute of a candidate model (or of
# an evidence hint) that carries its label.
LABEL_SPACES = {
    Hierarchy.FAMILY: (Family, "family"),
    Hierarchy.TREND: (Trend, "trend"),
}
_HIERARCHY_OF_SPACE = {space: h for h, (space, _) in LABEL_SPACES.items()}


@dataclass(frozen=True)
class Uncertain:
    """Uncertain state for one hierarchy; suspends conditioning there."""

    hierarchy: Hierarchy


Decision = Union[Family, Trend, Uncertain]


def label_hierarchy(label: Label) -> Hierarchy:
    """Hierarchy a label belongs to."""
    try:
        return _HIERARCHY_OF_SPACE[type(label)]
    except KeyError:
        raise TypeError(f"not a hierarchy label: {label!r}") from None


def parse_label(hierarchy: Hierarchy, token: str) -> Label:
    """Parse a label token ("W", "G", "L", "NL") for the given hierarchy."""
    try:
        return LABEL_SPACES[hierarchy][0](token)
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


def structural_label(labelled, h: Hierarchy) -> Optional[Label]:
    """Label on one hierarchy of a candidate model, or of an evidence hint
    (None where the hint names no label)."""
    return getattr(labelled, LABEL_SPACES[h][1])


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

    @cached_property
    def hierarchies(self) -> tuple[Hierarchy, ...]:
        """The hierarchies worth deciding: those where the models' labels differ."""
        return tuple(
            h for h in Hierarchy if len({structural_label(m, h) for m in self.models}) > 1
        )


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


class Case(Enum):
    """One of the two studies, named by its candidate set."""

    CASE1 = "case1"  # family level only
    CASE2 = "case2"  # family and trend

    @property
    def candidates(self) -> CandidateSet:
        return _CASE_SETS[self]


_CASE_SETS = {
    Case.CASE1: CandidateSet.of(
        [
            CandidateModel("wiener_family", Family.WIENER, Trend.LINEAR, 2),
            CandidateModel("gamma_family", Family.GAMMA, Trend.LINEAR, 2),
        ]
    ),
    Case.CASE2: CandidateSet.of(
        [
            CandidateModel("linear_wiener", Family.WIENER, Trend.LINEAR, 2),
            CandidateModel("nonlinear_wiener", Family.WIENER, Trend.NONLINEAR, 3),
            CandidateModel("homog_gamma", Family.GAMMA, Trend.LINEAR, 2),
            CandidateModel("nonhomog_gamma", Family.GAMMA, Trend.NONLINEAR, 3),
        ]
    ),
}
_DEFAULT_CASE_SETS = tuple(_CASE_SETS.values())


def default_case_sets() -> tuple[CandidateSet, CandidateSet]:
    """Shipped candidate sets: family-level (2 models) and detailed (4).

    Both are frozen and built once, so every call returns the same two sets.
    """
    return _DEFAULT_CASE_SETS
