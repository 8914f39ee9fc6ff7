"""End-to-end inference: hierarchy decisions, space conditioning, selection."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .criteria import Criterion, ScoreTable, select_argmin
from .decisions import (
    HierarchyDecisionRecord,
    Observation,
    ProviderPair,
    decide_all_hierarchies,
    default_providers,
)
from .evidence import EvidenceBank
from .model_space import (
    CandidateModel,
    CandidateSet,
    EmptyRetainedSetError,  # raised by condition; importable from here
    Hierarchy,
    condition,
    default_case_sets,
)
from .simulate import Trajectory

DEFAULT_BANNED_TOKENS = ("rul", "failure time", "remaining life")
MIN_POINTS = 4  # below: too short for the linear fitters


class Case(Enum):
    CASE1 = "case1"  # family level only
    CASE2 = "case2"  # family and trend


@dataclass(frozen=True)
class InferenceInput:
    trajectory: Trajectory
    context: str
    candidates: CandidateSet
    hierarchies: tuple[Hierarchy, ...] = (Hierarchy.FAMILY, Hierarchy.TREND)

    @classmethod
    def for_case(cls, case: Case, trajectory: Trajectory, context: str = "") -> "InferenceInput":
        case1, case2 = default_case_sets()
        if case is Case.CASE1:
            return cls(trajectory, context, case1, (Hierarchy.FAMILY,))
        return cls(trajectory, context, case2, (Hierarchy.FAMILY, Hierarchy.TREND))


@dataclass(frozen=True)
class PipelineConfig:
    criterion: Criterion = Criterion.EAL
    strict_leakage: bool = False


@dataclass
class SelectionResult:
    chosen: CandidateModel
    decisions: dict[Hierarchy, HierarchyDecisionRecord]
    retained: CandidateSet
    scores: Optional[ScoreTable]
    diagnostics: list[str] = field(default_factory=list)


class LeakageError(ValueError):
    pass


def validate_input(input: InferenceInput) -> list[str]:
    """Leakage and short-window checks; returns warnings, raises nothing."""
    warnings = []
    lowered = input.context.lower()
    for token in DEFAULT_BANNED_TOKENS:
        if token in lowered:
            warnings.append(
                f"context may leak post-inspection information: contains {token!r}"
            )
    if len(input.trajectory) < MIN_POINTS:
        warnings.append(
            f"trajectory has {len(input.trajectory)} points; "
            f"fitters need at least {MIN_POINTS}"
        )
    return warnings


def run_inference(
    input: InferenceInput,
    bank: EvidenceBank,
    providers: Optional[ProviderPair] = None,
    cfg: PipelineConfig = PipelineConfig(),
) -> SelectionResult:
    """Decide each in-scope hierarchy, condition the space, pick the model."""
    providers = providers or default_providers()
    diagnostics = validate_input(input)
    if cfg.strict_leakage and any("leak" in w for w in diagnostics):
        raise LeakageError("; ".join(diagnostics))

    obs = Observation.of(input.trajectory, input.context)
    records = decide_all_hierarchies(obs, bank, providers, hierarchies=input.hierarchies)
    diagnostics.extend(obs.diagnostics)
    retained = condition(
        input.candidates, {h: rec.final for h, rec in records.items()}
    )
    if len(retained) == 1:
        chosen = next(iter(retained))
        scores = None
    else:
        chosen, scores = select_argmin(retained, input.trajectory, cfg.criterion, obs.fits)
        diagnostics.extend(scores.notes)
    return SelectionResult(
        chosen=chosen,
        decisions=records,
        retained=retained,
        scores=scores,
        diagnostics=diagnostics,
    )
