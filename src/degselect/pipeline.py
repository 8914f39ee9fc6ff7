"""End-to-end inference: hierarchy decisions, space conditioning, selection."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .criteria import Criterion, FitTable, ScoreTable, select_argmin
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
    Case,
    EmptyRetainedSetError,  # raised by condition; importable from here
    Hierarchy,
    condition,
)
from .simulate import Trajectory

DEFAULT_BANNED_TOKENS = ("rul", "failure time", "remaining life")
# Whole words only: "rule-based" and "unruly" do not contain the token "rul".
_BANNED_WORDS = tuple(
    (token, re.compile(rf"\b{re.escape(token)}\b")) for token in DEFAULT_BANNED_TOKENS
)
MIN_POINTS = 4  # below: too short for the linear fitters


@dataclass(frozen=True)
class InferenceInput:
    trajectory: Trajectory
    context: str
    candidates: CandidateSet

    @classmethod
    def for_case(cls, case: Case, trajectory: Trajectory, context: str = "") -> "InferenceInput":
        return cls(trajectory, context, case.candidates)


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
    fits: FitTable  # the fits this inference made, for other scorings of the trajectory
    diagnostics: list[str] = field(default_factory=list)


class LeakageError(ValueError):
    pass


def validate_input(input: InferenceInput) -> list[str]:
    """Leakage and short-window checks; returns warnings, raises nothing."""
    warnings = []
    lowered = input.context.lower()
    for token, word in _BANNED_WORDS:
        if word.search(lowered):
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
    """Decide the hierarchies the candidates differ on, condition, pick the model."""
    providers = providers or default_providers()
    diagnostics = validate_input(input)
    if cfg.strict_leakage and any("leak" in w for w in diagnostics):
        raise LeakageError("; ".join(diagnostics))

    obs = Observation.of(input.trajectory, input.context)
    records = decide_all_hierarchies(obs, bank, providers, input.candidates.hierarchies)
    diagnostics.extend(obs.diagnostics)
    retained = condition(input.candidates, {h: rec.final for h, rec in records.items()})
    chosen, scores = select_argmin(retained, obs.fits, cfg.criterion)
    if scores is not None:
        diagnostics.extend(scores.notes)
    obs.fits.release_increments()  # a kept result pins its fits, not a copy of the data
    return SelectionResult(
        chosen=chosen,
        decisions=records,
        retained=retained,
        scores=scores,
        fits=obs.fits,
        diagnostics=diagnostics,
    )
