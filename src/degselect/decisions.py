"""Per-hierarchy answer providers and the confidence arbitration rule.

Two answers are produced for every hierarchy: one from trajectory features
alone and one additionally conditioned on retrieved evidence.  A
deterministic four-branch rule then yields a confident label or the
uncertain state, based on agreement and the confidence margin.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Protocol

from .criteria import FitError, FitTable
from .evidence import (
    EvidenceBank,
    Query,
    RetrievedSet,
    build_query,
    retrieve_top_k,
)
from .model_space import (
    LABEL_SPACES, Case, Decision, Family, Hierarchy, Label, Trend, Uncertain, condition,
    label_hierarchy, parse_label, structural_label,
)
from .simulate import Trajectory

log = logging.getLogger(__name__)

# The heuristic provider's constants.
GAMMA_NEG_THRESHOLD = 0.02  # below: monotone enough for gamma
CONF_SCALE = 0.15
MONOTONE_BONUS = 0.2
MONOTONE_MIN_STEPS = 30
LR_THRESHOLD = 3.84  # chi-square(1) at 5%
LR_SCALE = 4.0
CONF_FLOOR = 0.5
CONF_CAP = 0.99


@dataclass(frozen=True)
class Answer:
    label: Label
    confidence: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.confidence <= 1.0) or not math.isfinite(self.confidence):
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")

    @property
    def hierarchy(self) -> Hierarchy:
        return label_hierarchy(self.label)


@dataclass(frozen=True)
class ArbitrationConfig:
    delta: float = 0.05  # confidence margin

    def __post_init__(self) -> None:
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")


def arbitrate(internal: Answer, contextual: Answer, cfg: ArbitrationConfig) -> Decision:
    """Four-branch rule: agreement, dominant confidence, or uncertain state."""
    if internal.hierarchy is not contextual.hierarchy:
        raise ValueError(
            f"answers belong to different hierarchies: "
            f"{internal.hierarchy} vs {contextual.hierarchy}"
        )
    if internal.label == contextual.label:
        return contextual.label
    gap = internal.confidence - contextual.confidence
    if gap > cfg.delta:
        return internal.label
    if -gap > cfg.delta:
        return contextual.label
    return Uncertain(internal.hierarchy)


@dataclass(frozen=True)
class Observation:
    """One inference's view of the trajectory, shared by every provider call.

    The query (text and features) is built once; ``fits`` serves the trend
    decision and the scoring alike; ``heuristic`` answers each hierarchy once
    for every provider that asks; providers record faults in ``diagnostics``.
    """

    traj: Trajectory
    query: Query
    fits: FitTable
    diagnostics: list[str] = field(default_factory=list)
    _heuristic_answers: dict[Hierarchy, Answer] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def of(cls, traj: Trajectory, context: str = "") -> "Observation":
        return cls(traj, build_query(traj, context), FitTable(traj))

    def heuristic(self, hierarchy: Hierarchy) -> Answer:
        """The trajectory-feature answer for ``hierarchy``, computed at the first call."""
        if hierarchy not in self._heuristic_answers:
            decide = _decide_family if hierarchy is Hierarchy.FAMILY else _decide_trend
            self._heuristic_answers[hierarchy] = decide(self)
        return self._heuristic_answers[hierarchy]


class DecisionProvider(Protocol):
    def decide(
        self, hierarchy: Hierarchy, obs: Observation, evidence: Optional[RetrievedSet] = None
    ) -> Answer:
        ...


def _clamp(c: float) -> float:
    return min(max(c, CONF_FLOOR), CONF_CAP)


def _threshold_family(obs: Observation) -> tuple[Family, float]:
    """Gamma below the negative-increment threshold, else Wiener; and the fraction."""
    p = obs.query.features.neg_increment_fraction
    return (Family.GAMMA if p < GAMMA_NEG_THRESHOLD else Family.WIENER), p


def _decide_family(obs: Observation) -> Answer:
    feats = obs.query.features
    if feats.flat:
        return Answer(Family.WIENER, CONF_FLOOR)  # no signal
    label, p = _threshold_family(obs)
    conf = 0.5 + abs(p - GAMMA_NEG_THRESHOLD) / CONF_SCALE
    if (
        label is Family.GAMMA
        and feats.strictly_increasing
        and feats.n_increments >= MONOTONE_MIN_STEPS
    ):
        conf += MONOTONE_BONUS
    return Answer(label, _clamp(conf))


def _decide_trend(obs: Observation) -> Answer:
    # The linear and nonlinear case-2 models of the threshold family.
    family = _threshold_family(obs)[0]
    linear, nonlinear = condition(Case.CASE2.candidates, {Hierarchy.FAMILY: family})
    lls = []
    for model in (linear, nonlinear):
        try:
            lls.append(obs.fits.fit(model).loglik)
        except FitError as exc:
            obs.diagnostics.append(f"trend heuristic: {model.id} fit failed ({exc}); linear")
            return Answer(Trend.LINEAR, CONF_FLOOR)
    lr = 2.0 * (lls[1] - lls[0])
    label = Trend.NONLINEAR if lr > LR_THRESHOLD else Trend.LINEAR
    t = 1.0 / (1.0 + math.exp(-(lr - LR_THRESHOLD) / LR_SCALE))
    conf = 0.5 + 0.49 * abs(2.0 * t - 1.0)
    return Answer(label, _clamp(conf))


class HeuristicProvider:
    """Deterministic trajectory-feature answers (no evidence consulted)."""

    def decide(
        self, hierarchy: Hierarchy, obs: Observation, evidence: Optional[RetrievedSet] = None
    ) -> Answer:
        return obs.heuristic(hierarchy)


# Each label's sign in the evidence blend.
_SIGN = {Family.WIENER: 1.0, Family.GAMMA: -1.0, Trend.NONLINEAR: 1.0, Trend.LINEAR: -1.0}


class EvidenceBlendProvider:
    """Blends retrieved evidence hints with the observation's heuristic answer."""

    def decide(
        self, hierarchy: Hierarchy, obs: Observation, evidence: Optional[RetrievedSet] = None
    ) -> Answer:
        base = obs.heuristic(hierarchy)
        f = _SIGN[base.label] * (2.0 * base.confidence - 1.0)
        weights, votes = [], []
        for record, s in evidence or ():
            hint = structural_label(record.hint, hierarchy) if record.hint else None
            if hint is None:
                continue
            weights.append(s)
            votes.append(s * _SIGN[hint])
        if weights:
            u = 0.5 * (sum(votes) / sum(weights)) + 0.5 * f
        else:
            u = f
        if u == 0.0:
            label = base.label
        else:
            label = next(x for x in LABEL_SPACES[hierarchy][0] if (_SIGN[x] > 0.0) == (u > 0.0))
        return Answer(label, 0.5 + 0.49 * abs(u))


class RemoteTextGenProvider:
    """One-shot prompt to an HTTP text-generation endpoint.

    Request body {"prompt", "max_tokens": 64}; response body {"text"} whose
    first line must read "<LABEL> <confidence>".  Malformed output is retried
    once; then, as after a failed request, the observation's heuristic answer
    is returned.
    Each fault is noted in ``obs.diagnostics``.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def _render_prompt(
        self, hierarchy: Hierarchy, obs: Observation, evidence: Optional[RetrievedSet]
    ) -> str:
        labels = [label.value for label in LABEL_SPACES[hierarchy][0]]
        lines = [
            "You are selecting the structure of a degradation model.",
            f"Observed trajectory characteristics: {obs.query.text}.",
        ]
        if evidence:
            lines.append("Evidence:")
            lines.extend(f"- {r.proposition}" for r in evidence.records())
        lines.append(
            f"Answer on the first line with one label from {{{', '.join(labels)}}} "
            "followed by a confidence in [0, 1], e.g. "
            f"'{labels[0]} 0.8'."
        )
        return "\n".join(lines)

    def _parse(self, hierarchy: Hierarchy, text: str, diagnostics: list[str]) -> Optional[Answer]:
        first = text.strip().splitlines()[0] if text.strip() else ""
        parts = first.split()
        if len(parts) < 2:
            return None
        try:
            label = parse_label(hierarchy, parts[0].upper())
            conf = float(parts[1])
        except ValueError:
            return None
        if not math.isfinite(conf):
            return None
        if not 0.0 <= conf <= 1.0:
            diagnostics.append(f"confidence {conf} clamped to [0, 1]")
            log.warning("remote confidence %s out of range; clamped", conf)
            conf = min(max(conf, 0.0), 1.0)
        return Answer(label, conf)

    def decide(
        self, hierarchy: Hierarchy, obs: Observation, evidence: Optional[RetrievedSet] = None
    ) -> Answer:
        from http.client import HTTPException  # deferred, as in _post

        prompt = self._render_prompt(hierarchy, obs, evidence)
        for attempt in range(2):
            try:
                text = self._post(prompt)
            except (OSError, HTTPException, ValueError) as exc:
                obs.diagnostics.append(f"remote request failed: {exc}")
                log.warning("remote provider failed (%s); internal fallback", exc)
                return obs.heuristic(hierarchy)
            answer = self._parse(hierarchy, text, obs.diagnostics)
            if answer is not None:
                return answer
            obs.diagnostics.append(f"malformed remote output (attempt {attempt + 1})")
        log.warning("remote output malformed twice; internal fallback")
        return obs.heuristic(hierarchy)

    def _post(self, prompt: str) -> str:
        """POST the prompt; return the body's string "text" field (ValueError if
        absent).  Transport failures raise OSError or HTTPException."""
        import urllib.request  # deferred: only runs with a remote endpoint load it

        data = json.dumps({"prompt": prompt, "max_tokens": 64}).encode()
        request = urllib.request.Request(
            self.endpoint, data=data, headers={"Content-Type": "application/json"}
        )
        with urllib.request.urlopen(request, timeout=self.timeout) as resp:
            body = json.loads(resp.read())
        text = body.get("text") if isinstance(body, dict) else None
        if not isinstance(text, str):
            raise ValueError(f"response body has no string 'text' field: {body!r:.80}")
        return text


@dataclass(frozen=True)
class ProviderPair:
    internal: DecisionProvider
    contextual: DecisionProvider


def default_providers() -> ProviderPair:
    return ProviderPair(internal=HeuristicProvider(), contextual=EvidenceBlendProvider())


@dataclass(frozen=True)
class HierarchyDecisionRecord:
    internal: Answer
    contextual: Answer
    final: Decision
    evidence: RetrievedSet


def decide_all_hierarchies(
    obs: Observation,
    bank: EvidenceBank,
    providers: ProviderPair,
    hierarchies: tuple[Hierarchy, ...] = tuple(Hierarchy),
) -> dict[Hierarchy, HierarchyDecisionRecord]:
    """Retrieve the top ``DEFAULT_TOP_K`` records once, then answer twice and
    arbitrate at the default margin per hierarchy; with no hierarchy to
    decide, retrieve nothing."""
    if not hierarchies:
        return {}
    retrieved = retrieve_top_k(bank, obs.query)
    records: dict[Hierarchy, HierarchyDecisionRecord] = {}
    for h in hierarchies:
        internal = providers.internal.decide(h, obs)
        contextual = providers.contextual.decide(h, obs, retrieved)
        final = arbitrate(internal, contextual, ArbitrationConfig())
        records[h] = HierarchyDecisionRecord(
            internal=internal, contextual=contextual, final=final, evidence=retrieved
        )
    return records
