"""Local evidence bank: loading, trajectory feature queries, BM25 retrieval.

The bank is a line-delimited file of proposition records with provenance.
Retrieval is purely lexical (BM25 over lowercased tokens) so results are
deterministic and fully offline.  A query's text is a fixed template plus
the context, so few texts recur: each bank keeps the sets it retrieved, and
each trajectory the feature summary its first query took.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .model_space import LABEL_SPACES, Family, Trend
from .simulate import Trajectory

BM25_K1 = 1.2
BM25_B = 0.75
DEFAULT_TOP_K = 8
RETRIEVAL_MEMO_SIZE = 64  # retrieved sets a bank keeps; the experiments ask at most 24 texts

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


class EvidenceCategory(Enum):
    MECHANISM = "mechanism"
    PROCESS_THEORY = "process_theory"
    REVIEW = "review"


@dataclass(frozen=True)
class EvidenceHint:
    family: Optional[Family] = None
    trend: Optional[Trend] = None


@dataclass(frozen=True)
class EvidenceRecord:
    id: int
    proposition: str
    doc_id: str
    category: EvidenceCategory
    citation: str
    hint: Optional[EvidenceHint] = None

    def __post_init__(self) -> None:
        if not self.proposition:
            raise ValueError("proposition must be non-empty")


@dataclass(frozen=True)
class RetrievedSet:
    items: tuple[tuple[EvidenceRecord, float], ...]

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def records(self) -> tuple[EvidenceRecord, ...]:
        return tuple(r for r, _ in self.items)


class EvidenceBank:
    """Immutable proposition store with a BM25 impact index.

    No BM25 term weight depends on the query, so each (term, record) weight
    is computed here, once, and a query only adds up stored weights.  Up to
    ``RETRIEVAL_MEMO_SIZE`` retrieved sets are kept, one per distinct (query
    text, k) pair (``retrieve_top_k``).
    """

    def __init__(self, records: Sequence[EvidenceRecord]):
        self.records = tuple(records)
        if len({r.id for r in self.records}) != len(self.records):
            raise ValueError("duplicate evidence record ids")
        # Index positions count records in ascending id order.
        self._id_order = tuple(sorted(self.records, key=lambda r: r.id))
        docs = [tokenize(r.proposition) for r in self._id_order]
        avg_len = sum(map(len, docs)) / len(docs) if docs else 0.0
        # A bank without tokens has no term to weigh, so it takes no length norm.
        norms = (
            [BM25_K1 * (1.0 - BM25_B + BM25_B * len(toks) / avg_len) for toks in docs]
            if avg_len
            else []
        )
        counts: dict[str, dict[int, int]] = {}  # term -> position -> tf
        for pos, toks in enumerate(docs):
            for tok in toks:
                tfs = counts.setdefault(tok, {})
                tfs[pos] = tfs.get(pos, 0) + 1
        # term -> [(position, BM25 weight), ...]; every weight is positive.
        self._impacts: dict[str, list[tuple[int, float]]] = {}
        for term, tfs in counts.items():
            idf = _idf(len(docs), len(tfs))
            self._impacts[term] = [
                (pos, idf * tf * (BM25_K1 + 1.0) / (tf + norms[pos])) for pos, tf in tfs.items()
            ]
        self._retrieved: dict[tuple[str, int], RetrievedSet] = {}

    def __len__(self) -> int:
        return len(self.records)

    def idf(self, term: str) -> float:
        return _idf(len(self.records), len(self._impacts.get(term, ())))

    def _scores(self, query_tokens: Sequence[str]) -> list[float]:
        """BM25 score per index position, 0.0 where no query term matches.

        Each query token, repeats included, adds its stored weights.
        """
        scores = [0.0] * len(self.records)
        for term in query_tokens:
            for pos, weight in self._impacts.get(term, ()):
                scores[pos] += weight
        return scores


def _idf(n: int, df: int) -> float:
    return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


def _parse_record(rec: dict) -> EvidenceRecord:
    hint = None
    if rec.get("hint") is not None:
        hraw = rec["hint"]
        hint = EvidenceHint(
            **{attr: space(hraw[attr]) for space, attr in LABEL_SPACES.values() if hraw.get(attr)}
        )
    return EvidenceRecord(
        id=int(rec["id"]),
        proposition=str(rec["proposition"]),
        doc_id=str(rec["doc_id"]),
        category=EvidenceCategory(rec["category"]),
        citation=str(rec.get("citation", "")),
        hint=hint,
    )


def load_bank(path) -> EvidenceBank:
    """Load a line-delimited evidence bank file."""
    records = []
    seen: set[int] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = _parse_record(json.loads(line))
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad evidence record: {exc}")
            if rec.id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate evidence id {rec.id}")
            seen.add(rec.id)
            records.append(rec)
    return EvidenceBank(records)


def default_bank() -> EvidenceBank:
    """The starter bank shipped with the package."""
    ref = resources.files("degselect").joinpath("data/evidence_bank.jsonl")
    with resources.as_file(ref) as path:
        return load_bank(path)


@dataclass(frozen=True)
class FeatureSummary:
    neg_increment_fraction: float
    monotone: bool
    trend_curvature: float
    noise_scale_ratio: float
    flat: bool  # every |increment| < FLAT_TOL: the path carries no shape
    strictly_increasing: bool  # every increment > 0
    n_increments: int


@dataclass(frozen=True)
class Query:
    text: str
    features: FeatureSummary


EPS = 1e-9
FLAT_TOL = 1e-12


def feature_summary(traj: Trajectory) -> FeatureSummary:
    """Shape features of the observed trajectory, from one differencing."""
    if len(traj) < 3:
        raise ValueError("feature summary needs at least 3 observations")
    times, values = traj.times, traj.values
    deltas = np.diff(values)
    n = len(deltas)
    lo, hi = float(deltas.min()), float(deltas.max())
    neg_frac = int(np.count_nonzero(deltas < 0.0)) / n
    # Times increase strictly, so the positive ones are a suffix.
    first = int(np.searchsorted(times, 0.0, side="right"))
    if times.size - first >= 2:
        # Least-squares slope of log y on log t, centred.
        logt = np.log(times[first:])
        logy = np.log(np.maximum(values[first:], EPS))
        dt = logt - logt.sum() / len(logt)
        slope = float(dt @ (logy - logy.sum() / len(logy)) / (dt @ dt))
        curvature = slope - 1.0
    else:
        curvature = 0.0
    # np.mean's and np.std's arithmetic, with the mean computed once.
    mean = float(deltas.sum()) / n
    centred = deltas - mean
    std = math.sqrt(float((centred * centred).sum()) / n)
    return FeatureSummary(
        neg_increment_fraction=neg_frac,
        monotone=neg_frac == 0.0,
        trend_curvature=curvature,
        noise_scale_ratio=std / (abs(mean) + EPS),
        flat=max(hi, -lo) < FLAT_TOL,
        strictly_increasing=lo > 0.0,
        n_increments=n,
    )


CURVATURE_NONLINEAR = 0.25
_FEATURES = "_feature_summary"  # where a trajectory keeps its summary


def build_query(traj: Trajectory, context: str = "") -> Query:
    """Fixed template turning trajectory features plus context into a query.

    The feature pass runs once per trajectory object: its summary is kept in
    the instance dict, as ``functools.cached_property`` keeps a value on a
    frozen dataclass.  A copy or a prefix is a new object with its own pass.
    """
    feats = vars(traj).get(_FEATURES)
    if feats is None:
        feats = vars(traj)[_FEATURES] = feature_summary(traj)
    phrases = []
    if feats.monotone:
        phrases.append("monotonic increase of the health indicator")
    else:
        phrases.append("local increases and decreases of the health indicator")
    if feats.trend_curvature > CURVATURE_NONLINEAR:
        phrases.append("accelerating nonlinear trend")
    else:
        phrases.append("approximately linear trend")
    if feats.noise_scale_ratio > 1.0:
        phrases.append("high measurement noise")
    text = "; ".join(phrases)
    if context:
        text = f"{text}; {context}"
    return Query(text=text, features=feats)


def retrieve_top_k(
    bank: EvidenceBank, query: Query, k: int = DEFAULT_TOP_K
) -> RetrievedSet:
    """Top-k BM25 matches; zero-score records excluded, ties by id.

    The set is a function of the query text and k alone, so the bank keeps
    it: an equal text and k get the same ``RetrievedSet`` object back.  A
    bank holding ``RETRIEVAL_MEMO_SIZE`` sets drops them all before it keeps
    the next, so that no step of the memo can fail if threads share the bank.
    """
    if k < 1:
        raise ValueError("k must be positive")
    key = (query.text, k)
    memo = bank._retrieved
    out = memo.get(key)
    if out is not None:
        return out
    scores = bank._scores(tokenize(query.text))
    ranked = [pos for pos, s in enumerate(scores) if s > 0.0]
    # Positions ascend with id and the sort is stable: ties stay in id order.
    ranked.sort(key=scores.__getitem__, reverse=True)
    out = RetrievedSet(items=tuple((bank._id_order[pos], scores[pos]) for pos in ranked[:k]))
    if len(memo) >= RETRIEVAL_MEMO_SIZE:
        memo.clear()
    memo[key] = out
    return out
