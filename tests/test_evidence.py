import json
import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from degselect.bench import CONTEXT_BY_FAMILY
import degselect.evidence as evidence
from degselect.decisions import Observation
from degselect.evidence import (
    CURVATURE_NONLINEAR,
    EPS,
    EvidenceBank,
    EvidenceCategory,
    EvidenceHint,
    EvidenceRecord,
    Query,
    RetrievedSet,
    build_query,
    feature_summary,
    load_bank,
    retrieve_top_k,
    tokenize,
)
from degselect.model_space import Family, Hierarchy, Trend, structural_label
from degselect.pipeline import Case, InferenceInput, run_inference
from degselect.simulate import SimKind, Trajectory, WindowTooShortError, truncate_at_progress

from conftest import counting_feature_passes, make_path, shape_paths


def bm25_scores(bank, query_tokens):
    """BM25 score of every record of ``bank`` matching at least one query token,
    by record id, read from the bank's impact index."""
    scores = bank._scores(query_tokens)
    return {bank._id_order[pos].id: s for pos, s in enumerate(scores) if s > 0.0}


def rec(rid, text, **kw):
    defaults = dict(
        doc_id="d1", category=EvidenceCategory.REVIEW, citation="c", hint=None
    )
    defaults.update(kw)
    return EvidenceRecord(id=rid, proposition=text, **defaults)


class TestTokenize:
    def test_lowercases_and_splits_on_nonalnum(self):
        assert tokenize("Wear-out, Gamma PROCESS 2x!") == [
            "wear",
            "out",
            "gamma",
            "process",
            "2x",
        ]

    def test_empty(self):
        assert tokenize("...") == []


class TestBankLoading:
    def _write(self, tmp_path, lines):
        p = tmp_path / "bank.jsonl"
        p.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        return p

    def _record_dict(self, rid=1, **kw):
        d = {
            "id": rid,
            "proposition": "corrosion accumulates monotonically",
            "doc_id": "doc-1",
            "category": "mechanism",
            "citation": "doc-1 p3",
            "hint": {"family": "G", "trend": "L"},
        }
        d.update(kw)
        return d

    def test_roundtrip(self, tmp_path):
        bank = load_bank(self._write(tmp_path, [self._record_dict()]))
        r = bank.records[0]
        assert r.category is EvidenceCategory.MECHANISM
        assert r.hint.family is Family.GAMMA
        assert r.hint.trend is Trend.LINEAR

    def test_duplicate_id_rejected(self, tmp_path):
        p = self._write(tmp_path, [self._record_dict(1), self._record_dict(1)])
        with pytest.raises(ValueError, match="duplicate"):
            load_bank(p)

    def test_bad_record_reports_line_number(self, tmp_path):
        p = self._write(tmp_path, [self._record_dict(1), {"id": 2}])
        with pytest.raises(ValueError, match=":2:"):
            load_bank(p)

    def test_hint_optional(self, tmp_path):
        bank = load_bank(self._write(tmp_path, [self._record_dict(hint=None)]))
        assert bank.records[0].hint is None

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "bank.jsonl"
        p.write_text(json.dumps(self._record_dict()) + "\n\n\n")
        assert len(load_bank(p)) == 1


class TestDefaultBank:
    def test_size_and_categories(self, bank):
        assert len(bank) >= 50
        cats = {r.category for r in bank.records}
        assert cats == set(EvidenceCategory)

    def test_every_record_has_provenance(self, bank):
        assert all(r.doc_id and r.citation for r in bank.records)

    def test_hints_cover_both_hierarchies(self, bank):
        fams = {r.hint.family for r in bank.records if r.hint and r.hint.family}
        trends = {r.hint.trend for r in bank.records if r.hint and r.hint.trend}
        assert fams == {Family.WIENER, Family.GAMMA}
        assert trends == {Trend.LINEAR, Trend.NONLINEAR}


class TestBM25:
    def test_matches_reference_formula(self):
        records = [
            rec(1, "gamma process models monotone wear"),
            rec(2, "wiener process captures fluctuating drift"),
            rec(3, "wear and corrosion accumulate as monotone damage"),
        ]
        bank = EvidenceBank(records)
        q = tokenize("monotone wear process")
        got = bm25_scores(bank, q)

        # Independent plain-loop implementation of the same scoring rule.
        docs = {r.id: tokenize(r.proposition) for r in records}
        avg = sum(len(t) for t in docs.values()) / len(docs)
        expected = {}
        for term in q:
            df = sum(term in toks for toks in docs.values())
            idf = math.log(1 + (len(docs) - df + 0.5) / (df + 0.5))
            for rid, toks in docs.items():
                tf = toks.count(term)
                if tf == 0:
                    continue
                denom = tf + 1.2 * (1 - 0.75 + 0.75 * len(toks) / avg)
                expected[rid] = expected.get(rid, 0.0) + idf * tf * 2.2 / denom
        assert set(got) == set(expected)
        for rid in expected:
            assert got[rid] == pytest.approx(expected[rid], rel=1e-12)

    def test_idf_of_absent_term_positive(self):
        bank = EvidenceBank([rec(1, "alpha beta")])
        assert bank.idf("missing") > 0

    def test_zero_overlap_yields_empty_scores(self):
        bank = EvidenceBank([rec(1, "alpha beta")])
        assert bm25_scores(bank, ["zzz"]) == {}

    @pytest.mark.parametrize("propositions", [["!!!"], ["!!!", "마모 누적"]])
    def test_bank_without_tokens(self, propositions):
        # Tokens are runs of [a-z0-9]: no record has one, so the mean length is 0.
        tokenless = EvidenceBank([rec(i, p) for i, p in enumerate(propositions, start=1)])
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11, n_percent=70)
        assert len(retrieve_top_k(tokenless, build_query(traj))) == 0
        out = run_inference(InferenceInput.for_case(Case.CASE2, traj), tokenless)
        assert out.chosen in out.retained


def reference_bm25(records, query_tokens):
    """The plain loop of ``test_matches_reference_formula``: idf and length
    norm recomputed for every query term and record."""
    docs = {r.id: tokenize(r.proposition) for r in records}
    avg = sum(len(t) for t in docs.values()) / len(docs)
    expected = {}
    for term in query_tokens:
        df = sum(term in toks for toks in docs.values())
        idf = math.log(1 + (len(docs) - df + 0.5) / (df + 0.5))
        for rid, toks in docs.items():
            tf = toks.count(term)
            if tf == 0:
                continue
            denom = tf + 1.2 * (1 - 0.75 + 0.75 * len(toks) / avg)
            expected[rid] = expected.get(rid, 0.0) + idf * tf * 2.2 / denom
    return expected


def reference_top_k(records, query_tokens, k):
    scores = reference_bm25(records, query_tokens)
    ranked = sorted(
        ((rid, s) for rid, s in scores.items() if s > 0.0), key=lambda item: (-item[1], item[0])
    )
    return ranked[:k]


WORDS = ("wear", "gamma", "drift", "noise", "crack", "the", "of", "monotone", "load")


@st.composite
def random_banks(draw):
    """Up to 12 records with distinct ids in any order; propositions of 1-12
    words drawn with repetition from a small vocabulary."""
    ids = draw(st.lists(st.integers(1, 500), min_size=1, max_size=12, unique=True))
    return [
        rec(rid, " ".join(draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=12))))
        for rid in ids
    ]


# Query tokens: the bank's vocabulary, with repeats, plus unknown tokens.
random_queries = st.lists(st.sampled_from(WORDS + ("zzz", "unknown")), min_size=0, max_size=15)


def experiment_query_texts():
    """Every query text the experiments build: each template of
    ``build_query`` with each context ``bench`` passes, and with none."""
    texts = []
    for shape in (
        "monotonic increase of the health indicator",
        "local increases and decreases of the health indicator",
    ):
        for trend in ("accelerating nonlinear trend", "approximately linear trend"):
            for noise in ((), ("high measurement noise",)):
                template = "; ".join((shape, trend) + noise)
                texts.append(template)
                texts.extend(f"{template}; {c}" for c in CONTEXT_BY_FAMILY.values())
    return texts


class TestImpactIndex:
    """Scores from the weights stored at construction equal the plain loop
    bit for bit: the same expression per (term, record), added in query order."""

    @settings(max_examples=200, deadline=None)
    @given(records=random_banks(), query=random_queries)
    def test_scores_equal_reference_loop(self, records, query):
        assert bm25_scores(EvidenceBank(records), query) == reference_bm25(records, query)

    def test_shipped_bank_on_every_experiment_query(self, bank):
        for text in experiment_query_texts():
            q = tokenize(text)
            assert bm25_scores(bank, q) == reference_bm25(bank.records, q), text

    def test_experiment_queries_cover_build_query(self):
        texts = set(experiment_query_texts())
        for kind in SimKind:
            for seed in range(5):
                for pct in (30, 100):
                    traj = truncate_at_progress(make_path(kind, seed=seed), pct)
                    for context in ("", *CONTEXT_BY_FAMILY.values()):
                        assert build_query(traj, context).text in texts

    @settings(max_examples=200, deadline=None)
    @given(records=random_banks(), query=random_queries, k=st.integers(1, 14))
    def test_ranking_equals_reference(self, records, query, k):
        out = retrieve_top_k(EvidenceBank(records), Query(" ".join(query), None), k=k)
        assert [(r.id, s) for r, s in out] == reference_top_k(records, query, k)

    def test_ties_ordered_by_id_whatever_the_bank_order(self):
        bank = EvidenceBank([rec(rid, "crack growth") for rid in (40, 7, 19, 3)])
        out = retrieve_top_k(bank, Query("crack", None), k=3)
        assert [r.id for r in out.records()] == [3, 7, 19]
        assert len({s for _, s in out}) == 1

    def test_records_without_a_query_term_are_excluded(self):
        bank = EvidenceBank([rec(1, "crack growth"), rec(2, "gamma wear"), rec(3, "crack")])
        out = retrieve_top_k(bank, Query("crack unknown", None), k=8)
        assert [r.id for r in out.records()] == [3, 1]
        assert retrieve_top_k(bank, Query("unknown zzz", None), k=8) == RetrievedSet(())

    def test_idf_reads_document_frequency(self):
        bank = EvidenceBank([rec(1, "crack crack"), rec(2, "crack wear"), rec(3, "wear")])
        assert bank.idf("crack") == math.log(1.0 + (3 - 2 + 0.5) / (2 + 0.5))
        assert bank.idf("load") == math.log(1.0 + (3 + 0.5) / 0.5)


class TestRetrieval:
    def _bank(self):
        return EvidenceBank(
            [
                rec(5, "wear accumulates monotonically in pipelines"),
                rec(2, "vibration signals fluctuate around a drift"),
                rec(9, "monotone wear of bearings"),
                rec(1, "unrelated maintenance scheduling topic"),
            ]
        )

    def test_scores_descending_and_zero_excluded(self):
        out = retrieve_top_k(self._bank(), Query("monotone wear", None), k=10)
        scores = [s for _, s in out]
        assert scores == sorted(scores, reverse=True)
        assert 1 not in {r.id for r in out.records()}

    def test_k_truncates(self):
        out = retrieve_top_k(self._bank(), Query("monotone wear", None), k=1)
        assert len(out) == 1

    def test_tie_break_ascending_id(self):
        bank = EvidenceBank([rec(7, "alpha beta"), rec(3, "alpha beta")])
        out = retrieve_top_k(bank, Query("alpha", None), k=2)
        assert [r.id for r in out.records()] == [3, 7]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            retrieve_top_k(self._bank(), Query("wear", None), k=0)

    def test_default_bank_family_separation(self, bank):
        gamma_q = Query(
            "monotonic increase of the health indicator; corrosion wear", None
        )
        out = retrieve_top_k(bank, gamma_q, k=8)
        hints = [r.hint.family for r in out.records() if r.hint and r.hint.family]
        assert hints.count(Family.GAMMA) > hints.count(Family.WIENER)


# (query tokens, k) requests, with repeats.
memo_requests = st.lists(st.tuples(random_queries, st.integers(1, 14)), min_size=1, max_size=30)


def ranking(out):
    return [(r.id, s) for r, s in out]


class TestRetrievalMemo:
    """A bank keeps each (query text, k) pair's retrieved set: a repeat gets
    the same object, equal to a fresh bank's retrieval, scores bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(records=random_banks(), requests=memo_requests)
    def test_memoized_sets_equal_a_fresh_banks(self, records, requests):
        bank = EvidenceBank(records)
        first = {}
        for tokens, k in requests:
            text = " ".join(tokens)
            out = retrieve_top_k(bank, Query(text, None), k=k)
            assert out is first.setdefault((text, k), out)
            fresh = retrieve_top_k(EvidenceBank(records), Query(text, None), k=k)
            assert out == fresh and ranking(out) == ranking(fresh)

    @settings(max_examples=100, deadline=None)
    @given(records=random_banks(), requests=memo_requests, bound=st.integers(1, 5))
    def test_memo_never_exceeds_its_bound(self, records, requests, bound):
        bank = EvidenceBank(records)
        with patch.object(evidence, "RETRIEVAL_MEMO_SIZE", bound):
            for tokens, k in requests:
                query = Query(" ".join(tokens), None)
                out = retrieve_top_k(bank, query, k=k)
                assert len(bank._retrieved) <= bound
                assert bank._retrieved[(query.text, k)] is out
                assert ranking(out) == ranking(retrieve_top_k(EvidenceBank(records), query, k=k))

    def test_default_bound_on_many_texts(self, bank):
        bank = EvidenceBank(bank.records)
        for i in range(2 * evidence.RETRIEVAL_MEMO_SIZE + 1):
            retrieve_top_k(bank, Query(f"wear {i}", None))
            assert 0 < len(bank._retrieved) <= evidence.RETRIEVAL_MEMO_SIZE

    def test_scores_run_once_per_text_and_k(self, bank):
        bank = EvidenceBank(bank.records)
        calls = []
        scores = bank._scores
        bank._scores = lambda tokens: calls.append(tokens) or scores(tokens)
        for text in experiment_query_texts() * 3:
            for k in (1, 8):
                retrieve_top_k(bank, Query(text, None), k=k)
        assert len(calls) == 2 * len(set(experiment_query_texts()))


class TestFeatureSummary:
    def test_monotone_gamma_path(self):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11)
        feats = feature_summary(traj)
        assert feats.monotone
        assert feats.neg_increment_fraction == 0.0

    def test_wiener_path_has_negative_steps(self):
        traj = make_path(SimKind.LINEAR_WIENER, seed=11)
        feats = feature_summary(traj)
        assert not feats.monotone
        assert 0.0 < feats.neg_increment_fraction < 0.5

    def test_curvature_sign(self):
        t = tuple(float(i) for i in range(0, 40))
        accel = Trajectory("a", t, tuple(float(i) ** 1.8 / 50 for i in range(0, 40)))
        lin = Trajectory("b", t, tuple(float(i) for i in range(0, 40)))
        assert feature_summary(accel).trend_curvature > 0.25
        assert abs(feature_summary(lin).trend_curvature) < 0.05

    def test_neg_fraction_exact(self):
        traj = Trajectory("u", (0.0, 1.0, 2.0, 3.0, 4.0), (0.0, 1.0, 0.5, 1.5, 2.5))
        assert feature_summary(traj).neg_increment_fraction == 0.25


def reference_features(traj):
    """The feature pass as three separate computations: np.polyfit for the
    log-log slope and np.mean / np.std for the noise ratio."""
    values, times = np.asarray(traj.values), np.asarray(traj.times)
    deltas = np.diff(values)
    pos = times > 0
    slope = (
        float(np.polyfit(np.log(times[pos]), np.log(np.maximum(values[pos], EPS)), 1)[0])
        if np.count_nonzero(pos) >= 2
        else 1.0
    )
    return (
        float(np.mean(deltas < 0)),
        slope,
        float(np.std(deltas) / (abs(float(np.mean(deltas))) + EPS)),
    )


class TestFeaturePass:
    @settings(max_examples=150, deadline=None)
    @given(traj=shape_paths())
    def test_matches_separate_computations(self, traj):
        neg_frac, slope, noise = reference_features(traj)
        feats = feature_summary(traj)
        assert feats.neg_increment_fraction == neg_frac
        assert feats.monotone == (neg_frac == 0.0)
        assert abs(feats.trend_curvature - (slope - 1.0)) <= 1e-12 * max(1.0, abs(slope))
        assert feats.noise_scale_ratio == noise
        deltas = np.diff(traj.values)
        assert feats.flat == bool(np.max(np.abs(deltas)) < 1e-12)
        assert feats.strictly_increasing == bool(np.all(deltas > 0))
        assert feats.n_increments == len(traj) - 1

    @settings(max_examples=150, deadline=None)
    @given(traj=shape_paths(), context=st.sampled_from(["", "pipeline corrosion"]))
    def test_query_text_unchanged(self, traj, context):
        neg_frac, slope, noise = reference_features(traj)
        # Within rounding of the threshold, the two slope formulas may disagree.
        assume(abs(slope - 1.0 - CURVATURE_NONLINEAR) > 1e-9)
        phrases = [
            "monotonic increase of the health indicator"
            if neg_frac == 0.0
            else "local increases and decreases of the health indicator",
            "accelerating nonlinear trend"
            if slope - 1.0 > CURVATURE_NONLINEAR
            else "approximately linear trend",
        ]
        if noise > 1.0:
            phrases.append("high measurement noise")
        expected = "; ".join(phrases + ([context] if context else []))
        assert build_query(traj, context).text == expected

    def test_flat_path(self):
        traj = Trajectory("f", (0.0, 1.0, 2.0, 3.0), (2.0, 2.0, 2.0, 2.0))
        feats = feature_summary(traj)
        assert feats.flat and feats.monotone and not feats.strictly_increasing


class TestFeaturePassPerTrajectory:
    @settings(max_examples=100, deadline=None)
    @given(traj=shape_paths(), context=st.sampled_from(["", "pipeline corrosion"]))
    def test_one_pass_per_trajectory_object(self, traj, context):
        with counting_feature_passes() as calls:
            first = build_query(traj)
            queries = [build_query(traj, context), Observation.of(traj, context).query]
        assert len(calls) == 1 and calls[0] is traj
        assert all(q.features is first.features for q in queries)
        assert first.features == feature_summary(traj)

    @settings(max_examples=100, deadline=None)
    @given(traj=shape_paths(), pct=st.integers(1, 100))
    def test_copy_and_prefix_get_their_own_summary(self, traj, pct):
        build_query(traj)
        # An equal copy, a relabelled one and a prefix: each a new object.
        others = [replace(traj), replace(traj, unit_id="copy")]
        try:
            prefix = truncate_at_progress(traj, pct)
        except WindowTooShortError:
            prefix = None
        if prefix is not None and len(prefix) >= 3:
            others.append(prefix)
        with counting_feature_passes() as calls:
            got = [build_query(t).features for t in others]
        assert [id(t) for t in calls] == [id(t) for t in others]
        assert got == [feature_summary(t) for t in others]


class TestBuildQuery:
    def test_monotone_phrase(self):
        q = build_query(make_path(SimKind.HOMOG_GAMMA, seed=11))
        assert "monotonic increase" in q.text

    def test_fluctuation_phrase(self):
        q = build_query(make_path(SimKind.LINEAR_WIENER, seed=11))
        assert "local increases and decreases" in q.text

    def test_context_appended(self):
        q = build_query(make_path(SimKind.HOMOG_GAMMA, seed=11), context="pipeline corrosion")
        assert q.text.endswith("pipeline corrosion")

    def test_nonlinear_phrase_on_accelerating_path(self):
        traj = make_path(SimKind.NONHOMOG_GAMMA, seed=11)
        assert "accelerating nonlinear trend" in build_query(traj).text


def test_hint_for_hierarchy():
    h = EvidenceHint(family=Family.GAMMA, trend=Trend.NONLINEAR)
    assert structural_label(h, Hierarchy.FAMILY) is Family.GAMMA
    assert structural_label(h, Hierarchy.TREND) is Trend.NONLINEAR
