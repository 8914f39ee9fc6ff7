import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from degselect.decisions import (
    Answer,
    ArbitrationConfig,
    EvidenceBlendProvider,
    HeuristicProvider,
    Observation,
    ProviderPair,
    RemoteTextGenProvider,
    arbitrate,
    decide_all_hierarchies,
    default_providers,
)
from degselect.evidence import (
    EvidenceCategory,
    EvidenceHint,
    EvidenceRecord,
    RetrievedSet,
)
from degselect.model_space import Family, Hierarchy, Trend, Uncertain
from degselect.pipeline import Case, InferenceInput, run_inference
from degselect.simulate import SimKind, Trajectory

from conftest import make_path

CFG = ArbitrationConfig()


class TestAnswer:
    def test_confidence_bounds(self):
        with pytest.raises(ValueError):
            Answer(Family.WIENER, 1.2)
        with pytest.raises(ValueError):
            Answer(Family.WIENER, -0.1)

    def test_hierarchy_property(self):
        assert Answer(Trend.LINEAR, 0.5).hierarchy is Hierarchy.TREND
        assert Answer(Family.GAMMA, 0.5).hierarchy is Hierarchy.FAMILY


class TestArbitration:
    def test_agreement_returns_contextual_label(self):
        out = arbitrate(Answer(Family.WIENER, 0.9), Answer(Family.WIENER, 0.55), CFG)
        assert out is Family.WIENER

    def test_internal_dominates(self):
        out = arbitrate(Answer(Family.WIENER, 0.9), Answer(Family.GAMMA, 0.6), CFG)
        assert out is Family.WIENER

    def test_contextual_dominates(self):
        out = arbitrate(Answer(Trend.LINEAR, 0.55), Answer(Trend.NONLINEAR, 0.8), CFG)
        assert out is Trend.NONLINEAR

    def test_margin_tie_is_uncertain(self):
        out = arbitrate(Answer(Family.WIENER, 0.62), Answer(Family.GAMMA, 0.60), CFG)
        assert out == Uncertain(Hierarchy.FAMILY)

    def test_exact_margin_boundary_is_uncertain(self):
        # A gap of exactly delta does not dominate.  Dyadic values keep the
        # subtraction exact in floating point.
        cfg = ArbitrationConfig(delta=0.0625)
        out = arbitrate(Answer(Family.WIENER, 0.75), Answer(Family.GAMMA, 0.6875), cfg)
        assert out == Uncertain(Hierarchy.FAMILY)

    def test_hierarchy_mismatch_raises(self):
        with pytest.raises(ValueError):
            arbitrate(Answer(Family.WIENER, 0.7), Answer(Trend.LINEAR, 0.7), CFG)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            ArbitrationConfig(delta=1.0)

    @given(
        ci=st.floats(0, 1),
        cc=st.floats(0, 1),
        same=st.booleans(),
        delta=st.floats(0, 0.5),
    )
    def test_reference_rule(self, ci, cc, same, delta):
        li = Family.WIENER
        lc = Family.WIENER if same else Family.GAMMA
        out = arbitrate(Answer(li, ci), Answer(lc, cc), ArbitrationConfig(delta))
        if same:
            expected = lc
        elif ci - cc > delta:
            expected = li
        elif cc - ci > delta:
            expected = lc
        else:
            expected = Uncertain(Hierarchy.FAMILY)
        assert out == expected


def retrieved(*pairs):
    items = []
    for i, (hint, s) in enumerate(pairs, start=1):
        rec = EvidenceRecord(
            id=i,
            proposition=f"proposition {i}",
            doc_id="d",
            category=EvidenceCategory.REVIEW,
            citation="c",
            hint=hint,
        )
        items.append((rec, s))
    return RetrievedSet(tuple(items))


class TestHeuristicProvider:
    def setup_method(self):
        self.p = HeuristicProvider()

    def test_monotone_path_is_confident_gamma(self):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11)
        ans = self.p.decide(Hierarchy.FAMILY, Observation.of(traj))
        assert ans.label is Family.GAMMA
        assert ans.confidence > 0.7

    def test_fluctuating_path_is_wiener(self):
        traj = make_path(SimKind.LINEAR_WIENER, seed=11)
        ans = self.p.decide(Hierarchy.FAMILY, Observation.of(traj))
        assert ans.label is Family.WIENER
        assert 0.5 <= ans.confidence <= 0.99

    def test_confidence_mapping_exact(self):
        # 1 negative step out of 20: p = 0.05 -> conf = 0.5 + 0.03/0.15 = 0.7.
        vals = [float(i) for i in range(21)]
        vals[10] = vals[9] - 0.5
        traj = Trajectory("u", tuple(map(float, range(21))), tuple(vals))
        ans = self.p.decide(Hierarchy.FAMILY, Observation.of(traj))
        assert ans.label is Family.WIENER
        assert ans.confidence == pytest.approx(0.5 + abs(0.05 - 0.02) / 0.15)

    def test_monotone_bonus_requires_min_steps(self):
        short = Trajectory(
            "u", tuple(map(float, range(6))), (0.0, 0.5, 1.1, 1.6, 2.3, 2.9)
        )
        ans = self.p.decide(Hierarchy.FAMILY, Observation.of(short))
        # p = 0 -> 0.5 + 0.02/0.15 without the bonus (too few steps).
        assert ans.confidence == pytest.approx(0.5 + 0.02 / 0.15)

    def test_flat_path_defaults_to_wiener_half(self):
        traj = Trajectory("u", (0.0, 1.0, 2.0, 3.0), (1.0, 1.0, 1.0, 1.0))
        ans = self.p.decide(Hierarchy.FAMILY, Observation.of(traj))
        assert (ans.label, ans.confidence) == (Family.WIENER, 0.5)

    def test_trend_nonlinear_on_accelerating_path(self):
        traj = make_path(SimKind.NONHOMOG_GAMMA, seed=11)
        ans = self.p.decide(Hierarchy.TREND, Observation.of(traj))
        assert ans.label is Trend.NONLINEAR
        assert ans.confidence > 0.6

    def test_trend_linear_on_steady_path(self):
        traj = make_path(SimKind.LINEAR_WIENER, seed=11)
        ans = self.p.decide(Hierarchy.TREND, Observation.of(traj))
        assert ans.label is Trend.LINEAR

    def test_trend_fit_failure_falls_back(self):
        traj = Trajectory("u", (0.0, 1.0, 2.0), (0.0, 0.5, 1.0))
        ans = self.p.decide(Hierarchy.TREND, Observation.of(traj))
        assert (ans.label, ans.confidence) == (Trend.LINEAR, 0.5)

    def test_confidence_cap(self):
        traj = make_path(SimKind.LINEAR_WIENER, seed=11)
        obs = Observation.of(traj)
        p = obs.query.features.neg_increment_fraction
        assert p == pytest.approx(0.133, abs=1e-3)
        # Unclamped, 0.5 + |p - 0.02| / 0.15 is about 1.25.
        assert 0.5 + abs(p - 0.02) / 0.15 > 0.99
        assert self.p.decide(Hierarchy.FAMILY, obs).confidence == 0.99


class TestEvidenceBlendProvider:
    def setup_method(self):
        self.p = EvidenceBlendProvider()
        self.traj = make_path(SimKind.HOMOG_GAMMA, seed=11)

    def test_no_evidence_equals_internal_direction(self):
        internal = self.p.internal.decide(Hierarchy.FAMILY, Observation.of(self.traj))
        blended = self.p.decide(Hierarchy.FAMILY, Observation.of(self.traj), evidence=retrieved())
        assert blended.label == internal.label
        f = 2.0 * internal.confidence - 1.0
        assert blended.confidence == pytest.approx(0.5 + 0.49 * f)

    def test_agreeing_hints_keep_label(self):
        ev = retrieved((EvidenceHint(family=Family.GAMMA), 3.0))
        out = self.p.decide(Hierarchy.FAMILY, Observation.of(self.traj), evidence=ev)
        assert out.label is Family.GAMMA

    def test_strong_opposing_hints_flip_weak_internal(self):
        # A barely-monotone-violating path gives a weak Wiener answer that
        # unanimous gamma evidence can overturn.
        vals = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 4.9, 6.0, 7.0, 8.0, 9.0]
        traj = Trajectory("u", tuple(map(float, range(11))), tuple(vals))
        internal = self.p.internal.decide(Hierarchy.FAMILY, Observation.of(traj))
        assert internal.label is Family.WIENER
        ev = retrieved(
            (EvidenceHint(family=Family.GAMMA), 5.0),
            (EvidenceHint(family=Family.GAMMA), 4.0),
        )
        out = self.p.decide(Hierarchy.FAMILY, Observation.of(traj), evidence=ev)
        assert out.label is Family.GAMMA

    def test_score_weighted_average(self):
        ev = retrieved(
            (EvidenceHint(family=Family.WIENER), 3.0),
            (EvidenceHint(family=Family.GAMMA), 1.0),
        )
        internal = self.p.internal.decide(Hierarchy.FAMILY, Observation.of(self.traj))
        f = -(2.0 * internal.confidence - 1.0)  # gamma sign is negative
        v = (3.0 * 1.0 + 1.0 * -1.0) / 4.0
        u = 0.5 * v + 0.5 * f
        out = self.p.decide(Hierarchy.FAMILY, Observation.of(self.traj), evidence=ev)
        assert out.confidence == pytest.approx(0.5 + 0.49 * abs(u))

    def test_hints_for_other_hierarchy_ignored(self):
        ev = retrieved((EvidenceHint(trend=Trend.NONLINEAR), 9.0))
        out = self.p.decide(Hierarchy.FAMILY, Observation.of(self.traj), evidence=ev)
        base = self.p.decide(Hierarchy.FAMILY, Observation.of(self.traj), evidence=retrieved())
        assert out == base

    def test_confidence_always_valid(self):
        for kind in SimKind:
            traj = make_path(kind, seed=13)
            for h in Hierarchy:
                out = self.p.decide(h, Observation.of(traj), evidence=retrieved())
                assert 0.0 <= out.confidence <= 0.99


class _StubHandler(BaseHTTPRequestHandler):
    responses: list = []
    requests_seen: list = []
    delay = 0.0

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        type(self).requests_seen.append(json.loads(body))
        time.sleep(type(self).delay)
        status, payload = (
            type(self).responses.pop(0) if type(self).responses else (200, {"text": "W 0.9"})
        )
        data = json.dumps(payload).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client timed out and closed the connection

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.responses = []
    _StubHandler.requests_seen = []
    _StubHandler.delay = 0.0
    yield f"http://127.0.0.1:{server.server_port}", _StubHandler
    server.shutdown()


class TestRemoteProvider:
    def test_parses_well_formed_answer(self, stub_server):
        url, handler = stub_server
        handler.responses = [(200, {"text": "G 0.85\nextra prose"})]
        p = RemoteTextGenProvider(url)
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11)
        ans = p.decide(Hierarchy.FAMILY, Observation.of(traj))
        assert (ans.label, ans.confidence) == (Family.GAMMA, 0.85)

    def test_prompt_contains_query_and_evidence(self, stub_server):
        url, handler = stub_server
        p = RemoteTextGenProvider(url)
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11)
        ev = retrieved((EvidenceHint(family=Family.GAMMA), 2.0))
        p.decide(Hierarchy.FAMILY, Observation.of(traj), evidence=ev)
        prompt = handler.requests_seen[0]["prompt"]
        assert "monotonic increase" in prompt
        assert "proposition 1" in prompt
        assert handler.requests_seen[0]["max_tokens"] == 64

    def test_out_of_range_confidence_clamped_with_diagnostic(self, stub_server):
        url, handler = stub_server
        handler.responses = [(200, {"text": "W 1.7"})]
        p = RemoteTextGenProvider(url)
        obs = Observation.of(make_path(SimKind.LINEAR_WIENER, seed=11))
        ans = p.decide(Hierarchy.FAMILY, obs)
        assert ans.confidence == 1.0
        assert any("clamped" in d for d in obs.diagnostics)

    def test_malformed_retries_once_then_falls_back(self, stub_server):
        url, handler = stub_server
        handler.responses = [(200, {"text": "nonsense"}), (200, {"text": "???"})]
        p = RemoteTextGenProvider(url)
        obs = Observation.of(make_path(SimKind.HOMOG_GAMMA, seed=11))
        ans = p.decide(Hierarchy.FAMILY, obs)
        assert len(handler.requests_seen) == 2
        assert ans == p.fallback.decide(Hierarchy.FAMILY, obs)
        assert len(obs.diagnostics) == 2

    def test_malformed_then_valid_succeeds(self, stub_server):
        url, handler = stub_server
        handler.responses = [(200, {"text": ""}), (200, {"text": "NL 0.7"})]
        p = RemoteTextGenProvider(url)
        ans = p.decide(Hierarchy.TREND, Observation.of(make_path(SimKind.NONHOMOG_GAMMA, seed=11)))
        assert (ans.label, ans.confidence) == (Trend.NONLINEAR, 0.7)

    def test_http_error_falls_back(self, stub_server):
        url, handler = stub_server
        handler.responses = [(500, {"error": "boom"})]
        p = RemoteTextGenProvider(url)
        obs = Observation.of(make_path(SimKind.HOMOG_GAMMA, seed=11))
        ans = p.decide(Hierarchy.FAMILY, obs)
        assert ans == p.fallback.decide(Hierarchy.FAMILY, obs)
        assert any("failed" in d for d in obs.diagnostics)

    def test_timeout_falls_back(self, stub_server):
        url, handler = stub_server
        handler.delay = 0.5
        p = RemoteTextGenProvider(url, timeout=0.1)
        obs = Observation.of(make_path(SimKind.HOMOG_GAMMA, seed=11))
        ans = p.decide(Hierarchy.FAMILY, obs)
        assert ans == p.fallback.decide(Hierarchy.FAMILY, obs)
        assert any("timed out" in d for d in obs.diagnostics)

    def test_unreachable_endpoint_falls_back(self):
        p = RemoteTextGenProvider("http://127.0.0.1:1/nowhere", timeout=0.2)
        obs = Observation.of(make_path(SimKind.HOMOG_GAMMA, seed=11))
        ans = p.decide(Hierarchy.FAMILY, obs)
        assert ans == p.fallback.decide(Hierarchy.FAMILY, obs)

    @pytest.mark.parametrize("body", [["G 0.9"], {"text": 5}, {"text": None}])
    def test_body_without_string_text_falls_back(self, stub_server, body):
        url, handler = stub_server
        handler.responses = [(200, body)]
        p = RemoteTextGenProvider(url)
        obs = Observation.of(make_path(SimKind.HOMOG_GAMMA, seed=11))
        ans = p.decide(Hierarchy.FAMILY, obs)
        assert ans == p.fallback.decide(Hierarchy.FAMILY, obs)
        assert any("'text'" in d for d in obs.diagnostics)

    def test_run_inference_returns_each_inference_diagnostics(self, stub_server, bank):
        url, handler = stub_server
        handler.responses = [(500, {"error": "boom"}), (200, {"text": "G 1.5"})]
        remote = RemoteTextGenProvider(url)
        pair = ProviderPair(internal=remote, contextual=remote)
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11, n_percent=70)
        inp = InferenceInput.for_case(Case.CASE1, traj)
        first = run_inference(inp, bank, pair)
        assert len(handler.requests_seen) == 2
        assert [d.split(":")[0] for d in first.diagnostics] == [
            "remote request failed",
            "confidence 1.5 clamped to [0, 1]",
        ]
        # The next inference starts clean; the provider keeps no record.
        second = run_inference(inp, bank, pair)
        assert second.diagnostics == []
        assert not hasattr(remote, "diagnostics")

    def test_wrong_hierarchy_label_is_malformed(self, stub_server):
        url, handler = stub_server
        handler.responses = [(200, {"text": "NL 0.9"}), (200, {"text": "W 0.9"})]
        p = RemoteTextGenProvider(url)
        ans = p.decide(Hierarchy.FAMILY, Observation.of(make_path(SimKind.LINEAR_WIENER, seed=11)))
        assert ans.label is Family.WIENER


class TestDecideAllHierarchies:
    def test_produces_record_per_hierarchy(self, bank):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11)
        out = decide_all_hierarchies(Observation.of(traj), bank, default_providers())
        assert set(out) == {Hierarchy.FAMILY, Hierarchy.TREND}
        rec = out[Hierarchy.FAMILY]
        assert rec.final == arbitrate(rec.internal, rec.contextual, CFG)
        assert len(rec.evidence) > 0

    def test_restricted_hierarchies(self, bank):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11)
        out = decide_all_hierarchies(
            Observation.of(traj), bank, default_providers(), hierarchies=(Hierarchy.FAMILY,)
        )
        assert set(out) == {Hierarchy.FAMILY}

    def test_context_steers_retrieval(self, bank):
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11)
        corr = decide_all_hierarchies(
            Observation.of(traj, "pipeline wall corrosion inspections"), bank, default_providers()
        )
        ids = {r.id for r in corr[Hierarchy.FAMILY].evidence.records()}
        bare = decide_all_hierarchies(Observation.of(traj), bank, default_providers())
        bare_ids = {r.id for r in bare[Hierarchy.FAMILY].evidence.records()}
        assert ids != bare_ids

    def test_one_retrieval_for_both_hierarchies(self, bank, monkeypatch):
        import degselect.decisions as dec

        calls = []
        retrieve = dec.retrieve_top_k
        monkeypatch.setattr(
            dec, "retrieve_top_k", lambda *a, **kw: calls.append(a) or retrieve(*a, **kw)
        )
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11)
        out = decide_all_hierarchies(Observation.of(traj), bank, default_providers())
        assert len(calls) == 1
        assert out[Hierarchy.FAMILY].evidence == out[Hierarchy.TREND].evidence

    def test_heuristic_answer_computed_once_per_hierarchy(self, bank, monkeypatch):
        import degselect.evidence as ev

        calls = []
        summary = ev.feature_summary
        monkeypatch.setattr(
            ev, "feature_summary", lambda traj: calls.append(traj) or summary(traj)
        )
        traj = make_path(SimKind.HOMOG_GAMMA, seed=11)
        out = decide_all_hierarchies(Observation.of(traj), bank, default_providers())
        # The query's features serve both hierarchies and both providers.
        assert len(calls) == 1
        for h, rec in out.items():
            assert rec.internal == HeuristicProvider().decide(h, Observation.of(traj))
