"""In-memory spans around calls into degselect's public names.

Each site below names a module (or class) attribute and the span that a call
through it records.  Sites are patched where the name is bound, so a call
made inside degselect through that binding is seen; nothing in degselect
itself changes.  Spans live in memory and are reduced to per-layer totals
when the traced body ends.

A site whose attribute no longer exists is skipped; every layer metric that
depends only on skipped sites is then reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter
from typing import Callable, Iterable, Optional

FITTERS = (
    "fit_linear_wiener",
    "fit_nonlinear_wiener",
    "fit_homog_gamma",
    "fit_nonhomog_gamma",
)

# Fitter a fit_model request dispatches to, keyed by the model's
# (family, trend) enum values.
DISPATCH = {
    ("W", "L"): "fit_linear_wiener",
    ("W", "NL"): "fit_nonlinear_wiener",
    ("G", "L"): "fit_homog_gamma",
    ("G", "NL"): "fit_nonhomog_gamma",
}


class Tracer:
    """Span stack plus counters, all held in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self.fit_requests: list = []
        self._stack: list[int] = []
        self._fit_results: dict[int, object] = {}

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.clock(), math.nan])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} is open")
        self.spans[idx][3] = self.clock()

    def parent_name(self, idx: int) -> Optional[str]:
        parent = self.spans[idx][1]
        return self.spans[parent][0] if parent >= 0 else None

    def add_child(self, idx: int, name: str) -> None:
        """A leaf child covering the whole of closed span ``idx``."""
        _, _, start, end = self.spans[idx]
        self.spans.append([name, idx, start, end])

    def first_result(self, result: object) -> bool:
        """True the first time this result object is seen.

        A cached fit_model request hands back the object of an earlier call;
        a fitter that ran returns a new one.  Results are kept alive so that
        their ids cannot be reused.
        """
        if id(result) in self._fit_results:
            return False
        self._fit_results[id(result)] = result
        return True


def layer_totals(spans: Iterable[list]) -> dict[str, dict[str, float]]:
    """Calls and self time per span name.

    Self time is a span's duration minus the durations of its direct
    children, i.e. the part of its interval no child span covers.
    """
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, _, start, end) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
    return out


def count_repeats(requests: Iterable) -> int:
    """Number of requests whose key was requested earlier in the sequence."""
    seen = set()
    repeats = 0
    for key in requests:
        if key in seen:
            repeats += 1
        else:
            seen.add(key)
    return repeats


def repeat_ratio(requests: list) -> float:
    """Share of requests whose key was requested earlier in the sequence."""
    return count_repeats(requests) / len(requests) if requests else 0.0


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _span_wrapper(tracer: Tracer, fn, name, after=None):
    """Wrap ``fn`` in a span; ``name`` is a string or a function of the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name if isinstance(name, str) else name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx)
            if after is not None:
                after(tracer, idx, args, kwargs, None, exc)
            raise
        tracer.close(idx)
        if after is not None:
            after(tracer, idx, args, kwargs, result, None)
        return result

    return wrapper


def _raised(exc: Optional[BaseException], class_name: str) -> bool:
    """True when ``exc`` is an instance of a class named ``class_name``."""
    return exc is not None and any(c.__name__ == class_name for c in type(exc).__mro__)


def _is_fit_error(exc: Optional[BaseException]) -> bool:
    return _raised(exc, "FitError")


def _after_fitter(tracer, idx, args, kwargs, result, exc):
    if _is_fit_error(exc):
        tracer.counts["fitting.fit_errors"] += 1


def _after_fit_model(tracer, idx, args, kwargs, result, exc):
    model, inc = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "inc")
    tracer.fit_requests.append((model.id, inc))
    if exc is None and not tracer.first_result(result):
        return  # served from the cache: dispatch cost only
    fitter = DISPATCH[(model.family.value, model.trend.value)]
    tracer.add_child(idx, f"fitting.{fitter}")
    if _is_fit_error(exc):
        tracer.counts["fitting.fit_errors"] += 1


def _score_name(args, kwargs) -> str:
    crit = _arg(args, kwargs, 2, "criterion")
    return "criteria.cv" if crit.value == "cv" else "criteria.ic"


def _after_select_argmin(tracer, idx, args, kwargs, result, exc):
    if _raised(exc, "NoApplicableModelError"):
        tracer.counts["criteria.no_applicable"] += 1


def _decide_name(args, kwargs) -> str:
    hierarchy = _arg(args, kwargs, 1, "hierarchy")
    return f"decisions.decide.{hierarchy.name.lower()}"


def _after_arbitrate(tracer, idx, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["decisions.arbitrate.results"] += 1
        if type(result).__name__ == "Uncertain":
            tracer.counts["decisions.uncertain"] += 1


def _after_condition(tracer, idx, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["model_space.retained_total"] += len(result)


def _after_run_inference(tracer, idx, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["pipeline.results"] += 1
        if result.scores is not None:
            tracer.counts["pipeline.scored"] += 1


_FIT_MODEL_SOURCES = (
    ("fitting.fit_model", "fitting.fit_errors")
    + tuple(f"fitting.{f}" for f in FITTERS)
)

# (owner, attribute, span name or namer, after-hook, sources it provides).
# The sources are the span and counter names that make layer metrics present.
SITES = (
    [("degselect.bench", "generate", "simulate.generate", None, ("simulate.generate",))]
    + [
        ("degselect.decisions", f, f"fitting.{f}", _after_fitter,
         (f"fitting.{f}", "fitting.fit_errors"))
        for f in FITTERS
    ]
    + [
        ("degselect.criteria", "fit_model", "fitting.fit_model", _after_fit_model,
         _FIT_MODEL_SOURCES),
        ("degselect.criteria", "score", _score_name, None, ("criteria.cv", "criteria.ic")),
        ("degselect.pipeline", "select_argmin", "criteria.select_argmin",
         _after_select_argmin, ("criteria.select_argmin", "criteria.no_applicable")),
        ("degselect.bench", "select_argmin", "criteria.select_argmin",
         _after_select_argmin, ("criteria.select_argmin", "criteria.no_applicable",
                                "bench.baseline")),
        ("degselect.decisions", "feature_summary", "evidence.feature_summary", None,
         ("evidence.feature_summary",)),
        ("degselect.evidence", "feature_summary", "evidence.feature_summary", None,
         ("evidence.feature_summary",)),
        ("degselect.decisions", "build_query", "evidence.build_query", None,
         ("evidence.build_query",)),
        ("degselect.decisions", "retrieve_top_k", "evidence.retrieve_top_k", None,
         ("evidence.retrieve_top_k",)),
        ("degselect.decisions:HeuristicProvider", "decide", _decide_name, None,
         ("decisions.decide.family", "decisions.decide.trend")),
        ("degselect.decisions:EvidenceBlendProvider", "decide", _decide_name, None,
         ("decisions.decide.family", "decisions.decide.trend")),
        ("degselect.decisions", "arbitrate", "decisions.arbitrate", _after_arbitrate,
         ("decisions.arbitrate",)),
        ("degselect.pipeline", "condition", "model_space.condition", _after_condition,
         ("model_space.condition",)),
        ("degselect.pipeline", "run_inference", "pipeline.run_inference",
         _after_run_inference, ("pipeline.run_inference",)),
        ("degselect.bench", "run_inference", "pipeline.run_inference",
         _after_run_inference, ("pipeline.run_inference",)),
        ("degselect.bench", "run_experiment", "bench.run_experiment", None,
         ("bench.run_experiment",)),
        ("degselect.bench", "perturb_input", "bench.perturb_input", None,
         ("bench.perturb_input",)),
        ("degselect.bench", "compute_metrics", "bench.compute_metrics", None,
         ("bench.compute_metrics",)),
    ]
)


def _resolve_owner(owner: str):
    module_name, _, cls_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, cls_name, None) if cls_name else obj


class Patches:
    """Installs span wrappers at every site that exists; undoes them on exit."""

    def __init__(self, tracer: Tracer, sites=SITES):
        self.tracer = tracer
        self.sites = sites
        self.installed: list[tuple[object, str, object]] = []
        self.sources: set[str] = set()
        self.missing: list[str] = []

    def __enter__(self) -> "Patches":
        for owner, attr, name, after, sources in self.sites:
            obj = _resolve_owner(owner)
            original = getattr(obj, attr, None) if obj is not None else None
            if original is None:
                self.missing.append(f"{owner}.{attr}")
                continue
            setattr(obj, attr, _span_wrapper(self.tracer, original, name, after))
            self.installed.append((obj, attr, original))
            self.sources.update(sources)
        return self

    def __exit__(self, *exc) -> None:
        for obj, attr, original in reversed(self.installed):
            setattr(obj, attr, original)
        self.installed.clear()


_SPAN_LAYERS = (
    "simulate.generate",
    *(f"fitting.{f}" for f in FITTERS),
    "fitting.fit_model",
    "criteria.cv",
    "criteria.ic",
    "criteria.select_argmin",
    "evidence.feature_summary",
    "evidence.build_query",
    "evidence.retrieve_top_k",
    "decisions.decide.family",
    "decisions.decide.trend",
    "decisions.arbitrate",
    "model_space.condition",
    "pipeline.run_inference",
    "bench.perturb_input",
)

# Per-layer metric -> the sources it needs (see SITES).
LAYER_METRICS = {
    **{f"{span}.{kind}": (span,) for span in _SPAN_LAYERS for kind in ("calls", "s")},
    "fitting.fit_model.repeat_ratio": ("fitting.fit_model",),
    "fitting.fit_errors": ("fitting.fit_errors",),
    "criteria.no_applicable": ("criteria.no_applicable",),
    "evidence.retrievals_per_inference": ("evidence.retrieve_top_k", "pipeline.run_inference"),
    "evidence.feature_passes_per_inference": (
        "evidence.feature_summary", "pipeline.run_inference"),
    "decisions.uncertain_share": ("decisions.arbitrate",),
    "model_space.retained_mean": ("model_space.condition",),
    "pipeline.scored_share": ("pipeline.run_inference",),
    "bench.baseline.s": ("bench.baseline", "bench.run_experiment"),
    "bench.compute_metrics.s": ("bench.compute_metrics",),
}


def summarize(tracer: Tracer) -> dict[str, float]:
    """Additive per-layer quantities of one traced body.

    Ratios are left as numerator/denominator pairs so that several bodies
    can be summed before dividing (see ``layer_metrics``).
    """
    totals = layer_totals(tracer.spans)
    out: dict[str, float] = {}
    for name, row in totals.items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.s"] = row["self_s"]
    baseline = 0.0
    for idx, span in enumerate(tracer.spans):
        if span[0] == "criteria.select_argmin" and tracer.parent_name(idx) == "bench.run_experiment":
            baseline += span[3] - span[2]
    out["bench.baseline.s"] = baseline
    requests = tracer.fit_requests
    out["fitting.fit_model.requests"] = len(requests)
    out["fitting.fit_model.repeats"] = count_repeats(requests)
    out.update(tracer.counts)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summed: dict[str, float], bodies: int, sources: set[str]):
    """Per-layer metrics from summaries summed over ``bodies`` traced bodies.

    Calls and seconds are per body; ratios use the summed counts.  Returns
    (metrics, absent): metrics whose sources were all installed, and the
    names of those that were not.
    """
    g = lambda k: summed.get(k, 0.0)  # noqa: E731
    inferences = g("pipeline.run_inference.calls")
    values = {}
    for name in LAYER_METRICS:
        if name.endswith(".calls") or name.endswith(".s"):
            values[name] = g(name) / bodies
    values.update(
        {
            "fitting.fit_model.repeat_ratio": _ratio(
                g("fitting.fit_model.repeats"), g("fitting.fit_model.requests")),
            "fitting.fit_errors": g("fitting.fit_errors") / bodies,
            "criteria.no_applicable": g("criteria.no_applicable") / bodies,
            "evidence.retrievals_per_inference": _ratio(
                g("evidence.retrieve_top_k.calls"), inferences),
            "evidence.feature_passes_per_inference": _ratio(
                g("evidence.feature_summary.calls"), inferences),
            "decisions.uncertain_share": _ratio(
                g("decisions.uncertain"), g("decisions.arbitrate.results")),
            "model_space.retained_mean": _ratio(
                g("model_space.retained_total"), g("model_space.condition.calls")),
            "pipeline.scored_share": _ratio(g("pipeline.scored"), g("pipeline.results")),
        }
    )
    present, absent = {}, []
    for name, needs in LAYER_METRICS.items():
        if all(n in sources for n in needs):
            present[name] = values[name]
        else:
            absent.append(name)
    return present, absent
