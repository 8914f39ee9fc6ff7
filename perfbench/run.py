"""degselect benchmark: cold repetitions of one workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-fingerprints

Run from the repository root.  Every repetition runs in a fresh interpreter
(perfbench/worker.py), because degselect's process-global fit cache makes a
warm repeat a different program.  Repetitions run one after another in a
single process at a time, with no extra threads.  A run makes at least its
workload's minimum number of repetitions, then starts another while at least
half of one fits in ``--seconds``.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced repetitions of the
same inputs alternate and the JSON object carries the per-layer metrics.
Every run also recomputes the selection fingerprint of the default seed and
prints whether it matches perfbench/fingerprints.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"

# Repetitions every run makes.  The stream needs 200 latency samples so that
# p95 has ten samples beyond it; accuracy pools exactly these repetitions, so
# it is a function of the seed alone.
MIN_REPS = {
    "case2_experiment": 3,
    "case1_robustness": 2,
    "long_select": 3,
}
MIN_BEYOND = 10
RUN_CAP_S = 120.0  # no repetition starts after this
RUN_LIMIT_S = 170.0  # a repetition still running then is killed: runs end within 180 s

END_TO_END = {
    "setup_s": "s",
    "selections_per_s": "1/s",
    "select_ms_p50": "ms",
    "select_ms_p95": "ms",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
}


class WorkerError(RuntimeError):
    pass


def rep_seed(seed: int, rep: int) -> int:
    """Seed of repetition ``rep`` of a run; distinct runs never share one."""
    return seed * 1000 + rep


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q`` quantile, defined only with ``min_beyond`` samples above it."""
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, math.ceil(round(q * n, 9)))
    if n - rank < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; need {min_beyond}")
    return xs[rank - 1]


def highest_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float:
    """Highest quantile (as a fraction) with ``min_beyond`` of ``n`` samples above it."""
    return max(0.0, (n - min_beyond) / n) if n else 0.0


def fingerprint(picks) -> str:
    """Short stable hash of a JSON-serialisable selection record."""
    blob = json.dumps(picks, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def compare_fingerprint(recorded: dict, workload: str, value: str) -> str:
    """'match', 'mismatch', or 'unrecorded' against the recorded default-seed value."""
    want = recorded.get(workload)
    if want is None:
        return "unrecorded"
    return "match" if want == value else "mismatch"


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def launch(spec: dict, timeout: float = RUN_LIMIT_S) -> dict:
    """Run one worker to completion and return its result with timings added."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    load_before = os.getloadavg()
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise WorkerError(
            f"worker {spec} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["load"] = [load_before, os.getloadavg()]
    return result


def run_reps(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Cold repetitions: at least the minimum, then more while time is left."""
    start = time.monotonic()
    deadline = start + seconds
    need = 1 if trace else MIN_REPS[workload]
    reps: list[dict] = []
    walls: list[float] = []
    r = 0
    while True:
        spec = {"workload": workload, "seed": rep_seed(seed, r), "trace": False,
                "default_fingerprint": r == 0}
        began = time.monotonic()
        group = [launch(spec, start + RUN_LIMIT_S - began)]
        if trace:
            group.append(launch(dict(spec, trace=True, default_fingerprint=False),
                                start + RUN_LIMIT_S - time.monotonic()))
        for rep in group:
            rep["rep"] = r
            print_rep(rep)
        reps.extend(group)
        walls.append(time.monotonic() - began)
        r += 1
        now = time.monotonic()
        if now - start > RUN_CAP_S:
            break
        # Start another only if at least half of it fits before the deadline.
        if r >= need and now + statistics.median(walls) / 2 > deadline:
            break
    return reps


def print_rep(rep: dict) -> None:
    before, after = rep["load"]
    out = rep["outcome"]
    print(
        f"rep {rep['rep']}{' traced' if 'layers' in rep else ''}: "
        f"setup {rep['setup_s']:.3f} s, body {rep['body_s']:.3f} s, "
        f"{out['selections']}/{out['attempted']} selections, "
        f"{out['failed']} failed, peak rss {rep['peak_rss_mb']:.1f} MB, "
        f"load {before[0]:.2f} -> {after[0]:.2f}"
    )
    for problem in out["problems"]:
        print(f"  check failed: {problem}")


def end_to_end(reps: list[dict], need: int) -> tuple[dict, list[str]]:
    # Pooled over the run: on a shared host CPU speed drifts from second to
    # second, and a time average follows it more steadily than a median.
    selections = sum(r["outcome"]["selections"] for r in reps)
    body_s = sum(r["body_s"] for r in reps)
    latencies = [x for r in reps for x in r["latencies_ms"]]
    first = [r for r in reps if r["rep"] < need]
    correct = sum(r["outcome"]["correct_picks"] for r in first)
    scored = sum(r["outcome"]["scored_picks"] for r in first)
    setups = [r["setup_s"] for r in reps]
    values = {
        "setup_s": statistics.median(setups),
        "selections_per_s": selections / body_s,
        "select_ms_p50": percentile(latencies, 0.50),
        "select_ms_p95": percentile(latencies, 0.95),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "accuracy": correct / scored if scored else 0.0,
    }
    notes = [
        f"setup_s: median of {len(setups)} cold starts",
        f"selections_per_s: {selections} selections in {body_s:.3f} s of timed body "
        f"over {len(reps)} repetitions",
        f"select_ms_p50/p95: {len(latencies)} latency samples; highest percentile "
        f"with {MIN_BEYOND} beyond: p{100 * highest_percentile(len(latencies)):.1f}",
        f"peak_rss_mb: median of {len(reps)} worker processes",
        f"accuracy: {correct}/{scored} picks equal the generating model "
        f"(first {need} repetitions)",
    ]
    return values, notes


def per_layer(reps: list[dict]) -> tuple[dict, list[str]]:
    traced = [r for r in reps if "layers" in r]
    plain = {r["rep"]: r for r in reps if "layers" not in r}
    summed: Counter = Counter()
    for r in traced:
        summed.update(r["layers"])
    sources = set(traced[0]["sources"])
    values, absent = layer_metrics(summed, len(traced), sources)
    overheads = [r["body_s"] - plain[r["rep"]]["body_s"] for r in traced]
    values["bench.trace_overhead_s"] = statistics.median(overheads)
    notes = [f"per-layer values are per repetition, over {len(traced)} traced repetitions",
             f"tracing overhead (traced minus untraced body): "
             + ", ".join(f"{x:.3f} s" for x in overheads)]
    for site in traced[0]["missing_sites"]:
        notes.append(f"patch site absent: {site}")
    if absent:
        notes.append("absent layer metrics: " + ", ".join(absent))
    return values, notes


def record_fingerprints() -> int:
    recorded = {}
    for workload in MIN_REPS:
        rep = launch({"workload": workload, "seed": 0, "trace": False,
                      "default_fingerprint": True, "fingerprint_only": True})
        value, problems = rep["default_fingerprint"], rep["default_problems"]
        if problems:
            print(f"{workload}: check failed: {problems}", file=sys.stderr)
            return 1
        recorded[workload] = value
        print(f"{workload}: {value}")
    FINGERPRINTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(MIN_REPS))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", action="store_true",
                        help="rewrite fingerprints.json from the current code")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "degselect" / "__init__.py").is_file():
        print(f"degselect sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_fingerprints:
        return record_fingerprints()
    if args.workload is None or args.seed < 0:
        parser.error("--workload and a non-negative --seed are required")

    print(f"machine: nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} load={os.getloadavg()}")
    try:
        reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    versions = reps[0]["versions"]
    print("machine: " + " ".join(f"{k}={v}" for k, v in versions.items())
          + f" load={os.getloadavg()}")

    first = reps[0]
    recorded = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}
    default_value = first["default_fingerprint"]
    verdict = compare_fingerprint(recorded, args.workload, default_value)
    print(f"selection fingerprint, default seed: {default_value} "
          f"({verdict}; recorded {recorded.get(args.workload, '-')})")
    print(f"selection fingerprint, seed {args.seed} repetition 0: {first['fingerprint']}")

    problems = first["default_problems"] + [p for r in reps for p in r["outcome"]["problems"]]
    attempted = sum(r["outcome"]["attempted"] for r in reps)
    failed = sum(r["outcome"]["failed"] for r in reps)
    print(f"failed operations: {failed}/{attempted} ({100.0 * failed / attempted:.2f}%)")

    if args.trace:
        values, notes = per_layer(reps)
        units = {name: layer_unit(name) for name in values}
    else:
        values, notes = end_to_end(reps, MIN_REPS[args.workload])
        units = END_TO_END
    for note in notes:
        print(note)
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
