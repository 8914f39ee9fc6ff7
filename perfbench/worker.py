"""One cold repetition of a workload, in a fresh interpreter.

Started by run.py with a JSON spec as its only argument; prints one JSON
object as its last line of standard output.  The set-up clock reading uses
CLOCK_MONOTONIC, which the parent shares, so the parent measures set-up from
just before it started this process.
"""

import contextlib
import json
import platform
import resource
import sys
import time
from dataclasses import asdict


def run(spec: dict, bank, ready: float) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    result = {"ready": ready}
    if not spec.get("fingerprint_only"):
        result.update(repetition(workload, spec["seed"], spec["trace"], bank))
    if spec.get("default_fingerprint"):
        # Off the clock, and after the repetition's peak-memory reading.
        result["default_fingerprint"], result["default_problems"] = (
            default_fingerprint(workload, bank))
    return result


def repetition(workload, seed: int, trace: bool, bank) -> dict:
    import numpy
    import scipy

    from run import fingerprint
    from tracing import Patches, Tracer, summarize

    inputs = workload.inputs(seed)
    latencies: list[float] = []
    tracer = Tracer() if trace else None
    with Patches(tracer) if tracer else contextlib.nullcontext() as patches:
        start = time.perf_counter()
        outputs = workload.body(inputs, bank, latencies)
        body_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = workload.check(inputs, outputs)
    result = {
        "body_s": body_s,
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": latencies,
        "outcome": {k: v for k, v in asdict(outcome).items() if k != "picks"},
        "fingerprint": fingerprint(outcome.picks),
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer:
        result["layers"] = summarize(tracer)
        result["sources"] = sorted(patches.sources)
        result["missing_sites"] = patches.missing
    return result


def default_fingerprint(workload, bank) -> tuple[str, list[str]]:
    """Selection fingerprint of the default-seed check set, and its check problems."""
    from run import fingerprint

    inputs = workload.check_inputs()
    check = workload.check(inputs, workload.body(inputs, bank, []))
    return fingerprint(check.picks), check.problems


def main() -> None:
    import degselect

    bank = degselect.default_bank()
    ready = time.monotonic()
    print(json.dumps(run(json.loads(sys.argv[1]), bank, ready)))


if __name__ == "__main__":
    main()
