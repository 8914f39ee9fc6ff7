"""Command-line interface: generate, select, bench, robustness."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .bench import (
    DEFAULT_PER_CLASS,
    ExperimentConfig,
    Perturbation,
    ProviderMode,
    emit_report,
    generate_dataset,
    run_experiment,
    run_robustness,
)
from .criteria import Criterion
from .evidence import default_bank, load_bank
from .model_space import Hierarchy, Uncertain
from .pipeline import Case, InferenceInput, PipelineConfig, run_inference
from .simulate import load_trajectories, save_trajectories


def _load_config_file(path) -> dict[str, str]:
    """Flat key=value config file; '#' starts a comment."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (expected key=value): {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


# Config-file key -> parser of its value, one per overridable ExperimentConfig field.
_CONFIG_PARSERS = {
    "case": Case,
    "n_values": lambda v: tuple(int(x) for x in v.split(",")),
    "per_class_count": int,
    "seed": int,
    "criterion": Criterion,
    "provider_mode": ProviderMode,
    "perturbation": Perturbation,
}


def _experiment_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig(
        case=Case(args.case),
        n_values=tuple(args.n_values),
        per_class_count=args.per_class_count,
        seed=args.seed,
        criterion=Criterion(args.criterion),
        provider_mode=ProviderMode(args.provider_mode),
        perturbation=Perturbation(args.perturbation),
        output_path=args.output,
    )
    if args.config:
        overrides = _load_config_file(args.config)
        unknown = sorted(set(overrides) - set(_CONFIG_PARSERS))
        if unknown:
            raise ValueError(f"unknown config key(s) {unknown}; known: {list(_CONFIG_PARSERS)}")
        parsed = {key: _CONFIG_PARSERS[key](value) for key, value in overrides.items()}
        cfg = replace(cfg, **parsed)
    return cfg


def _decision_str(d) -> str:
    if isinstance(d, Uncertain):
        return f"uncertain({d.hierarchy.value})"
    return d.value


def cmd_generate(args) -> int:
    case = Case(args.case)
    trajs = generate_dataset(case, args.per_class_count or DEFAULT_PER_CLASS[case], args.seed)
    save_trajectories(args.output, trajs)
    print(f"wrote {len(trajs)} trajectories to {args.output}")
    return 0


def cmd_select(args) -> int:
    trajs = load_trajectories(args.trajectory)
    if not trajs:
        print("trajectory file is empty", file=sys.stderr)
        return 1
    bank = load_bank(args.bank) if args.bank else default_bank()
    inp = InferenceInput.for_case(Case(args.case), trajs[0], args.context)
    cfg = PipelineConfig(criterion=Criterion(args.criterion))
    result = run_inference(inp, bank, cfg=cfg)
    out = {
        "chosen": result.chosen.id,
        "decisions": {
            h.value: _decision_str(rec.final) for h, rec in result.decisions.items()
        },
        "retained": list(result.retained.ids()),
        "scores": dict(result.scores.entries) if result.scores else None,
        "evidence": {
            h.value: [r.id for r, _ in rec.evidence] for h, rec in result.decisions.items()
        },
        "diagnostics": result.diagnostics,
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_bench(args) -> int:
    cfg = _experiment_config(args)
    report = run_experiment(cfg)
    if args.markdown:
        emit_report(report, args.markdown, "markdown")
    for (n, method), m in sorted(report.entries.items()):
        print(
            f"n={n:3d} {method:10s} acc={m.accuracy:.3f} prec={m.macro_precision:.3f} "
            f"rec={m.macro_recall:.3f} f1={m.f1:.3f} ({m.runtime_seconds:.2f}s)"
        )
    return 0


def cmd_robustness(args) -> int:
    cfg = _experiment_config(args)
    report = run_robustness(cfg)
    if args.markdown:
        emit_report(report, args.markdown, "markdown")
    for (n, mode), m in sorted(report.entries.items()):
        print(
            f"n={n:3d} {mode:14s} acc={m.accuracy:.3f} prec={m.macro_precision:.3f} "
            f"rec={m.macro_recall:.3f} f1={m.f1:.3f}"
        )
    return 0


def _add_experiment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case", choices=["case1", "case2"], default="case1")
    p.add_argument("--n-values", dest="n_values", type=int, nargs="+", default=[30, 50, 70])
    p.add_argument("--per-class-count", type=int, default=None)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--criterion", choices=[c.value for c in Criterion], default="eal")
    p.add_argument(
        "--provider-mode", choices=["heuristic", "remote"], default="heuristic"
    )
    p.add_argument(
        "--perturbation",
        choices=[m.value for m in Perturbation],
        default="none",
    )
    p.add_argument("--config", help="flat key=value config file overriding flags")
    p.add_argument("--output", help="CSV report path")
    p.add_argument("--markdown", help="markdown report path")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="degselect",
        description="Stochastic degradation model selection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a simulated dataset file")
    gen.add_argument("--case", choices=["case1", "case2"], default="case1")
    gen.add_argument("--per-class-count", type=int, default=None)
    gen.add_argument("--seed", type=int, default=2024)
    gen.add_argument("--output", required=True)
    gen.set_defaults(func=cmd_generate)

    sel = sub.add_parser("select", help="single-trajectory inference")
    sel.add_argument("--trajectory", required=True, help="trajectory record file")
    sel.add_argument("--context", default="", help="domain context text")
    sel.add_argument("--case", choices=["case1", "case2"], default="case2")
    sel.add_argument("--criterion", choices=[c.value for c in Criterion], default="eal")
    sel.add_argument("--bank", help="evidence bank file (default: shipped bank)")
    sel.set_defaults(func=cmd_select)

    bench = sub.add_parser("bench", help="full benchmark experiment")
    _add_experiment_args(bench)
    bench.set_defaults(func=cmd_bench)

    rob = sub.add_parser("robustness", help="input-perturbation sweep")
    _add_experiment_args(rob)
    rob.set_defaults(func=cmd_robustness)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
