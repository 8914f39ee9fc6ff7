import csv
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degselect.bench as bench
from degselect.bench import (
    CONTEXT_BY_FAMILY,
    ExperimentConfig,
    MetricsReport,
    Perturbation,
    ProviderMode,
    compute_metrics,
    correct_context,
    emit_report,
    generate_dataset,
    perturb_input,
    run_experiment,
    run_robustness,
    wrong_context,
)
from degselect.cli import main as cli_main
from degselect.criteria import INF, Criterion, FitTable, score
from degselect.decisions import default_providers
from degselect.fitting import NonPositiveIncrementError
from degselect.model_space import Family
from degselect.pipeline import Case, InferenceInput, PipelineConfig, run_inference
from degselect.simulate import (
    SimKind,
    Trajectory,
    load_trajectories,
    split_dataset,
    truncate_at_progress,
)

from conftest import make_path


def parse_report_csv(path):
    """Reparse an emitted CSV report into {(n, method): {metric: value}}."""
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out.setdefault((int(row["n"]), row["method"]), {})[row["metric"]] = float(row["value"])
    return out


class TestComputeMetrics:
    def test_perfect_predictions(self):
        m = compute_metrics(["a", "b", "a"], ["a", "b", "a"], ["a", "b"])
        assert (m.accuracy, m.macro_precision, m.macro_recall, m.f1) == (1, 1, 1, 1)

    def test_hand_worked_confusion(self):
        true = ["a", "a", "a", "b", "b"]
        pred = ["a", "a", "b", "b", "a"]
        m = compute_metrics(true, pred, ["a", "b"])
        assert m.accuracy == pytest.approx(3 / 5)
        # precision: a = 2/3, b = 1/2; recall: a = 2/3, b = 1/2.
        assert m.macro_precision == pytest.approx((2 / 3 + 1 / 2) / 2)
        assert m.macro_recall == pytest.approx((2 / 3 + 1 / 2) / 2)
        p = r = (2 / 3 + 1 / 2) / 2
        assert m.f1 == pytest.approx(2 * p * r / (p + r))
        assert m.confusion["a"]["b"] == 1

    def test_absent_class_scores_zero_without_error(self):
        m = compute_metrics(["a", "a"], ["a", "a"], ["a", "b"])
        assert m.macro_precision == pytest.approx(0.5)
        assert m.macro_recall == pytest.approx(0.5)

    def test_all_wrong_f1_zero(self):
        m = compute_metrics(["a", "b"], ["b", "a"], ["a", "b"])
        assert m.f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_metrics(["a"], ["a", "b"], ["a", "b"])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(["a"], ["z"], ["a", "b"])


class TestGenerateDataset:
    def test_case1_labels_and_counts(self):
        trajs = generate_dataset(Case.CASE1, 6, seed=1)
        labels = [t.true_model_id for t in trajs]
        assert labels.count("wiener_family") == 6
        assert labels.count("gamma_family") == 6

    def test_case1_labels_name_the_family_of_each_kind(self):
        expected = {
            SimKind.LINEAR_WIENER: ("wiener_family", Family.WIENER),
            SimKind.HOMOG_GAMMA: ("gamma_family", Family.GAMMA),
        }
        trajs = generate_dataset(Case.CASE1, 5, seed=1)
        kinds = Counter()
        for t in trajs:
            kind = SimKind(t.unit_id.rsplit("-", 1)[0])
            label, family = expected[kind]
            assert t.true_model_id == label
            assert correct_context(t) == CONTEXT_BY_FAMILY[family]
            kinds[kind] += 1
        assert kinds == {kind: 5 for kind in expected}

    def test_case2_kinds(self):
        trajs = generate_dataset(Case.CASE2, 5, seed=1)
        labels = {t.true_model_id for t in trajs}
        assert labels == {k.value for k in SimKind}

    def test_deterministic(self):
        a = generate_dataset(Case.CASE1, 5, seed=3)
        b = generate_dataset(Case.CASE1, 5, seed=3)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))

    def test_units_are_independent(self):
        trajs = generate_dataset(Case.CASE1, 5, seed=3)
        assert not np.array_equal(trajs[0].values, trajs[1].values)


class TestTestSplitOnly:
    @settings(max_examples=40, deadline=None)
    @given(
        case=st.sampled_from(list(Case)),
        per_class=st.sampled_from([5, 6, 9, 20, 60]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_test_units_are_the_split_of_the_dataset(self, case, per_class, seed):
        full = split_dataset(generate_dataset(case, per_class, seed), seed)
        assert bench._test_units(case, per_class, seed) == list(full.test)

    def test_a_sweep_simulates_only_the_test_units(self, bank, monkeypatch):
        calls = []
        generate = bench.generate

        def counted(*args, **kwargs):
            calls.append(args)
            return generate(*args, **kwargs)

        monkeypatch.setattr(bench, "generate", counted)
        run_robustness(ExperimentConfig(case=Case.CASE1, per_class_count=60), bank=bank)
        assert len(calls) == 24  # 2 kinds x 60 units, a fifth of each in the test split


class TestContextsAndPerturbations:
    def test_correct_context_matches_family(self):
        trajs = generate_dataset(Case.CASE2, 5, seed=1)
        for t in trajs:
            ctx = correct_context(t)
            if "gamma" in t.true_model_id:
                assert ctx == CONTEXT_BY_FAMILY[Family.GAMMA]
            else:
                assert ctx == CONTEXT_BY_FAMILY[Family.WIENER]

    @pytest.mark.parametrize(
        "model_id,family",
        [
            ("wiener_family", Family.WIENER),
            ("gamma_family", Family.GAMMA),
            ("linear_wiener", Family.WIENER),
            ("nonlinear_wiener", Family.WIENER),
            ("homog_gamma", Family.GAMMA),
            ("nonhomog_gamma", Family.GAMMA),
        ],
    )
    def test_contexts_of_every_model_id(self, model_id, family):
        other = Family.GAMMA if family is Family.WIENER else Family.WIENER
        traj = Trajectory("u", (0.0, 1.0), (0.0, 1.0), true_model_id=model_id)
        assert correct_context(traj) == CONTEXT_BY_FAMILY[family]
        assert wrong_context(traj) == CONTEXT_BY_FAMILY[other]

    def test_wrong_context_swaps_family(self):
        trajs = generate_dataset(Case.CASE1, 5, seed=1)
        for t in trajs:
            assert wrong_context(t) != correct_context(t)

    def test_perturb_none_is_identity(self, case2_set):
        trajs = generate_dataset(Case.CASE2, 5, seed=1)
        inp = InferenceInput.for_case(Case.CASE2, trajs[0], correct_context(trajs[0]))
        assert perturb_input(inp, Perturbation.NONE) is inp

    def test_wrong_hi_swaps_trajectory_keeps_label(self):
        trajs = generate_dataset(Case.CASE1, 5, seed=1)
        target = next(t for t in trajs if t.true_model_id == "gamma_family")
        pool = [t for t in trajs if t.true_model_id == "wiener_family"]
        inp = InferenceInput.for_case(Case.CASE1, target, correct_context(target))
        out = perturb_input(inp, Perturbation.WRONG_HI, pool, rng_seed=4)
        assert not np.array_equal(out.trajectory.values, target.values)
        assert out.trajectory.true_model_id == "gamma_family"
        assert len(out.trajectory) <= len(target)
        assert out.context == inp.context

    def test_wrong_hi_requires_pool(self):
        trajs = generate_dataset(Case.CASE1, 5, seed=1)
        inp = InferenceInput.for_case(Case.CASE1, trajs[0], "")
        with pytest.raises(ValueError):
            perturb_input(inp, Perturbation.WRONG_HI, pool=())

    def test_wrong_both_changes_trajectory_and_context(self):
        trajs = generate_dataset(Case.CASE1, 5, seed=1)
        target = next(t for t in trajs if t.true_model_id == "gamma_family")
        pool = [t for t in trajs if t.true_model_id == "wiener_family"]
        inp = InferenceInput.for_case(Case.CASE1, target, correct_context(target))
        out = perturb_input(inp, Perturbation.WRONG_BOTH, pool, rng_seed=4)
        assert not np.array_equal(out.trajectory.values, target.values)
        assert out.context == wrong_context(target)


SMALL = ExperimentConfig(case=Case.CASE1, n_values=(50,), per_class_count=10, seed=5)


@pytest.fixture(scope="module")
def small_report(bank):
    return run_experiment(SMALL, bank=bank)


class TestRunExperiment:
    def test_all_methods_present(self, small_report):
        methods = {m for _, m in small_report.entries}
        assert methods == {"proposed", "aic", "bic", "mdl", "cv", "eal"}

    def test_metrics_in_unit_interval(self, small_report):
        for m in small_report.entries.values():
            assert 0.0 <= m.accuracy <= 1.0
            assert 0.0 <= m.f1 <= 1.0

    def test_proposed_beats_or_ties_eal_baseline(self, small_report):
        assert (
            small_report.entries[(50, "proposed")].f1
            >= small_report.entries[(50, "eal")].f1
        )

    def test_confusion_totals_match_test_split(self, small_report):
        m = small_report.entries[(50, "proposed")]
        total = sum(sum(row.values()) for row in m.confusion.values())
        # 10 per class, 2 classes, 20% test -> 4 test units.
        assert total == 4

    def test_csv_roundtrip(self, small_report, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(small_report, path, "csv")
        parsed = parse_report_csv(path)
        assert parsed[(50, "proposed")]["f1"] == small_report.entries[(50, "proposed")].f1

    def test_markdown_emission(self, small_report, tmp_path):
        path = tmp_path / "report.md"
        emit_report(small_report, path, "markdown")
        text = path.read_text()
        assert "| proposed |" in text and "n = 50%" in text

    def test_unknown_format_rejected(self, small_report, tmp_path):
        with pytest.raises(ValueError):
            emit_report(small_report, tmp_path / "x", "yaml")


class TestSharedFits:
    CASE2_SMALL = ExperimentConfig(case=Case.CASE2, n_values=(50,), per_class_count=5, seed=5)

    def test_each_unit_fitted_once_across_methods(self, bank, monkeypatch):
        import degselect.criteria as crit

        requests = Counter()
        fit_model = crit.fit_model

        def counted(model, inc):
            requests[(model.id, inc)] += 1
            return fit_model(model, inc)

        monkeypatch.setattr(crit, "fit_model", counted)
        run_experiment(self.CASE2_SMALL, bank=bank)
        assert requests and set(requests.values()) == {1}

    def test_each_fold_batch_fitted_once_across_methods(self, bank, monkeypatch):
        import degselect.criteria as crit

        batches = Counter()
        fit_folds = crit.fit_folds

        def counted(model, inc, bounds, start=None):
            batches[(model.id, inc)] += 1
            return fit_folds(model, inc, bounds, start)

        monkeypatch.setattr(crit, "fit_folds", counted)
        run_experiment(self.CASE2_SMALL, bank=bank)
        assert {model for model, _ in batches} == set(Case.CASE2.candidates.ids())
        assert set(batches.values()) == {1}

    def test_a_second_cv_scoring_fits_nothing(self, monkeypatch):
        import degselect.criteria as crit

        table = FitTable(make_path(SimKind.NONHOMOG_GAMMA, seed=8, n_percent=70))
        first = {m.id: score(m, table, Criterion.CV) for m in Case.CASE2.candidates}

        def refuse(*args):
            raise AssertionError("a table's second CV scoring fitted a model")

        monkeypatch.setattr(crit, "fit_folds", refuse)
        monkeypatch.setattr(crit, "fit_model", refuse)
        assert {m.id: score(m, table, Criterion.CV) for m in Case.CASE2.candidates} == first
        assert all(v < INF for v in first.values())

    def test_a_failed_fold_batch_is_re_raised_not_refitted(self, monkeypatch):
        import degselect.criteria as crit

        table = FitTable(make_path(SimKind.LINEAR_WIENER, seed=21, n_percent=70))
        (gamma,) = [m for m in Case.CASE2.candidates if m.id == "homog_gamma"]
        notes = []
        assert score(gamma, table, Criterion.CV, notes) == INF
        monkeypatch.setattr(crit, "fit_folds", lambda *a: pytest.fail("refitted a failed batch"))
        with pytest.raises(NonPositiveIncrementError) as again:
            table.folds(gamma)
        assert notes == [f"homog_gamma: {again.value}"]
        assert str(again.value).startswith("fold ")

    def test_baselines_ignore_a_perturbed_proposed_input(self, bank):
        clean = run_experiment(self.CASE2_SMALL, bank=bank)
        swapped = run_experiment(
            replace(self.CASE2_SMALL, perturbation=Perturbation.WRONG_HI), bank=bank
        )
        for crit in Criterion:
            key = (50, crit.value)
            assert swapped.entries[key].confusion == clean.entries[key].confusion


class TestRunRobustness:
    def test_all_modes_present(self, bank):
        report = run_robustness(SMALL, bank=bank)
        modes = {m for _, m in report.entries}
        assert modes == {p.value for p in Perturbation}
        clean = report.entries[(50, "none")]
        broken = report.entries[(50, "wrong_both")]
        assert clean.accuracy >= broken.accuracy

    def test_runs_no_baselines(self, bank, monkeypatch):
        import degselect.bench as bench

        def refuse(*args, **kwargs):
            raise AssertionError("run_robustness scored a baseline")

        monkeypatch.setattr(bench, "select_argmin", refuse)
        report = run_robustness(SMALL, bank=bank)
        assert len(report.entries) == len(SMALL.n_values) * len(Perturbation)

    @pytest.mark.parametrize("mode", [m for m in Perturbation if m is not Perturbation.NONE])
    def test_a_named_perturbation_is_refused(self, bank, mode):
        with pytest.raises(ValueError, match=mode.value):
            run_robustness(replace(SMALL, perturbation=mode), bank=bank)


def single_draw_sweep(cfg, bank):
    """Each window's confusion matrix per mode, from the whole dataset
    simulated and split, and each mode's inputs perturbed on their own."""
    classes = cfg.case.candidates.ids()
    split = split_dataset(generate_dataset(cfg.case, cfg.per_class_count, cfg.seed), cfg.seed)
    out = {}
    for n in cfg.n_values:
        test = [truncate_at_progress(t, n) for t in split.test]
        true_labels = [t.true_model_id for t in test]
        opposite = {f: [t for t in test if bench._family_of(t) is not f] for f in Family}
        for mode in Perturbation:
            predictions = []
            for idx, traj in enumerate(test):
                inp = InferenceInput.for_case(cfg.case, traj, correct_context(traj))
                if mode is not Perturbation.NONE:
                    pool = opposite[bench._family_of(traj)]
                    inp = perturb_input(inp, mode, pool, rng_seed=cfg.seed + idx)
                result = run_inference(
                    inp, bank, default_providers(), PipelineConfig(criterion=cfg.criterion)
                )
                predictions.append(result.chosen.id)
            out[(n, mode.value)] = compute_metrics(true_labels, predictions, classes).confusion
    return out


class TestSharedSubstitute:
    SWEEPS = [SMALL, ExperimentConfig(case=Case.CASE2, per_class_count=10, seed=5)]

    @pytest.mark.parametrize("cfg", SWEEPS, ids=lambda c: c.case.value)
    def test_wrong_both_reuses_the_wrong_hi_trajectory(self, bank, cfg):
        modes = tuple(Perturbation)
        for _, test, _, fits in bench._proposed_by_window(cfg, bank, modes):
            hi, both = fits[Perturbation.WRONG_HI], fits[Perturbation.WRONG_BOTH]
            assert len(hi) == len(both) == len(test)
            assert all(a.traj is b.traj for a, b in zip(hi, both))
            assert all(a.traj is not t for a, t in zip(hi, test))

    @pytest.mark.parametrize("cfg", SWEEPS, ids=lambda c: c.case.value)
    def test_confusions_match_the_single_draw_sweep(self, bank, cfg):
        report = run_robustness(cfg, bank=bank)
        confusions = {key: m.confusion for key, m in report.entries.items()}
        assert confusions == single_draw_sweep(cfg, bank)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_values=())
        with pytest.raises(ValueError):
            ExperimentConfig(per_class_count=2)

    def test_remote_mode_requires_env(self, monkeypatch):
        monkeypatch.delenv("DEGSELECT_REMOTE_URL", raising=False)
        cfg = ExperimentConfig(
            case=Case.CASE1,
            n_values=(50,),
            per_class_count=5,
            provider_mode=ProviderMode.REMOTE,
        )
        with pytest.raises(ValueError, match="DEGSELECT_REMOTE_URL"):
            run_experiment(cfg)


class TestCli:
    def test_generate_and_select(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        rc = cli_main(
            [
                "generate",
                "--case",
                "case2",
                "--per-class-count",
                "5",
                "--seed",
                "3",
                "--output",
                str(data),
            ]
        )
        assert rc == 0
        assert data.exists()
        capsys.readouterr()

        rc = cli_main(
            ["select", "--trajectory", str(data), "--case", "case2", "--context", "bearing wear"]
        )
        assert rc == 0
        # One object per line, one line per trajectory of the file, in file order.
        lines = capsys.readouterr().out.splitlines()
        outs = [json.loads(line) for line in lines]
        assert [out["unit_id"] for out in outs] == [t.unit_id for t in load_trajectories(data)]
        assert len(outs) == 20
        for out in outs:
            assert out["chosen"] in (
                "linear_wiener",
                "nonlinear_wiener",
                "homog_gamma",
                "nonhomog_gamma",
            )
            assert set(out["decisions"]) == {"F", "T"}

        # Without --per-class-count, case 2 uses its protocol size, 120 per class.
        rc = cli_main(["generate", "--case", "case2", "--seed", "3", "--output", str(data)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("wrote 480 trajectories")

    def test_bench_subcommand(self, tmp_path, capsys):
        csv_path = tmp_path / "rep.csv"
        rc = cli_main(
            [
                "bench",
                "--case",
                "case1",
                "--n-values",
                "50",
                "--per-class-count",
                "10",
                "--seed",
                "5",
                "--output",
                str(csv_path),
            ]
        )
        assert rc == 0
        assert "proposed" in capsys.readouterr().out
        assert (50, "proposed") in parse_report_csv(csv_path)

    def test_robustness_subcommand(self, tmp_path, capsys):
        rc = cli_main(
            [
                "robustness",
                "--case",
                "case1",
                "--n-values",
                "50",
                "--per-class-count",
                "5",
                "--seed",
                "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrong_both" in out

    @staticmethod
    def usage_error(capsys, argv) -> str:
        """The message ``argv`` exits with, as argparse reports a usage error."""
        with pytest.raises(SystemExit) as exit_:
            cli_main(argv)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err.splitlines()[-1]

    def test_robustness_refuses_a_perturbation_flag(self, capsys):
        argv = ["robustness", "--case", "case1", "--n-values", "50", "--per-class-count", "5"]
        msg = self.usage_error(capsys, argv + ["--perturbation", "wrong_hi"])
        assert msg == "degselect: error: run_robustness sweeps every mode; got 'wrong_hi'", msg

    def test_config_file_overrides(self, tmp_path, capsys, monkeypatch):
        import degselect.cli as cli

        seen = []
        run = cli.run_experiment
        monkeypatch.setattr(cli, "run_experiment", lambda c: seen.append(c) or run(c))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "per_class_count = 5  # small run\nseed = 9\nn_values = 30,70\ncriterion = bic\n"
        )
        rc = cli_main(
            ["bench", "--case", "case1", "--n-values", "50", "--config", str(cfg)]
        )
        assert rc == 0
        (used,) = seen
        assert (used.per_class_count, used.seed, used.n_values) == (5, 9, (30, 70))
        assert used.criterion is Criterion.BIC
        assert used.case is Case.CASE1  # from the flags, not overridden
        out = capsys.readouterr().out
        assert "n= 30" in out and "n= 70" in out and "n= 50" not in out

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("seeds = 9\n")
        msg = self.usage_error(capsys, ["bench", "--case", "case1", "--config", str(cfg)])
        assert msg.startswith("degselect: error: unknown config key(s) ['seeds']"), msg

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("this is not key value\n")
        msg = self.usage_error(capsys, ["bench", "--case", "case1", "--config", str(cfg)])
        assert msg.startswith("degselect: error: bad config line"), msg

