"""Subcommand behavior, config validation, and pipeline determinism."""

import filecmp
import json
from collections import Counter

import pytest

import caserisk.cli
from caserisk.cli import main
from caserisk.config import PipelineConfig, load_config, validate
from caserisk.errors import ConfigError


def run_synth(out, seed=1, extra=()):
    rc = main(
        [
            "synth",
            "--out",
            str(out),
            "--num-clusters",
            "60",
            "--positive-fraction",
            "0.3",
            "--domain-skew",
            "1.0",
            "--seed",
            str(seed),
            *extra,
        ]
    )
    assert rc == 0


def write_rules(path):
    path.write_text(
        json.dumps(
            [
                {"name": "movement", "kind": "min_distinct_locations", "scope": "cluster", "k": 2},
                {"name": "contacts", "kind": "min_distinct_phones", "scope": "cluster", "k": 2},
            ]
        )
    )
    return path


def write_config(path, out, corpus="corpus.jsonl", labels="labels_expert.csv", lines=()):
    text = [
        f"paths.corpus = {out / corpus}",
        f"paths.labels = {out / labels}",
        "model.min_df = 1",
        "eval.folds = 3",
        "seed = 5",
        *lines,
    ]
    path.write_text("\n".join(text) + "\n")
    return path


class TestConfig:
    def test_defaults_valid(self):
        validate(PipelineConfig())

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("clustering.nope = 3\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "clustering.nope" in str(err.value)

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("clustering.tau_text = high\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "clustering.tau_text" in str(err.value)

    def test_out_of_range_names_key(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("clustering.tau_text = 3.5\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "clustering.tau_text" in str(err.value)

    def test_comments_and_lists(self, tmp_path):
        path = tmp_path / "ok.conf"
        path.write_text(
            "# comment\n\nsampling.features = domain, location\nmodel.orders = 1,2\n"
        )
        config = load_config(path)
        assert config.sampling_features == ("domain", "location")
        assert config.vocab_orders == (1, 2)


class TestSubcommands:
    def test_synth_writes_artifacts(self, tmp_path):
        run_synth(tmp_path)
        for name in ("corpus.jsonl", "clusters_true.csv", "labels_true.csv", "labels_expert.csv"):
            assert (tmp_path / name).exists()

    def test_missing_corpus_path_names_key(self, tmp_path, capsys):
        conf = tmp_path / "p.conf"
        conf.write_text("paths.labels = nowhere.csv\n")
        rc = main(["ingest", "--config", str(conf), "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "paths.corpus" in captured.err

    def test_table2_mode(self, capsys):
        rc = main(["diagnose", "--table2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "2791.9" in captured.out or "2791.8" in captured.out
        assert "rejected" in captured.out

    def test_help_documents_config_keys(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        for key in ("clustering.tau_text", "sampling.mode", "model.lambda", "eval.folds"):
            assert key in text

    def test_stagewise_run_matches_artifacts(self, tmp_path):
        run_synth(tmp_path)
        out = tmp_path / "run"
        conf = write_config(tmp_path / "p.conf", tmp_path)
        assert main(["ingest", "--config", str(conf), "--out", str(out)]) == 0
        assert main(["cluster", "--config", str(conf), "--out", str(out), "--export-graph"]) == 0
        assert (out / "graph.csv").exists()
        assert (out / "graph.csv").read_text().startswith("id_a,id_b,provenance")
        assert main(["sample", "--config", str(conf), "--out", str(out)]) == 0
        assert main(["diagnose", "--config", str(conf), "--out", str(out)]) == 0
        assert main(["train", "--config", str(conf), "--out", str(out)]) == 0
        assert main(["evaluate", "--config", str(conf), "--out", str(out)]) == 0
        for name in (
            "corpus_clean.jsonl",
            "clusters.csv",
            "labels.csv",
            "bias_report.json",
            "model.json",
            "eval_report.json",
            "roc.csv",
            "fold_plan.json",
        ):
            assert (out / name).exists(), name

    def test_cluster_before_ingest_fails_clearly(self, tmp_path, capsys):
        conf = write_config(tmp_path / "p.conf", tmp_path)
        rc = main(["cluster", "--config", str(conf), "--out", str(tmp_path / "fresh")])
        assert rc == 2
        assert "ingest" in capsys.readouterr().err

    def test_indicators_stage(self, tmp_path):
        run_synth(tmp_path)
        rules = write_rules(tmp_path / "rules.json")
        out = tmp_path / "run"
        conf = write_config(tmp_path / "p.conf", tmp_path, lines=(f"paths.rules = {rules}",))
        assert main(["ingest", "--config", str(conf), "--out", str(out)]) == 0
        assert main(["cluster", "--config", str(conf), "--out", str(out)]) == 0
        assert main(["indicators", "--config", str(conf), "--out", str(out)]) == 0
        lines = (out / "indicators.csv").read_text().strip().splitlines()
        assert lines[0] == "cluster_id,movement,contacts"
        assert len(lines) > 1


class TestPipeline:
    def run_pipeline(self, base, out, seed=1):
        run_synth(base, seed=seed)
        conf = write_config(base / "p.conf", base)
        rc = main(["pipeline", "--config", str(conf), "--out", str(out)])
        assert rc == 0

    def test_end_to_end_writes_eval_report(self, tmp_path):
        self.run_pipeline(tmp_path, tmp_path / "run")
        report = json.loads((tmp_path / "run" / "eval_report.json").read_text())
        assert 0.0 <= report["auc"] <= 1.0

    def test_byte_identical_reruns(self, tmp_path):
        run_synth(tmp_path)
        conf = write_config(tmp_path / "p.conf", tmp_path)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["pipeline", "--config", str(conf), "--out", str(out1)]) == 0
        assert main(["pipeline", "--config", str(conf), "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        mismatched = [
            name
            for name in names
            if not filecmp.cmp(out1 / name, out2 / name, shallow=False)
        ]
        assert mismatched == []

    def test_pipeline_writes_what_the_stages_write(self, tmp_path):
        run_synth(tmp_path)
        conf = write_config(tmp_path / "p.conf", tmp_path)
        piped, staged = tmp_path / "piped", tmp_path / "staged"
        assert main(["pipeline", "--config", str(conf), "--out", str(piped)]) == 0
        for stage in ("ingest", "cluster", "sample", "diagnose", "train", "evaluate"):
            assert main([stage, "--config", str(conf), "--out", str(staged)]) == 0
        names = sorted(p.name for p in piped.iterdir())
        assert names == sorted(p.name for p in staged.iterdir())
        mismatched = [n for n in names if not filecmp.cmp(piped / n, staged / n, shallow=False)]
        assert mismatched == []

    def test_pipeline_calls_stages_through_the_module(self, tmp_path, monkeypatch):
        # bench/tracer.py times each stage by rebinding caserisk.cli.stage_*;
        # the pipeline must run whatever those names are bound to.
        calls = Counter()
        stages = ("ingest", "cluster", "sample", "diagnose", "train", "evaluate", "indicators")
        for name in stages:
            original = getattr(caserisk.cli, f"stage_{name}")

            def counting(run, _original=original, _name=name):
                calls[_name] += 1
                return _original(run)

            monkeypatch.setattr(caserisk.cli, f"stage_{name}", counting)
        run_synth(tmp_path)
        rules = write_rules(tmp_path / "rules.json")
        conf = write_config(tmp_path / "p.conf", tmp_path, lines=(f"paths.rules = {rules}",))
        assert main(["pipeline", "--config", str(conf), "--out", str(tmp_path / "run")]) == 0
        assert calls == Counter(stages)

    def test_consensus_and_refine_path(self, tmp_path):
        run_synth(tmp_path)
        conf = write_config(
            tmp_path / "p.conf",
            tmp_path,
            lines=(
                "clustering.consensus_runs = 3",
                "clustering.consensus_threshold = 0.5",
                "clustering.refine_passes = 2",
            ),
        )
        out = tmp_path / "run"
        rc = main(["pipeline", "--config", str(conf), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "cluster_summary.json").read_text())
        assert summary["clusters"] == 60

    def test_expert_negatives_never_resampled(self, tmp_path):
        run_synth(tmp_path)
        truth = (tmp_path / "labels_true.csv").read_text().splitlines()[1:]
        negatives = [row.split(",")[0] for row in truth if ",negative," in row]
        with open(tmp_path / "labels_expert.csv", "a") as fh:
            for cid in negatives[:12]:
                fh.write(f"{cid},negative,expert\n")
        conf = write_config(tmp_path / "p.conf", tmp_path, lines=("sampling.ratio = 1.5",))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(conf), "--out", str(out)]) == 0
        ids = [row.split(",")[0] for row in (out / "labels.csv").read_text().splitlines()[1:]]
        assert len(ids) == len(set(ids))

    def test_bad_labels_header_exits_1(self, tmp_path, capsys):
        run_synth(tmp_path)
        (tmp_path / "labels_expert.csv").write_text("foo,bar\nx,y\n")
        conf = write_config(tmp_path / "p.conf", tmp_path)
        rc = main(["pipeline", "--config", str(conf), "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "InputError" in err and "Traceback" not in err

    def test_bad_clusters_header_exits_1(self, tmp_path, capsys):
        self.run_pipeline(tmp_path, tmp_path / "run")
        (tmp_path / "run" / "clusters.csv").write_text("foo,bar\nx,y\n")
        conf = tmp_path / "p.conf"
        rc = main(["train", "--config", str(conf), "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "InputError" in err and "Traceback" not in err

    def test_stage_artifacts_feed_next_stage(self, tmp_path):
        # pipeline artifacts must be loadable by the standalone subcommands
        self.run_pipeline(tmp_path, tmp_path / "run")
        conf = tmp_path / "p.conf"
        assert main(["diagnose", "--config", str(conf), "--out", str(tmp_path / "run")]) == 0
        assert main(["evaluate", "--config", str(conf), "--out", str(tmp_path / "run")]) == 0

    def test_standalone_evaluate_ranks_with_trained_model(self, tmp_path):
        # evaluate ranks features with the model.json that train wrote
        self.run_pipeline(tmp_path, tmp_path / "run")
        conf = tmp_path / "p.conf"
        ranking = (tmp_path / "run" / "feature_importance.csv").read_text().splitlines()[1:]
        assert main(["evaluate", "--config", str(conf), "--out", str(tmp_path / "run")]) == 0
        report = json.loads((tmp_path / "run" / "eval_report.json").read_text())
        assert ranking
        assert [f"{t},{w}" for t, w in report["top_features"]] == ranking

    def test_evaluate_before_train_fails_clearly(self, tmp_path, capsys):
        self.run_pipeline(tmp_path, tmp_path / "run")
        (tmp_path / "run" / "model.json").unlink()
        conf = tmp_path / "p.conf"
        rc = main(["evaluate", "--config", str(conf), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "train stage" in capsys.readouterr().err

    @pytest.mark.parametrize("malformed", ["truncated", "no weights"])
    def test_malformed_model_exits_1(self, tmp_path, capsys, malformed):
        self.run_pipeline(tmp_path, tmp_path / "run")
        model = tmp_path / "run" / "model.json"
        if malformed == "truncated":
            text = model.read_text()
            model.write_text(text[: len(text) // 2])
        else:
            model.write_text('{"format": "caserisk-model/1"}')
        conf = tmp_path / "p.conf"
        rc = main(["evaluate", "--config", str(conf), "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "InputError" in err and "model.json" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [
            '["movement"]',
            '[{"name": "movement", "kind": "min_distinct_locations"',
            '[{"name": "risky", "kind": "lexicon", "terms": "tonight"}]',
            '[{"name": "nightly", "kind": "pattern", "pattern": 5}]',
        ],
    )
    def test_malformed_rules_exit_1(self, tmp_path, capsys, text):
        run_synth(tmp_path)
        rules = tmp_path / "rules.json"
        rules.write_text(text)
        out = tmp_path / "run"
        conf = write_config(tmp_path / "p.conf", tmp_path, lines=(f"paths.rules = {rules}",))
        assert main(["ingest", "--config", str(conf), "--out", str(out)]) == 0
        assert main(["cluster", "--config", str(conf), "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["indicators", "--config", str(conf), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "InputError" in err and "rules.json" in err and "Traceback" not in err
