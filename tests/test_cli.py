"""Subcommand behavior, config validation, and pipeline determinism."""

import filecmp
import json
import shutil
from collections import Counter
from operator import attrgetter

import pytest

import caserisk.cli
import caserisk.clustering
import caserisk.evaluate
import caserisk.model
from caserisk.cli import main
from caserisk.config import KEY_REGISTRY, PipelineConfig, load_config, validate
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


# One invalid value for every key that has a validity check.
INVALID = {
    "ingest.limit": "-1",
    "clustering.tau_text": "3.5",
    "clustering.shingle_len": "0",
    "clustering.date_window_days": "-3",
    "clustering.rare_shingle_df_cap": "0",
    "clustering.all_pairs_cutoff": "-1",
    "clustering.consensus_runs": "0",
    "clustering.consensus_threshold": "0",
    "clustering.refine_passes": "-1",
    "sampling.mode": "stratified",
    "sampling.ratio": "0",
    "sampling.size_buckets": "2,5",
    "bias.alpha": "1.0",
    "bias.correction": "holm",
    "model.orders": "1,4",
    "model.min_df": "0",
    "model.max_vocab": "0",
    "model.weighting": "bm25",
    "model.loss": "squared",
    "model.penalty": "elasticnet",
    "model.lambda": "-0.1",
    "model.epochs": "0",
    "model.learning_rate": "0",
    "eval.folds": "1",
    "eval.top_k": "-1",
}
# Every float key must be finite: inf used to pass model.learning_rate,
# model.lambda and sampling.ratio.
FLOAT_KEYS = sorted(key for key, entry in KEY_REGISTRY.items() if entry.parse is float)
OUT_OF_RANGE = [pytest.param(key, raw, id=key) for key, raw in sorted(INVALID.items())] + [
    pytest.param(key, raw, id=f"{key}={raw}") for key in FLOAT_KEYS for raw in ("inf", "-inf", "nan")
]


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

    def test_every_check_has_an_invalid_case(self):
        assert set(INVALID) == {key for key, entry in KEY_REGISTRY.items() if entry.check}

    @pytest.mark.parametrize("key, raw", OUT_OF_RANGE)
    def test_out_of_range_names_key(self, tmp_path, key, raw):
        path = tmp_path / "bad.conf"
        path.write_text(f"{key} = {raw}\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert f"invalid value for {key}" in str(err.value)

    def test_negative_date_window_exits_2(self, tmp_path, capsys):
        # Below zero, abs(days) <= window never holds: the signal would be off.
        conf = tmp_path / "p.conf"
        conf.write_text("clustering.use_location_date = true\nclustering.date_window_days = -3\n")
        rc = main(["cluster", "--config", str(conf), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "clustering.date_window_days" in capsys.readouterr().err

    def test_infinite_sampling_ratio_exits_2(self, tmp_path, capsys):
        # It used to reach stage_sample and crash there with OverflowError.
        run_synth(tmp_path)
        conf = write_config(tmp_path / "p.conf", tmp_path, lines=("sampling.ratio = inf",))
        rc = main(["pipeline", "--config", str(conf), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "sampling.ratio" in err and "Traceback" not in err

    def test_removed_fold_retry_key_exits_2(self, tmp_path, capsys):
        # Folds are assigned in one pass; there is no reshuffle budget.
        run_synth(tmp_path)
        conf = write_config(tmp_path / "p.conf", tmp_path, lines=("eval.max_retries = 50",))
        rc = main(["pipeline", "--config", str(conf), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "eval.max_retries" in err and "Traceback" not in err

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
        lines = capsys.readouterr().out.splitlines()
        rows = {line.split()[0]: line for line in lines if "(default: " in line}
        assert set(rows) == set(KEY_REGISTRY)
        defaults = PipelineConfig()
        for key, entry in KEY_REGISTRY.items():
            default = attrgetter(entry.attr)(defaults)
            if isinstance(default, tuple):
                default = ",".join(str(v) for v in default)
            assert rows[key].endswith(f"(default: {default})"), rows[key]
        # Nested options show their GraphConfig and TrainConfig defaults.
        assert rows["clustering.tau_text"].endswith("(default: 0.5)")
        assert rows["model.lambda"].endswith("(default: 0.0001)")

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

    def test_labeled_documents_tokenized_once(self, tmp_path, monkeypatch):
        # The train stage and cross-validation share the run's ClusterTerms.
        built = []

        class CountingTerms(caserisk.model.ClusterTerms):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(caserisk.model, "ClusterTerms", CountingTerms)
        monkeypatch.setattr(caserisk.evaluate, "ClusterTerms", CountingTerms)
        self.run_pipeline(tmp_path, tmp_path / "run")
        assert len(built) == 1

    def test_solver_convergence_reported(self, tmp_path, capsys):
        self.run_pipeline(tmp_path, tmp_path / "run")
        out = capsys.readouterr().out
        metadata = json.loads((tmp_path / "run" / "model.json").read_text())["metadata"]
        summary = json.loads((tmp_path / "run" / "train_summary.json").read_text())
        report = json.loads((tmp_path / "run" / "eval_report.json").read_text())
        assert metadata["converged"] is True and metadata["grad_norm"] <= 1e-6
        assert "final_learning_rate" not in metadata
        assert {k: summary[k] for k in ("converged", "grad_norm", "epochs")} == {
            k: metadata[k] for k in ("converged", "grad_norm", "epochs")
        }
        assert f"converged in {metadata['epochs']} iterations" in out
        assert report["converged_folds"] == 3
        assert "3 of 3 fits converged" in out

    def test_homogeneity_result_reported(self, tmp_path, capsys):
        self.run_pipeline(tmp_path, tmp_path / "run")
        out = capsys.readouterr().out
        plan = json.loads((tmp_path / "run" / "fold_plan.json").read_text())
        rejected = sorted(key for key, r in plan["homogeneity"].items() if r["rejected"])
        assert f"homogeneity rejected: {', '.join(rejected) or 'none'})" in out
        assert "attempts" not in plan

    def test_iteration_cap_reported(self, tmp_path, capsys):
        run_synth(tmp_path)
        conf = write_config(tmp_path / "p.conf", tmp_path, lines=("model.epochs = 2",))
        assert main(["pipeline", "--config", str(conf), "--out", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        summary = json.loads((tmp_path / "run" / "train_summary.json").read_text())
        report = json.loads((tmp_path / "run" / "eval_report.json").read_text())
        assert summary["converged"] is False and summary["epochs"] == 2
        assert "stopped unconverged after 2 iterations" in out
        assert report["converged_folds"] == 0

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

    @pytest.mark.parametrize("malformed", ["truncated", "no weights", "weight outside vocabulary"])
    def test_malformed_model_exits_1(self, tmp_path, capsys, malformed):
        self.run_pipeline(tmp_path, tmp_path / "run")
        model = tmp_path / "run" / "model.json"
        if malformed == "truncated":
            text = model.read_text()
            model.write_text(text[: len(text) // 2])
        elif malformed == "weight outside vocabulary":
            blob = json.loads(model.read_text())
            blob["weights"][str(len(blob["vocabulary"]["index"]))] = 1.5
            model.write_text(json.dumps(blob))
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


# A non-default valid value for every graph and solver key, as written in a
# config file and as the stage must receive it.
GRAPH_VALUES = {
    "clustering.tau_text": ("0.35", 0.35),
    "clustering.shingle_len": ("3", 3),
    "clustering.use_phones": ("false", False),
    "clustering.use_text": ("false", False),
    "clustering.use_location_date": ("true", True),
    "clustering.date_window_days": ("3", 3),
    "clustering.rare_shingle_df_cap": ("4", 4),
    "clustering.all_pairs_cutoff": ("5", 5),
}
SOLVER_VALUES = {
    "model.loss": ("hinge", "hinge"),
    "model.penalty": ("l1", "l1"),
    "model.lambda": ("0.001", 0.001),
    "model.epochs": ("40", 40),
    "model.learning_rate": ("0.25", 0.25),
}


@pytest.fixture(scope="module")
def sampled_run(tmp_path_factory):
    """Inputs and an out directory after ingest, cluster and sample."""
    base = tmp_path_factory.mktemp("sampled")
    run_synth(base)
    conf = write_config(base / "p.conf", base)
    for stage in ("ingest", "cluster", "sample"):
        assert main([stage, "--config", str(conf), "--out", str(base / "run")]) == 0
    return base


class TestKeysReachStages:
    def test_every_graph_and_solver_key_listed(self):
        graph_keys = {k for k, e in KEY_REGISTRY.items() if e.attr.startswith("graph.")}
        solver_keys = {k for k, e in KEY_REGISTRY.items() if e.attr.startswith("train.")}
        assert set(GRAPH_VALUES) == graph_keys
        assert set(SOLVER_VALUES) == solver_keys

    def run_with(self, base, tmp_path, key, raw, stages):
        out = tmp_path / "run"
        shutil.copytree(base / "run", out)
        conf = write_config(tmp_path / "p.conf", base, lines=(f"{key} = {raw}",))
        for stage in stages:
            assert main([stage, "--config", str(conf), "--out", str(out)]) == 0

    @pytest.mark.parametrize("key", sorted(GRAPH_VALUES))
    def test_graph_key_reaches_build_graph(self, sampled_run, tmp_path, monkeypatch, key):
        raw, expected = GRAPH_VALUES[key]
        name = KEY_REGISTRY[key].attr.partition(".")[2]
        assert getattr(caserisk.clustering.GraphConfig(), name) != expected
        seen = []
        real = caserisk.clustering.build_graph

        def recording(corpus, config):
            seen.append(config)
            return real(corpus, config)

        monkeypatch.setattr(caserisk.clustering, "build_graph", recording)
        self.run_with(sampled_run, tmp_path, key, raw, ("cluster",))
        assert [getattr(c, name) for c in seen] == [expected]

    @pytest.mark.parametrize("key", sorted(SOLVER_VALUES))
    def test_solver_key_reaches_train(self, sampled_run, tmp_path, monkeypatch, key):
        raw, expected = SOLVER_VALUES[key]
        name = KEY_REGISTRY[key].attr.partition(".")[2]
        assert getattr(caserisk.model.TrainConfig(), name) != expected
        seen = []
        real = caserisk.model.train

        def recording(examples, vocabulary=None, config=None):
            seen.append(config)
            return real(examples, vocabulary, config)

        # train is bound in both modules: the train stage and cross_validate.
        monkeypatch.setattr(caserisk.model, "train", recording)
        monkeypatch.setattr(caserisk.evaluate, "train", recording)
        self.run_with(sampled_run, tmp_path, key, raw, ("train", "evaluate"))
        assert len(seen) == 1 + 3  # the train stage, then one model per fold
        assert {getattr(c, name) for c in seen} == {expected}


class TestPathsCheckedFirst:
    """Every path the enabled stages read is checked before the first stage
    runs, and a ConfigError exits 2 from ``pipeline`` as from a stage."""

    def pipeline(self, tmp_path, conf):
        out = tmp_path / "run"
        rc = main(["pipeline", "--config", str(conf), "--out", str(out)])
        return rc, out

    def test_missing_labels_path_fails_before_ingest(self, tmp_path, capsys):
        run_synth(tmp_path)
        conf = tmp_path / "p.conf"
        conf.write_text(f"paths.corpus = {tmp_path / 'corpus.jsonl'}\n")
        rc, out = self.pipeline(tmp_path, conf)
        assert rc == 2
        assert "paths.labels" in capsys.readouterr().err
        assert not (out / "corpus_clean.jsonl").exists()
        assert not (out / "clusters.csv").exists()

    @pytest.mark.parametrize("key", ["paths.gazetteer", "paths.remove_lexicon"])
    def test_missing_optional_path_fails_before_ingest(self, tmp_path, capsys, key):
        run_synth(tmp_path)
        conf = write_config(tmp_path / "p.conf", tmp_path, lines=(f"{key} = {tmp_path / 'nowhere.txt'}",))
        rc, out = self.pipeline(tmp_path, conf)
        err = capsys.readouterr().err
        assert rc == 2
        assert key in err and "Traceback" not in err
        assert not (out / "corpus_clean.jsonl").exists()

    @pytest.mark.parametrize(
        "key, stage", [("paths.gazetteer", "ingest"), ("paths.remove_lexicon", "train")]
    )
    def test_missing_optional_path_fails_standalone_stage(self, tmp_path, capsys, key, stage):
        run_synth(tmp_path)
        conf = write_config(tmp_path / "p.conf", tmp_path, lines=(f"{key} = {tmp_path / 'nowhere.txt'}",))
        rc = main([stage, "--config", str(conf), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert key in capsys.readouterr().err

    def test_config_error_in_a_stage_exits_2(self, tmp_path, capsys):
        # No positive cluster resolves: the sample stage raises ConfigError.
        run_synth(tmp_path)
        labels = tmp_path / "negatives.csv"
        labels.write_text("cluster_id,label\nnot-a-cluster,positive\n")
        conf = write_config(tmp_path / "p.conf", tmp_path, labels="negatives.csv")
        rc, _ = self.pipeline(tmp_path, conf)
        assert rc == 2
        assert "stage sample" in capsys.readouterr().err
