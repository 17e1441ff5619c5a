"""Subcommand behavior, config validation, and pipeline determinism."""

import contextlib
import filecmp
import io
import json
import random
import re
import shutil
import sys
import tempfile
from collections import Counter
from operator import attrgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caserisk._sparse
import caserisk.bias
import caserisk.cli
import caserisk.clustering
import caserisk.corpus
import caserisk.evaluate
import caserisk.model
from caserisk.cli import main
from caserisk.config import KEY_REGISTRY, PipelineConfig, load_config, validate
from caserisk.errors import ConfigError


def run_synth(out, seed=1, extra=(), num_clusters=60):
    rc = main(
        [
            "synth",
            "--out",
            str(out),
            "--num-clusters",
            str(num_clusters),
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
    "clustering.tau_text": "0",
    "clustering.shingle_len": "0",
    "clustering.date_window_days": "-3",
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
    "eval.folds": "1",
    "eval.top_k": "-1",
}
# Every float key must be finite: inf used to pass model.lambda and
# sampling.ratio.
FLOAT_KEYS = sorted(key for key, entry in KEY_REGISTRY.items() if entry.parse is float)
OUT_OF_RANGE = [pytest.param(key, raw, id=key) for key, raw in sorted(INVALID.items())] + [
    pytest.param(key, raw, id=f"{key}={raw}") for key in FLOAT_KEYS for raw in ("inf", "-inf", "nan")
] + [pytest.param("clustering.tau_text", "3.5", id="clustering.tau_text=3.5")]


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

    # Folds are assigned in one pass, so there is no reshuffle budget; one
    # edge rule holds at every corpus size, so there is no blocking knob;
    # ingest reads the whole corpus, and the solver's first step is fixed.
    @pytest.mark.parametrize(
        "line",
        [
            "eval.max_retries = 50",
            "clustering.rare_shingle_df_cap = 10",
            "clustering.all_pairs_cutoff = 1000",
            "ingest.limit = 5",
            "model.learning_rate = 0.25",
        ],
        ids=lambda line: line.partition(" ")[0],
    )
    def test_removed_key_exits_2(self, tmp_path, capsys, line):
        run_synth(tmp_path)
        conf = write_config(tmp_path / "p.conf", tmp_path, lines=(line,))
        rc = main(["pipeline", "--config", str(conf), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        key = line.partition(" ")[0]
        assert f"unknown key {key!r}" in err and "Traceback" not in err

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

    @pytest.mark.parametrize(
        "command, own",
        [
            ("ingest", []),
            ("cluster", ["--export-graph"]),
            ("sample", []),
            ("diagnose", ["--table2"]),
            ("train", []),
            ("evaluate", []),
            ("indicators", []),
            ("pipeline", ["--export-graph"]),
        ],
    )
    def test_stage_takes_settings_only_from_config(self, capsys, command, own):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        options = set(re.findall(r"(?<![\w-])--?[a-z][a-z0-9-]*", capsys.readouterr().out))
        assert options == {"-h", "--help", "--config", "--out", *own}

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

    def test_shingle_len_above_every_text_links_no_text(self, tmp_path):
        # No text holds a billion tokens, so text links no pair; the
        # shingles are found without a step per token of their length.
        run_synth(tmp_path)
        graphs = []
        for name, line in (("long", "clustering.shingle_len = 1000000000"), ("off", "clustering.use_text = false")):
            out = tmp_path / name
            conf = write_config(tmp_path / f"{name}.conf", tmp_path, lines=(line,))
            assert main(["ingest", "--config", str(conf), "--out", str(out)]) == 0
            assert main(["cluster", "--config", str(conf), "--out", str(out), "--export-graph"]) == 0
            graphs.append((out / "graph.csv").read_bytes())
        assert graphs[0] == graphs[1]

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

    def test_shuffled_input_writes_the_same_artifacts(self, tmp_path):
        """A corpus is its set of records: in another line order every
        artifact, corpus_clean.jsonl included, is byte-identical."""
        run_synth(tmp_path)
        lines = (tmp_path / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        shuffled = lines[:]
        random.Random(0).shuffle(shuffled)
        assert shuffled != lines
        (tmp_path / "shuffled.jsonl").write_text("".join(shuffled), encoding="utf-8")
        extra = [
            f"paths.gazetteer = {tmp_path / 'gazetteer.txt'}",
            f"paths.remove_lexicon = {tmp_path / 'domains.txt'}",
            f"paths.rules = {write_rules(tmp_path / 'rules.json')}",
            "clustering.use_location_date = true",
        ]
        outs = []
        for corpus in ("corpus.jsonl", "shuffled.jsonl"):
            conf = write_config(tmp_path / f"{corpus}.conf", tmp_path, corpus=corpus, lines=extra)
            outs.append(tmp_path / f"{corpus}.out")
            assert main(["pipeline", "--export-graph", "--config", str(conf), "--out", str(outs[-1])]) == 0
        ordered, other = outs
        names = sorted(p.name for p in ordered.iterdir())
        assert {"corpus_clean.jsonl", "graph.csv", "indicators.csv"} <= set(names)
        assert names == sorted(p.name for p in other.iterdir())
        assert [name for name in names if not filecmp.cmp(ordered / name, other / name, shallow=False)] == []

    def test_one_budget_sizes_every_block(self, tmp_path, monkeypatch):
        """``caserisk._sparse._BUDGET`` is the one block size: at 7 and at 1
        every blocked loop cuts its work at it, and every artifact is
        byte-identical to the default budget's run."""
        walkers = {"spans": caserisk._sparse.spans, "steps": caserisk._sparse.steps}
        cut = {}  # (walker, loop) -> the most blocks one call handed out

        def recording(walker):
            def handing_out(arg):
                frame = sys._getframe(1)
                if frame.f_code.co_name == "take":  # the loop is take's caller
                    frame = frame.f_back
                budget = caserisk._sparse._BUDGET
                blocks = list(walkers[walker](arg))
                for block in blocks:
                    if walker == "spans":
                        start, stop = block
                        assert stop - start == 1 or int(arg[start:stop].sum()) <= budget
                    else:
                        assert len(range(arg)[block]) <= budget
                key = (walker, frame.f_code.co_name)
                cut[key] = max(cut.get(key, 0), len(blocks))
                return iter(blocks)

            return handing_out

        for name, module in list(sys.modules.items()):  # wherever a caserisk module binds them
            for walker, real in walkers.items():
                if name.split(".")[0] == "caserisk" and getattr(module, walker, None) is real:
                    monkeypatch.setattr(module, walker, recording(walker))
        run_synth(tmp_path, extra=("--duplication", "0.3"))
        rules = [
            {"name": "positive-site", "kind": "lexicon", "terms": ["sigpos sitealpha"]},
            {"name": "signals", "kind": "min_lexicon_hits", "terms": ["sigpos", "signeg"], "k": 3},
            {"name": "movement", "kind": "min_distinct_locations", "k": 2},
        ]
        (tmp_path / "rules.json").write_text(json.dumps(rules))
        lines = [
            f"paths.gazetteer = {tmp_path / 'gazetteer.txt'}",
            f"paths.remove_lexicon = {tmp_path / 'domains.txt'}",
            f"paths.rules = {tmp_path / 'rules.json'}",
            "clustering.use_location_date = true",
            "clustering.consensus_runs = 3",
            "clustering.refine_passes = 2",
            "model.orders = 1,2",
            "model.weighting = tfidf",
            "model.min_df = 2",
        ]
        conf = write_config(tmp_path / "p.conf", tmp_path, lines=lines)
        default = tmp_path / "default"
        assert main(["pipeline", "--export-graph", "--config", str(conf), "--out", str(default)]) == 0
        names = sorted(p.name for p in default.iterdir())
        assert {"graph.csv", "indicators.csv", "roc.csv"} <= set(names)
        loops = {
            ("spans", loop)
            for loop in ("summed", "upper_gram", "segments", "gram_counts", "build_graph", "_first_movable")
            + ("_document_frequency", "_unit_rows", "_gathered", "_cut", "_rows")
        } | {("steps", loop) for loop in ("token_ids", "columns_of", "_gathered", "write_graph")}
        for budget in (7, 1):
            cut.clear()
            out = tmp_path / f"budget{budget}"
            with mock.patch.object(caserisk._sparse, "_BUDGET", budget):
                assert main(["pipeline", "--export-graph", "--config", str(conf), "--out", str(out)]) == 0
            assert set(cut) == loops
            assert [key for key, most in cut.items() if most < 2] == []
            assert sorted(p.name for p in out.iterdir()) == names
            assert [name for name in names if not filecmp.cmp(default / name, out / name, shallow=False)] == []

    def test_bias_recheck_uses_the_configured_correction(self, tmp_path):
        # Uncorrected, each feature is tested at alpha itself; a Bonferroni
        # recheck would test two features at alpha / 2.
        run_synth(tmp_path)
        lines = ("bias.correction = none", "bias.features = domain,location")
        conf = write_config(tmp_path / "p.conf", tmp_path, lines=lines)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(conf), "--out", str(out)]) == 0
        recheck = json.loads((out / "eval_report.json").read_text())["bias_recheck"]
        assert recheck["correction"] == "none" and len(recheck["results"]) == 2
        assert recheck == json.loads((out / "bias_report.json").read_text())

    def test_pipeline_audits_once_and_trains_one_model_per_fold_and_one_more(self, tmp_path, monkeypatch):
        # diagnose and evaluate share one audit; evaluate trains only the
        # fold models, and the train stage's model is the one more.
        calls = Counter()

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(caserisk.bias, "audit", counting("audit", caserisk.bias.audit))
        train = counting("train", caserisk.model.train)
        monkeypatch.setattr(caserisk.model, "train", train)
        monkeypatch.setattr(caserisk.evaluate, "train", train)
        run_synth(tmp_path)
        conf = write_config(tmp_path / "p.conf", tmp_path, lines=("bias.features = domain,location",))
        assert main(["pipeline", "--config", str(conf), "--out", str(tmp_path / "run")]) == 0
        assert calls == {"audit": 1, "train": load_config(conf).folds + 1}

    def test_cluster_row_lookups_do_not_grow_with_the_clusters(self, tmp_path, monkeypatch):
        # Sampling, the audit, the fold plan and diagnose each count a
        # whole cluster sequence per feature in one Corpus.cluster_rows
        # call, so the number of calls depends on the features, not on
        # the number of clusters.
        calls = []
        cluster_rows = caserisk.corpus.Corpus.cluster_rows

        def counting(self, member_sets):
            calls[-1] += 1
            return cluster_rows(self, member_sets)

        monkeypatch.setattr(caserisk.corpus.Corpus, "cluster_rows", counting)
        lines = ("bias.features = domain,location", "sampling.features = domain,location")
        for clusters in (60, 120):
            run_synth(tmp_path / str(clusters), num_clusters=clusters)
            conf = write_config(tmp_path / f"{clusters}.conf", tmp_path / str(clusters), lines=lines)
            calls.append(0)
            assert main(["pipeline", "--config", str(conf), "--out", str(tmp_path / f"run{clusters}")]) == 0
        assert calls[0] == calls[1]

    def test_model_file_round_trips_byte_for_byte(self, tmp_path):
        run_synth(tmp_path)
        lines = ("model.orders = 1,2", "model.weighting = tfidf")
        conf = write_config(tmp_path / "p.conf", tmp_path, lines=lines)
        assert main(["pipeline", "--config", str(conf), "--out", str(tmp_path / "run")]) == 0
        path, again = tmp_path / "run" / "model.json", tmp_path / "again.json"
        caserisk.model.save_model(caserisk.model.load_model(path), again)
        assert again.read_bytes() == path.read_bytes()

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

    def test_cluster_stage_matches_library_composition(self, tmp_path):
        # The stage runs KwikCluster, consensus and refine on label arrays.
        # Refine breaks ties by cluster number, which the library sets by
        # each cluster's smallest member id, so the stage must number its
        # clusters the same way to write the library's partition.  The
        # corpus is shuffled so that its input order is not id order, which
        # the graph's node order must not follow.
        run_synth(tmp_path)
        lines = (tmp_path / "corpus.jsonl").read_text().splitlines(keepends=True)
        random.Random(0).shuffle(lines)
        (tmp_path / "corpus.jsonl").write_text("".join(lines))
        conf = write_config(
            tmp_path / "p.conf",
            tmp_path,
            lines=(
                # Word overlap between unrelated ads: a graph that is not
                # disjoint cliques, so pivots change the partition.
                "clustering.use_phones = false",
                "clustering.shingle_len = 1",
                "clustering.tau_text = 0.08",
                "clustering.consensus_runs = 3",
                "clustering.refine_passes = 2",
                # With these runs refine meets ties, which the numbering breaks.
                "seed = 6",
            ),
        )
        out = tmp_path / "out"
        for stage in ("ingest", "cluster"):
            assert main([stage, "--config", str(conf), "--out", str(out)]) == 0
        written = caserisk.clustering.read_clustering(out / "clusters.csv")

        config = load_config(conf)
        corpus, _ = caserisk.corpus.ingest(out / "corpus_clean.jsonl")
        graph = caserisk.clustering.build_graph(corpus, config.graph)
        runs = [caserisk.clustering.kwikcluster(graph, config.seed + i) for i in range(3)]
        combined = caserisk.clustering.consensus(runs, config.consensus_threshold)
        expected = caserisk.clustering.refine(combined, graph, 2)
        # Each step changes the partition here, so each one is checked.
        assert len({run.clusters for run in runs}) == 3
        assert combined.clusters != expected.clusters
        assert written.clusters == expected.clusters

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
        # One token pass over the corpus feeds the gazetteer, the shingles,
        # the indicator rules and the n-gram counts, and the train stage
        # and cross-validation share the run's ClusterTerms.  Cutting
        # "sitealpha" joins "sigpos springfield", so the removal runs its
        # second pass.
        built, passes, callers = [], [], Counter()

        class CountingTerms(caserisk.model.ClusterTerms):
            def __init__(self, clusters, corpus, *args, **kwargs):
                built.append(corpus)
                super().__init__(clusters, corpus, *args, **kwargs)

        token_ids, tokenize = caserisk.corpus.token_ids, caserisk.corpus.tokenize

        def counting_token_ids(texts):
            texts = list(texts)
            passes.append((sys._getframe(1).f_globals["__name__"], len(texts)))
            return token_ids(texts)

        def counting_tokenize(text):
            callers[sys._getframe(1).f_code.co_qualname.split(".<locals>")[0]] += 1
            return tokenize(text)

        monkeypatch.setattr(caserisk.model, "ClusterTerms", CountingTerms)
        monkeypatch.setattr(caserisk.evaluate, "ClusterTerms", CountingTerms)
        monkeypatch.setattr(caserisk.corpus, "token_ids", counting_token_ids)
        for name, module in list(sys.modules.items()):  # wherever a caserisk module binds it
            if name.split(".")[0] == "caserisk" and getattr(module, "tokenize", None) is tokenize:
                monkeypatch.setattr(module, "tokenize", counting_tokenize)
        run_synth(tmp_path)
        lexicon = tmp_path / "remove.txt"
        lexicon.write_text("sitealpha\nsigpos springfield\n")
        rules = [
            {"name": "positive-site", "kind": "lexicon", "terms": ["sigpos sitealpha"]},
            {"name": "signals", "kind": "min_lexicon_hits", "terms": ["sigpos", "signeg", "Sig-Pos"], "k": 3},
            {"name": "springfield", "kind": "pattern", "pattern": "spring"},
        ]
        (tmp_path / "rules.json").write_text(json.dumps(rules))
        lines = (
            f"paths.gazetteer = {tmp_path / 'gazetteer.txt'}",
            f"paths.remove_lexicon = {lexicon}",
            f"paths.rules = {tmp_path / 'rules.json'}",
            "clustering.use_text = true",
            "clustering.use_location_date = true",
            "model.orders = 1,2",
        )
        conf = write_config(tmp_path / "p.conf", tmp_path, lines=lines)
        assert main(["pipeline", "--config", str(conf), "--out", str(tmp_path / "run")]) == 0
        documents = json.loads((tmp_path / "run" / "ingest_summary.json").read_text())["documents"]
        assert passes == [("caserisk.corpus", documents)]
        # Besides that pass, only the lexicons tokenize, each of its terms.
        assert callers["token_ids"] == documents
        assert set(callers) == {"token_ids", "Lexicon.__init__"}
        places = [line for line in (tmp_path / "gazetteer.txt").read_text().splitlines() if line.strip()]
        assert callers["Lexicon.__init__"] == len(places) + 2 + sum(len(rule.get("terms", ())) for rule in rules)
        flags = (tmp_path / "run" / "indicators.csv").read_text().splitlines()[1:]
        assert {flag for row in flags for flag in row.split(",")[1:]} == {"true", "false"}
        assert len(built) == 1
        assert "token_stream" not in vars(built[0])  # freed once the labeled rows were gathered
        vocabulary = json.loads((tmp_path / "run" / "model.json").read_text())["vocabulary"]
        assert "sitealpha" not in json.dumps(vocabulary) and "sigpos springfield" not in json.dumps(vocabulary)

    def test_mitigation_equals_training_on_the_cut_corpus(self, tmp_path):
        # The pipeline cuts the removal lexicon from the labeled documents'
        # tokens; train and evaluate without the key on a corpus that
        # remove_tokens has cut must write the same bytes.  Synth texts end
        # "<signal> <domain> <location>": "sitealpha" is cut wherever it
        # occurs, "signeg sitebeta" before "sitebeta rivertown" can be, and
        # cutting "sitealpha" joins "sigpos springfield".
        run_synth(tmp_path)
        lexicon = tmp_path / "remove.txt"
        lexicon.write_text("sitealpha\nSitebeta Rivertown\nsigneg-sitebeta\nsigpos springfield\n")
        piped, staged = tmp_path / "piped", tmp_path / "staged"
        conf = write_config(tmp_path / "p.conf", tmp_path, lines=(f"paths.remove_lexicon = {lexicon}",))
        assert main(["pipeline", "--config", str(conf), "--out", str(piped)]) == 0
        staged.mkdir()
        for name in ("clusters.csv", "labels.csv"):
            shutil.copy(piped / name, staged / name)
        corpus, _ = caserisk.corpus.ingest(piped / "corpus_clean.jsonl")
        cut = caserisk.corpus.remove_tokens(corpus, caserisk.corpus.read_terms(lexicon))
        entries = ("sitealpha", "sitebeta rivertown", "signeg sitebeta", "sigpos springfield")
        assert not any(entry in doc.text for doc in cut for entry in entries)
        shared = [doc.id for doc in corpus if doc.text.endswith(" signeg sitebeta rivertown")]
        assert shared and all(cut.get(d).text.endswith(" rivertown") for d in shared)
        caserisk.corpus.write_corpus(cut, staged / "corpus_clean.jsonl")
        conf = write_config(tmp_path / "plain.conf", tmp_path)
        for stage in ("train", "evaluate"):
            assert main([stage, "--config", str(conf), "--out", str(staged)]) == 0
        names = ["model.json", "eval_report.json", "fold_plan.json", "feature_importance.csv", "train_summary.json"]
        mismatched = [n for n in names if not filecmp.cmp(piped / n, staged / n, shallow=False)]
        assert mismatched == []
        vocabulary = json.loads((piped / "model.json").read_text())["vocabulary"]
        assert "sitealpha" not in json.dumps(vocabulary)

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

    def test_clusters_naming_a_document_missing_from_the_corpus_exit_1(self, tmp_path, capsys):
        (tmp_path / "corpus.jsonl").write_text(
            '{"id": "a", "domain": "x", "text": "first ad"}\n{"id": "b", "domain": "x", "text": "second ad"}\n'
        )
        rules = write_rules(tmp_path / "rules.json")
        out = tmp_path / "run"
        conf = write_config(tmp_path / "p.conf", tmp_path, lines=(f"paths.rules = {rules}",))
        assert main(["ingest", "--config", str(conf), "--out", str(out)]) == 0
        (out / "clusters.csv").write_text("cluster_id,document_id\na,a\nb,b\nz,z\n")
        capsys.readouterr()
        rc = main(["indicators", "--config", str(conf), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "InputError" in err and "'z' not in corpus" in err and "Traceback" not in err


# A non-default valid value for every graph and solver key, as written in a
# config file and as the stage must receive it.
GRAPH_VALUES = {
    "clustering.tau_text": ("0.35", 0.35),
    "clustering.shingle_len": ("3", 3),
    "clustering.use_phones": ("false", False),
    "clustering.use_text": ("false", False),
    "clustering.use_location_date": ("true", True),
    "clustering.date_window_days": ("3", 3),
}
SOLVER_VALUES = {
    "model.loss": ("hinge", "hinge"),
    "model.penalty": ("l1", "l1"),
    "model.lambda": ("0.001", 0.001),
    "model.epochs": ("40", 40),
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

    def test_bad_rule_fails_before_ingest(self, tmp_path, capsys):
        run_synth(tmp_path)
        rules = tmp_path / "rules.json"
        rules.write_text('[{"name": "nightly", "kind": "pattern", "pattern": "(unclosed"}]')
        conf = write_config(tmp_path / "p.conf", tmp_path, lines=(f"paths.rules = {rules}",))
        rc, out = self.pipeline(tmp_path, conf)
        err = capsys.readouterr().err
        assert rc == 1
        assert "RuleCompilationError" in err and "'nightly'" in err and "Traceback" not in err
        assert not (out / "corpus_clean.jsonl").exists()
        assert not (out / "indicators.csv").exists()

    def test_config_error_in_a_stage_exits_2(self, tmp_path, capsys):
        # No positive cluster resolves: the sample stage raises ConfigError.
        run_synth(tmp_path)
        labels = tmp_path / "negatives.csv"
        labels.write_text("cluster_id,label\nnot-a-cluster,positive\n")
        conf = write_config(tmp_path / "p.conf", tmp_path, labels="negatives.csv")
        rc, _ = self.pipeline(tmp_path, conf)
        assert rc == 2
        assert "stage sample" in capsys.readouterr().err


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """Inputs and the out directory of one complete pipeline run."""
    base = tmp_path_factory.mktemp("finished")
    run_synth(base)
    conf = write_config(base / "p.conf", base)
    assert main(["pipeline", "--config", str(conf), "--out", str(base / "run")]) == 0
    return base


def _append_bytes(name, data):
    def mutate(base):
        with open(base / name, "ab") as fh:
            fh.write(data)

    return mutate


def _insert_row(name, row):
    """Make ``row`` line 2 of the CSV file ``name``, right below the header."""

    def mutate(base):
        path = base / name
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1] + [row] + lines[1:]))

    return mutate


def _second_cluster(base):
    """Put the document of clusters.csv's line 2 in a new cluster above it."""
    path = base / "run" / "clusters.csv"
    lines = path.read_text().splitlines(keepends=True)
    doc_id = lines[1].split(",")[1]
    path.write_text("".join(lines[:1] + [f"c-second,{doc_id}"] + lines[1:]))


def _labels_first(*rows):
    """The expert labels with the label column first, then ``rows``."""

    def mutate(base):
        path = base / "labels_expert.csv"
        lines = [line.split(",")[:2] for line in path.read_text().splitlines()]
        path.write_text("".join(f"{label},{cid}\n" for cid, label in lines) + "".join(rows))

    return mutate


def _set_in_model(key, value):
    def mutate(base):
        path = base / "run" / "model.json"
        blob = json.loads(path.read_text())
        blob[key] = value
        path.write_text(json.dumps(blob))

    return mutate


def _unchanged(base):
    pass


# (id, mutation of a copy of finished_run, argv before --config/--out with
# "{base}" standing for the copy, exit code, stderr fragments, (summary file,
# expected change of its entries) or None).
STAGE_CASES = [
    (
        "corpus line with a byte that is not UTF-8",
        _append_bytes("corpus.jsonl", b'{"id": "zz-latin1", "domain": "x", "text": "caf\xe9"}\n'),
        ["ingest"], 0, [], ("ingest_summary.json", {"skipped": 1, "documents": 0}),
    ),
    (
        "clusters row missing its document_id field",
        _insert_row("run/clusters.csv", "c-lonely\n"),
        ["sample"], 1, ["InputError", "clusters.csv:2"], None,
    ),
    (
        "clusters row with an empty document_id",
        _insert_row("run/clusters.csv", "c-empty,\n"),
        ["sample"], 1, ["InputError", "clusters.csv:2"], None,
    ),
    (
        "labels row missing its cluster_id field",
        _labels_first("positive\n", "positive,nosuch\n"),
        ["sample"], 1, ["InputError", "labels_expert.csv:", "missing cluster_id or label"], None,
    ),
    (
        "labels row with an empty cluster_id",
        _insert_row("labels_expert.csv", ",positive,expert\n"),
        ["sample"], 1, ["InputError", "labels_expert.csv:2"], None,
    ),
    (
        "labels row with an unknown label",
        _insert_row("labels_expert.csv", "c-any,maybe,expert\n"),
        ["sample"], 1, ["InputError", "labels_expert.csv:2: bad label 'maybe'"], None,
    ),
    (
        "labels row with an unknown source",
        _insert_row("labels_expert.csv", "c-any,positive,guessed\n"),
        ["sample"], 1, ["InputError", "labels_expert.csv:2: bad source 'guessed'"], None,
    ),
    (
        "clusters row putting a document in a second cluster",
        _second_cluster,
        ["sample"], 1, ["InputError", "clusters.csv:3: document", "in two clusters"], None,
    ),
    (
        "labels row with an empty label",
        _insert_row("run/labels.csv", "c-empty,,expert\n"),
        ["train"], 1, ["InputError", "labels.csv:2"], None,
    ),
    (
        "model with an unknown loss",
        _set_in_model("loss", "foo"),
        ["evaluate"], 1, ["InputError", "model.json", "unknown loss 'foo'"], None,
    ),
    (
        "model with an unknown penalty",
        _set_in_model("penalty", "elasticnet"),
        ["evaluate"], 1, ["InputError", "model.json", "unknown penalty 'elasticnet'"], None,
    ),
    (
        "model metadata that is not an object",
        _set_in_model("metadata", [1]),
        ["evaluate"], 1, ["InputError", "model.json", "metadata is not a JSON object"], None,
    ),
    ("sample --mode", _unchanged, ["sample", "--mode", "random"], 2, ["unrecognized arguments"], None),
    ("pipeline --seed", _unchanged, ["pipeline", "--seed", "3"], 2, ["unrecognized arguments"], None),
    ("ingest --corpus", _unchanged, ["ingest", "--corpus", "{base}/corpus.jsonl"], 2, ["unrecognized arguments"], None),
    ("ingest --gazetteer", _unchanged, ["ingest", "--gazetteer", "{base}/gazetteer.txt"], 2, ["unrecognized arguments"], None),
    ("sample --labels", _unchanged, ["sample", "--labels", "{base}/labels_expert.csv"], 2, ["unrecognized arguments"], None),
    (
        "indicators --rules",
        lambda base: write_rules(base / "rules.json"),
        ["indicators", "--rules", "{base}/rules.json"], 2, ["unrecognized arguments"], None,
    ),
    ("synth --config", _unchanged, ["synth"], 2, ["unrecognized arguments: --config"], None),
]


@pytest.mark.parametrize(
    "mutate, argv, code, fragments, summary", [pytest.param(*case[1:], id=case[0]) for case in STAGE_CASES]
)
def test_stage_refuses_bad_input_and_removed_settings(
    finished_run, tmp_path, capsys, mutate, argv, code, fragments, summary
):
    """A defective artifact fails with a named error, or, for an
    undecodable corpus line, is skipped and counted; a removed flag is
    refused."""
    base = tmp_path / "case"
    shutil.copytree(finished_run, base)
    write_config(base / "p.conf", base)
    clean = (base / "run" / "ingest_summary.json").read_text()
    mutate(base)
    argv = [arg.format(base=base) for arg in argv]
    capsys.readouterr()
    try:
        rc = main([*argv, "--config", str(base / "p.conf"), "--out", str(base / "run")])
    except SystemExit as exc:  # argparse refuses an unknown option
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == code, err
    assert all(fragment in err for fragment in fragments), err
    assert "Traceback" not in err
    if summary is not None:
        name, expected = summary
        before, after = json.loads(clean), json.loads((base / "run" / name).read_text())
        assert {key: after[key] - before[key] for key in expected} == expected


# (file holding the byte, relative to the copy of finished_run; config
# lines that make a stage read it; the stage; exit code).
UNDECODABLE = {
    "config": ("p.conf", [], "train", 2),
    "clusters.csv": ("run/clusters.csv", [], "sample", 1),
    "labels.csv": ("run/labels.csv", [], "train", 1),
    "model.json": ("run/model.json", [], "evaluate", 1),
    "rules": ("rules.json", ["paths.rules = {base}/rules.json"], "indicators", 1),
    "remove lexicon": ("domains.txt", ["paths.remove_lexicon = {base}/domains.txt"], "train", 1),
    "gazetteer": ("gazetteer.txt", ["paths.gazetteer = {base}/gazetteer.txt"], "ingest", 1),
}


@pytest.mark.parametrize("name, stage, code, lines", [
    pytest.param(name, stage, code, lines, id=case) for case, (name, lines, stage, code) in UNDECODABLE.items()
])
def test_undecodable_byte_fails_by_name(finished_run, tmp_path, capsys, name, stage, code, lines):
    """A byte that is not UTF-8 in any file a stage reads ends the stage
    with a named error that gives the file and its line, not a
    traceback."""
    base = tmp_path / "case"
    shutil.copytree(finished_run, base)
    write_rules(base / "rules.json")
    write_config(base / "p.conf", base, lines=[line.format(base=base) for line in lines])
    with open(base / name, "ab") as fh:
        fh.write(b"model.min_df = 1\xff\n" if name == "p.conf" else b"c\xff,d\n")
    capsys.readouterr()
    rc = main([stage, "--config", str(base / "p.conf"), "--out", str(base / "run")])
    err = capsys.readouterr().err
    assert rc == code, err
    assert re.search(rf"{re.escape(str(base / name))}:\d+: ", err), err
    assert "Traceback" not in err


# The optional paths of small_run's config, by key.
READ_BY = {"rules": "rules.json", "remove_lexicon": "domains.txt", "gazetteer": "gazetteer.txt"}
# Each file a stage reads, relative to small_run, and the stage that reads it.
READERS = {
    "corpus.jsonl": "ingest",
    "p.conf": "sample",
    "run/clusters.csv": "sample",
    "labels_expert.csv": "sample",
    "run/labels.csv": "train",
    "run/model.json": "evaluate",
    "rules.json": "indicators",
    "domains.txt": "train",
    "gazetteer.txt": "ingest",
}


def write_small_config(base):
    lines = [f"paths.{key} = {base / file}" for key, file in READ_BY.items()]
    return write_config(base / "p.conf", base, lines=lines)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A complete pipeline run over 40 synth clusters, with rules, a
    removal lexicon and a gazetteer.  Its expert labels put the label
    column first and name one cluster that the clustering lacks, as a
    labels file may."""
    base = tmp_path_factory.mktemp("small")
    assert main(["synth", "--out", str(base), "--num-clusters", "40", "--positive-fraction", "0.4", "--seed", "2"]) == 0
    _labels_first("positive,withdrawn\n")(base)
    write_rules(base / "rules.json")
    conf = write_small_config(base)
    assert main(["pipeline", "--config", str(conf), "--out", str(base / "run")]) == 0
    return base


MUTATIONS = ("truncate", "invalid UTF-8", "drop a field", "duplicate a row", "blank a row")


def mutated(data: bytes, kind: str, draw) -> bytes:
    """``data`` with one mutation of ``kind``, placed by ``draw``.  A field
    is what a comma or an equals sign separates, and it is dropped with one
    separator next to it."""
    if kind == "truncate":
        return data[: draw(st.integers(0, max(len(data) - 1, 0)))]
    if kind == "invalid UTF-8":
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\xff" + data[at:]
    lines = data.splitlines(keepends=True) or [b""]
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    body = line.rstrip(b"\r\n")
    if kind == "duplicate a row":
        lines.insert(i, line)
    elif kind == "blank a row":
        lines[i] = line[len(body):]
    else:
        parts = re.split(rb"([,=])", body)  # field, separator, field, ...
        j = 2 * draw(st.integers(0, len(parts) // 2))
        start = j if j + 1 < len(parts) else max(j - 1, 0)
        del parts[start : start + 2]
        lines[i] = b"".join(parts) + line[len(body):]
    return b"".join(lines)


@pytest.mark.parametrize("kind", MUTATIONS)
@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_input_ends_in_an_exit_code(small_run, name, kind, data):
    """One mutation of one file that a stage reads ends the stage with exit
    code 0, 1 or 2; no exception escapes ``cli.main``."""
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "case"
        shutil.copytree(small_run, base)
        conf = write_small_config(base)
        path = base / name
        path.write_bytes(mutated(path.read_bytes(), kind, data.draw))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main([READERS[name], "--config", str(conf), "--out", str(base / "run")])
    assert rc in (0, 1, 2)
