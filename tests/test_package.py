"""The public library names of ``caserisk``.

These names are part of the package's behaviour: library users import them,
and the benchmark tracer wraps ``build_vocabulary``, ``vectorize_cluster``,
``vectorize_document`` and ``train`` by name.
"""

import types

import caserisk

PUBLIC_NAMES = {
    # bias
    "BiasReport", "ContingencyTable", "FeatureSpec", "TestResult", "audit", "bonferroni",
    "chi_squared_test", "contingency", "ks_two_sample", "renyi_divergence",
    # clustering
    "Cluster", "Clustering", "GraphConfig", "SimilarityGraph", "adjusted_rand", "build_graph",
    "consensus", "disagreement_cost", "kwikcluster", "refine", "text_similarity",
    # corpus
    "Corpus", "Document", "Gazetteer", "extract_attributes", "ingest", "normalize_phone",
    "remove_tokens", "write_corpus",
    # evaluate
    "EvalReport", "FoldPlan", "cross_validate", "make_folds", "roc_auc", "split",
    # model
    "IndicatorRule", "RiskModel", "TrainConfig", "Vocabulary", "apply_indicators",
    "build_vocabulary", "feature_importance", "load_model", "save_model", "score", "train",
    "vectorize_cluster", "vectorize_document",
    # sampling
    "LabeledCluster", "SamplingPlan", "conditioned_negatives", "random_negatives",
    "verify_alignment",
    # synth
    "SynthConfig", "SynthResult", "generate", "table2_fixture",
}


def test_public_names_are_exactly_these():
    exported = {
        name
        for name, value in vars(caserisk).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
