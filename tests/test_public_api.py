"""The names the package exports and the public methods of its three
containers, with their signatures, are pinned: a change that drops or
reshapes one fails here rather than in a caller."""

import inspect

import sasvkit
from sasvkit import EmbeddingSet, ScoreSet, TrialTable

EXPORTS = {
    "ADcfConfig", "AsNormConfig", "CascadeConfig", "CircleConfig", "CohortStats", "Embedding",
    "EmbeddingSet", "GateParams", "LayerStack", "LossBatch", "PairSet", "PkConfig", "ScoreSet",
    "SpeakerDataset", "SphereFaceConfig", "ToyModel", "TrainConfig", "Trial", "TrialLabel",
    "TrialTable", "a_dcf", "as_norm", "cascade", "circle_loss", "cohort_stats", "combined_loss",
    "cosine", "det_points", "eer", "ensemble", "eval_toy", "fuse", "gate_probs", "gen_synthetic",
    "grad_check", "mine_pairs", "partition_scores", "pk_batches", "score_trials", "sphereface_loss",
    "spf_eer", "sv_eer", "top_k_cohort_scores", "top_k_mask", "train_toy",
}

# the container protocol a class may define, besides its named methods
PROTOCOL = {"__init__", "__len__", "__iter__", "__contains__", "__getitem__", "__eq__"}

METHODS = {
    EmbeddingSet: {
        "__init__": "(self, embeddings=())",
        "__len__": "(self)",
        "__contains__": "(self, id)",
        "__getitem__": "(self, id)",
        "__iter__": "(self)",
        "add": "(self, emb)",
        "from_matrix": "(ids, matrix)",
        "ids": "(self)",
        "matrix": "(self)",
        "rows": "(self, ids)",
    },
    TrialTable: {
        "__init__": "(self, trials=())",
        "__len__": "(self)",
        "__iter__": "(self)",
        "__getitem__": "(self, i)",
        "__eq__": "(self, other)",
    },
    ScoreSet: {
        "__init__": "(self, records=())",
        "__len__": "(self)",
        "__iter__": "(self)",
        "__contains__": "(self, key)",
        "append": "(self, trial, score)",
        "columns": "(self)",
        "from_columns": "(enroll, test, labels, scores)",
        "keys": "(self)",
        "score_of": "(self, key)",
        "scores": "(self)",
        "scores_in_order_of": "(self, other)",
        "with_scores": "(self, scores)",
    },
}


def test_the_package_exports_its_pinned_names():
    exported = {name for name, obj in vars(sasvkit).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported == EXPORTS
    assert sasvkit.__version__ == "0.1.0"


def test_the_containers_keep_their_public_methods_and_signatures():
    for cls, methods in METHODS.items():
        public = {name for name in dir(cls) if not name.startswith("_")}
        assert public | (PROTOCOL & set(vars(cls))) == set(methods), cls.__name__
        for name, signature in methods.items():
            assert str(inspect.signature(getattr(cls, name))) == signature, f"{cls.__name__}.{name}"
