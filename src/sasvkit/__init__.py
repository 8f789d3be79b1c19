"""Spoofing-aware speaker verification scoring, losses, and evaluation."""

from .core import (
    Embedding,
    EmbeddingSet,
    ScoreSet,
    Trial,
    TrialLabel,
    TrialTable,
    partition_scores,
)
from .scoring import (
    AsNormConfig,
    CascadeConfig,
    CohortStats,
    as_norm,
    cascade,
    cohort_stats,
    cosine,
    ensemble,
    score_trials,
    top_k_cohort_scores,
)
from .metrics import ADcfConfig, a_dcf, det_points, eer, spf_eer, sv_eer
from .losses import (
    CircleConfig,
    LossBatch,
    PairSet,
    SphereFaceConfig,
    circle_loss,
    combined_loss,
    grad_check,
    mine_pairs,
    sphereface_loss,
)
from .moe import GateParams, LayerStack, fuse, gate_probs, top_k_mask
from .sampler import (
    PkConfig,
    SpeakerDataset,
    ToyModel,
    TrainConfig,
    eval_toy,
    gen_synthetic,
    pk_batches,
    train_toy,
)

__version__ = "0.1.0"
