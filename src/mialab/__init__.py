"""Membership-inference laboratory: shadow farms, likelihood-ratio and
adversarial-query attacks, and low-FPR ROC evaluation at desk scale."""

from .attacks import (
    CanaryConfig,
    GaussianStats,
    ScoreRow,
    ScoreTable,
    ensemble_scores,
    fit_gaussians,
    lira_offline_score,
    lira_online_log_ratio,
    lira_online_score,
    optimize_canary,
    random_noise_query,
    run_attack,
    scale_confidence,
    scale_confidence_batch,
)
from .config import ArchSpec, AttackSpec, DatasetSpec, ExperimentConfig, TargetsSpec, load_config
from .data import Dataset, synthetic_mixture
from .farm import (
    ShadowFarm,
    TargetOracle,
    build_farm,
    hold_out_target,
    in_out_partition,
    load_farm,
    model_confidence_batch,
    save_farm,
)
from .metrics import (
    RocSummary,
    aggregate_runs,
    auc,
    roc_auc,
    roc_curve,
    summarize,
    tpr_at_fpr,
)
from .nn import (
    AdamState,
    ArchDescriptor,
    ObjectiveKind,
    Params,
    adam_step,
    forward_batch,
    init_adam,
    init_params,
    input_gradient,
    param_gradient,
    softmax,
)
from .training import (
    DpConfig,
    ModelRecord,
    TrainConfig,
    dp_step,
    make_even_splits,
    train_model,
)

__version__ = "0.1.0"
