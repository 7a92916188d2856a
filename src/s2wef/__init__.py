"""Federated-learning free-rider simulation and detection toolkit."""

from .attacks import AttackParams, FakeSubmission, adwa, awca, dwa, make_submission, rwa, spa
from .detect import (
    ClusterOutcome,
    DetectionDecision,
    RoundDetection,
    RoundScores,
    decide_k,
    detect_round,
    dev_scores,
    gamma_scores,
    majority_vote,
    robust_standardize,
    simulate_global_wef,
    threshold_flags,
    ward_hac,
    wef_defense_baseline,
)
from .errors import (
    ConfigurationError,
    HistoryError,
    NumericError,
    S2wefError,
    ShapeError,
    TraceError,
)
from .fedsim import (
    DatasetParams,
    MetricsReport,
    Metrics,
    SimConfig,
    aggregate_fedavg,
    compute_metrics,
    make_dataset,
    partition_dirichlet,
    partition_iid,
    run_simulation,
    run_trial,
    schedule_scenario1,
    schedule_scenario2,
)
from .nn import (
    DatasetShard,
    ModelWeights,
    TrainConfig,
    evaluate_accuracy,
    init_model,
    local_train,
)
from .wef import WefMatrix, accumulate, build_wef, counterfeit_one_step

__version__ = "0.1.0"
