"""Group-sparse MLP training and structural node pruning.

Train sigmoid networks whose loss includes a group penalty on per-node
weight vectors, watch unnecessary hidden nodes collapse toward zero norm,
then remove them outright with no retraining step.
"""

from .analysis import (
    AnalysisBundle,
    HistogramSpec,
    NormHistogram,
    bimodality_gap,
    norm_histogram,
    write_bundle,
)
from .config import ExperimentConfig, parse_config, parse_config_text
from .datasets import (
    Dataset,
    context_stack,
    load_csv,
    load_idx,
    split,
    synth_gaussians,
)
from .errors import (
    ConfigError,
    DataFormatError,
    GlassoPruneError,
    ModelFormatError,
    ShapeMismatchError,
    TrainingDiverged,
)
from .network import (
    ForwardTrace,
    GradientSet,
    LayerParams,
    MlpNetwork,
    backward,
    forward,
    forward_batch,
    init_network,
    predict,
)
from .model_io import (
    load_model,
    model_bytes,
    model_from_bytes,
    model_from_json,
    model_to_json,
    save_model,
)
from .pruning import (
    PruneMask,
    PruneOutcome,
    apply_mask,
    forced_removal_curve,
    make_mask,
    match_count_prune,
)
from .regularization import (
    Mode,
    RegularizerSpec,
    group_norms,
    regularizer_gradient,
    regularizer_value,
)
from .trainer import (
    EpochReport,
    TrainConfig,
    TrainResult,
    disposable_counts,
    evaluate,
    load_history,
    mean_loss,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisBundle",
    "HistogramSpec",
    "NormHistogram",
    "bimodality_gap",
    "norm_histogram",
    "write_bundle",
    "ExperimentConfig",
    "parse_config",
    "parse_config_text",
    "Dataset",
    "context_stack",
    "load_csv",
    "load_idx",
    "split",
    "synth_gaussians",
    "ConfigError",
    "DataFormatError",
    "GlassoPruneError",
    "ModelFormatError",
    "ShapeMismatchError",
    "TrainingDiverged",
    "ForwardTrace",
    "GradientSet",
    "LayerParams",
    "MlpNetwork",
    "backward",
    "forward",
    "forward_batch",
    "init_network",
    "predict",
    "load_model",
    "model_bytes",
    "model_from_bytes",
    "model_from_json",
    "model_to_json",
    "save_model",
    "PruneMask",
    "PruneOutcome",
    "apply_mask",
    "forced_removal_curve",
    "make_mask",
    "match_count_prune",
    "Mode",
    "RegularizerSpec",
    "group_norms",
    "regularizer_gradient",
    "regularizer_value",
    "EpochReport",
    "TrainConfig",
    "TrainResult",
    "disposable_counts",
    "evaluate",
    "load_history",
    "mean_loss",
    "train",
    "__version__",
]
