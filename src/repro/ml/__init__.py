"""ML substrate: NN framework, random forest, features, metrics, splits."""

from repro.ml.features import (
    NETFLOW_FIELDS,
    OVERFIT_NETFLOW_FIELDS,
    NetFlowRecord,
    netflow_feature_names,
    netflow_matrix,
    netflow_record,
    nprint_features,
    nprint_matrix_features,
    overfit_bit_mask,
)
from repro.ml.forest import DecisionTree, RandomForest
from repro.ml.metrics import (
    accuracy,
    bit_fidelity,
    class_proportions,
    imbalance_ratio,
    jensen_shannon_divergence,
    normalized_entropy,
    wasserstein_1d,
)
from repro.ml.split import encode_labels, stratified_split

__all__ = [
    "DecisionTree",
    "RandomForest",
    "accuracy",
    "class_proportions",
    "imbalance_ratio",
    "normalized_entropy",
    "jensen_shannon_divergence",
    "wasserstein_1d",
    "bit_fidelity",
    "NetFlowRecord",
    "NETFLOW_FIELDS",
    "OVERFIT_NETFLOW_FIELDS",
    "netflow_record",
    "netflow_matrix",
    "netflow_feature_names",
    "nprint_features",
    "nprint_matrix_features",
    "overfit_bit_mask",
    "stratified_split",
    "encode_labels",
]
