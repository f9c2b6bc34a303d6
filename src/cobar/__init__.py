"""Confidence-based collaborative rating prediction.

Blends a user's mean rating with an item's mean inside the user's
hierarchical cluster whose ratings for that item give the narrowest
confidence interval.  Ships the popularity, kNN and matrix-factorization
baselines plus a cross-validation evaluation harness and CLI.
"""

from .baselines import ItemKnn, KnnConfig, MatrixFactorization, MfConfig, MostPopular, UserKnn
from .clustering import Dendrogram, agglomerate, cosine_distance_matrix
from .core import CobarConfig, CobarModel, Fallback, Prediction
from .data import (
    FoldSplit,
    MeanStats,
    ParseError,
    RatingDataset,
    compute_item_stats,
    compute_user_stats,
    fold_train_test,
    kfold_split,
    parse_ratings,
    subsample_users,
)
from .evaluation import (
    EvalReport,
    WilcoxonResult,
    build_algorithms,
    rmse,
    run_cross_validation,
    wilcoxon_signed_rank,
)

__version__ = "0.1.0"

__all__ = [
    "CobarConfig",
    "CobarModel",
    "Dendrogram",
    "EvalReport",
    "Fallback",
    "FoldSplit",
    "ItemKnn",
    "KnnConfig",
    "MatrixFactorization",
    "MeanStats",
    "MfConfig",
    "MostPopular",
    "ParseError",
    "Prediction",
    "RatingDataset",
    "UserKnn",
    "WilcoxonResult",
    "agglomerate",
    "build_algorithms",
    "compute_item_stats",
    "compute_user_stats",
    "cosine_distance_matrix",
    "fold_train_test",
    "kfold_split",
    "parse_ratings",
    "rmse",
    "run_cross_validation",
    "subsample_users",
    "wilcoxon_signed_rank",
    "__version__",
]
