"""Downstream tasks: fine-tuning, link prediction, node classification,
metrics and early stopping."""

from .early_stopping import EarlyStopper
from .finetune import (STRATEGIES, FineTuneConfig, FineTuneStrategy,
                       build_finetuned_encoder)
from .link_prediction import LinkPredictionMetrics, LinkPredictionTask
from .metrics import accuracy_score, average_precision_score, roc_auc_score
from .node_classification import (NodeClassificationMetrics,
                                  NodeClassificationTask)
from .ranking import (RankingMetrics, hits_at_k, mean_reciprocal_rank,
                      reciprocal_ranks, summarize_ranks)

__all__ = [
    "roc_auc_score", "average_precision_score", "accuracy_score",
    "RankingMetrics", "reciprocal_ranks", "mean_reciprocal_rank",
    "hits_at_k", "summarize_ranks",
    "EarlyStopper",
    "FineTuneConfig", "FineTuneStrategy", "build_finetuned_encoder", "STRATEGIES",
    "LinkPredictionTask", "LinkPredictionMetrics",
    "NodeClassificationTask", "NodeClassificationMetrics",
]
