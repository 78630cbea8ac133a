"""Ranking metrics for link prediction: MRR and Hits@K.

The paper reports AUC/AP; recommendation practitioners (the paper's
motivating deployment) usually also track ranked-retrieval metrics.
:func:`rank_destinations` scores one positive destination against a
candidate set and the metrics summarise the resulting ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RankingMetrics", "reciprocal_ranks", "mean_reciprocal_rank",
           "hits_at_k", "summarize_ranks",
           "top_k_from_scores"]


def top_k_from_scores(candidates: np.ndarray, scores: np.ndarray,
                      k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` best candidates by score, best first.

    Ties break toward the lower candidate id (stable and deterministic —
    the property the serving layer's HTTP round-trip tests rely on).
    Returns ``(top_candidates, top_scores)``; fewer rows when there are
    fewer candidates than ``k``, and empty (never an error) when ``k``
    is zero or there are no candidates.
    """
    candidates = np.asarray(candidates)
    scores = np.asarray(scores, dtype=np.float64)
    if candidates.shape != scores.shape or candidates.ndim != 1:
        raise ValueError("candidates and scores must be equal-length 1-D")
    if k < 0:
        raise ValueError("k must be >= 0")
    k = min(k, len(candidates))
    if k == 0:
        return candidates[:0], scores[:0]
    # Full lexsort (not argpartition): selection at the k boundary must
    # itself be tie-stable, or replicas with reordered candidate arrays
    # would serve different top-k sets for identical queries.
    order = np.lexsort((candidates, -scores))[:k]
    return candidates[order], scores[order]


def reciprocal_ranks(positive_scores: np.ndarray,
                     negative_scores: np.ndarray) -> np.ndarray:
    """1/rank of each positive among its own negatives.

    ``positive_scores``: shape (B,); ``negative_scores``: shape (B, K).
    Ties count against the positive (pessimistic rank), so a constant
    scorer does not get credit.
    """
    positive_scores = np.asarray(positive_scores, dtype=np.float64)
    negative_scores = np.asarray(negative_scores, dtype=np.float64)
    if negative_scores.ndim != 2 or len(positive_scores) != len(negative_scores):
        raise ValueError("expected (B,) positives against (B, K) negatives")
    better = (negative_scores >= positive_scores[:, None]).sum(axis=1)
    ranks = better + 1
    return 1.0 / ranks


def mean_reciprocal_rank(positive_scores: np.ndarray,
                         negative_scores: np.ndarray) -> float:
    return float(reciprocal_ranks(positive_scores, negative_scores).mean())


def hits_at_k(positive_scores: np.ndarray, negative_scores: np.ndarray,
              k: int) -> float:
    """Fraction of positives ranked within the top ``k``."""
    rr = reciprocal_ranks(positive_scores, negative_scores)
    ranks = np.round(1.0 / rr).astype(int)
    return float((ranks <= k).mean())


@dataclass
class RankingMetrics:
    """MRR plus hits at the conventional cutoffs."""

    mrr: float
    hits_at_1: float
    hits_at_5: float
    hits_at_10: float
    num_queries: int

    def as_row(self) -> dict:
        return {"MRR": round(self.mrr, 4),
                "Hits@1": round(self.hits_at_1, 4),
                "Hits@5": round(self.hits_at_5, 4),
                "Hits@10": round(self.hits_at_10, 4),
                "n": self.num_queries}


def summarize_ranks(positive_scores: np.ndarray,
                    negative_scores: np.ndarray) -> RankingMetrics:
    """Compute the standard ranking summary in one pass."""
    return RankingMetrics(
        mrr=mean_reciprocal_rank(positive_scores, negative_scores),
        hits_at_1=hits_at_k(positive_scores, negative_scores, 1),
        hits_at_5=hits_at_k(positive_scores, negative_scores, 5),
        hits_at_10=hits_at_k(positive_scores, negative_scores, 10),
        num_queries=len(positive_scores),
    )
