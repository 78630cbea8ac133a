"""Patience-based early stopping on a validation metric (paper §V-C)."""

from __future__ import annotations

__all__ = ["EarlyStopper"]


class EarlyStopper:
    """Stop when the monitored metric fails to improve for ``patience`` rounds.

    ``higher_is_better`` matches AUC/AP; :attr:`best_round` records when the
    best value was seen so callers can restore the matching checkpoint.
    """

    def __init__(self, patience: int = 3, min_delta: float = 1e-5,
                 higher_is_better: bool = True):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.min_delta = min_delta
        self.higher_is_better = higher_is_better
        self.best_value: float | None = None
        self.best_round: int = -1
        self._rounds_since_best = 0
        self._round = -1

    def update(self, value: float) -> bool:
        """Record a new metric value; returns True when training should stop."""
        self._round += 1
        improved = (
            self.best_value is None
            or (self.higher_is_better and value > self.best_value + self.min_delta)
            or (not self.higher_is_better and value < self.best_value - self.min_delta)
        )
        if improved:
            self.best_value = value
            self.best_round = self._round
            self._rounds_since_best = 0
            return False
        self._rounds_since_best += 1
        return self._rounds_since_best >= self.patience
