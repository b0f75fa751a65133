"""Streaming best-cut tracking with early-stop-on-plateau.

The engine feeds the tracker one read-out round at a time (a vector of cut
weights, one per trial in the current block).  The tracker maintains the
running best across the whole batch and decides when the cut distribution has
plateaued — at which point long runs terminate instead of simulating the
remaining read-out rounds.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from repro.engine.request import EarlyStopConfig

__all__ = ["BestCutTracker"]


class BestCutTracker:
    """Tracks the running best cut weight and detects plateaus.

    Parameters
    ----------
    early_stop:
        Plateau rule; ``None`` disables *all* stopping — the tracker still
        tracks the running best, but neither the plateau rule nor the
        ceiling ever fires.
    ceiling:
        Optional known upper bound on the cut weight (the graph's total edge
        weight).  While an early-stop rule is active, reaching the ceiling
        stops immediately regardless of patience.
    deadline:
        Optional absolute wall-clock deadline (a ``time.perf_counter()``
        value).  Unlike the plateau rule, the deadline is an *independent*
        stop condition: it fires even with ``early_stop=None``, because a
        budget's ``max_seconds`` / a served request's timeout is an explicit
        instruction to truncate.  The check runs after each completed round,
        so at least one read-out always lands before a deadline stop — the
        returned best cut is partial but valid.
    """

    def __init__(
        self,
        early_stop: Optional[EarlyStopConfig] = None,
        ceiling: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> None:
        self._config = early_stop
        self._ceiling = None if ceiling is None else float(ceiling)
        self._deadline = None if deadline is None else float(deadline)
        self._deadline_exceeded = False
        self.best_weight: float = -math.inf
        self.rounds_seen: int = 0
        self._rounds_since_improvement: int = 0
        self._stop_round: Optional[int] = None

    @property
    def stop_round(self) -> Optional[int]:
        """Round index after which the batch stopped (None while running)."""
        return self._stop_round

    @property
    def stopped(self) -> bool:
        return self._stop_round is not None

    @property
    def deadline_exceeded(self) -> bool:
        """True once the wall-clock deadline has fired (never reset)."""
        return self._deadline_exceeded

    def update(self, round_index: int, weights: np.ndarray) -> bool:
        """Fold one round of per-trial cut weights in; return True to stop.

        ``round_index`` is the 0-based read-out round.  Later trial blocks
        replay earlier rounds; those updates refine the best but never move an
        already-decided stop round earlier.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.size == 0:
            return self.stopped
        round_best = float(weights.max())
        threshold = self._improvement_threshold()
        if round_best > self.best_weight + threshold:
            self.best_weight = max(self.best_weight, round_best)
            self._rounds_since_improvement = 0
        else:
            self.best_weight = max(self.best_weight, round_best)
            self._rounds_since_improvement += 1
        self.rounds_seen = max(self.rounds_seen, round_index + 1)

        # The deadline outranks every other rule *and* the config=None
        # equivalence guarantee: it is checked first, fires in any block
        # (the engine honours it even where plateau stops are disallowed),
        # and latches so later blocks truncate at the same point.
        if self._deadline is not None and (
            self._deadline_exceeded or time.perf_counter() >= self._deadline
        ):
            self._deadline_exceeded = True
            if self._stop_round is None:
                self._stop_round = round_index
            return True

        if self._stop_round is not None:
            return True
        config = self._config
        if config is None:
            # Stopping (even at the ceiling) is only allowed when an early-stop
            # rule is configured, so a default run always completes all
            # n_samples read-outs.
            return False
        if self._ceiling is not None and self.best_weight >= self._ceiling:
            self._stop_round = round_index
            return True
        if (
            round_index + 1 >= config.min_rounds
            and self._rounds_since_improvement >= config.patience
        ):
            self._stop_round = round_index
            return True
        return False

    def _improvement_threshold(self) -> float:
        if self._config is None:
            return 0.0
        if not math.isfinite(self.best_weight):
            return 0.0
        return max(
            self._config.abs_improvement,
            self._config.rel_improvement * abs(self.best_weight),
        )

    def start_block(self) -> None:
        """Reset the per-block plateau counter before replaying rounds.

        The best weight is global across blocks, but the plateau counter is
        block-local: a later block restarts at round 0, so carrying the
        counter over would conflate rounds from different trials.
        """
        self._rounds_since_improvement = 0

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        best = "-inf" if not math.isfinite(self.best_weight) else f"{self.best_weight:g}"
        return (
            f"BestCutTracker(best={best}, rounds={self.rounds_seen}, "
            f"stopped={self.stopped})"
        )
