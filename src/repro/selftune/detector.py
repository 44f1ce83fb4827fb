"""Online drift detection over the live transaction stream.

The detector consumes the run-time monitor's transition buffers (the same
``(source, target)`` pairs §4.5 maintenance counts) and keeps, per procedure,
a sliding window of the most recent transitions.  Drift is scored as the
worst per-vertex **divergence** between the windowed observed distribution
and the model's expectations::

    divergence(v) = 1 - sum(min(p_observed(v, t), p_model(v, t)))

i.e. one minus the distribution overlap that maintenance already uses as its
accuracy measure — 0.0 when the window matches the model exactly, 1.0 when
the observed targets are ones the model considers impossible.  Only vertices
with enough observations inside the window participate, so a handful of
unusual transactions cannot trip the detector.

Everything here is a deterministic function of the observed transition
sequence: no wall clock, no randomness, and ``max`` over floats is
iteration-order independent — verdicts are byte-identical across runs.
"""

from __future__ import annotations

from collections import deque

from ..markov.model import MarkovModel
from .config import SelfTuneConfig


class DriftDetector:
    """Windowed divergence scoring between observed paths and the model."""

    def __init__(self, config: SelfTuneConfig | None = None) -> None:
        self.config = config or SelfTuneConfig()
        #: Per-procedure sliding windows of recent (source, target) pairs.
        self._windows: dict[str, deque] = {}

    # ------------------------------------------------------------------
    def observe(self, procedure: str, transitions) -> None:
        """Feed one transaction's (source, target) transition pairs."""
        window = self._windows.get(procedure)
        if window is None:
            window = self._windows[procedure] = deque(
                maxlen=self.config.window_transitions
            )
        window.extend(transitions)

    def window_size(self, procedure: str) -> int:
        window = self._windows.get(procedure)
        return len(window) if window is not None else 0

    def reset(self, procedure: str) -> None:
        """Clear the procedure's window (called after a model swap — the old
        window measured the retired model's traffic)."""
        self._windows.pop(procedure, None)

    # ------------------------------------------------------------------
    def score(self, procedure: str, model: MarkovModel) -> float:
        """Worst per-vertex divergence of the window against ``model``."""
        window = self._windows.get(procedure)
        if not window:
            return 0.0
        observed: dict = {}
        for source, target in window:
            counts = observed.get(source)
            if counts is None:
                counts = observed[source] = {}
            counts[target] = counts.get(target, 0) + 1
        worst = 0.0
        min_observations = self.config.min_observations
        for source, counts in observed.items():
            total = sum(counts.values())
            if total < min_observations:
                continue
            expected = model.edge_distribution(source)
            overlap = 0.0
            for target, count in counts.items():
                overlap += min(count / total, expected.get(target, 0.0))
            worst = max(worst, 1.0 - overlap)
        return worst

    def check(
        self,
        procedure: str,
        model: MarkovModel,
        *,
        accuracy: float = 1.0,
        accuracy_threshold: float = 0.0,
    ) -> dict:
        """Produce the per-procedure drift verdict.

        ``accuracy`` is maintenance's last measured prediction accuracy for
        the procedure's model; when :attr:`SelfTuneConfig.use_accuracy_signal`
        is set, an accuracy below ``accuracy_threshold`` declares drift even
        if the divergence window has not filled up yet.
        """
        divergence = self.score(procedure, model)
        diverged = divergence > self.config.divergence_threshold
        degraded = (
            self.config.use_accuracy_signal and accuracy < accuracy_threshold
        )
        return {
            "procedure": procedure,
            "divergence": divergence,
            "accuracy": accuracy,
            "window": self.window_size(procedure),
            "drifted": bool(diverged or degraded),
        }
