"""Versioned control-plane checkpoints.

A checkpoint is a pure-data snapshot of everything the middleware
*learned* and would otherwise lose in a crash: which containers it was
tracking (and whether they were idle), the first-seen config per
runtime key, the adaptive predictor's state, each key's circuit
breaker, and the admission controller's AIMD limits.

What a checkpoint deliberately does **not** try to be is the truth:
containers boot, die and change hands between checkpoints, so recovery
treats the engine's live-container list as ground truth and uses the
checkpoint only for (a) state that has no ground truth to rebuild from
— predictor, breakers, AIMD limits — and (b) classifying divergences
(phantom entries, post-checkpoint arrivals) during the anti-entropy
sweep.

Predictor and breaker state are stored as deep copies, and deep-copied
again on restore, so a retained checkpoint is never mutated by the
recovered control plane.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "HostCheckpoint",
    "PoolEntrySnapshot",
]


@dataclass(frozen=True)
class PoolEntrySnapshot:
    """One pooled container as the checkpoint saw it."""

    container_id: str
    key: object
    available: bool


@dataclass(frozen=True)
class HostCheckpoint:
    """One host's recoverable control-plane state."""

    host: str
    entries: Tuple[PoolEntrySnapshot, ...]
    #: First-seen config per runtime key (prewarm boots need these).
    configs: Dict[object, object]
    #: Deep copy of the host's AdaptivePoolController.
    controller: object
    #: Deep copies of the per-key circuit breakers.
    breakers: Dict[object, object]


@dataclass(frozen=True)
class Checkpoint:
    """One versioned snapshot of the whole control plane."""

    version: int
    taken_at: float
    hosts: Tuple[HostCheckpoint, ...]
    #: Per-function AIMD concurrency limits.
    aimd_limits: Dict[str, float] = field(default_factory=dict)

    @property
    def n_entries(self) -> int:
        """Pool entries across all hosts (checkpoint size signal)."""
        return sum(len(hc.entries) for hc in self.hosts)


class CheckpointStore:
    """Bounded, versioned checkpoint retention (keep the last ``keep``)."""

    def __init__(self, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.keep = keep
        self._checkpoints: Deque[Checkpoint] = deque(maxlen=keep)
        self._next_version = 1

    def save(
        self,
        taken_at: float,
        hosts: Tuple[HostCheckpoint, ...],
        aimd_limits: Optional[Dict[str, float]] = None,
    ) -> Checkpoint:
        """Store a new checkpoint; returns it (with its version)."""
        checkpoint = Checkpoint(
            version=self._next_version,
            taken_at=taken_at,
            hosts=hosts,
            aimd_limits=dict(aimd_limits or {}),
        )
        self._next_version += 1
        self._checkpoints.append(checkpoint)
        return checkpoint

    def latest(self) -> Optional[Checkpoint]:
        """The most recent checkpoint, or ``None`` before the first."""
        return self._checkpoints[-1] if self._checkpoints else None

    def versions(self) -> Tuple[int, ...]:
        """Versions currently retained, oldest first."""
        return tuple(cp.version for cp in self._checkpoints)

    def __len__(self) -> int:
        return len(self._checkpoints)
