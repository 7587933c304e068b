"""Control-plane checkpointing, crash recovery, and anti-entropy.

The HotC control plane is an index over ground truth that lives
elsewhere: the containers themselves (and their leases) are data-plane
state held by the engines.  This package makes the index crash-safe:

* :mod:`repro.recovery.checkpoint` — versioned snapshots of the
  learned state (pool metadata, predictors, breakers, AIMD limits)
  with bounded retention.
* :mod:`repro.recovery.manager` — the crash/recover protocol plus a
  background auditor that runs the provider's consistency checks on
  every control tick.

Recovery is reconstruction, not replay: after a crash the pool is
rebuilt from ``engine.live_containers()`` (adopting leased containers
as busy and idle ones as available), and the checkpoint is only used
for state that has no ground truth — forecasts, breaker states, AIMD
limits — and to classify divergences as typed repairs.

Strictly opt-in: without a constructed :class:`RecoveryManager` no
checkpoint, audit, or recovery code runs.
"""

from repro.recovery.checkpoint import (
    Checkpoint,
    CheckpointStore,
    HostCheckpoint,
    PoolEntrySnapshot,
)
from repro.recovery.manager import (
    RecoveryManager,
    RepairEvent,
    RepairKind,
)

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "HostCheckpoint",
    "PoolEntrySnapshot",
    "RecoveryManager",
    "RepairEvent",
    "RepairKind",
]
