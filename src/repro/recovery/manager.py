"""Control-plane crash/recovery orchestration.

:class:`RecoveryManager` sits between the fault plan and a *provider*
(a :class:`~repro.core.hotc.HotC` or
:class:`~repro.core.cluster.ClusterHotC`) and owns the crash/recover
protocol:

* **checkpoint** — every ``CHECKPOINT_EVERY_TICKS`` control ticks the
  provider's recoverable state is snapshotted into a versioned,
  bounded :class:`~repro.recovery.checkpoint.CheckpointStore`.
* **crash** — the provider forgets all indexed control-plane state
  (pool metadata, busy counters, predictors, breakers, learned AIMD
  limits).  Containers, in-flight requests and in-flight boots are
  data-plane and keep running; new acquires fail fast until recovery.
* **recover** — the provider restores learned state from the latest
  checkpoint, then runs an anti-entropy sweep against the engine's
  live containers (ground truth): leased containers are re-adopted as
  busy, idle reusable ones rejoin the pool (or are retired if over
  capacity), checkpoint entries with no live container are purged as
  phantoms.  Every divergence becomes a typed :class:`RepairEvent`.
* **audit** — on every control tick the provider's
  ``check_consistency`` runs as a background invariant auditor, so a
  reconciliation bug surfaces at the next tick instead of at the end
  of a run.

Constructing a manager attaches it: it sets the simulator's
``recovery`` slot, where every HotC control tick finds it (and calls
:meth:`RecoveryManager.on_control_tick`) and where
:class:`~repro.core.cluster.ClusterHotC` looks before it tolerates a
container the rebuilt control plane no longer tracks.  Learned AIMD
limits are reached the same way, through the ``admission`` slot.

The manager is strictly opt-in: nothing constructs one unless the
caller does, and an attached-but-never-crashed manager only adds
synchronous bookkeeping on control ticks (no extra sim events), so
request traces are unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.obs.events import EventKind
from repro.recovery.checkpoint import Checkpoint, CheckpointStore

__all__ = ["RecoveryManager", "RepairEvent", "RepairKind"]

#: Retained checkpoint versions (older ones age out).
KEEP_CHECKPOINTS = 3
#: Take a checkpoint every this many control ticks.
CHECKPOINT_EVERY_TICKS = 5


class RepairKind(enum.Enum):
    """What the anti-entropy sweep did about one divergence."""

    #: A leased live container was re-registered as busy.
    ADOPTED_BUSY = "adopted_busy"
    #: An idle reusable container rejoined the pool as available.
    ADOPTED_IDLE = "adopted_idle"
    #: A container mid-cleanup was re-registered unavailable; its
    #: in-flight recycle process will release it when done.
    ADOPTED_RECYCLING = "adopted_recycling"
    #: An idle container found over the capacity limit was retired.
    RETIRED_ORPHAN = "retired_orphan"
    #: A checkpoint entry had no live container behind it.
    PURGED_PHANTOM = "purged_phantom"
    #: A live container in a state the sweep cannot explain.
    ANOMALY = "anomaly"


@dataclass(frozen=True)
class RepairEvent:
    """One typed repair performed during recovery."""

    kind: RepairKind
    host: str
    container_id: str
    key: str = ""
    detail: str = ""


@dataclass
class RecoveryStats:
    """Counters the recovery soak asserts over."""

    checkpoints_taken: int = 0
    crashes: int = 0
    recoveries: int = 0
    audits: int = 0
    repairs: int = 0
    phantoms_purged: int = 0
    orphans_retired: int = 0
    anomalies: int = 0


class RecoveryManager:
    """Checkpoints, crash/recover, and background consistency audits."""

    def __init__(self, provider) -> None:
        self.provider = provider
        self.sim = provider.sim
        self.store = CheckpointStore(keep=KEEP_CHECKPOINTS)
        self.stats = RecoveryStats()
        #: Every repair ever performed, in order.
        self.repairs: List[RepairEvent] = []
        #: Divergences the post-recovery verification could not explain
        #: (the soak asserts this stays empty).
        self.unrepaired: List[str] = []
        self._ticks = 0
        self._last_tick_at: Optional[float] = None
        self.sim.recovery = self

    # -- helpers -----------------------------------------------------------
    @property
    def crashed(self) -> bool:
        """Whether the control plane is currently down."""
        return bool(self.provider._crashed)

    # -- control-tick hook -------------------------------------------------
    def on_control_tick(self, now: float) -> None:
        """Audit every tick; checkpoint every ``CHECKPOINT_EVERY_TICKS``.

        Cluster hosts share one control tick timestamp, so calls at the
        same sim instant collapse into one.
        """
        if self.crashed:
            return
        if self._last_tick_at is not None and now == self._last_tick_at:
            return
        self._last_tick_at = now
        self._ticks += 1
        self.audit()
        if self._ticks % CHECKPOINT_EVERY_TICKS == 0:
            self.checkpoint(now)

    def audit(self) -> None:
        """Run the provider's invariant checks (raises on violation)."""
        self.provider.check_consistency()
        self.stats.audits += 1

    # -- checkpointing -----------------------------------------------------
    def checkpoint(self, now: Optional[float] = None) -> Checkpoint:
        """Snapshot the provider's recoverable state; returns it."""
        if now is None:
            now = self.sim.now
        hosts = self.provider.snapshot_state()
        limits = {}
        admission = self.sim.admission
        if admission is not None:
            limits = admission.export_limits()
        checkpoint = self.store.save(now, hosts, aimd_limits=limits)
        self.stats.checkpoints_taken += 1
        obs = self.sim.obs
        if obs is not None:
            obs.record(
                EventKind.CHECKPOINT, now, "checkpoints_total",
                "Control-plane checkpoints taken", {},
                version=checkpoint.version, entries=checkpoint.n_entries,
            )
        return checkpoint

    # -- crash / recover (called by the fault plan) ------------------------
    def crash(self) -> bool:
        """Wipe the control plane; returns False if already crashed."""
        if self.crashed:
            return False
        now = self.sim.now
        lost = self.provider.crash_control_plane()
        admission = self.sim.admission
        if admission is not None:
            # Learned AIMD limits are control-plane memory too.
            admission.reset_limits()
        self.stats.crashes += 1
        obs = self.sim.obs
        if obs is not None:
            obs.record(
                EventKind.RECOVERY, now, "controller_crashes_total",
                "Control-plane crashes injected", {},
                phase="crash", entries_lost=lost,
            )
        return True

    def recover(self) -> List[RepairEvent]:
        """Rebuild the control plane from checkpoint + ground truth."""
        if not self.crashed:
            return []
        now = self.sim.now
        checkpoint = self.store.latest()
        repairs = self.provider.recover_from(checkpoint)
        admission = self.sim.admission
        if admission is not None and checkpoint is not None:
            admission.restore_limits(checkpoint.aimd_limits)
        self.repairs.extend(repairs)
        self.stats.recoveries += 1
        self.stats.repairs += len(repairs)
        for repair in repairs:
            if repair.kind is RepairKind.PURGED_PHANTOM:
                self.stats.phantoms_purged += 1
            elif repair.kind is RepairKind.RETIRED_ORPHAN:
                self.stats.orphans_retired += 1
            elif repair.kind is RepairKind.ANOMALY:
                self.stats.anomalies += 1
        problems = self.verify()
        obs = self.sim.obs
        if obs is not None:
            obs.record(
                EventKind.RECOVERY, now, "controller_recoveries_total",
                "Control-plane recoveries completed", {}, phase="recover",
                version=checkpoint.version if checkpoint is not None else 0,
                repairs=len(repairs), unrepaired=len(problems),
            )
            for repair in repairs:
                obs.record(
                    EventKind.REPAIR, now, "recovery_repairs_total",
                    "Anti-entropy repairs by action",
                    {"action": repair.kind.value}, host=repair.host,
                    key=repair.key, action=repair.kind.value,
                    container=repair.container_id,
                )
        return repairs

    def verify(self) -> List[str]:
        """Post-recovery sweep: invariants plus ground-truth divergence.

        Anything found here means reconciliation missed something; the
        problems are recorded in :attr:`unrepaired` for the soak to
        assert against.
        """
        problems: List[str] = []
        try:
            self.provider.check_consistency()
        except AssertionError as exc:
            problems.append(f"consistency: {exc}")
        problems.extend(self.provider.scan_divergences())
        self.unrepaired.extend(problems)
        return problems
