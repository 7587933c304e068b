"""Adaptive failure detection and host lifecycle management.

Real fleets mostly fail *gray*: hosts slow down, heartbeats flap,
partitions make a live host unreachable.  A binary up/down view either
routes work at a zombie or abandons a host that was merely slow.  This
package replaces the cluster's lazy down-set with:

* :class:`PhiAccrualDetector` — a phi-accrual failure detector
  (Hayashibara et al.): instead of a boolean timeout it outputs a
  *suspicion level* phi, the negative log of the probability that the
  silence observed so far is consistent with the learned heartbeat
  inter-arrival distribution.  Thresholding phi at different levels
  yields graded reactions.
* :class:`HostHealth` / :class:`HostState` — a per-host lifecycle state
  machine (healthy → suspect → quarantined → draining → probation →
  healthy) driven by the detector.
* :class:`HealthMonitor` — one simulated heartbeat pump per host plus
  the transition logic; the cluster consults it for routability and
  probation routing weights.

Everything is strictly opt-in: a cluster without an attached monitor
behaves bit-identically to one built before this package existed.
"""

from repro.health.container import (
    ContainerHealth,
    ContainerHealthConfig,
    ContainerHealthPlane,
)
from repro.health.detector import PhiAccrualDetector
from repro.health.lifecycle import HealthConfig, HostHealth, HostState
from repro.health.monitor import HealthMonitor

__all__ = [
    "ContainerHealth",
    "ContainerHealthConfig",
    "ContainerHealthPlane",
    "HealthConfig",
    "HealthMonitor",
    "HostHealth",
    "HostState",
    "PhiAccrualDetector",
]
