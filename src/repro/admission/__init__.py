"""Overload protection: admission control, deadlines, shedding, brownout.

The subsystem between clients and the runtime pool (DESIGN.md §10):

- :mod:`repro.admission.controller` — bounded per-function admission
  queues with a hard depth cap, deadline enforcement while queued, and
  QoS-aware load shedding.
- :mod:`repro.admission.aimd` — the adaptive concurrency controller
  (additive increase on success, multiplicative decrease on deadline
  misses and shed bursts), ticked from the existing control loop.
- :mod:`repro.admission.brownout` — the hysteresis state machine for a
  host's degraded mode under memory pressure / container-cap trips; the
  controller keeps one per host.

A platform with no controller attached behaves bit-identically to one
built before this subsystem existed.
"""

from repro.admission.aimd import AIMDConfig, AIMDLimiter
from repro.admission.brownout import BrownoutController
from repro.admission.controller import (
    AdmissionConfig,
    AdmissionController,
    AdmissionStats,
)

__all__ = [
    "AIMDConfig",
    "AIMDLimiter",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionStats",
    "BrownoutController",
]
