"""Discrete-event simulation substrate.

Everything in the reproduction runs on this kernel: a deterministic
event queue (:mod:`repro.sim.events`), a generator-based process engine
(:mod:`repro.sim.engine`), named reproducible random streams
(:mod:`repro.sim.rng`) and per-host resource accounting
(:mod:`repro.sim.resources`).

Simulated time is a ``float`` number of **milliseconds**.  Ties in the
event queue are broken by insertion order so runs are bit-reproducible.
"""

from repro.sim.events import Event, EventQueue, ScheduledEvent
from repro.sim.engine import (
    AllOf,
    AnyOf,
    Interrupt,
    Periodic,
    Process,
    Resource,
    Simulator,
    Store,
    Timeout,
)
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.resources import HostResources, ResourceSample, ResourceTimeline

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "EventQueue",
    "HostResources",
    "Interrupt",
    "Periodic",
    "Process",
    "Resource",
    "ResourceSample",
    "ResourceTimeline",
    "RngRegistry",
    "ScheduledEvent",
    "Simulator",
    "Store",
    "Timeout",
    "derive_seed",
]
