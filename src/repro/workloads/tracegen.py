"""Production-trace workload generator: Zipf keys, diurnal load, bursts.

The figure patterns (:mod:`repro.workloads.patterns`) drive a handful of
functions through round-structured request flows.  Real serverless
fleets look different: thousands of runtime keys whose popularity is
Zipf-distributed, request rates that breathe with the day, flash crowds
that multiply a few keys' traffic for minutes, and tenants whose
function sets churn over hours.  :class:`TraceWorkload` synthesises
exactly that shape — deterministically from a single seed — and streams
it out in per-slot :class:`ArrivalBatch` chunks so a simulated day of a
million requests never needs to be materialised at once.

Every random draw comes from one ``numpy`` generator seeded via
:func:`repro.sim.rng.derive_seed`, in a fixed order, so two iterations
of the same workload (or the same workload in another process) are
byte-identical.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Iterator, List, Tuple

import numpy as np

from repro.sim.rng import derive_seed

__all__ = ["ArrivalBatch", "TraceConfig", "TraceWorkload"]


@dataclass(frozen=True)
class TraceConfig:
    """Shape parameters of one synthetic production trace.

    The expected request total over the whole trace is exactly
    ``total_requests``: per-slot intensities (diurnal × churn × flash)
    are normalised so the modulation shapes *when* and *where* traffic
    lands without changing the expected volume.  Actual per-slot counts
    are Poisson draws around the normalised means, so the realised
    total fluctuates by roughly ``sqrt(total_requests)``.
    """

    #: Number of distinct runtime keys (functions) in the fleet.
    n_keys: int = 1_000
    #: Tenants; key ``k`` belongs to tenant ``k * n_tenants // n_keys``
    #: (contiguous rank blocks, so tenant 0 owns the Zipf head).
    n_tenants: int = 10
    #: Trace length in simulated milliseconds (default: one day).
    duration_ms: float = 86_400_000.0
    #: Arrival-batch granularity; one :class:`ArrivalBatch` per slot.
    slot_ms: float = 60_000.0
    #: Expected number of requests over the whole trace.
    total_requests: float = 1_000_000.0
    #: Zipf exponent of key popularity (weight of rank r is r^-s).
    zipf_s: float = 1.1
    #: Diurnal modulation amplitude in [0, 1): rate swings between
    #: ``(1-a)`` and ``(1+a)`` times the base rate over one period.
    diurnal_amplitude: float = 0.4
    #: Diurnal period (default: one day).
    diurnal_period_ms: float = 86_400_000.0
    #: Phase offset as a fraction of the period.
    diurnal_phase: float = 0.25
    #: Number of flash-crowd windows placed uniformly over the trace.
    flash_crowds: int = 2
    #: Rate multiplier applied to the affected keys during a flash.
    flash_factor: float = 8.0
    #: Length of each flash-crowd window.
    flash_duration_ms: float = 600_000.0
    #: Keys hit by each flash crowd (drawn popularity-weighted).
    flash_keys: int = 5
    #: Fraction of keys inactive during any churn interval (each
    #: interval independently re-draws the inactive set).
    churn_fraction: float = 0.1
    #: How often the active-key set is re-drawn.
    churn_interval_ms: float = 3_600_000.0
    #: Root seed for every random draw.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_keys < 1:
            raise ValueError("n_keys must be >= 1")
        if not 1 <= self.n_tenants <= self.n_keys:
            raise ValueError("n_tenants must be in [1, n_keys]")
        if self.duration_ms <= 0 or self.slot_ms <= 0:
            raise ValueError("duration_ms and slot_ms must be > 0")
        if self.total_requests <= 0:
            raise ValueError("total_requests must be > 0")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be >= 0")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period_ms <= 0:
            raise ValueError("diurnal_period_ms must be > 0")
        if self.flash_crowds < 0 or self.flash_keys < 0:
            raise ValueError("flash_crowds and flash_keys must be >= 0")
        if self.flash_factor < 1.0:
            raise ValueError("flash_factor must be >= 1")
        if self.flash_duration_ms <= 0:
            raise ValueError("flash_duration_ms must be > 0")
        if not 0.0 <= self.churn_fraction < 1.0:
            raise ValueError("churn_fraction must be in [0, 1)")
        if self.churn_interval_ms <= 0:
            raise ValueError("churn_interval_ms must be > 0")

    @property
    def n_slots(self) -> int:
        """Number of arrival slots in the trace."""
        return int(math.ceil(self.duration_ms / self.slot_ms))

    def with_seed(self, seed: int) -> "TraceConfig":
        """A copy of this config under a different seed."""
        return replace(self, seed=int(seed))


@dataclass(frozen=True)
class ArrivalBatch:
    """All arrivals of one slot, sorted by arrival offset.

    ``offsets_ms[i]`` is request ``i``'s arrival relative to
    ``start_ms``; ``key_ids[i]`` is its runtime key.
    """

    slot_index: int
    start_ms: float
    offsets_ms: np.ndarray
    key_ids: np.ndarray

    @property
    def size(self) -> int:
        """Number of arrivals in the slot."""
        return int(self.key_ids.size)


class TraceWorkload:
    """Deterministic arrival-stream view of a :class:`TraceConfig`.

    Iterating :meth:`batches` re-derives the stream from the seed each
    time, so the workload object itself holds no per-request state and
    repeated iterations are identical.
    """

    def __init__(self, config: TraceConfig) -> None:
        self.config = config
        ranks = np.arange(1, config.n_keys + 1, dtype=float)
        #: Static popularity weight per key (rank 0 most popular).
        self.weights = ranks ** -config.zipf_s
        self._weight_sum = float(self.weights.sum())

    # -- static structure ----------------------------------------------------
    def tenant_ids(self) -> np.ndarray:
        """Tenant of every key (contiguous popularity-rank blocks), as an
        index-by-key array."""
        config = self.config
        keys = np.arange(config.n_keys, dtype=np.int64)
        return keys * config.n_tenants // config.n_keys

    def diurnal_factor(self, t_ms: float) -> float:
        """Rate multiplier at time ``t_ms`` (mean 1 over one period)."""
        config = self.config
        angle = 2.0 * math.pi * (
            t_ms / config.diurnal_period_ms + config.diurnal_phase
        )
        return 1.0 + config.diurnal_amplitude * math.sin(angle)

    # -- random structure (drawn once per iteration, fixed order) ------------
    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(derive_seed(self.config.seed, "tracegen"))

    def _draw_structure(self, rng: np.random.Generator):
        """Flash windows and churn masks, in a fixed draw order."""
        config = self.config
        flashes: List[Tuple[float, float, np.ndarray]] = []
        probabilities = self.weights / self._weight_sum
        for _ in range(config.flash_crowds):
            latest = max(config.duration_ms - config.flash_duration_ms, 0.0)
            start = float(rng.uniform(0.0, latest)) if latest > 0 else 0.0
            n_hit = min(config.flash_keys, config.n_keys)
            hit = rng.choice(
                config.n_keys, size=n_hit, replace=False, p=probabilities
            )
            flashes.append((start, start + config.flash_duration_ms, hit))
        n_intervals = int(math.ceil(config.duration_ms / config.churn_interval_ms))
        if config.churn_fraction > 0:
            masks = rng.random((n_intervals, config.n_keys)) >= config.churn_fraction
            # The head key is always live so the trace never goes silent.
            masks[:, 0] = True
        else:
            masks = np.ones((n_intervals, config.n_keys), dtype=bool)
        return flashes, masks

    def active_mask(self, t_ms: float) -> np.ndarray:
        """The churn-active key mask in force at ``t_ms``."""
        rng = self._rng()
        _, masks = self._draw_structure(rng)
        index = min(
            int(t_ms // self.config.churn_interval_ms), masks.shape[0] - 1
        )
        return masks[index]

    def flash_windows(self) -> Tuple[Tuple[float, float, np.ndarray], ...]:
        """The ``(start_ms, end_ms, key_ids)`` flash-crowd windows."""
        rng = self._rng()
        flashes, _ = self._draw_structure(rng)
        return tuple(flashes)

    # -- the arrival stream ---------------------------------------------------
    def _slot_intensities(self, flashes, masks) -> np.ndarray:
        """Unnormalised expected-arrival intensity of every slot.

        Computed in O(1) per slot from per-churn-interval masked weight
        sums plus per-flash corrections, so the normalisation pass costs
        nothing even for very large key spaces.  Purely deterministic —
        consumes no random draws.
        """
        config = self.config
        masked_sums = (self.weights[None, :] * masks).sum(axis=1)
        intensities = np.empty(config.n_slots, dtype=float)
        for slot in range(config.n_slots):
            start = slot * config.slot_ms
            slot_len = min(config.slot_ms, config.duration_ms - start)
            mid = start + slot_len / 2.0
            interval = min(
                int(start // config.churn_interval_ms), masks.shape[0] - 1
            )
            effective_sum = float(masked_sums[interval])
            for flash_start, flash_end, hit in flashes:
                if flash_start <= mid < flash_end:
                    effective_sum += (config.flash_factor - 1.0) * float(
                        (self.weights[hit] * masks[interval][hit]).sum()
                    )
            intensities[slot] = (
                (slot_len / config.slot_ms)
                * self.diurnal_factor(mid)
                * effective_sum
            )
        return intensities

    def batches(self) -> Iterator[ArrivalBatch]:
        """Yield every slot's arrivals, in slot order.

        Each call restarts the stream from the seed; the sequence of
        random draws is fixed (structure first, then one Poisson /
        multinomial / offset draw per slot), so repeated iteration is
        byte-identical.  Slot means are normalised so the expected total
        over the trace is exactly ``config.total_requests``.
        """
        config = self.config
        rng = self._rng()
        flashes, masks = self._draw_structure(rng)
        intensities = self._slot_intensities(flashes, masks)
        intensity_sum = float(intensities.sum())
        norm = config.total_requests / intensity_sum if intensity_sum > 0 else 0.0
        keys = np.arange(config.n_keys, dtype=np.int64)
        empty_offsets = np.empty(0, dtype=float)
        empty_keys = np.empty(0, dtype=np.int64)
        for slot in range(config.n_slots):
            start = slot * config.slot_ms
            slot_len = min(config.slot_ms, config.duration_ms - start)
            mid = start + slot_len / 2.0
            interval = min(
                int(start // config.churn_interval_ms), masks.shape[0] - 1
            )
            effective = self.weights * masks[interval]
            for flash_start, flash_end, hit in flashes:
                if flash_start <= mid < flash_end:
                    effective = effective.copy()
                    effective[hit] *= config.flash_factor
            effective_sum = float(effective.sum())
            mean = norm * float(intensities[slot])
            count = int(rng.poisson(mean)) if mean > 0 else 0
            if count == 0:
                yield ArrivalBatch(slot, start, empty_offsets, empty_keys)
                continue
            per_key = rng.multinomial(count, effective / effective_sum)
            key_ids = np.repeat(keys, per_key)
            rng.shuffle(key_ids)
            offsets = np.sort(rng.random(count)) * slot_len
            yield ArrivalBatch(slot, start, offsets, key_ids)

    # -- whole-trace statistics (for property tests and reports) -------------
    def key_counts(self) -> np.ndarray:
        """Total requests per key over the whole trace (one pass)."""
        counts = np.zeros(self.config.n_keys, dtype=np.int64)
        for batch in self.batches():
            if batch.size:
                counts += np.bincount(batch.key_ids, minlength=self.config.n_keys)
        return counts

    def slot_counts(self) -> np.ndarray:
        """Total requests per slot over the whole trace (one pass)."""
        return np.array([batch.size for batch in self.batches()], dtype=np.int64)

    def head_share(self, head_fraction: float = 0.01) -> float:
        """Traffic share of the most-popular ``head_fraction`` of keys."""
        if not 0.0 < head_fraction <= 1.0:
            raise ValueError("head_fraction must be in (0, 1]")
        counts = self.key_counts()
        total = counts.sum()
        if total == 0:
            return float("nan")
        head = max(1, int(self.config.n_keys * head_fraction))
        return float(counts[:head].sum() / total)

    def schedule_digest(self) -> str:
        """SHA-256 over every batch's bytes — the determinism fingerprint."""
        digest = hashlib.sha256()
        for batch in self.batches():
            digest.update(np.int64(batch.slot_index).tobytes())
            digest.update(np.float64(batch.start_ms).tobytes())
            digest.update(np.ascontiguousarray(batch.offsets_ms).tobytes())
            digest.update(np.ascontiguousarray(batch.key_ids).tobytes())
        return digest.hexdigest()
