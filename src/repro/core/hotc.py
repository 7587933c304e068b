"""HotC: the container-based runtime management middleware (Section IV).

HotC sits between clients and backend hosts as a
:class:`~repro.faas.platform.RuntimeProvider`:

* **acquire** — parameter analysis derives the runtime key; an
  available pooled container of that type is reused (Algorithm 1),
  otherwise a new one is booted, after making room if the pool is at
  its container cap or the host shows memory pressure.
* **release** — the used container is cleaned (Algorithm 2) and
  returned to the pool off the critical path.
* **control loop** — every interval, per-key demand (peak concurrent
  containers needed) feeds the combined ES+Markov predictor; the pool
  is resized toward the forecast: pre-boot on predicted growth, retire
  the oldest idle containers on predicted decline.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional

from repro.admission.controller import BROWNOUT_TARGET_FACTOR
from repro.containers.container import Container, ContainerConfig
from repro.containers.engine import ContainerEngine
from repro.core.breaker import CircuitBreaker
from repro.core.cleanup import CleanupWorker
from repro.core.keys import KeyPolicy, RuntimeKey, runtime_key
from repro.core.pool import ContainerRuntimePool, PoolLimits
from repro.core.predictor.controller import AdaptivePoolController
from repro.core.similarity import KeySimilarityModel
from repro.faas.platform import RuntimeProvider
from repro.health.container import ContainerHealthConfig, ContainerHealthPlane
from repro.obs.events import EventKind
from repro.faults.errors import (
    BootFailure,
    RuntimeUnavailableError,
    TransientEngineError,
)
from repro.recovery.checkpoint import HostCheckpoint, PoolEntrySnapshot
from repro.recovery.manager import RepairEvent, RepairKind

__all__ = ["HotC", "HotCConfig"]

#: Boot failures HotC retries on the same host (host outages are not
#: retryable locally; the cluster scheduler fails over instead).
_RETRYABLE = (BootFailure, TransientEngineError)

#: Minimum key-similarity score a repurpose donor must reach to be priced.
REPURPOSE_MIN_SCORE = 0.5
#: Extra boot attempts after a retryable boot failure.
BOOT_RETRIES = 2
#: Exponential backoff between boot attempts: the n-th retry waits
#: ``BOOT_BACKOFF_BASE_MS * BOOT_BACKOFF_FACTOR**(n-1)`` ms, +/-
#: ``BOOT_BACKOFF_JITTER`` fraction when the engine has a jitter RNG.
BOOT_BACKOFF_BASE_MS = 50.0
BOOT_BACKOFF_FACTOR = 2.0
BOOT_BACKOFF_JITTER = 0.1
#: How long an open per-key boot breaker refuses boots before its
#: half-open probe.
BREAKER_COOLDOWN_MS = 5_000.0
#: Pre-boot containers toward the forecast on each control tick (False
#: = reuse only).
PREWARM = True
#: The pool's eviction order: the paper evicts the oldest live container.
EVICTION = "oldest"

#: What the observatory records for a claim, by ``(reuse, found)``: an
#: exact lookup is a hit or a miss, a relaxed donor claim a relaxed hit;
#: a repurpose claim records ``REPURPOSE`` only once it is adopted.
_CLAIM_EVENTS = {
    ("hit", True): (
        EventKind.POOL_HIT, "pool_hits_total",
        "Acquires served by a pooled warm container",
    ),
    ("hit", False): (
        EventKind.POOL_MISS, "pool_misses_total",
        "Acquires that fell through to a cold boot",
    ),
    ("relaxed", True): (
        EventKind.POOL_RELAXED_HIT, "pool_relaxed_hits_total",
        "Acquires served by reconfiguring a relaxed-key match",
    ),
}


@dataclass(frozen=True)
class HotCConfig:
    """Tunables of the middleware (defaults follow the paper).

    The predictor's own parameters (Eq. 1 smoothing, Markov states and
    window, the q0.9 sizing target) are constants of
    :mod:`repro.core.predictor.controller`; the pool's eviction order
    and the prewarm switch are this module's ``EVICTION`` and
    ``PREWARM``.
    """

    key_policy: KeyPolicy = KeyPolicy.FULL
    limits: PoolLimits = field(default_factory=PoolLimits)
    #: Adaptive control period; 0 disables the prediction loop.
    control_interval_ms: float = 1_000.0
    #: Use the Markov correction (False = ES only; the Fig 10a ablation).
    markov_correction: bool = True
    #: Future-work partial-key matching (Section VII): on a full-key
    #: miss, reuse an idle container whose *relaxed* key matches and
    #: apply the configuration delta.  ``None`` disables the fallback.
    fallback_key_policy: Optional[KeyPolicy] = None
    #: Inter-key repurposing ("zygote" sharing, à la Pagurus): after a
    #: full-key *and* relaxed-key miss, re-specialize an idle donor
    #: container of a different key when its deterministic re-spec cost
    #: beats the predicted cold boot and the donor key's forecast says
    #: the container will not be missed.  Strictly opt-in: disabled
    #: runs take no extra sim events and stay bit-identical.
    repurpose: bool = False
    #: Per-key circuit breaker: open after this many consecutive boot
    #: failures and fail fast (also pausing prewarm) for
    #: ``BREAKER_COOLDOWN_MS``; a half-open probe then decides.  <= 0
    #: disables it.
    breaker_threshold: int = 3
    #: Container aging & self-healing (DESIGN.md §14): a per-container
    #: health plane scores exec outcomes, latency residuals and RSS
    #: trajectory, quarantines contaminated containers, and proactively
    #: recycles aged ones (demote-drain-replace, token-bucket limited).
    #: ``None`` disables the whole plane: no records, no RNG, no events
    #: — runs stay bit-identical to a build without it.
    container_health: Optional[ContainerHealthConfig] = None

    def __post_init__(self) -> None:
        if self.fallback_key_policy is self.key_policy:
            raise ValueError(
                "fallback_key_policy must differ from key_policy"
            )

    def make_controller(self) -> AdaptivePoolController:
        """A fresh per-host predictor bank configured per this config."""
        return AdaptivePoolController(
            # Without the Markov correction the chain never engages.
            min_history=6 if self.markov_correction else 10**9,
            max_target=self.limits.max_containers,
        )


class _KeyState:
    """What the control plane has learned about one runtime key."""

    __slots__ = ("config", "busy", "peak", "breaker", "cold_estimate")

    def __init__(self, config: ContainerConfig) -> None:
        #: First-seen config, used for prewarm boots.
        self.config = config
        #: Requests currently holding a container of this key, and the
        #: most held at once since the last control tick.
        self.busy = 0
        self.peak = 0
        #: Boot circuit breaker, built on the key's first boot failure;
        #: until then the key boots as under a closed breaker.
        self.breaker: Optional[CircuitBreaker] = None
        #: Cached jitter-free cold-boot prediction (repurpose pricing).
        self.cold_estimate: Optional[float] = None


class HotC(RuntimeProvider):
    """The middleware; one instance per backend host."""

    def __init__(self, engine: ContainerEngine, config: Optional[HotCConfig] = None) -> None:
        self.engine = engine
        self.sim = engine.sim
        self.config = config or HotCConfig()
        self.pool = ContainerRuntimePool(
            limits=self.config.limits, eviction=EVICTION
        )
        self.cleanup = CleanupWorker(self.sim, engine, self.pool)
        self.controller = self.config.make_controller()
        #: Per-key state in first-seen order (the control tick's order).
        self._keys: Dict[RuntimeKey, _KeyState] = {}
        #: In-flight boots (cold and prewarm) counted against the cap,
        #: and their prewarm subset: those have no requester waiting, so
        #: a host failover can absorb their reservations outright.  Both
        #: live outside the per-key records because in-flight boots keep
        #: their reservations through a control-plane crash.
        self._pending_boots: Dict[RuntimeKey, int] = {}
        self._pending_prewarms: Dict[RuntimeKey, int] = {}
        #: The control loop's handle while it runs.
        self._control = None
        #: Set by shutdown(): released/landing containers are retired
        #: instead of recycled, and no new prewarms are spawned.
        self._draining = False
        #: Inter-key repurposing similarity model.  ``None`` unless
        #: opted in, so disabled runs never construct (or consult) it.
        self.similarity: Optional[KeySimilarityModel] = (
            KeySimilarityModel(registry=engine.registry)
            if self.config.repurpose
            else None
        )
        #: The donor stages an exact miss falls through, in order: the
        #: relaxed fallback, then repurposing, each only when opted in.
        self._donor_stages = tuple(
            stage
            for enabled, stage in (
                (self.config.fallback_key_policy is not None, self._relaxed_donors),
                (self.similarity is not None, self._repurpose_donors),
            )
            if enabled
        )
        #: True between crash_control_plane() and recover_from():
        #: acquire fails fast, the control loop skips its tick.
        self._crashed = False
        #: Bumped by drain_lost(); a prewarm landing with a
        #: stale epoch belongs to a previous host life and is retired.
        self._prewarm_epoch = 0
        #: Container health plane (aging/contamination verdicts), only
        #: constructed when opted in — distinct from the cluster's
        #: *host* health monitor.
        self.container_health: Optional[ContainerHealthPlane] = (
            ContainerHealthPlane(
                self.config.container_health, self.sim, host=engine.name
            )
            if self.config.container_health is not None
            else None
        )
        self.cleanup.health = self.container_health

    # -- the provider protocol ------------------------------------------------
    def key_of(self, config: ContainerConfig) -> RuntimeKey:
        """Parameter analysis: config → runtime key."""
        return runtime_key(config, self.config.key_policy)

    def acquire(self, config: ContainerConfig) -> Generator:
        """Process: Algorithm 1 — reuse when available, else cold boot.

        The reuse hierarchy is three-way.  With ``fallback_key_policy``
        set, a full-key miss first tries an idle container of a
        *similar* configuration (same relaxed key) and applies the
        config delta; with ``repurpose`` on, a relaxed miss may then
        re-specialize an idle donor of a *different* key whose re-spec
        cost beats the predicted cold boot — each strictly cheaper than
        the cold boot that follows otherwise.

        The cold-boot path is failure-hardened: boots are retried with
        exponential backoff on retryable failures and refused outright
        while the key's circuit breaker is open.  If anything raises,
        the demand bump taken at entry is rolled back so the key's busy
        count (and with it the predictor's demand signal) never leaks.
        """
        if self._crashed:
            # Control-plane crash window: fail fast so the caller's
            # retry policy decides; the data plane keeps running.
            raise RuntimeUnavailableError(
                f"control plane of host {self.engine.name} is down"
            )
        key = self.key_of(config)
        state = self._learn(key, config)
        state.busy += 1
        if state.busy > state.peak:
            state.peak = state.busy
        try:
            container = self._claim(key, "hit")
            if container is not None:
                container.reuse = "hit"
                container.respec_ms = 0.0
            elif self._donor_stages:
                container = yield from self._acquire_donor(key, config)
            if container is not None:
                container.leased = True
                return container, False

            # A key whose record a control-plane crash dropped while the
            # caller waited boots under a fresh record that is not kept.
            record = self._keys.get(key) or _KeyState(config)
            breaker = record.breaker
            if breaker is not None and not breaker.allow(self.sim.now):
                self.engine.stats.breaker_fastfails += 1
                raise RuntimeUnavailableError(
                    f"circuit breaker open for runtime key {key}"
                )
            container = yield from self._boot_with_retry(key, config, record)
            self.pool.register(container, key, now=self.sim.now, available=False)
            container.leased = True
            return container, True
        except BaseException:
            # Roll back the demand bump: a failed acquire must not keep
            # inflating the key's busy/peak counts forever.
            self._bump_busy(key, -1)
            raise

    def _learn(self, key: RuntimeKey, config: ContainerConfig) -> _KeyState:
        """The key's record, created with ``config`` on first sight."""
        state = self._keys.get(key)
        if state is None:
            state = self._keys[key] = _KeyState(config)
        return state

    def _claim(self, key: RuntimeKey, reuse: str) -> Optional[Container]:
        """Claim an idle container of ``key``, discarding dead entries.

        ``reuse`` is ``"hit"`` for the requester's own key, whose pool
        lookup counts a hit or a miss.  A donor stage passes its name
        (``"relaxed"``/``"repurpose"``): the requester's miss is already
        counted, so the donor key records neither, and the donor is
        leased at once — the re-spec sleep that follows is a window where
        a concurrent recovery sweep must see it as request-owned.

        Containers can be killed out from under the pool (host OOM,
        crash injection in tests); a dead entry must not be handed to a
        request.  The observatory records each claim as the pool
        answered it, so it keeps a dead entry's hit that the pool's
        stats un-count.
        """
        exact = reuse == "hit"
        obs = self.sim.obs
        while True:
            if exact:
                container = self.pool.acquire(key, now=self.sim.now)
            else:
                container = self.pool.acquire_donor(key, now=self.sim.now, reuse=reuse)
            if obs is not None:
                event = _CLAIM_EVENTS.get((reuse, container is not None))
                if event is not None:
                    kind, name, help = event
                    host = self.engine.name
                    obs.record(
                        kind, self.sim.now, name, help,
                        {"host": host, "key": str(key)}, host=host, key=str(key),
                    )
            if container is None:
                return None
            if container.is_reusable:
                if not exact:
                    container.leased = True
                return container
            # Not a real claim: un-count it so the retry is the only
            # lookup in the pool's stats and hit_ratio stays honest.
            self.cleanup.discard_dead(container, reuse=reuse)

    def _donors(self, key: RuntimeKey, config: ContainerConfig) -> Generator:
        """``(reuse, donor_key, cost, score)`` rows, stage by stage.

        A stage ranks its donors only once the previous one is
        exhausted: a failed re-spec yields sim time, and the pool may
        have changed meanwhile.
        """
        for stage in self._donor_stages:
            yield from stage(key, config)

    def _idle_donors(self, key: RuntimeKey) -> Generator:
        """``(donor_key, state)`` of every other pooled key with an idle
        container and a record."""
        for donor_key in self.pool.keys():
            if donor_key == key or self.pool.num_available(donor_key) == 0:
                continue
            state = self._keys.get(donor_key)
            if state is not None:
                yield donor_key, state

    def _relaxed_donors(self, key: RuntimeKey, config: ContainerConfig) -> list:
        """``_donors`` rows of the partial-key fallback.

        Every idle donor key whose config shares ``config``'s relaxed
        key, in key order.  The cost is ``None``: the config-delta time
        is drawn only once a donor is claimed.
        """
        policy = self.config.fallback_key_policy
        relaxed = runtime_key(config, policy)
        candidates = [
            ("relaxed", donor_key, None, None)
            for donor_key, state in self._idle_donors(key)
            if runtime_key(state.config, policy) == relaxed
        ]
        candidates.sort(key=lambda item: str(item[1]))
        return candidates

    def _repurpose_donors(self, key: RuntimeKey, config: ContainerConfig) -> list:
        """``_donors`` rows of inter-key repurposing.

        Idle donors of *other* keys ranked by deterministic re-spec cost
        (similarity-scored: shared base layers, network mode, memory
        delta).  A donor qualifies when its cost beats the predicted
        cold boot and the :class:`AdaptivePoolController` says it will
        not be missed — only keys holding more containers than the
        larger of their point-forecast and risk-aware targets donate.
        """
        model = self.similarity
        estimate = self._cold_boot_estimate(key, config)
        candidates = []
        for donor_key, donor in self._idle_donors(key):
            score = model.score(donor.config, config)
            if score < REPURPOSE_MIN_SCORE:
                continue
            cost = model.respec_cost_ms(score, estimate)
            if cost is None:
                continue
            headroom = self.controller.donation_headroom(
                donor_key, self.pool.num_total(donor_key)
            )
            if headroom < 1:
                continue
            candidates.append(("repurpose", donor_key, cost, score))
        candidates.sort(key=lambda item: (item[2], str(item[1])))
        return candidates

    def _acquire_donor(self, key: RuntimeKey, config: ContainerConfig) -> Generator:
        """Process: re-specialize the first donor that survives the re-spec.

        Each donor is claimed *before* the re-spec sleep so no other
        acquire (or cluster failover retry) can double-claim it; one
        that dies mid-re-spec (crash injection / host outage) is
        discarded — the failover drain may have already forgotten the
        entry, and discard_dead tolerates that — and the next is tried.
        """
        for reuse, donor_key, cost, score in self._donors(key, config):
            container = self._claim(donor_key, reuse)
            if container is None:
                continue
            if cost is None:
                # Apply the configuration delta; the runtime stays hot.
                cost = self.engine.latency.container_reconfigure()
            donor_image = container.config.image
            yield cost
            if not container.is_reusable:
                self.cleanup.discard_dead(container, reuse=reuse)
                continue
            if reuse == "repurpose":
                if donor_image != config.image and not self._same_language(
                    donor_image, config.image
                ):
                    # The runtime inside was booted for the donor's
                    # image; a different-language target must re-init
                    # honestly (same-language zygotes keep the warm
                    # interpreter — that is the Pagurus saving).
                    container.runtime_initialized = False
                injector = self.engine.fault_injector
                if injector is not None and injector.exec_poison():
                    # A re-spec can leave dirty state behind too — the
                    # STATE_POISON fault covers both exec and re-spec.
                    container.poisoned = True
                if self.container_health is not None:
                    # Post-repurpose hygiene: the new key starts a fresh
                    # health record, and a poisoned donor is scrubbed
                    # for ``SANITIZE_MS`` instead of carrying the
                    # contamination.
                    sanitize_ms = self.container_health.note_respec(
                        container, key, self.sim.now
                    )
                    if sanitize_ms > 0.0:
                        yield sanitize_ms
                        if not container.is_reusable:
                            self.cleanup.discard_dead(container, reuse=reuse)
                            continue
                        cost += sanitize_ms
            self._adopt_donor(container, key, config, reuse, cost)
            obs = self.sim.obs
            if reuse == "repurpose" and obs is not None:
                host = self.engine.name
                obs.record(
                    EventKind.REPURPOSE, self.sim.now, "pool_repurposes_total",
                    "Acquires served by re-specializing an idle donor",
                    {"host": host}, host=host, key=str(key),
                    donor=str(donor_key), container=container.container_id,
                    score=round(score, 4), cost_ms=round(cost, 3),
                )
            return container
        return None

    def _adopt_donor(
        self,
        container: Container,
        key: RuntimeKey,
        config: ContainerConfig,
        reuse: str,
        respec_ms: float,
    ) -> None:
        """Re-key a claimed donor under the requested configuration."""
        if self.pool.contains(container):
            self.pool.remove(container)
        container.config = config
        self.pool.register(container, key, now=self.sim.now, available=False)
        container.reuse = reuse
        container.respec_ms = respec_ms

    def _cold_boot_estimate(self, key: RuntimeKey, config: ContainerConfig) -> float:
        """Deterministic cold-boot prediction for the repurpose decision.

        Cached per key; grounded in the same calibration tables the
        engine's boot pipeline draws from (create + network + volume +
        start + language cold overhead), jitter-free so the decision
        never consumes RNG state.
        """
        state = self._keys.get(key)
        if state is not None and state.cold_estimate is not None:
            return state.cold_estimate
        try:
            language = self.engine.registry.resolve(config.image).language
        except Exception:
            language = None
        estimate = self.engine.latency.cold_boot_estimate_ms(
            config.network.mode,
            language=language,
            shared_namespace=config.network.mode == "container",
        )
        if state is not None:
            state.cold_estimate = estimate
        return estimate

    def _same_language(self, donor_image: str, target_image: str) -> bool:
        """Whether two image references bake in the same language runtime."""
        try:
            donor = self.engine.registry.resolve(donor_image)
            target = self.engine.registry.resolve(target_image)
        except Exception:
            return False
        return donor.language == target.language

    # -- failure-hardened boot path --------------------------------------------
    def _breaker_transition_hook(self, key: RuntimeKey):
        """Per-key callback recording breaker state changes."""

        def hook(old: str, new: str) -> None:
            obs = self.sim.obs
            if obs is not None:
                host = self.engine.name
                obs.record(
                    EventKind.BREAKER, self.sim.now, "breaker_transitions_total",
                    "Circuit-breaker state changes by target state",
                    {"host": host, "to": new}, host=host, key=str(key),
                    **{"from": old, "to": new},
                )

        return hook

    def _boot_failed(self, key: RuntimeKey, record: _KeyState) -> None:
        """Feed one retryable boot failure to the key's breaker, built
        here on the first one.

        A closed breaker that has seen no failure acts like none at all,
        so a key that never failed a boot holds no breaker, and with
        ``breaker_threshold <= 0`` (breakers off) no key does.
        """
        if self.config.breaker_threshold <= 0:
            return
        breaker = record.breaker
        if breaker is None:
            breaker = record.breaker = CircuitBreaker(
                threshold=self.config.breaker_threshold,
                cooldown_ms=BREAKER_COOLDOWN_MS,
            )
            breaker.on_transition = self._breaker_transition_hook(key)
        if breaker.record_failure(self.sim.now):
            self.engine.stats.breaker_opens += 1

    def _record_evict(self, obs, entry, reason: str) -> None:
        """Record one pool eviction into ``obs``."""
        host = self.engine.name
        obs.record(
            EventKind.POOL_EVICT, self.sim.now, "pool_evictions_total",
            "Idle containers evicted, by reason",
            {"host": host, "reason": reason}, host=host, key=str(entry.key),
            container=entry.container.container_id, reason=reason,
        )

    def _backoff_ms(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), with jitter."""
        delay = BOOT_BACKOFF_BASE_MS * BOOT_BACKOFF_FACTOR ** (attempt - 1)
        rng = self.engine.latency.rng
        if rng is not None:
            delay *= 1.0 + BOOT_BACKOFF_JITTER * (2.0 * float(rng.random()) - 1.0)
        return delay

    def _boot_with_retry(
        self, key: RuntimeKey, config: ContainerConfig, record: _KeyState
    ) -> Generator:
        """Process: boot with bounded retry + backoff under the breaker
        of ``record``.

        Retries only same-host-retryable failures; host outages
        propagate immediately so the cluster scheduler can fail over.
        """
        attempt = 0
        while True:
            try:
                container = yield from self._boot_once(key, config)
            except _RETRYABLE:
                self._boot_failed(key, record)
                attempt += 1
                breaker = record.breaker
                if attempt > BOOT_RETRIES or (
                    breaker is not None and not breaker.allow(self.sim.now)
                ):
                    raise
                self.engine.stats.boot_retries += 1
                yield self._backoff_ms(attempt)
            else:
                if record.breaker is not None:
                    record.breaker.record_success()
                return container

    def _boot_once(self, key: RuntimeKey, config: ContainerConfig) -> Generator:
        """Process: one capacity-guarded boot attempt.

        The boot counts against the cap while in flight so concurrent
        cold boots cannot collectively overshoot ``max_containers`` —
        and the pending count is released even when the boot raises.
        """
        self._note_pending(key, +1)
        try:
            yield from self._evict(self._over_capacity, "capacity")
            container = yield from self.engine.boot_container(config)
        finally:
            self._note_pending(key, -1)
        return container

    def release(self, container: Container) -> Generator:
        """Process: clean and recycle (runs off the critical path).

        Containers that died while busy, or that come back during a
        drain, are retired instead of recycled.
        """
        key = self.key_of(container.config)
        container.leased = False
        self._bump_busy(key, -1)
        if (
            not container.is_reusable
            or not self.pool.contains(container)
            or self._draining
        ):
            # Dead (killed out from under us), retired while busy, or
            # released mid-shutdown: it must not rejoin the pool.
            yield from self.cleanup.retire(container)
            return
        if self.container_health is not None:
            plane = self.container_health
            plane.observe_success(container, key, self.sim.now)
            reason = plane.recycle_reason(container, self.sim.now)
            if reason is not None:
                # Demote-drain-replace: out of every index now, destroyed
                # under the token bucket, replaced by a paired prewarm.
                self._quarantine_for_recycle(container, key, reason)
                yield from self._drain_recycles()
                return
        yield from self.cleanup.clean_and_recycle(container)
        # Post-release pressure check: the paper terminates the oldest
        # live container when memory crosses the threshold.  (Guarded
        # here so the no-pressure common case costs no generator.)
        if self._under_pressure():
            yield from self._evict(self._under_pressure, "pressure")

    def discard(self, container: Container) -> None:
        """Drop a busy container that died mid-request (crash/outage).

        Rolls back the demand bump and forgets the pool entry; a
        container somehow still live is retired asynchronously.
        """
        key = self.key_of(container.config)
        container.leased = False
        self._bump_busy(key, -1)
        if self.container_health is not None:
            # An exec failure is hard contamination evidence: it
            # condemns the container (the watchdog discards after one
            # failure, so a second chance would serve a request on
            # known-bad state).
            self.container_health.observe_failure(container, key, self.sim.now)
            if self.pool.contains(container) and container.is_live:
                self._quarantine_for_recycle(container, key, "breaker")
                self.sim.process(self._drain_recycles(), name="hotc-recycle")
                return
        self.cleanup.forget(container)
        if container.is_live:
            self.sim.process(
                self.cleanup.retire(container),
                name=f"discard:{container.container_id}",
            )

    # -- container health: quarantine + token-bucket recycling -----------------
    def _quarantine_for_recycle(
        self, container: Container, key: RuntimeKey, reason: str
    ) -> None:
        """Pull a contaminated/aged container out of service (synchronous).

        The entry leaves every availability index immediately — no
        acquire, donor claim or half-open probe can see it once this
        returns — and joins the plane's recycle queue; the destroy
        itself waits for a token so a wave of simultaneous verdicts
        cannot become a cold-start storm.
        """
        self.container_health.queue_recycle(container, key, reason, self.sim.now)
        self.pool.quarantine(container)

    def _drain_recycles(self, paced: bool = True) -> Generator:
        """Process: recycle what the plane hands out (see its ``drain``).

        Runs from release(), discard() and the control tick, paced by
        the plane's token bucket; shutdown drains unpaced.
        """
        for container, key, reason in self.container_health.drain(paced):
            yield from self._recycle_one(container, key, reason)

    def _recycle_one(
        self, container: Container, key: RuntimeKey, reason: str
    ) -> Generator:
        """Process: destroy one quarantined container, prewarm its key.

        The replacement prewarm is requested *before* the destroy so the
        key's warm-capacity dip is already being covered while the old
        container stops.  The prewarm self-guards on drain/brownout/
        breaker — that is the brownout coordination: recycling proceeds
        under pressure (it frees memory) while the replacement pauses.
        """
        self.container_health.note_recycling(container, self.sim.now, reason)
        if key in self._keys:
            self._spawn_prewarm(key)
        yield from self.cleanup.retire(container)
        if self.pool.is_quarantined(container):
            # A control-plane crash mid-retire wipes the quarantine set;
            # guard so the close-out never double-counts.
            self.pool.mark_recycled(container)

    def _health_sweep(self) -> None:
        """Control-tick sweep: recycle verdicts for *idle* containers.

        Release-time checks cover containers that serve requests; an
        idle container can still age past ``MAX_AGE_MS`` without ever
        being released again, so the control loop sweeps the
        availability lists too.
        """
        plane = self.container_health
        now = self.sim.now
        for key in tuple(self.pool.keys()):
            for entry in self.pool.available_entries(key):
                reason = plane.recycle_reason(entry.container, now)
                if reason is not None:
                    self._quarantine_for_recycle(entry.container, key, reason)

    # -- checkpoint / crash / recover -----------------------------------------
    def snapshot_state(self) -> tuple:
        """Provider hook: this host's recoverable control-plane state, as
        a one-element tuple of pure-data host checkpoints."""
        entries = sorted(
            self.pool.entries(), key=lambda entry: entry.container.container_id
        )
        checkpoint = HostCheckpoint(
            host=self.engine.name,
            entries=tuple(
                PoolEntrySnapshot(e.container.container_id, e.key, e.available)
                for e in entries
            ),
            configs={key: state.config for key, state in self._keys.items()},
            controller=copy.deepcopy(self.controller),
            breakers={
                key: copy.deepcopy(state.breaker)
                for key, state in self._keys.items()
                if state.breaker is not None
            },
        )
        return (checkpoint,)

    def crash_control_plane(self) -> int:
        """Lose every indexed control-plane structure; data plane lives.

        Containers keep running (leases and recycle flags travel with
        them — they are the ground truth recovery rebuilds from), and
        in-flight boot processes keep their own pending accounting, so
        ``_pending_boots`` survives.  Returns the pool entries lost.
        """
        self._crashed = True
        lost = self.pool.reset()
        self._keys.clear()
        self.controller = self.config.make_controller()
        # Health records and the recycle queue are in-memory control
        # state too; the ``condemned`` flag stays on the containers, so
        # the recovery sweep retires them instead of re-adopting.
        if self.container_health is not None:
            self.container_health.reset()
        return lost

    def recover_from(self, checkpoint=None) -> List[RepairEvent]:
        """Provider hook, anti-entropy: rebuild the pool from engine
        ground truth.

        This host's entry in ``checkpoint`` (if any) restores state with
        no ground truth (predictor, breakers, configs) and classifies
        divergences; the pool itself is rebuilt from
        ``engine.live_containers()``: leased containers
        are re-adopted busy, containers mid-recycle re-registered
        unavailable (their in-flight cleanup will release them), idle
        reusable ones rejoin as available while capacity lasts, and
        checkpoint entries with no live container are purged.
        """
        repairs: List[RepairEvent] = []
        now = self.sim.now
        host = self.engine.name
        hosts = checkpoint.hosts if checkpoint is not None else ()
        saved = next((hc for hc in hosts if hc.host == host), None)
        snapshots = {}
        if saved is not None:
            snapshots = {s.container_id: s for s in saved.entries}
            for key, config in saved.configs.items():
                self._learn(key, config)
            self.controller = copy.deepcopy(saved.controller)
            for key, breaker in saved.breakers.items():
                self._keys[key].breaker = copy.deepcopy(breaker)
        seen = set()
        for container in self.engine.live_containers():
            cid = container.container_id
            seen.add(cid)
            if self.pool.contains(container):
                # Registered between crash and recover by an in-flight
                # acquire/boot landing — that process owns its
                # accounting; re-adopting would double-register.
                continue
            key = self.key_of(container.config)
            self._learn(key, container.config)
            detail = "checkpointed" if cid in snapshots else "post-checkpoint"
            retire = None
            if container.condemned and not container.leased:
                # The health plane's verdict travels on the container,
                # so even a rebuilt-from-scratch control plane honors
                # it: condemned containers retire, never re-adopt.
                kind, retire = RepairKind.RETIRED_ORPHAN, "retire-condemned"
                detail = "condemned by the container health plane"
            elif container.leased:
                self.pool.register(container, key, now=now, available=False)
                self._bump_busy(key, +1)
                kind = RepairKind.ADOPTED_BUSY
            elif container.recycling:
                # Mid-cleanup: its clean_and_recycle process will mark
                # it available once the scrub finishes.
                self.pool.register(container, key, now=now, available=False)
                kind = RepairKind.ADOPTED_RECYCLING
            elif not container.is_reusable:
                kind = RepairKind.ANOMALY
                detail = f"live {container.state.value} container is unleased"
            elif (
                self.pool.total_live + self._pending_total()
                < self.config.limits.max_containers
            ):
                self.pool.register(container, key, now=now, available=True)
                kind = RepairKind.ADOPTED_IDLE
            else:
                kind, retire = RepairKind.RETIRED_ORPHAN, "retire-orphan"
                detail = "over capacity after recovery"
            if retire is not None:
                self.sim.process(
                    self.cleanup.retire(container), name=f"{retire}:{cid}"
                )
            repairs.append(RepairEvent(kind, host, cid, str(key), detail))
        for cid in sorted(snapshots):
            if cid not in seen:
                repairs.append(
                    RepairEvent(
                        RepairKind.PURGED_PHANTOM,
                        host,
                        cid,
                        str(snapshots[cid].key),
                        "checkpoint entry has no live container",
                    )
                )
        self._crashed = False
        return repairs

    def check_consistency(self) -> None:
        """Invariant audit across the engine, the pool and the demand accounting."""
        self.engine.check_consistency()
        self.pool.check_consistency()
        for key, state in self._keys.items():
            assert state.busy >= 0, f"negative busy count for {key}: {state.busy}"
        for key, pending in self._pending_boots.items():
            assert pending > 0, f"stale pending-boot entry for {key}"
        for key, prewarms in self._pending_prewarms.items():
            assert (
                0 < prewarms <= self._pending_boots.get(key, 0)
            ), f"prewarm count for {key} exceeds its pending boots"
        if self.container_health is not None:
            for container, _, _ in self.container_health.queue:
                assert self.pool.is_quarantined(container), (
                    f"queued-for-recycle container {container.container_id} "
                    "is not quarantined"
                )

    def scan_divergences(self) -> List[str]:
        """Report-only sweep comparing the pool against ground truth.

        Dead containers still pooled are *not* flagged — the pool
        discards those lazily by design.  What must never happen is a
        live, request-owned container the control plane forgot.
        """
        problems: List[str] = []
        for container in self.engine.live_containers():
            if container.leased and not self.pool.contains(container):
                problems.append(
                    f"{self.engine.name}: leased container "
                    f"{container.container_id} is untracked"
                )
        return problems

    def shutdown(self) -> Generator:
        """Process: stop control, drain the pool, absorb in-flight boots.

        Safe mid-burst: the control loop's pending tick exits without
        running, prewarm boots still in flight are retired on landing
        instead of joining the pool, busy containers are retired when
        their requests release them, and — with admission control
        attached — new requests are shed (reason ``shutdown``) and
        queued waiters are drained deterministically instead of being
        left parked on the gateway.
        """
        admission = self.sim.admission
        if admission is not None:
            admission.begin_shutdown()
        self._draining = True
        self.stop_control_loop()
        for key in tuple(self.pool.keys()):
            for entry in self.pool.available_entries(key):
                yield from self.cleanup.retire(entry.container)
        if self.container_health is not None:
            # Flush the recycle queue ignoring the token bucket: rate
            # limiting protects a serving host from destroy storms, but
            # a draining host must leave nothing behind.
            yield from self._drain_recycles(paced=False)

    # -- demand accounting ------------------------------------------------------
    def _bump_busy(self, key: RuntimeKey, delta: int) -> None:
        # Looked up by key, not held: a crash in between replaces the
        # record, and a key with no record has nothing to count.
        state = self._keys.get(key)
        if state is None:
            return
        busy = state.busy + delta
        state.busy = max(0, busy)
        if busy > state.peak:
            state.peak = busy

    # -- capacity guards ---------------------------------------------------------
    @staticmethod
    def _count(counts: Dict[RuntimeKey, int], key: RuntimeKey, delta: int) -> None:
        """Add ``delta`` to ``counts[key]``, dropping the key at zero."""
        count = counts.get(key, 0) + delta
        if count > 0:
            counts[key] = count
        else:
            counts.pop(key, None)

    def _note_pending(
        self, key: RuntimeKey, delta: int, prewarm: bool = False
    ) -> None:
        """Track an in-flight boot for ``key``; a ``prewarm`` one also
        counts in the prewarm subset."""
        self._count(self._pending_boots, key, delta)
        if prewarm:
            self._count(self._pending_prewarms, key, delta)

    def _pending_total(self) -> int:
        """In-flight boots across all keys (count against the cap)."""
        return sum(self._pending_boots.values())

    def drain_lost(self) -> None:
        """This host was declared lost (outage failover or a detector
        drain).

        Its dead pool entries are purged so they stop attracting reuse
        routing, and the cap reservations of its in-flight prewarm boots
        are released: those boots will never land usefully, yet their
        ``_pending_boots`` entries would keep counting against
        ``max_containers`` — after enough outages a host could refuse
        boots forever.  The boot processes themselves are not
        interrupted; bumping the epoch makes each landing detect that
        its reservation is gone and retire any container it produced.
        """
        for entry in self.pool.entries():
            if not entry.container.is_live:
                self.cleanup.forget(entry.container)
        for key, count in self._pending_prewarms.items():
            self._note_pending(key, -count)
        self._pending_prewarms.clear()
        self._prewarm_epoch += 1

    def _under_pressure(self) -> bool:
        """The paper's memory-pressure heuristic on this host."""
        return self.engine.resources.memory_pressure(
            self.config.limits.memory_threshold
        )

    def _over_capacity(self) -> bool:
        """Whether a boot must first make room.

        The caller must already have counted its own boot in
        ``_pending_boots``; live plus pending must fit the cap, so
        concurrent cold boots and prewarm boots cannot overshoot it.
        """
        return (
            self.pool.total_live + self._pending_total()
            > self.config.limits.max_containers
            or self._under_pressure()
        )

    def _evict(self, pressed: Callable[[], bool], reason: str) -> Generator:
        """Process: retire the eviction candidate while ``pressed()``.

        ``reason`` is ``"capacity"`` (before a boot) or ``"pressure"``
        (after a release); the loop stops early once nothing is idle.
        """
        stats = self.pool.stats
        while pressed():
            victim = self.pool.eviction_candidate()
            if victim is None:
                break
            if reason == "capacity":
                stats.evictions_capacity += 1
            else:
                stats.evictions_pressure += 1
            obs = self.sim.obs
            if obs is not None:
                self._record_evict(obs, victim, reason)
            yield from self.cleanup.retire(victim.container)

    # -- adaptive control loop ------------------------------------------------
    def start_control_loop(self) -> None:
        """Begin the periodic predict-and-resize loop; idempotent."""
        if self._control is not None or self.config.control_interval_ms <= 0:
            return
        # ``control_tick`` is looked up at each tick, so a wrapper set on
        # the instance later (a layer tracer) still sees every tick.
        self._control = self.sim.every(
            self.config.control_interval_ms,
            lambda: self.control_tick(),
            "hotc-control",
        )

    def stop_control_loop(self) -> None:
        """Stop; the pending tick exits without running."""
        if self._control is not None:
            self._control.stop()
            self._control = None

    def control_tick(self) -> None:
        """One prediction + resize step (public for tests/experiments)."""
        if self._crashed:
            # Control-plane crash window: no prediction, no resize.
            return
        obs = self.sim.obs
        admission = self.sim.admission
        browned_out = admission is not None and self._update_brownout(admission)
        controller = self.controller
        keys = tuple(self._keys)
        states = tuple(self._keys.values())
        demands = [state.peak for state in states]
        for state in states:
            state.peak = state.busy
        if obs is not None:
            # The forecast made on the previous tick predicted *this*
            # interval's demand: the pair is the realized accuracy.
            previous = [controller.forecast(key) for key in keys]
        # One batched predictor step for every key of this host.
        forecasts = controller.observe(keys, demands)
        for index, key in enumerate(keys):
            target = None
            if PREWARM:
                target = max(controller.target_upper(key), controller.target(key))
                if browned_out:
                    # Degraded mode: provision for a fraction of the
                    # forecast so the pool sheds weight before the
                    # pressure path has to evict warm containers.
                    target = int(target * BROWNOUT_TARGET_FACTOR)
                self._resize_key(key, target)
            if obs is not None:
                host = self.engine.name
                forecast = forecasts[index]
                data = {"demand": demands[index], "forecast": forecast}
                prev_forecast = previous[index]
                if prev_forecast is not None:
                    data["prev_forecast"] = prev_forecast
                if target is not None:
                    data["target"] = target
                obs.emit(
                    EventKind.CONTROL_TICK,
                    t=self.sim.now,
                    host=host,
                    key=str(key),
                    **data,
                )
                for name, help, value in (
                    ("pool_available", "Idle pooled containers",
                     self.pool.num_available(key)),
                    ("pool_total", "Pooled containers, busy and idle",
                     self.pool.num_total(key)),
                    ("demand_forecast",
                     "Latest combined ES+Markov demand forecast", forecast),
                ):
                    obs.gauge(name, help=help, host=host, key=str(key)).set(value)
        if admission is not None:
            # Drive the AIMD interval from the same control clock; the
            # controller collapses co-scheduled multi-host ticks.
            admission.tick(self.sim.now)
        recovery = self.sim.recovery
        if recovery is not None:
            # Background auditor + checkpoint cadence; the manager
            # collapses co-scheduled multi-host ticks.
            recovery.on_control_tick(self.sim.now)
        if self.container_health is not None:
            self._health_sweep()
            if self.container_health.queue:
                self.sim.process(self._drain_recycles(), name="hotc-recycle")

    def _update_brownout(self, admission) -> bool:
        """Report this tick's pressure to admission; True while degraded.

        Admission owns the host's brownout state machine.  While it is
        active the host pauses prewarm, shrinks pool targets and the
        gateway sheds standard-QoS traffic, all *before* warm containers
        get evicted.
        """
        resources = self.engine.resources
        cap_tripped = (
            self.pool.total_live + self._pending_total()
            >= self.config.limits.max_containers
            or resources.used_swap_mb > 0.0
        )
        return admission.observe_pressure(
            self.engine.name, self.config.limits.memory_threshold,
            resources.mem_fraction, cap_tripped,
        )

    def _resize_key(self, key: RuntimeKey, target: int) -> None:
        """Move the pool toward ``target`` containers of type ``key``."""
        total = (
            self.pool.num_total(key) + self._pending_boots.get(key, 0)
        )
        if total < target:
            for _ in range(target - total):
                self._spawn_prewarm(key)
        elif total > target:
            # Scale down gradually (at most half the pool per tick): a
            # single post-burst forecast dip must not destroy capacity
            # that the next tick would rebuild.
            surplus = min(total - target, max(1, total // 2))
            obs = self.sim.obs
            for entry in self.pool.available_entries(key)[:surplus]:
                if obs is not None:
                    self._record_evict(obs, entry, "scale_down")
                # Claim the victim synchronously: once the retire process
                # is merely *scheduled*, an acquire landing before it
                # runs must not be handed a container about to be
                # stopped, and the next tick must not pick it again.
                self.pool.remove(entry.container)
                self.sim.process(
                    self.cleanup.retire(entry.container),
                    name=f"retire:{entry.container.container_id}",
                )

    def _spawn_prewarm(self, key: RuntimeKey) -> None:
        if self._draining:
            return
        admission = self.sim.admission
        if admission is not None and admission.browned_out(self.engine.name):
            # Degraded mode: a host already under memory pressure must
            # not spend capacity growing the pool it is trying to shrink.
            return
        record = self._keys[key]
        if record.breaker is not None and record.breaker.is_open(self.sim.now):
            # Boots of this type keep failing: prewarming would only
            # burn capacity on doomed boots.
            return
        config = record.config
        self._note_pending(key, +1, prewarm=True)
        epoch = self._prewarm_epoch
        obs = self.sim.obs
        if obs is not None:
            host = self.engine.name
            obs.record(
                EventKind.PREWARM, self.sim.now, "prewarms_total",
                "Predictive pre-boots requested by the control loop",
                {"host": host}, host=host, key=str(key),
            )

        def _boot() -> Generator:
            try:
                try:
                    yield from self._evict(self._over_capacity, "capacity")
                    # Prewarm boots also warm the language runtime: the
                    # pool holds *hot* runtimes, not created containers.
                    container = yield from self.engine.boot_container(
                        config, warm_runtime=True
                    )
                except _RETRYABLE:
                    # Prewarm failures feed the breaker but are not
                    # retried — the next control tick decides again.
                    self._boot_failed(key, record)
                    return
                except Exception:
                    return  # host down mid-prewarm: nothing to pool
            finally:
                if epoch == self._prewarm_epoch:
                    self._note_pending(key, -1, prewarm=True)
            if epoch != self._prewarm_epoch:
                # Absorbed mid-flight (the host was declared lost): the
                # reservation is already released, so a container that
                # landed anyway must not [re]join the pool.
                if container.is_reusable and not self.pool.contains(container):
                    yield from self.cleanup.retire(container)
                return
            if self._draining or not container.is_reusable:
                yield from self.cleanup.retire(container)
                return
            if record.breaker is not None:
                record.breaker.record_success()
            if self.pool.contains(container):
                # A recovery sweep adopted this landing boot already.
                return
            self.pool.register(container, key, now=self.sim.now, available=True)

        self.sim.process(_boot(), name=f"prewarm:{key}")
