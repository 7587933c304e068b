"""Multi-host HotC: reuse-aware scheduling across backends.

Implements the paper's first future-work direction (Section VII): "in a
distributed system, a few containers are extremely popular ... Some
host machines might become overloaded and we need to consider load
balancing when reusing the hot runtime."

:class:`ClusterHotC` fronts one :class:`~repro.core.hotc.HotC` instance
per host and routes each request with a two-level policy:

1. **Reuse first** — prefer hosts holding an *available* container of
   the request's runtime key (warm hit beats any cold boot);
   among them pick the least loaded.
2. **Balance the cold boots** — otherwise pick the least-loaded host
   overall (by in-flight requests, with committed memory as the
   tie-breaker) and cold-boot there.

The scheduler also exposes per-host statistics so the load-balancing
ablation can quantify skew.

The scheduler keeps no copy of facts that live elsewhere: a container's
host is the ``host-N`` prefix of its id, and host health is the
simulator's ``health`` slot (:meth:`repro.health.HealthMonitor.attach`).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.containers.container import Container, ContainerConfig, ContainerError
from repro.containers.engine import ContainerEngine
from repro.core.hotc import HotC, HotCConfig
from repro.faas.platform import RuntimeProvider
from repro.faults.errors import HostDownError, RuntimeUnavailableError
from repro.obs.events import EventKind

__all__ = [
    "ClusterHotC",
    "ClusterStats",
    "make_cluster_engines",
    "make_cluster_platform",
]


@dataclass
class ClusterStats:
    """Routing counters for one cluster, plus its hosts' donor reuse."""

    #: The cluster's hosts, read by the donor-reuse sums (not a field,
    #: so ``asdict`` stays the routing counters).
    hosts: InitVar[Sequence[HotC]] = ()
    reuse_routed: int = 0
    cold_routed: int = 0
    #: Requests re-routed to another host after an acquire failure.
    failovers: int = 0
    #: Host outages detected (a host recovering and dying again counts twice).
    hosts_lost: int = 0

    def __post_init__(self, hosts: Sequence[HotC]) -> None:
        self._hosts = hosts

    @property
    def total_routed(self) -> int:
        """All routing decisions taken."""
        return self.reuse_routed + self.cold_routed

    @property
    def relaxed_hits(self) -> int:
        """Acquires a host served by reconfiguring a relaxed-key match."""
        return sum(host.pool.stats.relaxed_hits for host in self._hosts)

    @property
    def repurposes(self) -> int:
        """Acquires a host served by repurposing an idle donor container."""
        return sum(host.pool.stats.repurposed for host in self._hosts)


class ClusterHotC(RuntimeProvider):
    """A HotC instance per host plus a reuse-aware scheduler.

    Parameters
    ----------
    engines:
        One container engine per backend host, each with its own name
        (container ids carry it, and the cluster routes by it).
    config:
        Shared HotC configuration (per-host pools use the same limits).
    placement:
        ``"reuse-aware"`` (the future-work design) or ``"round-robin"``
        (the strawman used as the ablation baseline).
    """

    def __init__(
        self,
        engines: Sequence[ContainerEngine],
        config: Optional[HotCConfig] = None,
        placement: str = "reuse-aware",
    ) -> None:
        if not engines:
            raise ValueError("cluster needs at least one engine")
        if placement not in ("reuse-aware", "round-robin"):
            raise ValueError(f"unknown placement policy {placement!r}")
        #: Host index by engine name: the prefix of its container ids.
        self._host_index: Dict[str, int] = {
            engine.name: index for index, engine in enumerate(engines)
        }
        if len(self._host_index) != len(engines):
            raise ValueError("cluster engines need distinct names")
        self.placement = placement
        self.hosts: List[HotC] = [HotC(engine, config) for engine in engines]
        self.sim = self.hosts[0].sim
        self.stats = ClusterStats(self.hosts)
        self._inflight: Dict[int, int] = {index: 0 for index in range(len(engines))}
        self._rr_next = 0
        #: Host indexes currently believed down (outage in progress).
        self._down: set = set()
        #: True between crash_control_plane() and recover_from().
        self._crashed = False

    # -- introspection ----------------------------------------------------
    @property
    def n_hosts(self) -> int:
        """Number of backend hosts."""
        return len(self.hosts)

    def _index_of(self, container: Container) -> int:
        """Index of the host named by the container id's prefix."""
        name, slash, _ = container.container_id.partition("/")
        index = self._host_index.get(name) if slash else None
        if index is None:
            raise KeyError(
                f"container {container.container_id} names no host of this cluster"
            )
        return index

    def host_of(self, container: Container) -> HotC:
        """The per-host HotC that runs ``container``."""
        return self.hosts[self._index_of(container)]

    def engine_for(self, container: Container) -> ContainerEngine:
        """The engine a container runs on (used by the watchdog)."""
        return self.hosts[self._index_of(container)].engine

    def inflight(self, host_index: int) -> int:
        """Requests currently assigned to a host."""
        return self._inflight[host_index]

    def pool_sizes(self) -> Tuple[int, ...]:
        """Live pooled containers per host."""
        return tuple(host.pool.total_live for host in self.hosts)

    def down_hosts(self) -> Tuple[int, ...]:
        """Indexes of hosts currently believed down."""
        return tuple(sorted(self._down))

    # -- host health ---------------------------------------------------------
    def _refresh_health(self) -> None:
        """Reconcile the down-set with engine reality (lazy health check).

        A recovered host simply rejoins the candidate set; its pool
        starts empty (the outage drained it) and refills via prewarm.
        """
        for index in tuple(self._down):
            engine = self.hosts[index].engine
            if not engine.is_unreachable:
                self._down.discard(index)
                obs = self.sim.obs
                if obs is not None:
                    obs.record(
                        EventKind.HOST_RECOVERED, self.sim.now,
                        "hosts_recovered_total",
                        "Hosts rejoining the candidate set after an outage",
                        {"host": engine.name}, host=engine.name,
                        state="rejoined",
                    )

    def _note_host_down(self, index: int) -> None:
        """Record an outage and drain the dead host's pool metadata.

        Without the drain, the scheduler would keep routing "warm"
        requests at containers that no longer exist; without absorbing
        the host's in-flight prewarm boots, their doomed reservations
        would keep counting against ``max_containers``.
        """
        if index in self._down:
            return
        self._down.add(index)
        self.stats.hosts_lost += 1
        host = self.hosts[index]
        host.drain_lost()
        health = self.sim.health
        if health is not None:
            # Confirmed unreachability beats any phi estimate.
            health.on_host_down(host.engine.name)

    # -- placement ----------------------------------------------------------
    def _routable(self, index: int) -> bool:
        health = self.sim.health
        return health is None or health.routable(self.hosts[index].engine.name)

    def _load_key(self, index: int) -> Tuple[float, float, int]:
        host = self.hosts[index]
        load = float(self._inflight[index])
        health = self.sim.health
        if health is not None:
            weight = health.routing_weight(host.engine.name)
            if weight < 1.0:
                # Probation ramp: a low weight inflates apparent load so
                # the host wins ties progressively more often as its
                # on-time heartbeat streak grows.
                load = (load + 1.0) / max(weight, 1e-9)
        return (
            load,
            host.engine.resources.mem_fraction,
            index,
        )

    def _pick_host(
        self, config: ContainerConfig, excluded: frozenset = frozenset()
    ) -> Tuple[int, bool]:
        """Returns ``(host index, found_warm)`` among routable hosts.

        Hosts in ``excluded`` (already failed for this request) or in
        the down-set are skipped; with every host ruled out the request
        cannot be served and :class:`RuntimeUnavailableError` is raised.
        """
        if not excluded and not self._down and self.sim.health is None:
            # Healthy-cluster fast path: every host is a candidate, and
            # rebuilding that list per request is measurable at trace
            # scale.
            candidates = range(len(self.hosts))
        else:
            candidates = [
                index
                for index in range(len(self.hosts))
                if index not in excluded
                and index not in self._down
                and self._routable(index)
            ]
        if not candidates:
            raise RuntimeUnavailableError(
                f"no routable host left ({len(self.hosts)} total, "
                f"{len(self._down)} down, {len(excluded)} failed)"
            )
        # The hosts share one HotCConfig, hence one key policy.
        key = self.hosts[0].key_of(config)
        if self.placement == "round-robin":
            # Advance past unroutable hosts; with all hosts healthy this
            # is the plain one-step advance.
            while True:
                index = self._rr_next % len(self.hosts)
                self._rr_next += 1
                if index in candidates:
                    break
            return index, self.hosts[index].pool.num_available(key) > 0

        warm_hosts = [
            index
            for index in candidates
            if self.hosts[index].pool.num_available(key) > 0
        ]
        if warm_hosts:
            return min(warm_hosts, key=self._load_key), True
        return min(candidates, key=self._load_key), False

    # -- provider protocol --------------------------------------------------
    def acquire(self, config: ContainerConfig) -> Generator:
        """Process: route to the best host, failing over on host errors.

        A :class:`HostDownError` marks the host down (and drains its
        pool metadata); any other acquire failure merely excludes the
        host for this request.  Either way the request is re-routed to
        the next-best host until one serves it or none is left.
        """
        if self._crashed:
            # Control-plane crash window: fail fast, data plane lives.
            raise RuntimeUnavailableError("cluster control plane is down")
        self._refresh_health()
        excluded: set = set()
        while True:
            index, warm = self._pick_host(config, frozenset(excluded))
            if warm:
                self.stats.reuse_routed += 1
            else:
                self.stats.cold_routed += 1
            self._inflight[index] += 1
            try:
                container, cold = yield from self.hosts[index].acquire(config)
            except HostDownError:
                self._dec_inflight(index)
                self._note_host_down(index)
                excluded.add(index)
                reason = "host_down"
            except ContainerError as error:
                self._dec_inflight(index)
                excluded.add(index)
                if len(excluded) + len(self._down - excluded) >= len(self.hosts):
                    raise  # nothing left to fail over to
                reason = type(error).__name__
            else:
                return container, cold
            self.stats.failovers += 1
            obs = self.sim.obs
            if obs is not None:
                host = self.hosts[index].engine.name
                obs.record(
                    EventKind.FAILOVER, self.sim.now, "failovers_total",
                    "Requests re-routed off a failed host", {"host": host},
                    host=host, reason=reason,
                )

    def _dec_inflight(self, index: int) -> None:
        count = self._inflight[index] - 1
        if count < 0 and self.sim.recovery is not None:
            # The routing increment predates a control-plane crash that
            # zeroed the counters; floor instead of going negative.
            count = 0
        self._inflight[index] = count

    def release(self, container: Container) -> Generator:
        index = self._index_of(container)
        self._dec_inflight(index)
        yield from self.hosts[index].release(container)

    def discard(self, container: Container) -> None:
        """Drop a mid-request casualty: bookkeeping only, no cleanup I/O."""
        try:
            index = self._index_of(container)
        except KeyError:
            return
        self._dec_inflight(index)
        self.hosts[index].discard(container)

    # -- checkpoint / crash / recover ---------------------------------------
    def snapshot_state(self):
        """Provider hook: one host checkpoint per backend."""
        return tuple(
            checkpoint for host in self.hosts for checkpoint in host.snapshot_state()
        )

    def crash_control_plane(self) -> int:
        """Lose the scheduler's and every host's indexed state."""
        self._crashed = True
        lost = 0
        for host in self.hosts:
            lost += host.crash_control_plane()
        for index in self._inflight:
            self._inflight[index] = 0
        self._down.clear()
        return lost

    def recover_from(self, checkpoint=None):
        """Rebuild every host, then re-derive the routing counts.

        Host-level recovery re-adopts containers from engine ground
        truth; the cluster then rebuilds ``_inflight`` from the leased
        (request-owned) pool entries and re-derives the down-set from
        engine reachability.
        """
        repairs = []
        for index, host in enumerate(self.hosts):
            repairs.extend(host.recover_from(checkpoint))
            self._inflight[index] = _leased_count(host)
        self._down.clear()
        for index, host in enumerate(self.hosts):
            if host.engine.is_unreachable:
                self._down.add(index)
        self._crashed = False
        return repairs

    def check_consistency(self) -> None:
        """Cross-layer invariant audit (pools + in-flight counts)."""
        for index, host in enumerate(self.hosts):
            host.check_consistency()
            assert self._inflight[index] >= 0, (
                f"negative in-flight count on host {index}"
            )
            if self.sim.recovery is None:
                # Post-crash floors can transiently break this bound,
                # so it only holds in the never-crashed regime.
                leased = _leased_count(host)
                assert self._inflight[index] >= leased, (
                    f"host {index} leases more containers ({leased}) "
                    f"than it has in-flight requests ({self._inflight[index]})"
                )
        for index in self._down:
            assert 0 <= index < len(self.hosts), (
                f"down-set contains invalid host index {index}"
            )

    def scan_divergences(self):
        """Report-only ground-truth sweep across hosts and routing."""
        problems = []
        for host in self.hosts:
            problems.extend(host.scan_divergences())
        return problems

    def start_control_loops(self) -> None:
        """Start every per-host adaptive control loop."""
        for host in self.hosts:
            host.start_control_loop()

    def stop_control_loops(self) -> None:
        """Stop every per-host adaptive control loop."""
        for host in self.hosts:
            host.stop_control_loop()

    def shutdown(self) -> Generator:
        for host in self.hosts:
            yield from host.shutdown()


def _leased_count(host: HotC) -> int:
    """Pool entries of ``host`` that a request holds."""
    return sum(
        1 for entry in host.pool.entries()
        if not entry.available and entry.container.leased
    )


def _make_hosts(
    sim, registry, seed: int, indices, profile, jitter_sigma: float
) -> List[ContainerEngine]:
    """Engines ``host-{i}`` for each ``i`` in ``indices``.

    Each draws jitter from its own ``engine-jitter-{i}`` stream of the
    seed's ``cluster-hosts`` fork, so adding hosts never perturbs
    existing ones.
    """
    from repro.sim.rng import RngRegistry

    rngs = RngRegistry(seed).fork("cluster-hosts")
    return [
        ContainerEngine(
            sim,
            registry,
            profile=profile,
            rng=rngs.stream(f"engine-jitter-{index}"),
            jitter_sigma=jitter_sigma,
            name=f"host-{index}",
        )
        for index in indices
    ]


def make_cluster_engines(
    sim,
    registry,
    n_hosts: int = 3,
    seed: int = 0,
    profile=None,
    jitter_sigma: float = 0.06,
) -> List[ContainerEngine]:
    """Build ``n_hosts`` engines on one simulator, jitter streams forked.

    This is the engine-construction half of
    :func:`make_cluster_platform`, for callers that drive a
    :class:`ClusterHotC` directly without the FaaS gateway stack (the
    scenario runner's trace mode).  Hosts are named ``host-0`` …
    ``host-{n-1}``.
    """
    from repro.hardware.profiles import T430_SERVER

    if n_hosts < 1:
        raise ValueError("n_hosts must be >= 1")
    return _make_hosts(
        sim, registry, seed, range(n_hosts), profile or T430_SERVER, jitter_sigma
    )


def make_cluster_platform(
    registry,
    n_hosts: int = 3,
    seed: int = 0,
    profile=None,
    hotc_config: Optional[HotCConfig] = None,
    placement: str = "reuse-aware",
    jitter_sigma: float = 0.06,
    gateway_concurrency: int = 1024,
):
    """Build a :class:`~repro.faas.FaasPlatform` backed by ``n_hosts``.

    The first host is the platform's default engine (gateway-side
    latencies come from it); hosts 1..n-1 are created on the same
    simulator as in :func:`make_cluster_engines`.  Returns the platform;
    its ``provider`` is the :class:`ClusterHotC`.
    """
    from repro.faas.platform import FaasPlatform
    from repro.hardware.profiles import T430_SERVER

    if n_hosts < 1:
        raise ValueError("n_hosts must be >= 1")
    profile = profile or T430_SERVER

    def factory(first_engine: ContainerEngine) -> ClusterHotC:
        engines = [first_engine] + _make_hosts(
            first_engine.sim, registry, seed, range(1, n_hosts), profile,
            jitter_sigma,
        )
        return ClusterHotC(engines, config=hotc_config, placement=placement)

    return FaasPlatform(
        registry,
        seed=seed,
        profile=profile,
        provider_factory=factory,
        jitter_sigma=jitter_sigma,
        gateway_concurrency=gateway_concurrency,
    )
