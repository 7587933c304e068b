"""Image distribution strategies (the industry practices of Section III-B).

The paper surveys Alibaba's cold-start work: "a new image format that
does not need to fully download", "an efficient compress algorithm",
and "a P2P network for data and image distribution" to relieve registry
congestion.  These are implemented as pluggable pull strategies so the
image-pull ablation can quantify how much of the cold start each one
removes — and show that none of them eliminates the runtime-init part
HotC targets.

* :class:`FullPullStrategy` — classic Docker behaviour: download and
  decompress every layer before the container can start.
* :class:`LazyPullStrategy` — pull only the *essential fraction* of the
  image up front (estargz/DADI-style); the remainder streams in the
  background and charges a one-time readahead penalty to the first
  execution on that host.
* :class:`P2PPullStrategy` — fetch layers from peer hosts that already
  hold the image; aggregate bandwidth scales with the number of seeds
  (up to a cap) plus a small coordination overhead.
"""

from __future__ import annotations

import abc
from typing import Dict, Generator, Set

from repro.containers.image import Image

__all__ = [
    "DistributionNetwork",
    "FullPullStrategy",
    "LazyPullStrategy",
    "P2PPullStrategy",
    "PullStrategy",
]


class DistributionNetwork:
    """Tracks which hosts hold which images (the P2P seed map)."""

    def __init__(self) -> None:
        self._holders: Dict[str, Set[str]] = {}

    def register(self, host: str, reference: str) -> None:
        """Record that ``host`` now holds ``reference``."""
        self._holders.setdefault(reference, set()).add(host)

    def seeds(self, reference: str, excluding: str) -> int:
        """Peers (other than ``excluding``) holding the image."""
        holders = self._holders.get(reference, set())
        return len(holders - {excluding})

    def holders(self, reference: str) -> Set[str]:
        """All hosts holding the image."""
        return set(self._holders.get(reference, set()))


class PullStrategy(abc.ABC):
    """How an engine materialises an image locally."""

    @abc.abstractmethod
    def pull(self, engine, image: Image) -> Generator:
        """Process: make the image available; yields sleeps in ms."""

    def first_exec_penalty_ms(self, engine, image: Image) -> float:
        """Extra cost charged to the first exec after a pull (default 0)."""
        return 0.0


class FullPullStrategy(PullStrategy):
    """Download + decompress everything before use (Docker default)."""

    def pull(self, engine, image: Image) -> Generator:
        yield engine.latency.image_pull(image.compressed_mb)
        yield engine.latency.image_decompress(image.compressed_mb)


class LazyPullStrategy(PullStrategy):
    """Pull only the essential fraction up front (estargz-style).

    Parameters
    ----------
    essential_fraction:
        Share of the compressed image needed before the entrypoint can
        run (file-access profiles put this around 6-25%; default 0.25).
    readahead_penalty_fraction:
        Share of the *deferred* bytes whose on-demand fetches stall the
        first execution.
    """

    def __init__(
        self,
        essential_fraction: float = 0.25,
        readahead_penalty_fraction: float = 0.15,
    ) -> None:
        if not 0 < essential_fraction <= 1:
            raise ValueError("essential_fraction must be in (0, 1]")
        if not 0 <= readahead_penalty_fraction <= 1:
            raise ValueError("readahead_penalty_fraction must be in [0, 1]")
        self.essential_fraction = essential_fraction
        self.readahead_penalty_fraction = readahead_penalty_fraction

    def pull(self, engine, image: Image) -> Generator:
        essential_mb = image.compressed_mb * self.essential_fraction
        yield engine.latency.image_pull(essential_mb)
        yield engine.latency.image_decompress(essential_mb)

    def first_exec_penalty_ms(self, engine, image: Image) -> float:
        deferred_mb = image.compressed_mb * (1.0 - self.essential_fraction)
        stalled_mb = deferred_mb * self.readahead_penalty_fraction
        return engine.latency.image_pull(stalled_mb)


class P2PPullStrategy(PullStrategy):
    """Fetch from peer hosts already holding the image.

    Parameters
    ----------
    network:
        The shared seed map; engines register after each pull.
    max_parallel_peers:
        Bandwidth multiplier cap (chunk parallelism limit).
    coordination_ms:
        Tracker/coordination overhead per pull.
    """

    def __init__(
        self,
        network: DistributionNetwork,
        max_parallel_peers: int = 4,
        coordination_ms: float = 25.0,
    ) -> None:
        if max_parallel_peers < 1:
            raise ValueError("max_parallel_peers must be >= 1")
        if coordination_ms < 0:
            raise ValueError("coordination_ms must be >= 0")
        self.network = network
        self.max_parallel_peers = max_parallel_peers
        self.coordination_ms = coordination_ms

    def pull(self, engine, image: Image) -> Generator:
        seeds = self.network.seeds(image.reference, excluding=engine.name)
        speedup = min(seeds + 1, self.max_parallel_peers)
        yield self.coordination_ms
        yield engine.latency.image_pull(image.compressed_mb) / speedup
        yield engine.latency.image_decompress(image.compressed_mb)
        self.network.register(engine.name, image.reference)
