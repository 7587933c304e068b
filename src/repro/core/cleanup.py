"""Used-container cleanup (Algorithm 2, Section IV-B).

"The cleanup of the used container includes two steps: First, it
deletes all files and directories in the old volumes.  Second, HotC
mounts new volumes to the containers for future use."

The :class:`CleanupWorker` performs that sequence off the request's
critical path and returns the container to the pool (``num_avail++``).
"""

from __future__ import annotations

from typing import Generator

from repro.containers.container import Container
from repro.containers.engine import ContainerEngine
from repro.core.pool import ContainerRuntimePool
from repro.obs.events import EventKind

__all__ = ["CleanupWorker"]


class CleanupWorker:
    """Cleans used containers and recycles them into the pool."""

    def __init__(
        self,
        sim,
        engine: ContainerEngine,
        pool: ContainerRuntimePool,
    ) -> None:
        self.sim = sim
        self.engine = engine
        self.pool = pool
        self.cleaned = 0
        #: The owner's container health plane, if any: every container
        #: that leaves the pool through :meth:`forget` loses its record.
        self.health = None

    def clean_and_recycle(self, container: Container) -> Generator:
        """Process: Algorithm 2 — wipe volume, remount, mark available.

        The clean yields sim time, so a control-plane crash can wipe the
        pool (or a recovery sweep re-register the container) mid-clean:
        a container no longer pooled when the clean finishes is retired
        instead of recycled, and one already re-registered as available
        is left alone.  ``container.recycling`` marks the window so the
        recovery sweep neither adopts it as idle nor counts it as
        request-owned.
        """
        started = self.sim.now
        container.recycling = True
        try:
            yield from self.engine.clean_container(container)
        finally:
            container.recycling = False
        if not self.pool.contains(container):
            # The control plane crashed mid-clean and the recovery sweep
            # has not (re-)adopted this container: retire it.
            yield from self.retire(container)
            return container
        if not self.pool.is_available(container):
            self.pool.release(container, now=self.sim.now)
        self.cleaned += 1
        obs = self.sim.obs
        if obs is not None:
            host = self.engine.name
            obs.record(
                EventKind.CLEANUP, self.sim.now, "cleanups_total",
                "Algorithm 2 runs (volume wipe + recycle)", {"host": host},
                host=host, key=container.config.image,
                container=container.container_id,
                duration_ms=self.sim.now - started,
            )
        return container

    def retire(self, container: Container) -> Generator:
        """Process: drop a container from the pool and destroy it.

        Used for evictions and scale-downs; the volume is deleted with
        the container ("to avoid resource waste and zombie files").
        Tolerates containers that already died (crash injection): those
        only need to be forgotten.
        """
        from repro.containers.container import ContainerState

        self.forget(container)
        if container.is_live:
            yield from self.engine.stop_container(container)
            yield from self.engine.remove_container(container)
        elif container.state is ContainerState.STOPPED:
            yield from self.engine.remove_container(container)
        return container

    def forget(self, container: Container) -> None:
        """Drop a container from the pool and from the health plane.

        The one exit every retired or discarded container takes, so no
        per-container state outlives the container.
        """
        if self.pool.contains(container):
            self.pool.remove(container)
        if self.health is not None:
            self.health.forget(container)

    def discard_dead(self, container: Container, reuse: str = "hit") -> None:
        """Un-count a just-acquired container that turned out dead, and
        forget it (see :meth:`ContainerRuntimePool.discard_dead`)."""
        self.pool.discard_dead(container, reuse=reuse)
        self.forget(container)
