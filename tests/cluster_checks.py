"""Shared end-of-run checks on a :class:`~repro.core.ClusterHotC`."""


def assert_no_requests_held(cluster) -> None:
    """No host counts an in-flight request or pools a leased container."""
    for index, host in enumerate(cluster.hosts):
        assert cluster.inflight(index) == 0, (
            f"{host.engine.name}: {cluster.inflight(index)} requests in flight"
        )
        leased = [
            entry.container.container_id
            for entry in host.pool.entries()
            if entry.container.leased
        ]
        assert leased == [], f"{host.engine.name}: leased entries {leased}"
