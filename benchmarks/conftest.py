"""Benchmark harness configuration.

Each ``bench_figXX.py`` regenerates one paper figure and asserts the
paper's *shape* (who wins, by roughly what factor, where crossovers
fall) — absolute values differ because the substrate is a simulator,
not the authors' testbed.

Run:  PYTHONPATH=src python -m pytest benchmarks/
"""

import pytest


class _SingleShot:
    """The one ``pytest-benchmark`` call the benches use.

    ``pedantic`` runs the workload once and returns its result: a figure
    run is a deterministic simulation, so timing it over many rounds adds
    nothing, and each bench asserts on the result.
    """

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        return fn(*args, **(kwargs or {}))


@pytest.fixture
def benchmark():
    # The pytest addopts in pyproject.toml pass `-p no:benchmark`: the
    # pytest-benchmark plugin rejects any other `benchmark` fixture, and
    # blocking it gives the benches this one path whether or not it is
    # installed.
    return _SingleShot()


@pytest.fixture
def render(capsys):
    """Print a figure's rendering so benchmark logs show the rows."""

    def _render(figure):
        with capsys.disabled():
            print()
            print(figure.render())

    return _render
