"""Run all (or selected) figure reproductions, serially or in parallel.

``python -m repro experiments`` prints every figure;
``python -m repro experiments fig08 fig10`` a selection;
``python -m repro experiments --jobs 8`` fans the figures out over
worker processes and prints byte-identical output.

Parallel design
---------------
The unit of work is one ``(figure, seed)`` pair.  Workers are spawned
with the ``spawn`` start method (safe under any interpreter state — no
forked locks, no inherited RNG state) and each runs exactly one figure
reproduction per task, so a figure's result is produced by the same
deterministic code path regardless of ``jobs``.  Each worker instruments
its run into a private :class:`~repro.obs.registry.MetricsRegistry`;
the parent folds those into the caller's registry via
:meth:`MetricsRegistry.merge` in fixed task order, so serial and
parallel runs produce identical figures *and* identical merged counter
totals.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.metrics.report import Figure
from repro.obs.registry import MetricsRegistry

__all__ = ["ALL_EXPERIMENTS", "run_all", "run_matrix"]


def _registry() -> Dict[str, Callable[..., Figure]]:
    # Imported lazily to avoid import cycles with repro.experiments.
    from repro.experiments import (
        run_fig01, run_fig02, run_fig04, run_fig05, run_fig08, run_fig09,
        run_fig10, run_fig11, run_fig12, run_fig13, run_fig14, run_fig15,
        run_fig16,
    )

    return {
        "fig01": run_fig01,
        "fig02": run_fig02,
        "fig04": run_fig04,
        "fig05": run_fig05,
        "fig08": run_fig08,
        "fig09": run_fig09,
        "fig10": run_fig10,
        "fig11": run_fig11,
        "fig12": run_fig12,
        "fig13": run_fig13,
        "fig14": run_fig14,
        "fig15": run_fig15,
        "fig16": run_fig16,
    }


#: Experiment ids in paper order.
ALL_EXPERIMENTS = (
    "fig01", "fig02", "fig04", "fig05", "fig08", "fig09",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "fig16",
)


def _validated_names(only: Optional[Iterable[str]]) -> List[str]:
    registry = _registry()
    names = list(only) if only is not None else list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise KeyError(
            f"unknown experiments {unknown}; known: {sorted(registry)}"
        )
    return names


def _run_task(task: Tuple[str, int]) -> Tuple[str, int, Figure, MetricsRegistry]:
    """Worker body: one figure at one seed, with its own metrics.

    Top-level (not nested) so it pickles under the ``spawn`` start
    method.  Also the serial path — ``jobs=1`` maps over the same
    function in-process, which is what makes the two modes identical by
    construction.
    """
    name, seed = task
    registry = MetricsRegistry()
    start = time.perf_counter()
    figure = _registry()[name](seed=seed)
    wall_ms = (time.perf_counter() - start) * 1e3
    registry.counter(
        "runner_figures_total",
        help="Figure reproductions completed by the experiment runner",
        figure=name,
        seed=str(seed),
    ).inc()
    registry.gauge(
        "runner_figure_wall_ms",
        help="Wall-clock of the figure reproduction in milliseconds",
        figure=name,
        seed=str(seed),
    ).set(round(wall_ms, 3))
    return name, seed, figure, registry


def run_matrix(
    seeds: Iterable[int] = (0,),
    only: Optional[Iterable[str]] = None,
    jobs: int = 1,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[int, Dict[str, Figure]]:
    """Run the ``seeds x figures`` matrix; ``{seed: {figure_id: Figure}}``.

    ``jobs=1`` runs everything in-process; ``jobs>1`` distributes one
    ``(figure, seed)`` task per worker slot using spawn-based
    multiprocessing.  Results (and the metrics merged into ``registry``,
    when given) are identical either way: every figure is produced by
    the same single-task code path, and merge order is the fixed task
    order, not completion order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seeds = list(seeds)
    names = _validated_names(only)
    tasks = [(name, seed) for seed in seeds for name in names]
    results: Dict[int, Dict[str, Figure]] = {seed: {} for seed in seeds}
    if jobs == 1 or len(tasks) <= 1:
        outputs = [_run_task(task) for task in tasks]
    else:
        context = multiprocessing.get_context("spawn")
        with context.Pool(processes=min(jobs, len(tasks))) as pool:
            # pool.map preserves task order (unlike imap_unordered), so
            # the registry merge below is deterministic.
            outputs = pool.map(_run_task, tasks, chunksize=1)
    for name, seed, figure, worker_registry in outputs:
        results[seed][name] = figure
        if registry is not None:
            registry.merge(worker_registry)
    return results


def run_all(
    only: Optional[Iterable[str]] = None,
    seed: int = 0,
    jobs: int = 1,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, Figure]:
    """Run the selected experiments; returns ``{figure_id: Figure}``.

    ``jobs`` fans the figures out over worker processes; the result is
    byte-identical to the serial run (see :func:`run_matrix`).
    """
    return run_matrix(seeds=(seed,), only=only, jobs=jobs, registry=registry)[seed]
