"""Figure-ready result containers and plain-text table rendering.

Every experiment module returns a :class:`Figure` holding named
:class:`Series` (for line plots) and/or :class:`Table` objects (for bar
charts); the benchmark harness prints them so the paper's rows/series
can be compared by eye.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Figure",
    "Series",
    "Table",
    "format_table",
    "reuse_depth_histogram",
    "reuse_table",
]

Number = Union[int, float]


@dataclass(frozen=True)
class Series:
    """One plottable series: aligned x and y arrays."""

    name: str
    x: Tuple[float, ...]
    y: Tuple[float, ...]
    x_label: str = "x"
    y_label: str = "y"

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.name!r}: x has {len(self.x)} points, "
                f"y has {len(self.y)}"
            )

    @staticmethod
    def from_arrays(name: str, x, y, x_label: str = "x", y_label: str = "y") -> "Series":
        """Build from any array-likes."""
        return Series(
            name=name,
            x=tuple(float(v) for v in np.asarray(x).ravel()),
            y=tuple(float(v) for v in np.asarray(y).ravel()),
            x_label=x_label,
            y_label=y_label,
        )

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(x, y)`` as numpy arrays."""
        return np.array(self.x), np.array(self.y)


@dataclass(frozen=True)
class Table:
    """A small result table: column headers plus value rows."""

    name: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Union[str, Number], ...], ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"table {self.name!r}: row {row!r} does not match "
                    f"columns {self.columns!r}"
                )

    def column(self, name: str) -> Tuple:
        """All values of one column."""
        try:
            index = self.columns.index(name)
        except ValueError:
            raise KeyError(
                f"no column {name!r}; columns: {self.columns}"
            ) from None
        return tuple(row[index] for row in self.rows)


@dataclass
class Figure:
    """Everything one paper figure's reproduction produced."""

    figure_id: str
    title: str
    series: List[Series] = field(default_factory=list)
    tables: List[Table] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_series(self, series: Series) -> "Figure":
        """Attach a series."""
        self.series.append(series)
        return self

    def add_table(self, table: Table) -> "Figure":
        """Attach a table."""
        self.tables.append(table)
        return self

    def note(self, text: str) -> "Figure":
        """Attach a free-text observation (paper-vs-measured remarks)."""
        self.notes.append(text)
        return self

    def get_series(self, name: str) -> Series:
        """Find a series by name."""
        for series in self.series:
            if series.name == name:
                return series
        known = ", ".join(s.name for s in self.series)
        raise KeyError(f"no series {name!r} in {self.figure_id}; have: {known}")

    def get_table(self, name: str) -> Table:
        """Find a table by name."""
        for table in self.tables:
            if table.name == name:
                return table
        known = ", ".join(t.name for t in self.tables)
        raise KeyError(f"no table {name!r} in {self.figure_id}; have: {known}")

    def render(self) -> str:
        """Human-readable text rendering of the whole figure."""
        lines = [f"=== {self.figure_id}: {self.title} ==="]
        for table in self.tables:
            lines.append(f"-- {table.name} --")
            lines.append(format_table(table.columns, table.rows))
        for series in self.series:
            lines.append(
                f"-- series {series.name} ({series.x_label} -> {series.y_label}) --"
            )
            pairs = ", ".join(
                f"({x:g}, {y:.4g})" for x, y in zip(series.x, series.y)
            )
            lines.append(pairs if pairs else "(empty)")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


#: Reuse-depth histogram bucket edges: [lo, hi) per label, last open.
_DEPTH_BUCKETS = (
    ("0", 0, 1),
    ("1", 1, 2),
    ("2-3", 2, 4),
    ("4-7", 4, 8),
    ("8-15", 8, 16),
    ("16-31", 16, 32),
    ("32-63", 32, 64),
    ("64+", 64, None),
)


def reuse_depth_histogram(traces) -> dict:
    """Bucketed reuse-depth counts over terminal traces, plus the max.

    Depth is ``trace.reuse_count`` — how many requests the serving
    container had executed before this one.  Deep tails are where
    container aging lives (leaks, drift), so the run report surfaces
    the distribution, not just the hit ratio.  Traces without the field
    (older captures) count as depth 0.
    """
    counts = [0] * len(_DEPTH_BUCKETS)
    max_depth = 0
    seen = 0
    for trace in traces:
        depth = int(getattr(trace, "reuse_count", 0) or 0)
        seen += 1
        if depth > max_depth:
            max_depth = depth
        for index, (_, lo, hi) in enumerate(_DEPTH_BUCKETS):
            if depth >= lo and (hi is None or depth < hi):
                counts[index] += 1
                break
    histogram = {
        label: counts[index]
        for index, (label, _, _) in enumerate(_DEPTH_BUCKETS)
        if counts[index]
    }
    if seen:
        histogram["max"] = max_depth
    return histogram


def reuse_table(
    pool_stats: Sequence = (),
    engine_stats: Sequence = (),
    cluster_stats=None,
    traces=None,
    name: str = "reuse",
) -> Table:
    """The three-way reuse hierarchy as a Table.

    Breaks cold starts eliminated via the relaxed fallback and
    inter-key repurposing out from exact-key hits, so the paper's
    hit-ratio definition (exact-key reuse over lookups) stays intact
    next to the extended reuse paths.  Duck-typed so any combination of
    sources works: ``pool_stats`` is an iterable of
    :class:`~repro.core.pool.PoolStats`, ``engine_stats`` of
    :class:`~repro.containers.engine.EngineStats`, ``cluster_stats`` a
    :class:`~repro.core.cluster.ClusterStats`, ``traces`` a
    :class:`~repro.faas.tracing.TraceCollector`.  Missing sources
    contribute zero rows.
    """

    def total(stats: Sequence, attr: str) -> int:
        return sum(int(getattr(s, attr, 0)) for s in stats)

    rows: List[Tuple[Union[str, Number], ...]] = []
    if pool_stats:
        hits = total(pool_stats, "hits")
        misses = total(pool_stats, "misses")
        relaxed = total(pool_stats, "relaxed_hits")
        repurposed = total(pool_stats, "repurposed")
        lookups = hits + misses
        rows.append(("pool", "exact_hits", hits))
        rows.append(("pool", "misses", misses))
        rows.append(("pool", "relaxed_hits", relaxed))
        rows.append(("pool", "repurposed", repurposed))
        rows.append(("pool", "cold_starts_eliminated", relaxed + repurposed))
        rows.append(
            ("pool", "exact_hit_ratio", round(hits / lookups, 4) if lookups else 0.0)
        )
    if engine_stats:
        rows.append(("engine", "boots", total(engine_stats, "boots")))
        rows.append(("engine", "cold_execs", total(engine_stats, "cold_execs")))
        rows.append(("engine", "warm_execs", total(engine_stats, "warm_execs")))
    if cluster_stats is not None:
        rows.append(
            ("cluster", "reuse_routed", int(getattr(cluster_stats, "reuse_routed", 0)))
        )
        rows.append(
            ("cluster", "cold_routed", int(getattr(cluster_stats, "cold_routed", 0)))
        )
        rows.append(
            ("cluster", "relaxed_hits", int(getattr(cluster_stats, "relaxed_hits", 0)))
        )
        rows.append(
            ("cluster", "repurposes", int(getattr(cluster_stats, "repurposes", 0)))
        )
    if traces is not None:
        reuse_counts: dict = {}
        for trace in traces:
            kind = getattr(trace, "reuse", "") or "cold"
            reuse_counts[kind] = reuse_counts.get(kind, 0) + 1
        for kind, count in sorted(reuse_counts.items()):
            rows.append(("requests", kind, int(count)))
        for label, count in reuse_depth_histogram(traces).items():
            rows.append(("reuse_depth", label, int(count)))
    return Table(
        name=name,
        columns=("source", "counter", "count"),
        rows=tuple(rows),
    )


def _format_cell(value: Union[str, Number]) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{value:.4g}"
    return str(value)


def format_table(
    columns: Sequence[str], rows: Sequence[Sequence[Union[str, Number]]]
) -> str:
    """Render an aligned plain-text table."""
    header = [str(c) for c in columns]
    body = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines = [render_row(header), render_row(["-" * w for w in widths])]
    lines.extend(render_row(row) for row in body)
    return "\n".join(lines)
