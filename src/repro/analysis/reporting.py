"""Plain-text rendering of experiment results.

The benchmark harness prints the same artefacts the paper reports: the
Figure 5 scatter (as an ASCII log-log plot plus the underlying table), simple
aligned tables for the scaling/ablation experiments, and per-cluster
summaries.  Everything is plain text so results can be diffed and pasted into
the README.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

from .comparison import ComparisonReport


def format_table(rows: Sequence[Dict[str, object]], columns: Optional[Sequence[str]] = None) -> str:
    """Render a list of dictionaries as an aligned plain-text table."""
    rows = list(rows)
    if not rows:
        return "(no data)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered_rows = []
    for row in rows:
        rendered_rows.append(
            [_format_value(row.get(column, "")) for column in columns]
        )
    widths = [
        max(len(str(column)), *(len(rendered[i]) for rendered in rendered_rows))
        for i, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(widths[i]) for i, column in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = [
        "  ".join(rendered[i].ljust(widths[i]) for i in range(len(columns)))
        for rendered in rendered_rows
    ]
    return "\n".join([header, separator] + body)


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 0.001 or abs(value) >= 100000:
            return f"{value:.2e}"
        return f"{value:.4f}"
    return str(value)


def scatter_plot(
    points: Iterable[Dict[str, object]],
    x_key: str,
    y_key: str,
    label_key: str = "cluster",
    width: int = 64,
    height: int = 24,
    title: str = "",
) -> str:
    """Render a log-log ASCII scatter plot (the Figure 5 style comparison).

    Points above the diagonal are runs where the X-axis algorithm was faster,
    exactly as in the paper's figure.
    """
    data = [
        (float(p[x_key]), float(p[y_key]), str(p.get(label_key, "")) or "*")
        for p in points
        if float(p[x_key]) > 0 and float(p[y_key]) > 0
    ]
    if not data:
        return "(no data)"
    xs = [math.log10(x) for x, _, _ in data]
    ys = [math.log10(y) for _, y, _ in data]
    low = min(min(xs), min(ys))
    high = max(max(xs), max(ys))
    if high - low < 1e-9:
        high = low + 1.0

    def to_col(value: float) -> int:
        return int((value - low) / (high - low) * (width - 1))

    def to_row(value: float) -> int:
        return (height - 1) - int((value - low) / (high - low) * (height - 1))

    grid = [[" "] * width for _ in range(height)]
    # Diagonal: equal run time for both algorithms.
    for step in range(max(width, height) * 2):
        value = low + (high - low) * step / (max(width, height) * 2 - 1)
        row, col = to_row(value), to_col(value)
        if 0 <= row < height and 0 <= col < width and grid[row][col] == " ":
            grid[row][col] = "."
    for x, y, label in data:
        row, col = to_row(math.log10(y)), to_col(math.log10(x))
        grid[row][col] = label[0]

    lines = []
    if title:
        lines.append(title)
    lines.append(f"Y: {y_key} (log10 {low:.1f}..{high:.1f})")
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f"X: {x_key} (log10 {low:.1f}..{high:.1f}); '.' = equal-time diagonal")
    return "\n".join(lines)


def figure5_report(report: ComparisonReport, poly_name: str = "poly-enum-incremental",
                   baseline_name: str = "exhaustive") -> str:
    """Full text report for the Figure 5 reproduction."""
    pairs = report.paired(poly_name, baseline_name)
    if not pairs:
        return "(no paired measurements)"
    lines = [
        f"Figure 5 reproduction: {poly_name} (X) vs {baseline_name} (Y), "
        f"{report.constraints.describe()}",
        "",
        scatter_plot(
            pairs,
            x_key=f"{poly_name}_seconds",
            y_key=f"{baseline_name}_seconds",
            title="run-time scatter (points above the diagonal: polynomial algorithm faster)",
        ),
        "",
        format_table(
            pairs,
            columns=[
                "graph",
                "cluster",
                "num_operations",
                f"{poly_name}_seconds",
                f"{baseline_name}_seconds",
                "speed_ratio",
                f"{poly_name}_cuts",
                f"{baseline_name}_cuts",
            ],
        ),
    ]
    faster = sum(1 for p in pairs if p["speed_ratio"] > 1.0)
    lines.append("")
    lines.append(
        f"blocks where the polynomial algorithm is faster: {faster}/{len(pairs)}"
    )
    return "\n".join(lines)


def cluster_summary(report: ComparisonReport) -> List[Dict[str, object]]:
    """Aggregate a comparison report per (cluster, algorithm)."""
    buckets: Dict[tuple, List[float]] = {}
    counts: Dict[tuple, int] = {}
    for measurement in report.measurements:
        key = (measurement.cluster or "all", measurement.algorithm)
        buckets.setdefault(key, []).append(measurement.elapsed_seconds)
        counts[key] = counts.get(key, 0) + 1
    rows = []
    for (cluster, algorithm), times in sorted(buckets.items()):
        rows.append(
            {
                "cluster": cluster,
                "algorithm": algorithm,
                "blocks": counts[(cluster, algorithm)],
                "total_seconds": sum(times),
                "mean_seconds": sum(times) / len(times),
                "max_seconds": max(times),
            }
        )
    return rows
