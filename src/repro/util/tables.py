"""Plain-text table rendering for experiment reports and benches.

The benchmark harness regenerates the paper's figures as printed series;
these helpers keep that output aligned and diff-friendly without pulling in
a plotting dependency.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    *,
    precision: int = 3,
    title: Optional[str] = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table."""
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("every row must have one cell per header")
    str_rows = [
        [
            f"{cell:.{precision}f}" if isinstance(cell, float) else str(cell)
            for cell in row
        ]
        for row in rows
    ]
    widths = [
        max(len(header), *(len(row[i]) for row in str_rows)) if str_rows else len(header)
        for i, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    x_name: str,
    x_values: Sequence,
    series: Mapping[str, Sequence[float]],
    *,
    precision: int = 3,
    title: Optional[str] = None,
) -> str:
    """Render one x-column plus one column per named series.

    This is the shape of every figure in the paper's evaluation section:
    ``x`` is the processor count, each series is one scheduling algorithm.
    """
    headers = [x_name, *series.keys()]
    for name, values in series.items():
        if len(values) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(values)} points, expected {len(x_values)}"
            )
    rows = [
        [x, *(series[name][i] for name in series)] for i, x in enumerate(x_values)
    ]
    return format_table(headers, rows, precision=precision, title=title)


def format_ratio_summary(
    ratios: Mapping[str, Sequence[float]], *, precision: int = 3
) -> str:
    """Summarise ratio-to-lower-bound samples per algorithm (min/mean/max)."""
    rows = []
    for name, values in ratios.items():
        if len(values) == 0:
            raise ValueError(f"series {name!r} has no samples")
        values = list(values)
        rows.append(
            [
                name,
                float(min(values)),
                float(sum(values) / len(values)),
                float(max(values)),
            ]
        )
    return format_table(
        ["algorithm", "min", "mean", "max"], rows, precision=precision
    )
