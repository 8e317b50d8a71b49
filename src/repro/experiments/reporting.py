"""Fixed-width table rendering for experiment output.

The benchmark harness prints the paper-shaped series as plain-text
tables so results are readable straight from ``pytest -s`` output and
diffable across runs.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence

__all__ = ["format_value", "render_table"]


def format_value(value: Any, precision: int = 4) -> str:
    """Compact human rendering of one cell."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:  # nan
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if value == 0:
            return "0"
        return f"{value:.{precision}g}"
    return str(value)


def render_table(
    rows: Sequence[dict[str, Any]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    precision: int = 4,
) -> str:
    """Render dict-rows as an aligned fixed-width table."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [
        {col: format_value(row.get(col, ""), precision) for col in columns}
        for row in rows
    ]
    widths = {
        col: max(len(col), *(len(r[col]) for r in rendered)) for col in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.rjust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("  ".join("-" * widths[col] for col in columns))
    for r in rendered:
        lines.append("  ".join(r[col].rjust(widths[col]) for col in columns))
    return "\n".join(lines)
