"""Plain-text rendering of experiment results.

Everything here emits ASCII — suitable for terminals, logs, and pasting
into issues — and operates on plain dicts/sequences so benchmarks, the
CLI, and user scripts can share one presentation layer.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence


def horizontal_bars(values: Mapping[str, float], width: int = 40,
                    reference: float | None = None,
                    fmt: str = "{:6.3f}") -> str:
    """Render labeled horizontal bars scaled to the maximum value.

    ``reference`` draws a marker column at that value (e.g. the baseline
    at 1.0 in a normalized-performance chart).

    Negative values render an empty (zero-length) bar annotated with
    ``<0`` rather than a nonsense negative-width bar.
    """
    if not values:
        return "(no data)"
    peak = max(values.values())
    if peak <= 0:
        peak = 1.0
    label_width = max(len(k) for k in values)
    lines = []
    for label, value in values.items():
        filled = max(0, int(round(width * value / peak)))
        bar = "#" * filled
        if reference is not None and 0 < reference <= peak:
            marker = int(round(width * reference / peak))
            if marker >= len(bar):
                bar = bar.ljust(marker) + "|"
            else:
                bar = bar[:marker] + "|" + bar[marker + 1:]
        suffix = "  <0" if value < 0 else ""
        lines.append(f"{label:<{label_width}}  {fmt.format(value)}  {bar}{suffix}")
    return "\n".join(lines)


def series_table(series: Mapping[str, Sequence[float]],
                 columns: Sequence[str], fmt: str = "{:8.2f}",
                 first_header: str = "series") -> str:
    """Render named series against shared column labels (sweep output)."""
    label_width = max([len(first_header)] + [len(k) for k in series])
    header = f"{first_header:<{label_width}}" + "".join(
        str(c).rjust(max(8, len(fmt.format(0)))) for c in columns)
    lines = [header]
    for label, row in series.items():
        lines.append(f"{label:<{label_width}}"
                     + "".join(fmt.format(v) for v in row))
    return "\n".join(lines)


def markdown_table(headers: Sequence[str],
                   rows: Iterable[Sequence[object]]) -> str:
    """Render a GitHub-flavoured markdown table."""
    head = "| " + " | ".join(str(h) for h in headers) + " |"
    rule = "|" + "|".join("---" for _ in headers) + "|"
    body = ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join([head, rule] + body)


def breakdown_chart(breakdown: Mapping[str, float], width: int = 50) -> str:
    """One stacked bar of cycle/energy components with a legend."""
    total = sum(breakdown.values())
    if total <= 0:
        return "(empty breakdown)"
    glyphs = "#=+:.%@*"
    segments = []
    legend = []
    for i, (name, value) in enumerate(breakdown.items()):
        glyph = glyphs[i % len(glyphs)]
        span = int(round(width * value / total))
        segments.append(glyph * span)
        legend.append(f"  {glyph} {name}: {100 * value / total:.1f}%")
    return "[" + "".join(segments).ljust(width)[:width] + "]\n" + "\n".join(legend)


def histogram_chart(snapshot: Mapping[str, object], width: int = 40) -> str:
    """Render a :meth:`repro.obs.histogram.Histogram.snapshot` as bars.

    One line per non-empty log2 bucket: ``[lo, hi]  count  bar``, scaled
    to the fullest bucket, with a count/mean/p99 summary line on top.
    """
    buckets = snapshot.get("buckets") or []
    count = snapshot.get("count", 0)
    if not buckets or not count:
        return "(empty histogram)"
    summary = (f"n={count}  mean={snapshot.get('mean', 0.0):.1f}  "
               f"p50<={snapshot.get('p50', 0)}  p99<={snapshot.get('p99', 0)}")
    peak = max(b["count"] for b in buckets)
    label_width = max(len(f"[{b['lo']}, {b['hi']}]") for b in buckets)
    lines = [summary]
    for b in buckets:
        label = f"[{b['lo']}, {b['hi']}]"
        bar = "#" * max(1, int(round(width * b["count"] / peak)))
        share = 100.0 * b["count"] / count
        lines.append(f"{label:>{label_width}}  {b['count']:>8} {share:5.1f}%  {bar}")
    return "\n".join(lines)


def cycle_attribution(breakdown: Mapping[str, float]) -> str:
    """Per-stage cycle table: stage, cycles, share of total."""
    total = sum(breakdown.values())
    rows = []
    for stage, cycles in breakdown.items():
        share = 100.0 * cycles / total if total > 0 else 0.0
        rows.append([stage, f"{cycles:.0f}", f"{share:5.1f}%"])
    rows.append(["total", f"{total:.0f}", "100.0%" if total > 0 else "  0.0%"])
    from repro.common.stats import format_table

    return format_table({"stage": "stage", "cycles": "cycles",
                         "share": "share"}, rows)


def normalized_comparison(rows: Mapping[str, Mapping[str, float]],
                          baseline_key: str = "baseline") -> str:
    """Render per-workload normalized results plus a geomean row.

    An empty mapping — or rows that name no configuration at all —
    renders the ``(no data)`` placeholder rather than a degenerate
    header-only table.
    """
    from repro.sim.results import geometric_mean

    configs: List[str] = []
    for row in rows.values():
        for key in row:
            if key not in configs:
                configs.append(key)
    if not rows or not configs:
        return "(no data)"
    table: Dict[str, List[float]] = {
        name: [row.get(c, 0.0) for c in configs] for name, row in rows.items()
    }
    table["geomean"] = [
        geometric_mean([rows[n].get(c, 0.0) for n in rows]) for c in configs
    ]
    return series_table(table, configs, fmt="{:16.3f}", first_header="workload")
