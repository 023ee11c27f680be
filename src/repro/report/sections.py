"""HTML section renderers: one function per document kind.

Each renderer takes a parsed document (plus the source label the bundle
recorded) and returns an HTML fragment — headings, tables, and inline
SVG from :mod:`repro.report.svg`.  The page assembler
(:mod:`repro.report.html`) concatenates them in a fixed order.

Renderers reuse the repo's existing analytics rather than reimplement
them: trace sections lean on the phase attribution
:mod:`repro.obs.traceview` computed into the ``repro.trace/v1``
document, and multi-result bundles are folded through
:class:`repro.obs.aggregate.ProfileAggregate` so the report's combined
profile is the exact object ``repro profile --sizes`` renders.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.report import svg
from repro.report.scorecard import (NO_DATA, ScoreRow, artifacts,
                                    rows_for_artifact)

Doc = Dict[str, Any]


def esc(text: object) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def fmt(value: Optional[float]) -> str:
    if value is None:
        return "—"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return f"{value:.6g}"


def table(headers: Sequence[str], rows: Iterable[Sequence[object]],
          *, raw_columns: Sequence[int] = ()) -> str:
    """An HTML table; columns listed in ``raw_columns`` are trusted
    HTML (badges, sparklines), everything else is escaped."""
    head = "".join(f"<th>{esc(h)}</th>" for h in headers)
    body = []
    for row in rows:
        cells = []
        for i, cell in enumerate(row):
            cells.append(f"<td>{cell if i in raw_columns else esc(cell)}</td>")
        body.append("<tr>" + "".join(cells) + "</tr>")
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{''.join(body)}</tbody></table>")


def badge(kind: str, text: Optional[str] = None) -> str:
    return f'<span class="badge badge-{kind}">{esc(text or kind)}</span>'


def section(slug: str, title: str, body: str, *,
            source: Optional[str] = None, note: str = "") -> str:
    src = (f'<p class="source">source: <code>{esc(source)}</code></p>'
           if source else "")
    intro = f"<p>{esc(note)}</p>" if note else ""
    return (f'<section id="{esc(slug)}"><h2>{esc(title)}</h2>'
            f"{intro}{body}{src}</section>")


def _slug(text: str) -> str:
    return "".join(ch if ch.isalnum() else "-" for ch in text.lower())


# ---------------------------------------------------------------------- #
# Scorecard
# ---------------------------------------------------------------------- #

def render_headline_banner(rows: List[ScoreRow]) -> str:
    """The three abstract-level claims as large badge tiles."""
    tiles = []
    for row in rows:
        if not row.claim.headline:
            continue
        measured = (f"{fmt(row.measured)} {esc(row.claim.unit)}"
                    if row.measured is not None else "not measured")
        deviation = row.deviation_pct
        dev_text = (f"{deviation:+.1f}% vs. paper"
                    if deviation is not None else "")
        tiles.append(
            f'<div class="headline headline-{row.badge}">'
            f'<div class="headline-paper">paper: '
            f"{fmt(row.claim.paper_value)} {esc(row.claim.unit)}</div>"
            f'<div class="headline-value">{measured}</div>'
            f'<div class="headline-title">{esc(row.claim.title)}</div>'
            f'<div class="headline-dev">{esc(dev_text)}</div>'
            f"{badge(row.badge)}</div>")
    return '<div class="headline-row">' + "".join(tiles) + "</div>"


def render_scorecard(rows: List[ScoreRow]) -> str:
    """The full scorecard table, one row per registered claim."""
    body_rows = []
    for row in rows:
        deviation = row.deviation_pct
        body_rows.append([
            esc(row.claim.artifact),
            esc(row.claim.title),
            f"{fmt(row.claim.paper_value)} {esc(row.claim.unit)}",
            fmt(row.measured),
            "—" if deviation is None else f"{deviation:+.1f}%",
            badge(row.badge),
            esc(row.claim.source),
        ])
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row.badge] = counts.get(row.badge, 0) + 1
    summary = " ".join(f"{badge(kind)} × {counts[kind]}"
                       for kind in ("pass", "warn", "fail", NO_DATA)
                       if counts.get(kind))
    return section(
        "scorecard", "Paper-fidelity scorecard",
        f'<p class="summary">{summary}</p>'
        + table(["artifact", "claim", "paper", "reproduced", "deviation",
                 "badge", "paper source"],
                body_rows, raw_columns=(0, 1, 2, 3, 4, 5, 6)),
        note="Each registered claim of the paper, the reproduced value "
             "extracted from this report's inputs, and the deviation. "
             "Badges: pass = within the claim's tolerance, warn = "
             "beyond it, fail = far off, no-data = nothing in the "
             "inputs can measure this claim.")


def render_artifact_sections(rows: List[ScoreRow],
                             bundle: Any) -> List[str]:
    """One section per reproduced figure/table, registry order."""
    out: List[str] = []
    for artifact in artifacts(rows):
        artifact_rows = rows_for_artifact(rows, artifact)
        body_rows = []
        for row in artifact_rows:
            deviation = row.deviation_pct
            body_rows.append([
                esc(row.claim.title),
                f"{fmt(row.claim.paper_value)} {esc(row.claim.unit)}",
                fmt(row.measured),
                "—" if deviation is None else f"{deviation:+.1f}%",
                badge(row.badge),
            ])
        body = table(["claim", "paper", "reproduced", "deviation", "badge"],
                     body_rows, raw_columns=(0, 1, 2, 3, 4))
        chart = _artifact_chart(artifact, bundle)
        if chart:
            body += chart
        notes = "".join(f"<p>{esc(row.claim.note)}</p>"
                        for row in artifact_rows if row.claim.note)
        out.append(section(
            "artifact-" + _slug(artifact), f"{artifact} — fidelity",
            notes + body))
    return out


def _artifact_chart(artifact: str, bundle: Any) -> str:
    """A chart from bundle data, where a document kind maps onto the
    artifact (Figure 4 ← sweeps, Figures 9/10 ← compare documents)."""
    if artifact == "Figure 4" and bundle.sweeps:
        doc, source = bundle.sweeps[0]
        curve = doc.get("delayed_tlb_mpki") or []
        sizes = doc.get("sizes") or []
        if curve and sizes:
            chart = svg.line_chart(
                {doc.get("workload", "workload"): curve},
                [str(s) for s in sizes], log_y=False)
            return (f"<h3>delayed-TLB MPKI vs. entries "
                    f"(<code>{esc(source)}</code>)</h3>" + chart)
    if artifact in ("Figure 9", "Figure 10"):
        virt = artifact == "Figure 10"
        for doc, source in bundle.compares:
            speedups = doc.get("speedups") or {}
            if not speedups:
                continue
            if any(n.startswith("virt") for n in speedups) != virt:
                continue
            chart = svg.bar_chart(speedups, reference=1.0)
            return (f"<h3>normalized performance, "
                    f"{esc(doc.get('workload', '?'))} "
                    f"(<code>{esc(source)}</code>)</h3>" + chart)
    return ""


# ---------------------------------------------------------------------- #
# Document sections
# ---------------------------------------------------------------------- #

def render_result(doc: Doc, source: str) -> str:
    """One ``repro.result/v1`` document: key metrics + breakdowns."""
    rows = [
        ("workload", doc.get("workload")), ("mmu", doc.get("mmu")),
        ("instructions", doc.get("instructions")),
        ("accesses", doc.get("accesses")),
        ("cycles", fmt(doc.get("cycles"))),
        ("ipc", fmt(doc.get("ipc"))),
        ("LLC miss rate", fmt(doc.get("llc_miss_rate"))),
    ]
    body = table(["metric", "value"], rows)
    breakdown = doc.get("cycle_breakdown") or {}
    body += "<h3>cycle breakdown</h3>" + svg.stacked_bar(breakdown)
    histograms = doc.get("histograms") or {}
    for name in sorted(histograms):
        snap = histograms[name]
        if not snap.get("count"):
            continue
        body += f"<h3>latency histogram: {esc(name)}</h3>"
        body += svg.histogram_chart(snap)
    intervals = doc.get("intervals") or []
    if intervals:
        ipcs = [window.get("ipc", 0.0) for window in intervals]
        body += ("<h3>per-interval IPC</h3>"
                 + svg.sparkline(ipcs, width=360, height=48))
    label = f"{doc.get('workload', '?')}/{doc.get('mmu', '?')}"
    return section("result-" + _slug(label + "-" + source),
                   f"Run — {label}", body, source=source)


def render_compare(doc: Doc, source: str) -> str:
    speedups = doc.get("speedups") or {}
    body = (f"<p>normalized to <code>"
            f"{esc(doc.get('normalized_to', '?'))}</code></p>"
            + svg.bar_chart(speedups, reference=1.0))
    body += table(["configuration", "speedup"],
                  [(name, fmt(value)) for name, value in speedups.items()])
    return section("compare-" + _slug(source),
                   f"Comparison — {doc.get('workload', '?')}",
                   body, source=source)


def render_sweep(doc: Doc, source: str) -> str:
    sizes = doc.get("sizes") or []
    curve = doc.get("delayed_tlb_mpki") or []
    body = svg.line_chart({doc.get("workload", "mpki"): curve},
                          [str(s) for s in sizes])
    body += table(["entries", "delayed-TLB MPKI"],
                  [(size, fmt(value)) for size, value in zip(sizes, curve)])
    return section("sweep-" + _slug(source),
                   f"Delayed-TLB sweep — {doc.get('workload', '?')}",
                   body, source=source)


def render_profile(doc: Doc, source: str) -> str:
    """A ``repro.profile/v1`` aggregated-sweep document."""
    aggregate = doc.get("aggregate") or {}
    body = table(["metric", "value"], [
        ("points", aggregate.get("points")),
        ("instructions", aggregate.get("instructions")),
        ("ipc", fmt(aggregate.get("ipc"))),
    ])
    body += ("<h3>aggregate cycle breakdown</h3>"
             + svg.stacked_bar(aggregate.get("cycle_breakdown") or {}))
    histograms = aggregate.get("histograms") or {}
    for name in sorted(histograms):
        if not histograms[name].get("count"):
            continue
        body += f"<h3>merged histogram: {esc(name)}</h3>"
        body += svg.histogram_chart(histograms[name])
    return section("profile-" + _slug(source),
                   f"Profile — {doc.get('workload', '?')}/"
                   f"{doc.get('config', '?')}", body, source=source)


def render_combined_profile(results: List[Tuple[Doc, str]]) -> str:
    """Fold the bundle's result documents through
    :func:`repro.obs.aggregate.aggregate_results` — the same aggregate
    the CLI's ``profile --sizes`` path renders."""
    from repro.obs.aggregate import aggregate_results
    from repro.sim.results import SimulationResult

    aggregate = aggregate_results(
        [SimulationResult.from_json_dict(doc) for doc, _ in results])
    body = table(["metric", "value"], [
        ("points", aggregate.points),
        ("instructions", aggregate.instructions),
        ("accesses", aggregate.accesses),
        ("ipc", fmt(aggregate.ipc)),
    ])
    body += ("<h3>combined cycle breakdown</h3>"
             + svg.stacked_bar(aggregate.cycle_breakdown))
    for name in sorted(aggregate.histograms):
        if not aggregate.histograms[name].get("count"):
            continue
        body += f"<h3>merged histogram: {esc(name)}</h3>"
        body += svg.histogram_chart(aggregate.histograms[name])
    return section("combined-profile",
                   f"Combined profile ({aggregate.points} runs)", body,
                   note="All result documents in this report folded into "
                        "one ProfileAggregate: histograms merged "
                        "losslessly, cycle breakdowns summed.")


def render_bench(doc: Doc, source: str) -> str:
    """A ``repro.bench/v2`` baseline document."""
    rows = []
    for entry in doc.get("benchmarks", []):
        metrics = entry.get("metrics") or {}
        rows.append([
            entry.get("name", "?"),
            entry.get("workload", "—"), entry.get("mmu", "—"),
            fmt(entry.get("seconds")),
            " ".join(f"{k}={fmt(v)}" for k, v in sorted(metrics.items()))
            or "—",
        ])
    body = table(["benchmark", "workload", "mmu", "seconds", "metrics"],
                 rows)
    ipcs = {entry.get("name", "?"): entry["metrics"]["ipc"]
            for entry in doc.get("benchmarks", [])
            if (entry.get("metrics") or {}).get("ipc")}
    if ipcs:
        body += "<h3>IPC by benchmark</h3>" + svg.bar_chart(ipcs)
    return section("bench-" + _slug(source), "Benchmark baseline", body,
                   source=source)


def render_trace(doc: Doc, source: str) -> str:
    """A ``repro.trace/v1`` analytics document: per-run attribution."""
    body = (f"<p>events: {esc(doc.get('events', 0))}, "
            f"runs: {len(doc.get('runs') or [])}, "
            f"skipped lines: {esc(doc.get('skipped_lines', 0))}</p>")
    runs = doc.get("runs") or []
    for index, run in enumerate(runs):
        detail = run.get("detail") or {}
        label = (f"{detail.get('workload', '?')}/"
                 f"{detail.get('mmu', '?')}")
        attribution = run.get("cycle_attribution") or {}
        body += (f"<h3>run {index}: {esc(label)} — "
                 f"{esc(run.get('accesses', 0))} accesses, "
                 f"{esc(run.get('total_cycles', 0))} cycles</h3>")
        body += svg.stacked_bar(attribution)
        hit_levels = run.get("hit_levels") or {}
        if hit_levels:
            total = sum(hit_levels.values()) or 1
            body += "<h4>hit-level mix</h4>" + svg.bar_chart(
                {level: count / total
                 for level, count in sorted(hit_levels.items())})
    overall = doc.get("overall") or {}
    if len(runs) > 1 and overall:
        body += ("<h3>overall (all runs combined)</h3>"
                 + svg.stacked_bar(overall.get("cycle_attribution") or {}))
    return section("trace-" + _slug(source), "Trace analytics", body,
                   source=source)


def render_inputs(sources: List[str]) -> str:
    items = "".join(f"<li><code>{esc(s)}</code></li>"
                    for s in dict.fromkeys(sources))
    return section("inputs", "Report inputs",
                   f"<ul>{items or '<li>(none)</li>'}</ul>")
