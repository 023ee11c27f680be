"""Assemble the self-contained HTML report page.

One call — :func:`build_report` — turns a
:class:`~repro.report.model.ReportBundle` into a single static HTML
string: inline CSS, inline SVG, zero scripts, zero external requests
(no ``http(s)://`` reference anywhere, pinned by a golden test).  The
body carries no timestamps and no randomness, so identical inputs
produce byte-identical reports however the bundle was loaded.
"""

from __future__ import annotations

from typing import List

from repro.report import sections
from repro.report.model import ReportBundle
from repro.report.scorecard import evaluate_scorecard

#: Version tag embedded in the page's meta generator tag.
REPORT_SCHEMA = "repro.report/v1"

_CSS = """
:root { color-scheme: light; }
body { font: 14px/1.5 system-ui, sans-serif; margin: 0 auto;
       max-width: 960px; padding: 0 24px 48px; color: #1c2128; }
h1 { font-size: 24px; border-bottom: 2px solid #4878a8;
     padding-bottom: 8px; }
h2 { font-size: 19px; margin-top: 36px; border-bottom: 1px solid #d5d9e0;
     padding-bottom: 4px; }
h3 { font-size: 15px; margin-bottom: 6px; }
code { background: #f0f2f5; padding: 1px 4px; border-radius: 3px;
       font-size: 12px; }
table { border-collapse: collapse; margin: 12px 0; width: 100%; }
th, td { border: 1px solid #d5d9e0; padding: 5px 9px; text-align: left;
         font-size: 13px; }
th { background: #f0f2f5; }
.badge { display: inline-block; padding: 1px 9px; border-radius: 10px;
         font-size: 12px; font-weight: 600; color: #fff; }
.badge-pass { background: #2e8540; }
.badge-warn { background: #c8841a; }
.badge-fail { background: #c0392b; }
.badge-no-data { background: #8a8f98; }
.headline-row { display: flex; gap: 16px; flex-wrap: wrap;
                margin: 20px 0; }
.headline { flex: 1 1 260px; border: 1px solid #d5d9e0; border-radius: 8px;
            padding: 14px 16px; border-top-width: 4px; }
.headline-pass { border-top-color: #2e8540; }
.headline-warn { border-top-color: #c8841a; }
.headline-fail { border-top-color: #c0392b; }
.headline-no-data { border-top-color: #8a8f98; }
.headline-value { font-size: 22px; font-weight: 700; margin: 4px 0; }
.headline-paper, .headline-dev, .source { color: #5b6069; font-size: 12px; }
.headline-title { font-size: 13px; margin-bottom: 6px; }
nav { margin: 16px 0; font-size: 13px; }
nav a { margin-right: 12px; color: #35618e; }
section { margin-bottom: 8px; }
.summary { font-size: 13px; }
"""


def wrap_page(title: str, body: str) -> str:
    """The standalone-page shell every report variant shares."""
    return ("<!DOCTYPE html>\n<html lang=\"en\"><head>"
            "<meta charset=\"utf-8\">"
            f"<meta name=\"generator\" content=\"{REPORT_SCHEMA}\">"
            f"<title>{sections.esc(title)}</title>"
            f"<style>{_CSS}</style></head><body>"
            f"<h1>{sections.esc(title)}</h1>{body}</body></html>\n")


def _nav(entries: List[tuple]) -> str:
    links = "".join(f'<a href="#{slug}">{sections.esc(label)}</a>'
                    for slug, label in entries)
    return f"<nav>{links}</nav>"


def build_report(bundle: ReportBundle,
                 title: str = "Hybrid virtual caching — "
                              "reproduction report") -> str:
    """Render one bundle into the complete self-contained page."""
    rows = evaluate_scorecard(bundle)
    parts: List[str] = []
    nav_entries = [("scorecard", "scorecard")]

    parts.append(sections.render_headline_banner(rows))
    parts.append(sections.render_scorecard(rows))
    parts.extend(sections.render_artifact_sections(rows, bundle))
    nav_entries.append(("artifact-figure-4", "figures"))

    for doc, source in bundle.compares:
        parts.append(sections.render_compare(doc, source))
    for doc, source in bundle.sweeps:
        parts.append(sections.render_sweep(doc, source))
    for doc, source in bundle.results:
        parts.append(sections.render_result(doc, source))
    if len(bundle.results) > 1:
        parts.append(sections.render_combined_profile(bundle.results))
        nav_entries.append(("combined-profile", "profile"))
    for doc, source in bundle.profiles:
        parts.append(sections.render_profile(doc, source))
    for doc, source in bundle.bench:
        parts.append(sections.render_bench(doc, source))
    for doc, source in bundle.traces:
        parts.append(sections.render_trace(doc, source))
    parts.append(sections.render_inputs(bundle.sources))
    nav_entries.append(("inputs", "inputs"))

    body = _nav(nav_entries) + "".join(parts)
    return wrap_page(title, body)
