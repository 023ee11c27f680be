"""Self-contained HTML reports and the paper-fidelity scorecard.

The report subsystem folds every machine-readable artifact the repo
emits into one static HTML file:

* :mod:`repro.report.model` — the :class:`ReportBundle` collector and
  the ``repro.fidelity/v1`` measurement document;
* :mod:`repro.report.scorecard` — the declarative registry of the
  paper's quantitative claims and the pass/warn/fail evaluator;
* :mod:`repro.report.svg` — dependency-free inline SVG charts;
* :mod:`repro.report.sections` — one renderer per document kind;
* :mod:`repro.report.html` — the page assembler.

CLI surface: ``repro report build`` and the ``--report-out`` flag on
``run`` / ``compare`` / ``sweep``.  See ``docs/observability.md``,
"Reports and the fidelity scorecard".
"""

from repro.report.html import REPORT_SCHEMA, build_report, wrap_page
from repro.report.model import (FIDELITY_SCHEMA, ReportBundle, fidelity_doc,
                                load_bundle)
from repro.report.scorecard import (CLAIMS, HEADLINE_IDS, PaperClaim,
                                    ScoreRow, evaluate_scorecard)

__all__ = [
    "REPORT_SCHEMA", "FIDELITY_SCHEMA", "CLAIMS", "HEADLINE_IDS",
    "ReportBundle", "PaperClaim", "ScoreRow",
    "build_report", "wrap_page",
    "evaluate_scorecard", "fidelity_doc", "load_bundle",
]
