"""The report subsystem: scorecard, SVG, bundle, HTML, CLI wiring.

The golden test builds the report from the *committed* sample documents
in ``examples/data/`` — the same inputs every checkout has — and pins
the acceptance properties: one self-contained file, no external
references, the full scorecard, and byte-identical output however many
workers parsed the inputs.
"""

import glob
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.report import (CLAIMS, HEADLINE_IDS, FIDELITY_SCHEMA,
                          REPORT_SCHEMA, PaperClaim, ReportBundle, ScoreRow,
                          build_report,
                          evaluate_scorecard, fidelity_doc, load_bundle)
from repro.report import svg

ROOT = Path(__file__).parent.parent
SAMPLES = sorted(glob.glob(str(ROOT / "examples" / "data" / "*.json")))

FAST = ["--accesses", "600", "--warmup", "200"]


def sample_bundle():
    bundle = ReportBundle()
    for path in SAMPLES:
        with open(path, encoding="utf-8") as handle:
            bundle.add_doc(json.load(handle), source=Path(path).name)
    return bundle


class TestGoldenReport:
    """The acceptance pins, from committed data only."""

    def test_samples_are_committed(self):
        kinds = {json.load(open(p))["schema"] for p in SAMPLES}
        assert "repro.compare/v1" in kinds
        assert "repro.sweep/v1" in kinds
        assert FIDELITY_SCHEMA in kinds

    def test_single_self_contained_file(self, tmp_path):
        out = tmp_path / "report.html"
        assert main(["report", "build", *SAMPLES, "--out", str(out)]) == 0
        page = out.read_text(encoding="utf-8")
        assert page.startswith("<!DOCTYPE html>")
        # Self-contained: no external requests of any kind.
        assert "http://" not in page and "https://" not in page
        assert "<script" not in page
        assert "<svg" in page          # charts are inline SVG

    def test_scorecard_complete(self, tmp_path):
        out = tmp_path / "report.html"
        main(["report", "build", *SAMPLES, "--out", str(out)])
        page = out.read_text(encoding="utf-8")
        assert "Paper-fidelity scorecard" in page
        # All three abstract claims, as headline tiles.
        assert len(HEADLINE_IDS) == 3
        for claim in CLAIMS:
            if claim.headline:
                assert claim.title in page
        # At least five figure/table sections.
        sections = [a for a in ("Figure 4", "Figure 7", "Figure 9",
                                "Figure 10", "Figure 11", "Table I",
                                "Table II", "Table III") if a in page]
        assert len(sections) >= 5

    def test_byte_identical_serial_vs_workers(self, tmp_path):
        serial, parallel = tmp_path / "serial.html", tmp_path / "par.html"
        assert main(["report", "build", *SAMPLES, "--out", str(serial)]) == 0
        assert main(["report", "build", *SAMPLES, "--workers", "3",
                     "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_committed_samples_reproduce_headlines(self):
        rows = {r.claim.id: r for r in evaluate_scorecard(sample_bundle())}
        for claim_id in HEADLINE_IDS:
            assert rows[claim_id].measured is not None, claim_id
            assert rows[claim_id].badge == "pass", (
                claim_id, rows[claim_id].deviation_pct)


class TestScorecard:
    def test_registry_covers_every_artifact(self):
        artifacts = {c.artifact for c in CLAIMS}
        for artifact in ("Abstract", "Figure 4", "Figure 7", "Figure 9",
                         "Figure 10", "Figure 11", "Table I", "Table II",
                         "Table III"):
            assert artifact in artifacts

    def test_badges(self):
        claim = PaperClaim(id="x", artifact="A", title="t", paper_value=10.0,
                           unit="%", source="s", warn_pct=25.0, fail_pct=60.0)
        assert ScoreRow(claim=claim).badge == "no-data"
        assert ScoreRow(claim=claim, measured=11.0).badge == "pass"
        assert ScoreRow(claim=claim, measured=14.0).badge == "warn"
        assert ScoreRow(claim=claim, measured=17.0).badge == "fail"
        # Tolerances are symmetric: overshoot grades like undershoot.
        assert ScoreRow(claim=claim, measured=6.0).badge == "warn"

    def test_zero_paper_value_deviation(self):
        claim = PaperClaim(id="x", artifact="A", title="t", paper_value=0.0,
                           unit="%", source="s")
        assert ScoreRow(claim=claim, measured=0.0).deviation_pct == 0.0
        assert ScoreRow(claim=claim, measured=1.0).badge == "fail"

    def test_explicit_measurement_wins_over_derived(self):
        bundle = sample_bundle()
        derived = {r.claim.id: r.measured
                   for r in evaluate_scorecard(bundle)}
        bundle.add_doc(fidelity_doc({"abstract.native_speedup": 10.7}),
                       source="override")
        rows = {r.claim.id: r for r in evaluate_scorecard(bundle)}
        assert rows["abstract.native_speedup"].measured == 10.7
        assert rows["abstract.native_speedup"].source == "override"
        # The untouched claims keep their derived values.
        assert rows["fig9.native_speedup"].measured == pytest.approx(
            derived["fig9.native_speedup"])

    def test_empty_bundle_scores_all_no_data(self):
        rows = evaluate_scorecard(ReportBundle())
        assert len(rows) == len(CLAIMS)
        assert all(r.badge == "no-data" for r in rows)


class TestBundle:
    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="cannot report"):
            ReportBundle().add_doc({"schema": "bogus/v9"}, source="x")

    def test_load_bundle_counts_sources(self):
        bundle = load_bundle(SAMPLES)
        assert bundle.sources == [str(p) for p in SAMPLES]
        assert len(bundle.compares) == 3
        assert len(bundle.sweeps) == 1
        assert bundle.measurements  # fidelity_sample.json folded in

    def test_fidelity_doc_roundtrip(self):
        doc = fidelity_doc({"a.b": 1.5}, note="n")
        bundle = ReportBundle()
        bundle.add_doc(doc, source="s")
        assert bundle.measurements["a.b"] == (1.5, "s")


class TestSvgGuards:
    """Empty/degenerate inputs render placeholders, never broken markup."""

    def test_bar_chart_empty(self):
        assert "(no data)" in svg.bar_chart({})

    def test_bar_chart_no_positive_values(self):
        assert "(no positive values)" in svg.bar_chart({"a": 0.0, "b": -1})

    def test_stacked_bar_empty(self):
        assert "(empty breakdown)" in svg.stacked_bar({})
        assert "(empty breakdown)" in svg.stacked_bar({"a": 0})

    def test_histogram_empty(self):
        out = svg.histogram_chart({"name": "h", "count": 0, "buckets": []})
        assert "(empty histogram)" in out

    def test_sparkline_degenerate(self):
        assert "—" in svg.sparkline([])
        single = svg.sparkline([2.0])
        flat = svg.sparkline([3.0, 3.0, 3.0])
        assert "<svg" in single and "<svg" in flat

    def test_charts_are_deterministic_markup(self):
        chart = svg.bar_chart({"a": 1.0, "b": 2.5}, reference=1.0)
        assert chart == svg.bar_chart({"a": 1.0, "b": 2.5}, reference=1.0)
        assert "xmlns" not in chart  # would carry an http:// URL


class TestCliWiring:
    def test_report_out_on_compare(self, tmp_path):
        out = tmp_path / "compare.html"
        assert main(["compare", "stream", "--configs",
                     "baseline,hybrid_tlb", *FAST,
                     "--report-out", str(out)]) == 0
        page = out.read_text(encoding="utf-8")
        assert REPORT_SCHEMA in page
        assert "hybrid_tlb" in page


class TestBuildReportApi:
    def test_empty_bundle_still_renders(self):
        page = build_report(ReportBundle())
        assert "Paper-fidelity scorecard" in page
        assert "no-data" in page
