"""Cross-run metrics store: every finished run, queryable forever.

The bench gate compares *one* baseline against *one* current document;
this module keeps the whole history.  A :class:`MetricsStore` is a
single SQLite file (stdlib ``sqlite3``, no dependencies) with two
tables:

* ``runs``    — one row per ingested run, keyed by its **run key** (the
  fingerprint of the manifest identity — same inputs, same key), with
  the manifest provenance columns;
* ``metrics`` — the flat ``(run, metric name, value)`` triples the
  queries and trends read.

Ingest understands every machine-readable document the CLI emits —
``repro.result/v1`` (``repro run --json``), ``repro.compare/v1``,
``repro.sweep/v1`` and ``repro.bench/v2`` baselines — so history
accrues from whatever artifacts a campaign already produces.  Re-
ingesting the same run upserts (the key is deterministic), which makes
ingestion idempotent.

``repro db ingest | query | trend`` is the human surface; the bench
gate reaches in through :meth:`MetricsStore.metric_history` to annotate
its report with how a metric has moved across recorded history, not
just against one baseline.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

STORE_SCHEMA = "repro.store/v1"

_TABLES = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_key         TEXT PRIMARY KEY,
    workload        TEXT NOT NULL,
    mmu             TEXT NOT NULL,
    config_hash     TEXT,
    seed            INTEGER,
    accesses        INTEGER,
    warmup          INTEGER,
    package_version TEXT,
    started_at      TEXT,
    duration_s      REAL,
    source          TEXT,
    ingested_unix   REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS metrics (
    run_key TEXT NOT NULL REFERENCES runs(run_key) ON DELETE CASCADE,
    name    TEXT NOT NULL,
    value   REAL NOT NULL,
    PRIMARY KEY (run_key, name)
);
CREATE INDEX IF NOT EXISTS metrics_by_name ON metrics(name);
"""


def run_key(identity: Dict[str, Any]) -> str:
    """Stable short hash of a manifest identity — the store's run key.

    Same construction as :func:`~repro.obs.manifest.config_fingerprint`
    over :meth:`RunManifest.identity`, so two ingests of the same run
    (even from different document kinds) collapse to one row.
    """
    text = json.dumps(identity, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunRow:
    """One ingested run with its metric values."""

    run_key: str
    workload: str
    mmu: str
    package_version: Optional[str]
    started_at: Optional[str]
    duration_s: Optional[float]
    source: Optional[str]
    ingested_unix: float
    metrics: Dict[str, float]


class MetricsStore:
    """SQLite-backed history of run manifests and final metrics."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._db = sqlite3.connect(str(self.path))
        self._db.executescript(_TABLES)
        self._db.execute(
            "INSERT OR IGNORE INTO store_meta(key, value) VALUES(?, ?)",
            ("schema", STORE_SCHEMA))
        self._db.commit()

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def ingest(self, doc: Dict[str, Any],
               source: Optional[str] = None) -> List[str]:
        """Ingest one machine-readable document; returns the run keys.

        Dispatches on the document's ``schema``: result, compare and
        sweep documents decompose into their per-run results; a bench
        baseline contributes one pseudo-run per benchmark entry (keyed
        by the entry's recorded job fingerprint).
        """
        schema = doc.get("schema")
        if schema == "repro.result/v1":
            return [self.ingest_result(doc, source=source)]
        if schema == "repro.compare/v1":
            return [self.ingest_result(result, source=source, name=name)
                    for name, result in doc.get("results", {}).items()]
        if schema == "repro.sweep/v1":
            results = doc.get("results", [])
            sizes = doc.get("sizes") or []
            names = ([f"size={size}" for size in sizes]
                     if len(sizes) == len(results)
                     else [None] * len(results))
            return [self.ingest_result(result, source=source, name=name)
                    for result, name in zip(results, names)]
        if schema == "repro.bench/v2":
            return self.ingest_baseline(doc, source=source)
        raise ValueError(f"cannot ingest schema {schema!r}")

    def ingest_result(self, doc: Dict[str, Any],
                      source: Optional[str] = None,
                      name: Optional[str] = None) -> str:
        """Ingest one ``repro.result/v1`` document (manifest required).

        ``name`` is the configuration name the document was produced
        under (a compare document's results key, a sweep point's swept
        value, the CLI's recorded ``config``).  It enters the run key:
        the manifest alone records the MMU *class* (two hybrid variants
        both say ``hybrid``) and would collapse genuinely different
        configurations into one row.
        """
        manifest = doc.get("manifest")
        if not manifest:
            raise ValueError("result document carries no manifest; "
                             "cannot derive a stable run key")
        config_name = name if name is not None else doc.get("config")
        identity = {key: manifest.get(key) for key in
                    ("schema", "workload", "mmu", "config_hash", "seed",
                     "accesses", "warmup", "package_version")}
        if config_name is not None:
            identity["config_name"] = config_name
        key = run_key(identity)
        metrics = _metrics_from_result_doc(doc)
        self._upsert(
            key,
            workload=doc.get("workload", manifest.get("workload", "?")),
            mmu=config_name or doc.get("mmu", manifest.get("mmu", "?")),
            config_hash=manifest.get("config_hash"),
            seed=manifest.get("seed"),
            accesses=manifest.get("accesses"),
            warmup=manifest.get("warmup"),
            package_version=manifest.get("package_version"),
            started_at=manifest.get("started_at"),
            duration_s=manifest.get("duration_s"),
            source=source, metrics=metrics)
        return key

    def ingest_baseline(self, doc: Dict[str, Any],
                        source: Optional[str] = None) -> List[str]:
        """Ingest a ``repro.bench/v2`` baseline, one row per entry."""
        keys: List[str] = []
        meta = doc.get("meta") or {}
        for entry in doc.get("benchmarks", []):
            metrics = {name: float(value)
                       for name, value in (entry.get("metrics") or {}).items()}
            if "seconds" in entry:
                metrics.setdefault("seconds", float(entry["seconds"]))
            if not metrics:
                continue
            key = entry.get("fingerprint") or run_key(
                {"bench": entry.get("name")})
            self._upsert(
                key,
                workload=entry.get("workload", entry.get("name", "?")),
                mmu=entry.get("mmu", "-"),
                config_hash=entry.get("config_hash"),
                seed=entry.get("seed"),
                accesses=entry.get("accesses"),
                warmup=entry.get("warmup"),
                package_version=None,
                started_at=_iso_from_unix(meta.get("generated_unix")),
                duration_s=entry.get("seconds"),
                source=source, metrics=metrics)
            keys.append(key)
        return keys

    def _upsert(self, key: str, *, workload: str, mmu: str,
                config_hash: Optional[str], seed: Optional[int],
                accesses: Optional[int], warmup: Optional[int],
                package_version: Optional[str], started_at: Optional[str],
                duration_s: Optional[float], source: Optional[str],
                metrics: Dict[str, float]) -> None:
        self._db.execute(
            "INSERT OR REPLACE INTO runs(run_key, workload, mmu, "
            "config_hash, seed, accesses, warmup, package_version, "
            "started_at, duration_s, source, ingested_unix) "
            "VALUES(?,?,?,?,?,?,?,?,?,?,?,?)",
            (key, workload, mmu, config_hash, seed, accesses, warmup,
             package_version, started_at, duration_s, source, time.time()))
        self._db.execute("DELETE FROM metrics WHERE run_key = ?", (key,))
        self._db.executemany(
            "INSERT INTO metrics(run_key, name, value) VALUES(?,?,?)",
            [(key, name, float(value))
             for name, value in sorted(metrics.items())])
        self._db.commit()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        (count,) = self._db.execute("SELECT COUNT(*) FROM runs").fetchone()
        return int(count)

    #: Query orderings: ``ingested`` is newest-ingest-first (the
    #: ``db query`` view); ``started`` sorts oldest-started-first with
    #: the configuration name and run key as tie-breaks, so outputs
    #: built on it are stable however runs entered the store.
    _ORDERINGS = {
        "ingested": " ORDER BY ingested_unix DESC, run_key",
        "started": " ORDER BY COALESCE(started_at, ''), mmu, run_key",
    }

    def query(self, workload: Optional[str] = None,
              mmu: Optional[str] = None,
              metric: Optional[str] = None,
              order: str = "ingested") -> List[RunRow]:
        """Ingested runs, optionally filtered.

        ``metric`` restricts the per-row metric maps to one name and
        drops runs that never recorded it.  ``order`` picks one of
        :data:`_ORDERINGS` (default: newest ingest first).
        """
        clauses, params = [], []          # type: ignore[var-annotated]
        if workload is not None:
            clauses.append("workload = ?")
            params.append(workload)
        if mmu is not None:
            clauses.append("mmu = ?")
            params.append(mmu)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        rows = self._db.execute(
            "SELECT run_key, workload, mmu, package_version, started_at, "
            "duration_s, source, ingested_unix FROM runs" + where +
            self._ORDERINGS[order], params).fetchall()
        out: List[RunRow] = []
        for row in rows:
            metrics = dict(self._db.execute(
                "SELECT name, value FROM metrics WHERE run_key = ? "
                "ORDER BY name", (row[0],)).fetchall())
            if metric is not None:
                if metric not in metrics:
                    continue
                metrics = {metric: metrics[metric]}
            out.append(RunRow(run_key=row[0], workload=row[1], mmu=row[2],
                              package_version=row[3], started_at=row[4],
                              duration_s=row[5], source=row[6],
                              ingested_unix=row[7], metrics=metrics))
        return out

    def metric_names(self) -> List[str]:
        return [name for (name,) in self._db.execute(
            "SELECT DISTINCT name FROM metrics ORDER BY name")]

    def trend(self, metric: str, workload: Optional[str] = None,
              mmu: Optional[str] = None,
              limit: Optional[int] = None) -> List[Tuple[RunRow, float]]:
        """``(run, value)`` history of one metric, oldest → newest.

        Ordered by each run's recorded start time (then configuration
        name, then run key), **not** by ingest order — re-ingesting the
        same documents in a different order yields the same trend.
        Optionally capped to the last ``limit`` points.
        """
        rows = [(run, run.metrics[metric])
                for run in self.query(workload=workload, mmu=mmu,
                                      metric=metric, order="started")]
        if limit is not None and limit > 0:
            rows = rows[-limit:]
        return rows

    def metric_history(self, workload: str, mmu: str, metric: str,
                       limit: int = 5) -> List[float]:
        """The last ``limit`` recorded values of one metric for one
        (workload, MMU) — what the bench gate folds into its report."""
        return [value for _, value in
                self.trend(metric, workload=workload, mmu=mmu, limit=limit)]

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "MetricsStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #

def _iso_from_unix(unix: Optional[float]) -> Optional[str]:
    if unix is None:
        return None
    from datetime import datetime, timezone

    return datetime.fromtimestamp(unix, timezone.utc).isoformat()


def _metrics_from_result_doc(doc: Dict[str, Any]) -> Dict[str, float]:
    """The flat metric set of one ``repro.result/v1`` document — the
    same quantities the bench suite gates, pulled from the JSON side."""
    metrics: Dict[str, float] = {
        "ipc": float(doc.get("ipc", 0.0)),
        "cycles": float(doc.get("cycles", 0.0)),
        "instructions": float(doc.get("instructions", 0)),
        "accesses": float(doc.get("accesses", 0)),
    }
    if "llc_miss_rate" in doc:
        metrics["llc_miss_rate"] = float(doc["llc_miss_rate"])
    stats = doc.get("stats", {})
    delayed = stats.get("delayed_tlb", {})
    instructions = metrics["instructions"]
    if delayed and instructions > 0:
        metrics["delayed_tlb_mpki"] = (
            1000.0 * float(delayed.get("misses", 0)) / instructions)
    hybrid = stats.get("hybrid", {})
    if hybrid.get("accesses"):
        metrics["tlb_bypass_rate"] = (
            float(hybrid.get("tlb_bypasses", 0)) / float(hybrid["accesses"]))
    return metrics


def format_runs(rows: Iterable[RunRow],
                metric: Optional[str] = None) -> str:
    """Markdown table of query results (the ``repro db query`` output)."""
    from repro.sim.report import markdown_table

    rows = list(rows)
    if not rows:
        return "(no runs recorded)"
    if metric is not None:
        table = [[r.run_key, r.workload, r.mmu, r.package_version or "-",
                  f"{r.metrics.get(metric, float('nan')):.6g}",
                  r.started_at or "-"] for r in rows]
        return markdown_table(
            ["run", "workload", "mmu", "version", metric, "started"], table)
    table = [[r.run_key, r.workload, r.mmu, r.package_version or "-",
              " ".join(f"{name}={value:.6g}"
                       for name, value in sorted(r.metrics.items())),
              r.started_at or "-"] for r in rows]
    return markdown_table(
        ["run", "workload", "mmu", "version", "metrics", "started"], table)


def format_trend(history: List[Tuple[RunRow, float]], metric: str) -> str:
    """Text rendering of one metric's history, with a spark bar.

    The spark rendering is :func:`repro.sim.report.spark_line`: a
    single-point (or flat) history draws mid-height blocks — a level
    trend — instead of collapsing to the bottom glyph.
    """
    from repro.sim.report import spark_line

    if not history:
        return f"(no history for {metric})"
    values = [value for _, value in history]
    lo, hi = min(values), max(values)
    spark = spark_line(values)
    lines = [f"{metric}: {spark}  "
             f"(n={len(values)}, min={lo:.6g}, max={hi:.6g}, "
             f"latest={values[-1]:.6g})"]
    for run, value in history:
        lines.append(f"  {run.workload}/{run.mmu} {run.run_key} "
                     f"{value:.6g}  "
                     f"[{run.package_version or '-'}] "
                     f"{run.started_at or run.source or ''}".rstrip())
    return "\n".join(lines)
