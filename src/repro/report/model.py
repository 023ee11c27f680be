"""The :class:`ReportBundle`: everything one report is built from.

A bundle collects the machine-readable documents the rest of the repo
already emits — ``repro.result/v1``, ``repro.compare/v1``,
``repro.sweep/v1``, ``repro.profile/v1``, ``repro.bench/v2`` benchmark
session records, ``repro.trace/v1`` analytics — plus the report-specific
``repro.fidelity/v1`` measurement documents: a flat map from scorecard
claim ids (:data:`repro.report.scorecard.CLAIMS`) to reproduced values,
for claims no standard document can express (energy reductions, table
fractions).

``add_doc`` dispatches on each document's ``schema`` key, so callers
never need to know what kind of file they are holding; ``load_bundle``
is the file-reading front the CLI uses, with an optional thread pool
whose output is folded back **in input order** — a bundle built with
``workers=N`` is identical to the serial one, which keeps report bytes
independent of parallelism.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple, Union

FIDELITY_SCHEMA = "repro.fidelity/v1"

PathLike = Union[str, Path]
Doc = Dict[str, Any]
#: Every bundle list stores ``(document, source label)`` pairs.
Sourced = Tuple[Doc, str]


def fidelity_doc(measurements: Dict[str, float],
                 note: str = "") -> Doc:
    """Assemble a ``repro.fidelity/v1`` measurement document."""
    doc: Doc = {"schema": FIDELITY_SCHEMA,
                "measurements": {key: float(value)
                                 for key, value in measurements.items()}}
    if note:
        doc["note"] = note
    return doc


@dataclass
class ReportBundle:
    """All inputs of one report, grouped by document kind."""

    results: List[Sourced] = field(default_factory=list)
    compares: List[Sourced] = field(default_factory=list)
    sweeps: List[Sourced] = field(default_factory=list)
    profiles: List[Sourced] = field(default_factory=list)
    bench: List[Sourced] = field(default_factory=list)
    traces: List[Sourced] = field(default_factory=list)
    #: claim id → ``(value, source label)``; later adds win.
    measurements: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: every source label, in the order it was added.
    sources: List[str] = field(default_factory=list)

    _DISPATCH = {
        "repro.result/v1": "results",
        "repro.compare/v1": "compares",
        "repro.sweep/v1": "sweeps",
        "repro.profile/v1": "profiles",
        "repro.bench/v2": "bench",
        "repro.trace/v1": "traces",
    }

    def __len__(self) -> int:
        return (len(self.results) + len(self.compares) + len(self.sweeps)
                + len(self.profiles) + len(self.bench) + len(self.traces)
                + len(self.measurements))

    def add_doc(self, doc: Doc, source: str = "(inline)") -> None:
        """File one document by its ``schema``; unknown schemas raise."""
        schema = doc.get("schema")
        if schema == FIDELITY_SCHEMA:
            for key, value in (doc.get("measurements") or {}).items():
                self.measurements[key] = (float(value), source)
            self.sources.append(source)
            return
        attr = self._DISPATCH.get(schema)
        if attr is None:
            raise ValueError(f"{source}: cannot report on schema {schema!r}")
        getattr(self, attr).append((doc, source))
        self.sources.append(source)

    def add_trace_files(self, paths: Iterable[PathLike],
                        top_n: int = 5) -> None:
        """Analyze raw JSONL trace shards into one ``repro.trace/v1``
        document (via :func:`repro.obs.traceview.read_trace`)."""
        from repro.obs.traceview import read_trace

        paths = [str(p) for p in paths]
        if not paths:
            return
        view = read_trace(paths, top_n=top_n)
        self.add_doc(view.to_json_dict(paths),
                     source=", ".join(paths))


def load_docs(paths: Iterable[PathLike],
              workers: int = 1) -> List[Tuple[str, Doc]]:
    """Read and parse JSON documents, preserving input order.

    ``workers > 1`` parses on a thread pool; results are still returned
    in input order, so downstream output is byte-identical to serial.
    """
    paths = [str(p) for p in paths]

    def load_one(path: str) -> Tuple[str, Doc]:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: not a JSON document")
        return path, doc

    if workers > 1 and len(paths) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(load_one, paths))
    return [load_one(path) for path in paths]


def load_bundle(paths: Iterable[PathLike] = (),
                trace_paths: Iterable[PathLike] = (),
                workers: int = 1) -> ReportBundle:
    """Build a bundle from files: the ``repro report build`` front."""
    bundle = ReportBundle()
    for path, doc in load_docs(paths, workers=workers):
        bundle.add_doc(doc, source=path)
    bundle.add_trace_files(trace_paths)
    return bundle
