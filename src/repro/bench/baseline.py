"""Benchmark baseline documents: the ``repro.bench/v2`` schema.

A baseline is the committed record one PR leaves for the next: what the
model produced (per-benchmark *metrics* — IPC, MPKI, miss rates) and
what it cost to produce (per-benchmark wall-clock seconds).  The layout
separates the two concerns:

* **identity** — ``schema``, the ``benchmarks`` list (name, seconds,
  ``metrics``, job parameters and fingerprints), ``total_seconds``, and
  any ``artifact_lines``;
* **provenance** — everything volatile (``generated_unix``, ``host``,
  ``python``, ``git_sha``) lives under one ``meta`` key, which the
  regression gate ignores entirely, so committed baselines diff cleanly
  across machines and re-records.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

BENCH_SCHEMA = "repro.bench/v2"

#: Environment fields that never participate in a regression check.
VOLATILE_FIELDS = ("generated_unix", "host", "python", "git_sha")


def git_sha(root: Union[str, Path, None] = None) -> Optional[str]:
    """The repository HEAD commit, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def collect_meta() -> Dict[str, Any]:
    """The volatile provenance block — recorded, never compared."""
    return {
        "generated_unix": time.time(),
        "host": platform.node(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def make_baseline(entries: Iterable[Dict[str, Any]],
                  artifact_lines: Iterable[str] = ()) -> Dict[str, Any]:
    """Assemble a ``repro.bench/v2`` document from benchmark entries."""
    benchmarks: List[Dict[str, Any]] = []
    for entry in entries:
        entry = dict(entry)
        entry.setdefault("metrics", {})
        benchmarks.append(entry)
    return {
        "schema": BENCH_SCHEMA,
        "meta": collect_meta(),
        "benchmarks": benchmarks,
        "total_seconds": sum(e.get("seconds", 0.0) for e in benchmarks),
        "artifact_lines": list(artifact_lines),
    }


def load_baseline(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a ``repro.bench/v2`` baseline document."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a baseline document")
    schema = doc.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(f"{path}: expected {BENCH_SCHEMA}, got {schema!r}")
    doc.setdefault("meta", {})
    doc.setdefault("benchmarks", [])
    return doc


def save_baseline(doc: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Write a baseline document atomically (temp file + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(doc, indent=2) + "\n")
    os.replace(tmp, path)
    return path

