"""Trace records and helpers.

A trace is a generator of :class:`TraceRecord` — one memory reference plus
the count of non-memory instructions preceding it (derived from the
workload's memory-op ratio).  Generators are lazy so multi-million-access
experiments never materialize a trace in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, List


@dataclass(slots=True)
class TraceRecord:
    """One memory reference in a trace."""

    asid: int
    core: int
    va: int
    is_write: bool
    gap: int  # non-memory instructions since the previous reference


def interleave_round_robin(traces: List[Iterable[TraceRecord]]) -> Iterator[TraceRecord]:
    """Merge per-core traces round-robin (the paper's quad-core mixes).

    Stops when the shortest trace is exhausted so every core contributes
    equally — matching the fixed-instruction-budget methodology.
    """
    iterators = [iter(t) for t in traces]
    while True:
        for it in iterators:
            record = next(it, None)
            if record is None:
                return
            yield record


def take(trace: Iterable[TraceRecord], n: int) -> Iterator[TraceRecord]:
    """Yield at most ``n`` records, pulling no more than ``n`` from ``trace``."""
    return islice(trace, n)
