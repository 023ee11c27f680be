"""Lightweight counter framework used by every simulated structure.

Structures increment named counters through a :class:`StatGroup`; the
simulator collects groups into a :class:`StatRegistry` whose snapshot is a
plain nested dict suitable for reporting, assertion in tests, and diffing
between configurations.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, Mapping


class StatGroup:
    """A named bundle of integer counters with derived-ratio helpers."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: Live counters; hot paths bind this dict and increment in place.
        self.counters: Dict[str, int] = defaultdict(int)

    def add(self, counter: str, amount: int = 1) -> None:
        """Increment ``counter`` by ``amount``."""
        self.counters[counter] += amount

    def __getitem__(self, counter: str) -> int:
        return self.counters.get(counter, 0)

    def __contains__(self, counter: str) -> bool:
        return counter in self.counters

    def __iter__(self) -> Iterator[str]:
        return iter(self.counters)

    def ratio(self, numerator: str, denominator: str) -> float:
        """Return ``numerator / denominator``, or 0.0 when the denominator is 0."""
        denom = self.counters.get(denominator, 0)
        if not denom:
            return 0.0
        return self.counters.get(numerator, 0) / denom

    def hit_rate(self, hits: str = "hits", misses: str = "misses") -> float:
        """Return hits / (hits + misses), or 0.0 with no accesses."""
        h = self.counters.get(hits, 0)
        m = self.counters.get(misses, 0)
        total = h + m
        return h / total if total else 0.0

    def reset(self) -> None:
        """Zero every counter."""
        self.counters.clear()

    def snapshot(self) -> Dict[str, int]:
        """Return a plain-dict copy of the counters."""
        return dict(self.counters)

    def snapshot_with_ratios(self) -> Dict[str, object]:
        """Counters plus derived ratios, for machine-readable exports.

        When both ``hits`` and ``misses`` exist a ``hit_rate`` key is
        added (and analogously for any ``<x>_hits``/``<x>_misses`` pair),
        so JSON consumers need not recompute the obvious ratios.
        """
        return derive_ratios(self.snapshot())

    def merge(self, other: "StatGroup") -> None:
        """Accumulate another group's counters into this one."""
        for counter, value in other.counters.items():
            self.counters[counter] += value

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        return f"StatGroup({self.name!r}: {inner})"


class StatRegistry:
    """A collection of :class:`StatGroup` objects keyed by name."""

    def __init__(self) -> None:
        self._groups: Dict[str, StatGroup] = {}

    def group(self, name: str) -> StatGroup:
        """Return the group called ``name``, creating it on first use."""
        if name not in self._groups:
            self._groups[name] = StatGroup(name)
        return self._groups[name]

    def register(self, group: StatGroup) -> StatGroup:
        """Adopt an externally created group (e.g. a structure's own stats)."""
        self._groups[group.name] = group
        return group

    def __getitem__(self, name: str) -> StatGroup:
        return self._groups[name]

    def __contains__(self, name: str) -> bool:
        return name in self._groups

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Return ``{group: {counter: value}}`` for every registered group."""
        return {name: g.snapshot() for name, g in sorted(self._groups.items())}

    def snapshot_with_ratios(self) -> Dict[str, Dict[str, object]]:
        """Like :meth:`snapshot`, with derived ratios in every group."""
        return {name: g.snapshot_with_ratios()
                for name, g in sorted(self._groups.items())}

    def reset(self) -> None:
        """Zero every counter in every group."""
        for group in self._groups.values():
            group.reset()


def derive_ratios(snapshot: Mapping[str, int]) -> Dict[str, object]:
    """Return ``snapshot`` augmented with hit-rate ratios where derivable.

    A plain ``hits``/``misses`` pair yields ``hit_rate``; a prefixed
    ``<x>_hits``/``<x>_misses`` pair yields ``<x>_hit_rate``.  The input
    counters are preserved untouched.
    """
    out: Dict[str, object] = dict(snapshot)
    for key in list(snapshot):
        if key == "hits" or key.endswith("_hits"):
            prefix = key[:-4]                       # "hits" -> "", "x_hits" -> "x_"
            misses_key = prefix + "misses"
            if misses_key in snapshot:
                total = snapshot[key] + snapshot[misses_key]
                if total:
                    out[prefix + "hit_rate"] = snapshot[key] / total
    return out


def mpki(misses: int, instructions: int) -> float:
    """Misses per kilo-instruction, the paper's unit for TLB/segment misses."""
    if instructions <= 0:
        return 0.0
    return 1000.0 * misses / instructions


def format_table(headers: Mapping[str, str], rows: list) -> str:
    """Render rows (sequences matching ``headers`` order) as an ASCII table."""
    cols = list(headers.values())
    widths = [len(c) for c in cols]
    rendered_rows = []
    for row in rows:
        rendered = [str(cell) for cell in row]
        widths = [max(w, len(c)) for w, c in zip(widths, rendered)]
        rendered_rows.append(rendered)
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*cols), fmt.format(*["-" * w for w in widths])]
    lines.extend(fmt.format(*row) for row in rendered_rows)
    return "\n".join(lines)
