"""Redundant Memory Mappings (RMM) baseline [Karakostas et al., ISCA'15].

RMM places a small *range TLB* of variable-length segments on the critical
core-to-L1 path, redundantly with conventional paging.  Because it sits
before the L1, its size is latency-bound: 32 fully associative entries at
7 cycles (the paper's Section IV-A.2 description).  When an access misses
all 32 ranges, a range-table walk refills the range TLB.

The paper's Table III reports *segment misses per kilo-instruction* for
this design on workloads whose live-segment count exceeds 32 — the
thrashing that motivates many-segment translation.  This module
reproduces that measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.stats import StatGroup
from repro.osmodel.segments import OsSegmentTable, Segment, SegmentFault


@dataclass(slots=True)
class RangeTlbResult:
    """Outcome of one range-TLB access."""

    pa: int
    cycles: int
    hit: bool


class RangeTlb:
    """Fully associative, LRU cache of ``(base, limit, offset)`` ranges."""

    #: Cycles for the range-table walk that services a miss (HW walker
    #: over an in-memory range table, per the RMM paper's design).
    WALK_CYCLES = 50

    def __init__(self, os_table: OsSegmentTable, entries: int = 32,
                 latency: int = 7, stats: StatGroup | None = None) -> None:
        self.os_table = os_table
        self.entries = entries
        self.latency = latency
        self.stats = stats or StatGroup("rmm_range_tlb")
        # seg_id -> Segment, insertion-ordered for LRU.
        self._ranges: Dict[int, Segment] = {}

    def lookup(self, asid: int, va: int) -> RangeTlbResult:
        """Translate through the range TLB, walking the range table on miss."""
        self.stats.add("lookups")
        for seg_id, segment in self._ranges.items():
            if segment.asid == asid and segment.contains(va):
                del self._ranges[seg_id]
                self._ranges[seg_id] = segment
                self.stats.add("hits")
                return RangeTlbResult(va + segment.offset, self.latency, True)
        self.stats.add("misses")
        segment = self.os_table.find(asid, va)  # may raise SegmentFault
        self._fill(segment)
        return RangeTlbResult(va + segment.offset,
                              self.latency + self.WALK_CYCLES, False)

    def _fill(self, segment: Segment) -> None:
        if segment.seg_id in self._ranges:
            del self._ranges[segment.seg_id]
        elif len(self._ranges) >= self.entries:
            oldest = next(iter(self._ranges))
            del self._ranges[oldest]
            self.stats.add("evictions")
        self._ranges[segment.seg_id] = segment
        self.stats.add("fills")

    def invalidate(self, seg_id: int) -> None:
        self._ranges.pop(seg_id, None)

    def flush(self) -> None:
        self._ranges.clear()

    def miss_count(self) -> int:
        return self.stats["misses"]


class DirectSegment:
    """Single-segment baseline [Basu et al., ISCA'13].

    One ``(base, limit, offset)`` register set per process maps a single
    large contiguous region; anything outside falls back to conventional
    paging (signalled here by returning None so the caller can invoke its
    TLB path).
    """

    def __init__(self, stats: StatGroup | None = None) -> None:
        self.stats = stats or StatGroup("direct_segment")
        self._registers: Dict[int, Tuple[int, int, int]] = {}  # asid -> (base, limit, offset)

    def configure(self, asid: int, base: int, limit: int, offset: int) -> None:
        """Load the per-process segment registers (set up by the OS)."""
        if limit <= base:
            raise ValueError("segment limit must exceed base")
        self._registers[asid] = (base, limit, offset)

    def configure_from_segment(self, segment: Segment) -> None:
        """Load the registers from an OS segment record."""
        self.configure(segment.asid, segment.vbase, segment.vlimit,
                       segment.offset)

    def remove(self, segment: Segment) -> None:
        """Clear the registers that cover ``segment`` (the OS removed it)."""
        registers = self._registers.get(segment.asid)
        if (registers is not None and registers[0] < segment.vlimit
                and segment.vbase < registers[1]):
            del self._registers[segment.asid]

    def translate(self, asid: int, va: int) -> Optional[int]:
        """PA when inside the direct segment, else None (use paging)."""
        self.stats.add("lookups")
        registers = self._registers.get(asid)
        if registers is None:
            self.stats.add("fallbacks")
            return None
        base, limit, offset = registers
        if base <= va < limit:
            self.stats.add("hits")
            return va + offset
        self.stats.add("fallbacks")
        return None
