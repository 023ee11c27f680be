"""Many-segment delayed translation: the full Figure 5 flow.

On an LLC miss, the incoming ASID+VA:

1. probes the **segment cache** (2 MB granularity) — a hit completes the
   translation in 2 cycles;
2. on a miss, the HW walker traverses the OS's **index tree** through the
   **index cache** (≤ 4 node reads, 3 cycles each when they hit);
3. the resulting segment-ID indexes the **HW segment table** (7 cycles);
4. the address is checked against base/limit and translated with the
   offset; the segment cache is refilled.

The paper budgets ~20 cycles for the full walk (4 index-cache hits + the
segment table); that emerges here from the component latencies rather
than being hard-coded, and degrades naturally when index-cache misses
reach memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.params import SegmentTranslationConfig
from repro.common.stats import StatGroup
from repro.obs.histogram import Histogram
from repro.osmodel.kernel import Kernel
from repro.osmodel.segments import SegmentFault
from repro.segtrans.index_cache import IndexCache
from repro.segtrans.segment_cache import SegmentCache
from repro.segtrans.segment_table import HwSegmentTable


@dataclass(slots=True)
class SegmentTranslation:
    """Outcome of one delayed many-segment translation."""

    pa: int
    cycles: int
    sc_hit: bool
    index_nodes_read: int
    permissions: int


class ManySegmentTranslator:
    """Shared (per-chip) delayed translation engine."""

    def __init__(self, kernel: Kernel,
                 config: SegmentTranslationConfig | None = None,
                 memory_charge: Optional[Callable[[int], int]] = None,
                 use_segment_cache: bool = True,
                 index_cache_size: Optional[int] = None) -> None:
        self.config = config or SegmentTranslationConfig()
        self.kernel = kernel
        self.stats = StatGroup("many_segment")
        self.segment_cache = SegmentCache(self.config) if use_segment_cache else None
        self.index_cache = IndexCache(self.config, memory_charge,
                                      size_bytes=index_cache_size)
        self.hw_table = HwSegmentTable(kernel.segment_table, self.config)
        self._tree_generation = -1
        # Distributions over the translation path: index-tree nodes read
        # per full walk (the paper's ≤4-node argument) and end-to-end
        # translation latency including SC hits.
        self.depth_hist = Histogram("segment_walk_depth")
        self.latency_hist = Histogram("segment_translation_cycles")

    def _refresh_tree(self):
        tree = self.kernel.current_index_tree()
        if self.kernel.segment_table.generation != self._tree_generation:
            # The OS moved/rebuilt the tree; stale node blocks are useless.
            self.index_cache.flush()
            if self.segment_cache is not None:
                self.segment_cache.flush()
            self.hw_table.flush()
            self._tree_generation = self.kernel.segment_table.generation
        return tree

    def translate(self, asid: int, va: int) -> SegmentTranslation:
        """Translate an LLC-missing ASID+VA to PA (Figure 5)."""
        self.stats.add("translations")
        cycles = 0
        if self.segment_cache is not None:
            cycles += self.segment_cache.latency
            pa = self.segment_cache.lookup(asid, va)
            if pa is not None:
                self.stats.add("sc_hits")
                self.latency_hist.record(cycles)
                return SegmentTranslation(pa, cycles, True, 0, 0x3)

        tree = self._refresh_tree()
        lookup = tree.lookup(asid, va)
        for node_pa in lookup.node_addresses:
            cycles += self.index_cache.read_node(node_pa)
        self.stats.add("index_nodes_read", len(lookup.node_addresses))

        segment = None
        if lookup.seg_id is not None:
            segment, table_cycles = self.hw_table.read(lookup.seg_id)
            cycles += table_cycles
        if segment is None or segment.asid != asid or not segment.contains(va):
            # Not covered: raise to the OS (cold allocation, stale tree).
            # The rightmost key <= ASID+VA can belong to the preceding
            # address space, whose segment may span the same VA.
            self.stats.add("segment_faults")
            raise SegmentFault(asid, va)

        pa = va + segment.offset
        if self.segment_cache is not None:
            self.segment_cache.fill(asid, va, segment.vbase, segment.vlimit,
                                    segment.offset, segment.seg_id)
        self.stats.add("full_walks")
        self.depth_hist.record(len(lookup.node_addresses))
        self.latency_hist.record(cycles)
        return SegmentTranslation(pa, cycles, False, len(lookup.node_addresses),
                                  segment.permissions)

    def sc_hit_rate(self) -> float:
        if self.segment_cache is None:
            return 0.0
        return self.segment_cache.hit_rate()

    def index_cache_hit_rate(self) -> float:
        return self.index_cache.hit_rate()
