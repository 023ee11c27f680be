"""Hybrid virtual caching MMU — the paper's proposed architecture.

Per-access flow (Figure 1):

1. The per-process **synonym filter** is probed in parallel with the L1
   access, so for non-synonym addresses it exposes no latency.
2. **Non-synonym** (the common case): the access proceeds through the
   whole hierarchy under ``ASID+VA``.  Translation happens only if the
   LLC misses, via a pluggable **delayed translation engine** — a large
   page-granularity delayed TLB (Section IV-A) or many-segment
   translation (Section IV-C).
3. **Synonym candidates**: a small conventional **synonym TLB** translates
   up-front.  True synonyms proceed under their physical address; false
   positives hit a *non-synonym marker entry* and fall back to the
   ASID+VA path (first occurrence pays a page walk to discover this).
4. Permission bits ride in every cached line; a write to a r/o line
   raises a permission fault resolved by the OS (copy-on-write for
   content-shared pages, Section III-D).
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple

from repro.common.address import (
    PAGE_MASK,
    PAGE_SHIFT,
    physical_block_key,
    virtual_block_key,
    virtual_page_key,
)
from repro.common.params import SystemConfig
from repro.common.stats import StatGroup
from repro.core.mmu_base import AccessOutcome, MmuBase
from repro.obs.events import (
    STAGE_DELAYED_TLB,
    STAGE_FILTER,
    STAGE_PAGE_WALK,
    STAGE_SEGMENT_WALK,
    STAGE_SYNONYM_TLB,
)
from repro.obs.histogram import Histogram
from repro.osmodel.kernel import Kernel, SegmentationViolation
from repro.osmodel.pagetable import PageFault
from repro.osmodel.segments import SegmentFault
from repro.segtrans.many_segment import ManySegmentTranslator
from repro.tlb.base import SetAssociativeTlb, TlbEntry
from repro.tlb.walker import PageWalker

#: Cycles charged for an OS permission-fault (CoW) trap-and-fix.
COW_FAULT_CYCLES = 2000


class DelayedEngine(Protocol):
    """Delayed translation engines: ASID+VA → (PA, cycles, permissions)."""

    def translate(self, asid: int, va: int) -> Tuple[int, int, int]: ...

    def shootdown(self, asid: int, page_va: int) -> None: ...


class DelayedTlbEngine:
    """Page-granularity delayed translation (Figure 4's subject)."""

    def __init__(self, kernel: Kernel, mmu: "HybridMmu") -> None:
        self.kernel = kernel
        self.mmu = mmu
        self.tlb = SetAssociativeTlb(mmu.config.delayed_tlb, "delayed_tlb")
        self.walker = PageWalker(mmu.config.walker, kernel.pte_path,
                                 lambda pa: mmu.charge_physical_read(0, pa),
                                 stats=StatGroup("delayed_walker"))
        mmu.stats.register(self.tlb.stats)
        mmu.stats.register(self.walker.stats)
        self.latency_hist = mmu.register_histogram(
            Histogram("delayed_tlb_engine_cycles"))
        mmu.register_histogram(self.walker.cycles_hist)

    def translate(self, asid: int, va: int) -> Tuple[int, int, int]:
        page_key = virtual_page_key(asid, va)
        entry = self.tlb.lookup(page_key)
        cycles = self.tlb.latency
        hit = entry is not None
        if hit:
            pa = (entry.pfn << PAGE_SHIFT) | (va & PAGE_MASK)
            permissions = entry.permissions
        else:
            pa, walk_cycles, permissions = self.walker.translate(asid, va)
            cycles += walk_cycles
            self.tlb.fill(TlbEntry(page_key, pa >> PAGE_SHIFT, True,
                                   permissions))
        self.latency_hist.record(cycles)
        if self.mmu.tracer.recording:
            self.mmu.tracer.stage(STAGE_DELAYED_TLB, cycles=cycles, hit=hit)
        return pa, cycles, permissions

    def shootdown(self, asid: int, page_va: int) -> None:
        self.tlb.invalidate(virtual_page_key(asid, page_va))


class ManySegmentEngine:
    """Variable-length segment delayed translation with paging fallback.

    Addresses outside every segment (e.g. demand-paged mappings) fall back
    to a page walk, mirroring how direct-segment/RMM systems keep paging
    available alongside ranges.
    """

    def __init__(self, kernel: Kernel, mmu: "HybridMmu",
                 use_segment_cache: bool = True,
                 index_cache_size: Optional[int] = None) -> None:
        self.kernel = kernel
        self.mmu = mmu
        self.translator = ManySegmentTranslator(
            kernel, mmu.config.segments,
            memory_charge=lambda pa: mmu.charge_physical_read(0, pa),
            use_segment_cache=use_segment_cache,
            index_cache_size=index_cache_size)
        self.fallback_walker = PageWalker(
            mmu.config.walker, kernel.pte_path,
            lambda pa: mmu.charge_physical_read(0, pa),
            stats=StatGroup("fallback_walker"))
        self.stats = StatGroup("many_segment_engine")
        mmu.stats.register(self.translator.stats)
        mmu.stats.register(self.translator.index_cache.stats)
        mmu.stats.register(self.translator.hw_table.stats)
        if self.translator.segment_cache is not None:
            mmu.stats.register(self.translator.segment_cache.stats)
        mmu.stats.register(self.stats)
        mmu.register_histogram(self.translator.depth_hist)
        mmu.register_histogram(self.translator.latency_hist)
        mmu.register_histogram(self.fallback_walker.cycles_hist)

    def translate(self, asid: int, va: int) -> Tuple[int, int, int]:
        try:
            result = self.translator.translate(asid, va)
            if self.mmu.tracer.recording:
                self.mmu.tracer.stage(STAGE_SEGMENT_WALK, cycles=result.cycles,
                                      sc_hit=result.sc_hit,
                                      nodes_read=result.index_nodes_read)
            return result.pa, result.cycles, result.permissions
        except SegmentFault:
            self.stats.add("paging_fallbacks")
            walked = self.fallback_walker.translate(asid, va)
            if self.mmu.tracer.recording:
                self.mmu.tracer.stage(STAGE_PAGE_WALK, cycles=walked[1],
                                      fallback=True)
            return walked

    def shootdown(self, asid: int, page_va: int) -> None:
        # Segment translations are invalidated via the segment-table
        # generation mechanism; page-granularity shootdowns are a no-op.
        return None


class HybridMmu(MmuBase):
    """Hybrid virtual caching with pluggable delayed translation."""

    name = "hybrid"

    def __init__(self, kernel: Kernel, config: SystemConfig | None = None,
                 delayed: str = "tlb", use_segment_cache: bool = True,
                 index_cache_size: Optional[int] = None,
                 parallel_delayed: bool = False) -> None:
        super().__init__(kernel, config)
        self.hybrid_stats = self.stats.group("hybrid")
        # Section IV-C: delayed translation can run in parallel with the
        # LLC access (hiding its latency under the LLC's 27 cycles at the
        # cost of translating on every L2 miss, i.e. extra energy) or
        # serially after the miss (the paper's choice, with the segment
        # cache recovering most of the latency).
        self.parallel_delayed = parallel_delayed
        self.synonym_tlb = SetAssociativeTlb(self.config.synonym_tlb, "synonym_tlb")
        self.stats.register(self.synonym_tlb.stats)
        self.synonym_walker = PageWalker(
            self.config.walker, kernel.pte_path,
            lambda pa: self.charge_physical_read(0, pa),
            stats=StatGroup("synonym_walker"))
        self.stats.register(self.synonym_walker.stats)
        self.register_histogram(self.synonym_walker.cycles_hist)
        if delayed == "tlb":
            self.delayed: DelayedEngine = DelayedTlbEngine(kernel, self)
        elif delayed == "segments":
            self.delayed = ManySegmentEngine(kernel, self, use_segment_cache,
                                             index_cache_size)
        else:
            raise ValueError(f"unknown delayed translation engine {delayed!r}")
        self.delayed_kind = delayed
        kernel.on_shootdown(self._shootdown)
        kernel.on_page_flush(self._flush_page)
        kernel.on_permission_change(self._permission_change)

    # ------------------------------------------------------------------ #
    # OS callbacks (Section III-A: state-dependent shootdown routing)
    # ------------------------------------------------------------------ #

    def _permission_change(self, asid: int, page_va: int,
                           permissions: int) -> None:
        """Downgrade cached copies in place (Section III-A / III-D)."""
        base_key = virtual_block_key(asid, page_va)
        self.caches.downgrade_blocks((base_key + i for i in range(64)),
                                     permissions)

    def _shootdown(self, asid: int, page_va: int) -> None:
        page_key = virtual_page_key(asid, page_va)
        self.synonym_tlb.invalidate(page_key)
        self.delayed.shootdown(asid, page_va)

    def _flush_page(self, asid: int, page_va: int, was_shared: bool) -> None:
        if was_shared:
            try:
                pa = self.kernel.translate(asid, page_va).pa
            except (PageFault, SegmentationViolation):
                return
            base_key = physical_block_key(pa)
        else:
            base_key = virtual_block_key(asid, page_va)
        self.caches.flush_blocks(base_key + i for i in range(64))

    # ------------------------------------------------------------------ #
    # The access path
    # ------------------------------------------------------------------ #

    def access(self, core: int, asid: int, va: int, is_write: bool) -> AccessOutcome:
        """One memory access through the hybrid virtual-caching datapath."""
        self._accesses += 1
        self.hybrid_stats.add("accesses")
        process = self.kernel.process(asid)
        front = self.config.synonym_filter.latency  # overlapped: 0 by default

        candidate = process.synonym_filter.is_synonym_candidate(va)
        if self.tracer.recording:
            self.tracer.stage(STAGE_FILTER, cycles=front, candidate=candidate)
        if candidate:
            self.hybrid_stats.add("synonym_candidates")
            key, extra_front, permissions, pa = self._resolve_candidate(asid, va)
            front += extra_front
            # Synonym path: the TLB checks permissions *before* the cache
            # access (Section III-A "Permission Support").
            if pa is not None and is_write and not (permissions or 0) & 0x2:
                self.hybrid_stats.add("permission_faults")
                self.kernel.handle_cow_fault(process, va)
                retry = self.access(core, asid, va, is_write=True)
                return AccessOutcome(
                    front + COW_FAULT_CYCLES + retry.front_cycles,
                    retry.cache_cycles, retry.delayed_cycles,
                    retry.dram_cycles, retry.hit_level,
                    translated_pa=retry.translated_pa)
        else:
            self.hybrid_stats.add("tlb_bypasses")
            key = virtual_block_key(asid, va)
            permissions = None
            pa = None

        return self._finish_access(core, asid, va, is_write, key, front,
                                   permissions, pa)

    def _resolve_candidate(self, asid: int, va: int):
        """Synonym-TLB path for filter hits; detects false positives."""
        page_key = virtual_page_key(asid, va)
        front = self.synonym_tlb.latency
        entry = self.synonym_tlb.lookup(page_key)
        hit = entry is not None
        if entry is None:
            walk = self.synonym_walker.walk(asid, va)
            front += walk.cycles
            translation = walk.translation
            entry = TlbEntry(page_key, translation.pa >> PAGE_SHIFT,
                             translation.shared, translation.permissions)
            self.synonym_tlb.fill(entry)
        if self.tracer.recording:
            self.tracer.stage(STAGE_SYNONYM_TLB, cycles=front, hit=hit,
                              is_synonym=entry.is_synonym)
        if entry.is_synonym:
            self.hybrid_stats.add("true_synonym_accesses")
            pa = (entry.pfn << PAGE_SHIFT) | (va & PAGE_MASK)
            return physical_block_key(pa), front, entry.permissions, pa
        # False positive: the marker entry redirects to the ASID+VA path.
        self.hybrid_stats.add("false_positive_accesses")
        return virtual_block_key(asid, va), front, None, None

    def _finish_access(self, core: int, asid: int, va: int, is_write: bool,
                       key: int, front: int, permissions, pa) -> AccessOutcome:
        is_virtual_key = pa is None
        fill_permissions = 0x3
        delayed_cycles = 0

        result = self.caches.access(core, key, is_write,
                                    permissions=fill_permissions)
        parallel_probe = (self.parallel_delayed and is_virtual_key
                          and result.hit_level == "llc")
        if parallel_probe:
            # Parallel mode translates speculatively on every L2 miss;
            # an LLC hit wastes the probe (energy, no latency).
            pa_spec, spec_cycles, _p = self.delayed.translate(asid, va)
            self.hybrid_stats.add("wasted_parallel_translations")
            pa = pa_spec if pa is None else pa
        if result.llc_miss and is_virtual_key:
            pa, delayed_cycles, perms = self.delayed.translate(asid, va)
            if self.parallel_delayed:
                # The translation ran under the LLC probe; only the part
                # exceeding the LLC latency is exposed.
                hidden = self.config.llc.latency
                delayed_cycles = max(0, delayed_cycles - hidden)
            # Install the delayed translation's permissions in the lines
            # just filled (the paper's fill-time permission delivery).
            line = self.caches.probe_line(core, key)
            if line is not None:
                line.permissions = perms
                llc_line = self.caches.llc.probe(key)
                if llc_line is not None:
                    llc_line.permissions = perms
            permissions = perms
        elif is_virtual_key:
            line = self.caches.probe_line(core, key)
            if line is not None:
                permissions = line.permissions

        if pa is None:
            # Virtual-key hit without any cached permission metadata can
            # only happen for lines filled before a permission change; use
            # the functional translation as the authoritative source.
            pa = self.kernel.translate(asid, va).pa

        dram = self.memory_fill(pa, is_write) if result.llc_miss else 0

        # Permission enforcement on the cached copy (Section III-D).
        if is_virtual_key and is_write and permissions is not None:
            if not permissions & 0x2:
                return self._handle_permission_fault(core, asid, va, front,
                                                     result, delayed_cycles,
                                                     dram)
        return AccessOutcome(front, result.latency, delayed_cycles, dram,
                             result.hit_level, translated_pa=pa)

    def _handle_permission_fault(self, core: int, asid: int, va: int,
                                 front: int, result, delayed_cycles: int,
                                 dram: int) -> AccessOutcome:
        """Write to a r/o non-synonym line: OS copy-on-write, then retry."""
        self.hybrid_stats.add("permission_faults")
        process = self.kernel.process(asid)
        self.kernel.handle_cow_fault(process, va)
        retry = self.access(core, asid, va, is_write=True)
        return AccessOutcome(
            front + COW_FAULT_CYCLES + retry.front_cycles,
            result.latency + retry.cache_cycles,
            delayed_cycles + retry.delayed_cycles,
            dram + retry.dram_cycles,
            retry.hit_level,
            translated_pa=retry.translated_pa,
        )

    # ------------------------------------------------------------------ #
    # Reporting helpers (Table II inputs)
    # ------------------------------------------------------------------ #

    def histograms(self) -> dict:
        """Registered histograms plus the aggregated filter occupancy.

        Synonym filters are per-process OS state created after the MMU,
        so their occupancy samples are merged across the kernel's live
        processes at snapshot time rather than registered up front.
        """
        hists = super().histograms()
        occupancy = Histogram("synonym_filter_occupancy")
        for process in self.kernel.processes():
            occupancy.merge(process.synonym_filter.occupancy_hist)
        if occupancy.count:
            hists[occupancy.name] = occupancy
        return hists

    def false_positive_rate(self) -> float:
        """False-positive candidate accesses / all accesses."""
        return self.hybrid_stats.ratio("false_positive_accesses", "accesses")

    def tlb_access_reduction(self) -> float:
        """Fraction of accesses that bypassed all core-side TLBs."""
        return self.hybrid_stats.ratio("tlb_bypasses", "accesses")

    def total_tlb_misses(self) -> int:
        """Synonym-TLB misses + delayed-translation misses."""
        misses = self.synonym_tlb.stats["misses"]
        if isinstance(self.delayed, DelayedTlbEngine):
            misses += self.delayed.tlb.stats["misses"]
        else:
            engine = self.delayed
            assert isinstance(engine, ManySegmentEngine)
            misses += engine.translator.stats["full_walks"]
            misses += engine.stats["paging_fallbacks"]
        return misses
