"""Physically addressed baseline MMU (the paper's comparison point).

Translation sits on the critical core-to-L1 path: every access probes the
L1 TLB (overlapped with L1 indexing, VIPT-style, so a hit exposes no extra
cycles), an L1-TLB miss exposes the 7-cycle L2 TLB, and a full TLB miss
blocks the access for a hardware page walk whose PTE reads travel through
the cache hierarchy.  All cache levels are physically tagged, so nothing
proceeds until the translation resolves.
"""

from __future__ import annotations

from repro.common.address import physical_block_key, virtual_page_key
from repro.common.params import SystemConfig
from repro.common.stats import StatGroup
from repro.core.mmu_base import AccessOutcome, MmuBase
from repro.osmodel.kernel import Kernel, SegmentationViolation
from repro.osmodel.pagetable import PageFault
from repro.tlb.base import TlbEntry
from repro.tlb.hierarchy import TlbHierarchy
from repro.tlb.walker import PageWalker


class ConventionalMmu(MmuBase):
    """Baseline: per-core two-level TLBs before physically addressed caches."""

    name = "baseline"

    def __init__(self, kernel: Kernel, config: SystemConfig | None = None) -> None:
        super().__init__(kernel, config)
        cfg = self.config
        self.tlbs = [TlbHierarchy(cfg.l1_tlb, cfg.l2_tlb, f"tlb_core{c}")
                     for c in range(cfg.cores)]
        self.walkers = [
            PageWalker(cfg.walker, kernel.pte_path,
                       lambda pa, c=c: self.charge_physical_read(c, pa),
                       stats=StatGroup(f"walker_core{c}"))
            for c in range(cfg.cores)
        ]
        for c in range(cfg.cores):
            self.stats.register(self.tlbs[c].stats)
            self.stats.register(self.tlbs[c].l1.stats)
            self.stats.register(self.tlbs[c].l2.stats)
            self.stats.register(self.walkers[c].stats)
        kernel.on_shootdown(self._shootdown)
        kernel.on_page_flush(self._flush_page)

    # ------------------------------------------------------------------ #
    # OS callbacks
    # ------------------------------------------------------------------ #

    def _shootdown(self, asid: int, page_va: int) -> None:
        key = virtual_page_key(asid, page_va)
        for tlb in self.tlbs:
            tlb.invalidate(key)

    def _flush_page(self, asid: int, page_va: int, was_shared: bool) -> None:
        # Physical caches: flush the page's physical blocks.
        try:
            pa = self.kernel.translate(asid, page_va).pa
        except (PageFault, SegmentationViolation):
            return
        base_key = physical_block_key(pa)
        self.caches.flush_blocks(base_key + i for i in range(64))

    # ------------------------------------------------------------------ #
    # The access path
    # ------------------------------------------------------------------ #

    def access(self, core: int, asid: int, va: int, is_write: bool) -> AccessOutcome:
        """One memory access: TLB hierarchy, walk on miss, physical caches."""
        self._accesses += 1
        page_key = virtual_page_key(asid, va)
        tlb = self.tlbs[core]
        lookup = tlb.lookup(page_key)
        front = 0
        if lookup.level == "l1":
            entry = lookup.entry
        elif lookup.level == "l2":
            entry = lookup.entry
            front = self.config.l2_tlb.latency
        else:
            walk = self.walkers[core].walk(asid, va)
            front = self.config.l2_tlb.latency + walk.cycles
            translation = walk.translation
            entry = TlbEntry(page_key, translation.pa >> 12, True,
                             translation.permissions)
            tlb.fill(entry)

        assert entry is not None
        pa = (entry.pfn << 12) | (va & 0xFFF)
        result = self.caches.access(core, physical_block_key(pa), is_write)
        dram = self.memory_fill(pa, is_write) if result.llc_miss else 0
        return AccessOutcome(front, result.latency, 0, dram, result.hit_level,
                             translated_pa=pa)
