"""Transparent-huge-page baseline MMU (extension study).

The standard modern answer to TLB reach is 2 MB pages: one entry covers
512× the memory.  The paper evaluates against a 4 KB baseline (its
workloads' sparse access and fragmentation limit THP in practice); this
extension adds a THP-enabled conventional MMU so the hybrid design can
be compared against the *stronger* baseline:

* a split L1 TLB: 64 entries for 4 KB pages plus 32 entries for 2 MB
  pages (Haswell-like), backed by a unified L2 TLB holding both sizes;
* walks discover the leaf size from the page table and fill the right
  structure;
* requires a THP kernel (``Kernel(transparent_huge_pages=True)``) whose
  eager allocations are 2 MB-aligned; on non-THP kernels it behaves
  exactly like the conventional baseline.
"""

from __future__ import annotations

from typing import Optional

from repro.common.address import (
    PAGE_SHIFT,
    virtual_huge_page_key,
    virtual_page_key,
)
from repro.common.params import SystemConfig, TlbConfig
from repro.core.conventional import core_walkers
from repro.core.mmu_base import AccessOutcome, MmuBase
from repro.osmodel.kernel import Kernel
from repro.osmodel.pagetable import HUGE_PAGE_SHIFT
from repro.tlb.base import SetAssociativeTlb, TlbEntry

HUGE_OFFSET_MASK = (1 << HUGE_PAGE_SHIFT) - 1


class ThpBaselineMmu(MmuBase):
    """Conventional physically addressed MMU with 2 MB-page support."""

    name = "baseline_thp"

    def __init__(self, kernel: Kernel, config: Optional[SystemConfig] = None,
                 huge_l1_entries: int = 32) -> None:
        super().__init__(kernel, config)
        cfg = self.config
        self.l1_small = [SetAssociativeTlb(cfg.l1_tlb, f"tlb4k_core{c}")
                         for c in range(cfg.cores)]
        self.l1_huge = [SetAssociativeTlb(TlbConfig(huge_l1_entries, 4,
                                                    cfg.l1_tlb.latency),
                                          f"tlb2m_core{c}")
                        for c in range(cfg.cores)]
        self.l2 = [SetAssociativeTlb(cfg.l2_tlb, f"tlbl2_core{c}")
                   for c in range(cfg.cores)]
        self.walkers = core_walkers(self)
        for c in range(cfg.cores):
            self.stats.register(self.l1_small[c].stats)
            self.stats.register(self.l1_huge[c].stats)
            self.stats.register(self.l2[c].stats)
            self.stats.register(self.walkers[c].stats)
        kernel.on_shootdown(self._shootdown)

    # ------------------------------------------------------------------ #
    # OS callbacks
    # ------------------------------------------------------------------ #

    def _shootdown(self, asid: int, page_va: int) -> None:
        small = virtual_page_key(asid, page_va)
        huge = virtual_huge_page_key(asid, page_va)
        for c in range(self.config.cores):
            self.l1_small[c].invalidate(small)
            self.l1_huge[c].invalidate(huge)
            self.l2[c].invalidate(small)
            self.l2[c].invalidate(huge)

    # ------------------------------------------------------------------ #
    # The access path
    # ------------------------------------------------------------------ #

    @staticmethod
    def _pa_of(entry: TlbEntry, va: int, huge: bool) -> int:
        if huge:
            return (entry.pfn << PAGE_SHIFT) | (va & HUGE_OFFSET_MASK)
        return (entry.pfn << PAGE_SHIFT) | (va & 0xFFF)

    def access(self, core: int, asid: int, va: int, is_write: bool) -> AccessOutcome:
        """One memory access through split 4 KB / 2 MB TLBs and physical caches."""
        self._accesses += 1
        small_key = virtual_page_key(asid, va)
        huge_key = virtual_huge_page_key(asid, va)
        front = 0
        pa = None

        # Split L1: both structures probe in parallel with the L1 cache.
        entry = self.l1_small[core].lookup(small_key)
        if entry is not None:
            pa = self._pa_of(entry, va, huge=False)
        else:
            entry = self.l1_huge[core].lookup(huge_key)
            if entry is not None:
                pa = self._pa_of(entry, va, huge=True)

        if pa is None:
            # Unified L2: one probe covers both sizes (real designs hash
            # both indices in one array; charge a single L2 latency).
            front = self.config.l2_tlb.latency
            entry = self.l2[core].lookup(small_key)
            if entry is not None:
                pa = self._pa_of(entry, va, huge=False)
                self.l1_small[core].fill(entry)
            else:
                entry = self.l2[core].lookup(huge_key)
                if entry is not None:
                    pa = self._pa_of(entry, va, huge=True)
                    self.l1_huge[core].fill(entry)

        if pa is None:
            walk = self.walkers[core].walk(asid, va)
            front += walk.cycles
            translation = walk.translation
            pa = translation.pa
            huge = translation.page_shift == HUGE_PAGE_SHIFT
            frame_mask = ~((1 << translation.page_shift) - 1)
            entry = TlbEntry(huge_key if huge else small_key,
                             (pa & frame_mask) >> PAGE_SHIFT, True,
                             translation.permissions)
            (self.l1_huge if huge else self.l1_small)[core].fill(entry)
            self.l2[core].fill(entry)

        return self.physical_access(core, pa, is_write, front)

    def tlb_misses(self) -> int:
        """Full-hierarchy misses (walks)."""
        return sum(w.stats["walks"] for w in self.walkers)
