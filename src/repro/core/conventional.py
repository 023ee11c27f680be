"""Physically addressed baseline MMU (the paper's comparison point).

Translation sits on the critical core-to-L1 path: every access probes the
L1 TLB (overlapped with L1 indexing, VIPT-style, so a hit exposes no extra
cycles), an L1-TLB miss exposes the 7-cycle L2 TLB, and a full TLB miss
blocks the access for a hardware page walk whose PTE reads travel through
the cache hierarchy.  All cache levels are physically tagged, so nothing
proceeds until the translation resolves.
"""

from __future__ import annotations

from typing import List

from repro.common.address import physical_block_key, virtual_page_key
from repro.common.params import SystemConfig
from repro.common.stats import StatGroup
from repro.core.mmu_base import AccessOutcome, MmuBase
from repro.osmodel.kernel import Kernel, SegmentationViolation
from repro.osmodel.pagetable import PageFault
from repro.tlb.hierarchy import TlbHierarchy
from repro.tlb.walker import PageWalker


def core_walkers(mmu: MmuBase) -> List[PageWalker]:
    """One page walker per core, charging PTE reads through its caches."""
    return [PageWalker(mmu.config.walker, mmu.kernel.pte_path,
                       lambda pa, c=c: mmu.charge_physical_read(c, pa),
                       stats=StatGroup(f"walker_core{c}"))
            for c in range(mmu.config.cores)]


class PagingMmu(MmuBase):
    """Per-core two-level TLBs and page walkers before physical caches.

    The one core-side paging front end: an access translates through its
    core's :meth:`TlbHierarchy.translate
    <repro.tlb.hierarchy.TlbHierarchy.translate>` with
    ``miss_handlers[core]`` (the core's page walker unless a subclass
    installs another) and finishes in :meth:`MmuBase.physical_access`.
    """

    def __init__(self, kernel: Kernel, config: SystemConfig | None = None) -> None:
        super().__init__(kernel, config)
        cfg = self.config
        self.tlbs = [TlbHierarchy(cfg.l1_tlb, cfg.l2_tlb, f"tlb_core{c}")
                     for c in range(cfg.cores)]
        self.walkers = core_walkers(self)
        for tlb, walker in zip(self.tlbs, self.walkers):
            self.stats.register(tlb.stats)
            self.stats.register(walker.stats)
        self.miss_handlers = [walker.translate for walker in self.walkers]
        kernel.on_shootdown(self._shootdown)

    def _shootdown(self, asid: int, page_va: int) -> None:
        key = virtual_page_key(asid, page_va)
        for tlb in self.tlbs:
            tlb.invalidate(key)


class ConventionalMmu(PagingMmu):
    """Baseline: per-core two-level TLBs before physically addressed caches."""

    name = "baseline"

    def __init__(self, kernel: Kernel, config: SystemConfig | None = None) -> None:
        super().__init__(kernel, config)
        for tlb in self.tlbs:
            self.stats.register(tlb.l1.stats)
            self.stats.register(tlb.l2.stats)
        kernel.on_page_flush(self._flush_page)

    def _flush_page(self, asid: int, page_va: int, was_shared: bool) -> None:
        # Physical caches: flush the page's physical blocks.
        try:
            pa = self.kernel.translate(asid, page_va).pa
        except (PageFault, SegmentationViolation):
            return
        base_key = physical_block_key(pa)
        self.caches.flush_blocks(base_key + i for i in range(64))

    def access(self, core: int, asid: int, va: int, is_write: bool) -> AccessOutcome:
        """One memory access: TLB hierarchy, walk on miss, physical caches."""
        self._accesses += 1
        pa, front = self.tlbs[core].translate(virtual_page_key(asid, va), asid,
                                              va, self.miss_handlers[core])
        return self.physical_access(core, pa, is_write, front)
