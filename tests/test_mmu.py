"""Tests for the MMU front-ends: baseline, hybrid, ideal.

The central correctness property is cross-architecture agreement: every
MMU must resolve the same (asid, va) to the same physical address, since
they differ only in *where* translation happens.
"""

import dataclasses

import pytest

from repro.common.address import PAGE_SIZE, physical_block_key, virtual_block_key
from repro.common.params import SystemConfig
from repro.common.rng import make_rng
from repro.core import ConventionalMmu, HybridMmu, IdealMmu
from repro.osmodel import Kernel

MB = 1024 * 1024


def build(mmu_cls, sharing=False, **mmu_kwargs):
    config = dataclasses.replace(SystemConfig(), cores=2)
    kernel = Kernel(config)
    a = kernel.create_process("a")
    vma = kernel.mmap(a, 8 * MB, policy="eager")
    shared_vma = None
    if sharing:
        b = kernel.create_process("b")
        shared_vma = kernel.mmap_shared([a, b], 1 * MB)[a.asid]
    mmu = mmu_cls(kernel, config, **mmu_kwargs)
    return kernel, a, vma, shared_vma, mmu


class TestConventionalMmu:
    def test_translation_correct(self):
        kernel, p, vma, _s, mmu = build(ConventionalMmu)
        out = mmu.access(0, p.asid, vma.vbase + 0x1234, False)
        assert out.translated_pa == kernel.translate(p.asid,
                                                     vma.vbase + 0x1234).pa

    def test_tlb_miss_blocks_front(self):
        _k, p, vma, _s, mmu = build(ConventionalMmu)
        cold = mmu.access(0, p.asid, vma.vbase, False)
        warm = mmu.access(0, p.asid, vma.vbase, False)
        assert cold.front_cycles > 0      # walk blocked the access
        assert warm.front_cycles == 0     # L1 TLB hit overlaps with L1

    def test_l2_tlb_hit_exposes_latency(self):
        config = SystemConfig()
        _k, p, vma, _s, mmu = build(ConventionalMmu)
        # Touch 100 pages to push the first out of the 64-entry L1 TLB.
        for i in range(100):
            mmu.access(0, p.asid, vma.vbase + i * PAGE_SIZE, False)
        out = mmu.access(0, p.asid, vma.vbase, False)
        assert out.front_cycles == config.l2_tlb.latency

    def test_shootdown_invalidates(self):
        kernel, p, vma, _s, mmu = build(ConventionalMmu)
        mmu.access(0, p.asid, vma.vbase, False)
        kernel.shootdown_page(p.asid, vma.vbase)
        out = mmu.access(0, p.asid, vma.vbase, False)
        assert out.front_cycles > 0  # walked again

    def test_cache_hit_after_fill(self):
        _k, p, vma, _s, mmu = build(ConventionalMmu)
        mmu.access(0, p.asid, vma.vbase, False)
        out = mmu.access(0, p.asid, vma.vbase, False)
        assert out.hit_level == "l1"
        assert out.dram_cycles == 0


class TestIdealMmu:
    def test_no_translation_cost_ever(self):
        _k, p, vma, _s, mmu = build(IdealMmu)
        for i in range(50):
            out = mmu.access(0, p.asid, vma.vbase + i * PAGE_SIZE, False)
            assert out.front_cycles == 0
            assert out.delayed_cycles == 0

    def test_translation_correct(self):
        kernel, p, vma, _s, mmu = build(IdealMmu)
        va = vma.vbase + 0x4321
        out = mmu.access(0, p.asid, va, True)
        assert out.translated_pa == kernel.translate(p.asid, va).pa


class TestHybridMmuNonSynonym:
    def test_bypass_has_zero_front_cost(self):
        _k, p, vma, _s, mmu = build(HybridMmu, delayed="tlb")
        out = mmu.access(0, p.asid, vma.vbase, False)
        assert out.front_cycles == 0       # no TLB before the caches
        assert out.delayed_cycles > 0      # translation after LLC miss

    def test_cached_data_needs_no_translation(self):
        _k, p, vma, _s, mmu = build(HybridMmu, delayed="tlb")
        mmu.access(0, p.asid, vma.vbase, False)
        out = mmu.access(0, p.asid, vma.vbase, False)
        assert out.delayed_cycles == 0
        assert out.hit_level == "l1"

    def test_blocks_cached_virtually(self):
        _k, p, vma, _s, mmu = build(HybridMmu)
        mmu.access(0, p.asid, vma.vbase, False)
        key = virtual_block_key(p.asid, vma.vbase)
        line = mmu.caches.probe_line(0, key)
        assert line is not None
        assert not line.is_synonym

    def test_translation_correct_both_engines(self):
        for engine in ("tlb", "segments"):
            kernel, p, vma, _s, mmu = build(HybridMmu, delayed=engine)
            va = vma.vbase + 3 * MB + 77
            out = mmu.access(0, p.asid, va, False)
            assert out.translated_pa == kernel.translate(p.asid, va).pa

    def test_homonyms_do_not_collide(self):
        """Two processes using the same VA must get separate lines."""
        config = dataclasses.replace(SystemConfig(), cores=2)
        kernel = Kernel(config)
        # Pin both heaps to one base (overriding ASLR staggering) so the
        # two processes genuinely use the same virtual addresses.
        a = kernel.create_process("a", va_base=0x1000_0000)
        b = kernel.create_process("b", va_base=0x1000_0000)
        vma_a = kernel.mmap(a, MB, policy="eager")
        vma_b = kernel.mmap(b, MB, policy="eager")
        assert vma_a.vbase == vma_b.vbase  # same VA, different ASID
        mmu = HybridMmu(kernel, config)
        out_a = mmu.access(0, a.asid, vma_a.vbase, False)
        out_b = mmu.access(1, b.asid, vma_b.vbase, False)
        assert out_a.translated_pa != out_b.translated_pa

    def test_bypass_counting(self):
        _k, p, vma, _s, mmu = build(HybridMmu)
        for i in range(10):
            mmu.access(0, p.asid, vma.vbase + i * 64, False)
        assert mmu.hybrid_stats["tlb_bypasses"] == 10
        assert mmu.tlb_access_reduction() == 1.0


class TestHybridMmuSynonyms:
    def test_synonym_cached_physically(self):
        kernel, a, _vma, shared, mmu = build(HybridMmu, sharing=True)
        out = mmu.access(0, a.asid, shared.vbase, False)
        assert out.translated_pa is not None
        from repro.common.address import physical_block_key
        line = mmu.caches.probe_line(0, physical_block_key(out.translated_pa))
        assert line is not None and line.is_synonym

    def test_synonyms_share_one_cache_line(self):
        """The coherence guarantee: both names resolve to one block."""
        config = dataclasses.replace(SystemConfig(), cores=2)
        kernel = Kernel(config)
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        kernel.mmap(a, MB, policy="eager")
        kernel.mmap(b, MB, policy="eager")
        vmas = kernel.mmap_shared([a, b], 64 * PAGE_SIZE)
        mmu = HybridMmu(kernel, config)
        out_a = mmu.access(0, a.asid, vmas[a.asid].vbase + 0x100, True)
        out_b = mmu.access(1, b.asid, vmas[b.asid].vbase + 0x100, False)
        assert out_a.translated_pa == out_b.translated_pa
        # The second access hit in the shared LLC (one physical name).
        assert out_b.hit_level in ("llc", "l1", "l2")

    def test_synonym_pays_front_translation(self):
        _k, a, _vma, shared, mmu = build(HybridMmu, sharing=True)
        out = mmu.access(0, a.asid, shared.vbase, False)
        assert out.front_cycles >= mmu.synonym_tlb.latency

    def test_candidate_accounting(self):
        _k, a, _vma, shared, mmu = build(HybridMmu, sharing=True)
        mmu.access(0, a.asid, shared.vbase, False)
        assert mmu.hybrid_stats["synonym_candidates"] == 1
        assert mmu.hybrid_stats["true_synonym_accesses"] == 1

    def test_write_to_readonly_synonym_faults_before_cache(self):
        """Section III-A: the synonym TLB checks permissions up front."""
        from repro.osmodel.pagetable import PERM_READ
        config = dataclasses.replace(SystemConfig(), cores=1)
        kernel = Kernel(config)
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        kernel.mmap(a, MB, policy="eager")
        kernel.mmap(b, MB, policy="eager")
        vmas = kernel.mmap_shared([a, b], 4 * PAGE_SIZE,
                                  permissions=PERM_READ)
        mmu = HybridMmu(kernel, config, delayed="tlb")
        va = vmas[a.asid].vbase
        read = mmu.access(0, a.asid, va, is_write=False)  # fine
        shared_pa = read.translated_pa
        write = mmu.access(0, a.asid, va, is_write=True)
        assert mmu.hybrid_stats["permission_faults"] == 1
        assert write.translated_pa != shared_pa  # CoW: private page
        # Process b still reads the original shared page.
        again = mmu.access(0, b.asid, vmas[b.asid].vbase, is_write=False)
        assert again.translated_pa == shared_pa

    def test_share_transition_flushes_virtual_lines(self):
        kernel, a, vma, _s, mmu = build(HybridMmu, sharing=True)
        va = vma.vbase
        mmu.access(0, a.asid, va, False)
        key = virtual_block_key(a.asid, va)
        assert mmu.caches.probe_line(0, key) is not None
        kernel.share_existing_pages(a, va, PAGE_SIZE)
        # Stale ASID+VA line must be gone...
        assert mmu.caches.probe_line(0, key) is None
        # ...and the next access goes through the synonym (PA) path.
        out = mmu.access(0, a.asid, va, False)
        assert mmu.hybrid_stats["true_synonym_accesses"] >= 1
        assert out.translated_pa == kernel.translate(a.asid, va).pa


class TestCrossMmuAgreement:
    def test_all_mmus_agree_on_translation(self):
        config = dataclasses.replace(SystemConfig(), cores=1)
        rng = make_rng(5)
        offsets = [rng.randrange(0, 8 * MB) & ~7 for _ in range(300)]
        pas = {}
        for name, cls, kw in (
            ("baseline", ConventionalMmu, {}),
            ("ideal", IdealMmu, {}),
            ("hybrid_tlb", HybridMmu, {"delayed": "tlb"}),
            ("hybrid_seg", HybridMmu, {"delayed": "segments"}),
        ):
            kernel = Kernel(config)
            p = kernel.create_process("p")
            vma = kernel.mmap(p, 8 * MB, policy="eager")
            mmu = cls(kernel, config, **kw)
            pas[name] = [
                mmu.access(0, p.asid, vma.vbase + off, False).translated_pa
                - vma.segments[0].pbase
                for off in offsets
            ]
        assert pas["baseline"] == pas["ideal"]
        assert pas["baseline"] == pas["hybrid_tlb"]
        assert pas["baseline"] == pas["hybrid_seg"]


class TestMunmapFlush:
    """``munmap`` flushes and shoots down a page *before* unmapping it,
    so the MMUs' flush listeners translate the live mapping instead of
    faulting the page straight back in."""

    def test_conventional_flushes_freed_frame(self):
        kernel = Kernel(SystemConfig())
        mmu = ConventionalMmu(kernel)
        p = kernel.create_process("p")
        vma = kernel.mmap(p, MB, policy="demand")
        key = physical_block_key(
            mmu.access(0, p.asid, vma.vbase, False).translated_pa)
        assert mmu.caches.llc.probe(key) is not None
        kernel.munmap(p, vma)
        assert p.page_table.mapped_pages == 0
        assert kernel.stats["demand_faults"] == 1
        assert mmu.caches.llc.probe(key) is None
        assert mmu.caches.probe_line(0, key) is None

    def test_hybrid_shared_page_not_refaulted(self):
        kernel = Kernel(SystemConfig())
        mmu = HybridMmu(kernel, delayed="tlb")
        p, q = kernel.create_process("p"), kernel.create_process("q")
        vma = kernel.mmap_shared([p, q], MB)[p.asid]
        key = physical_block_key(
            mmu.access(0, p.asid, vma.vbase, False).translated_pa)
        assert mmu.caches.llc.probe(key) is not None
        kernel.munmap(p, vma)
        assert p.page_table.mapped_pages == 0
        assert kernel.stats["shared_first_touches"] == 1
        assert mmu.caches.llc.probe(key) is None
