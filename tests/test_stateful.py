"""Stateful property testing of the kernel + MMU stack.

A hypothesis rule machine drives random OS activity (mmap of both
policies, sharing, mprotect, DMA registration, munmap) interleaved with
memory accesses through one MMU configuration, and checks the
system-wide invariants after every step.  It runs on the hybrid MMU with
each delayed engine and on the physically tagged MMUs that share the
paging front end (baseline, THP, direct segment, RMM):

* every access resolves to the kernel's functional translation;
* true synonym pages are always filter candidates (no false negatives,
  whatever the OS did before);
* shared pages never linger in the caches under ASID+VA names;
* frame accounting never leaks into inconsistency.
"""

import dataclasses

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.common.address import PAGE_SIZE, page_base, virtual_block_key
from repro.common.params import CacheConfig, SystemConfig
from repro.osmodel import Kernel
from repro.osmodel.pagetable import PERM_READ
from repro.sim.runner import build_mmu

MB = 1024 * 1024


def small_system():
    return dataclasses.replace(
        SystemConfig(),
        cores=2,
        l1=CacheConfig(1024, 2, 2),
        l2=CacheConfig(4096, 4, 6),
        llc=CacheConfig(16384, 8, 27),
        physical_memory_bytes=512 * MB,
    )


class SystemMachine(RuleBasedStateMachine):
    MMU = "hybrid_tlb"

    @initialize()
    def setup(self):
        self.config = small_system()
        self.kernel = Kernel(self.config)
        self.a = self.kernel.create_process("a")
        self.b = self.kernel.create_process("b")
        self.mmu = build_mmu(self.MMU, self.kernel, self.config)
        self.vmas = {self.a.asid: [], self.b.asid: []}
        self.shared = []  # (asid, vma) pairs for live shared mappings
        # Seed each process with one mapping so accesses always have a
        # target.
        for p in (self.a, self.b):
            self.vmas[p.asid].append(
                self.kernel.mmap(p, 8 * PAGE_SIZE, policy="eager"))

    def _process(self, which):
        return self.a if which == 0 else self.b

    # ------------------------------------------------------------------ #
    # OS activity
    # ------------------------------------------------------------------ #

    @rule(which=st.integers(0, 1), pages=st.integers(1, 8),
          eager=st.booleans())
    def do_mmap(self, which, pages, eager):
        p = self._process(which)
        if len(self.vmas[p.asid]) >= 12:
            return
        vma = self.kernel.mmap(p, pages * PAGE_SIZE,
                               policy="eager" if eager else "demand")
        self.vmas[p.asid].append(vma)

    @rule(pages=st.integers(1, 4))
    def do_share(self, pages):
        if len(self.shared) >= 6:
            return
        vmas = self.kernel.mmap_shared([self.a, self.b], pages * PAGE_SIZE)
        for asid, vma in vmas.items():
            self.shared.append((asid, vma))

    @rule(which=st.integers(0, 1), index=st.integers(0, 11))
    def do_munmap(self, which, index):
        p = self._process(which)
        private = self.vmas[p.asid]
        if len(private) <= 1 or index >= len(private):
            return
        vma = private.pop(index)
        self.kernel.munmap(p, vma)

    @rule(which=st.integers(0, 1), index=st.integers(0, 11))
    def do_mprotect_readonly(self, which, index):
        p = self._process(which)
        private = self.vmas[p.asid]
        if index >= len(private):
            return
        vma = private[index]
        self.kernel.change_permissions(p, vma.vbase, PAGE_SIZE, PERM_READ)

    @rule(which=st.integers(0, 1), index=st.integers(0, 11))
    def do_dma_register(self, which, index):
        p = self._process(which)
        private = self.vmas[p.asid]
        if index >= len(private):
            return
        self.kernel.register_dma_region(p, private[index].vbase, PAGE_SIZE)

    @rule(which=st.integers(0, 1), index=st.integers(0, 11),
          frac=st.floats(0.0, 0.999))
    def do_share_existing(self, which, index, frac):
        p = self._process(which)
        private = self.vmas[p.asid]
        if index >= len(private):
            return
        vma = private[index]
        va = vma.vbase + int(frac * vma.length)
        self.kernel.translate(p.asid, va)  # ensure mapped
        self.kernel.share_existing_pages(p, page_base(va), PAGE_SIZE)

    # ------------------------------------------------------------------ #
    # Memory accesses
    # ------------------------------------------------------------------ #

    @rule(which=st.integers(0, 1), index=st.integers(0, 11),
          frac=st.floats(0.0, 0.999), write=st.booleans())
    def do_access_private(self, which, index, frac, write):
        p = self._process(which)
        private = self.vmas[p.asid]
        if index >= len(private):
            return
        vma = private[index]
        va = (vma.vbase + int(frac * vma.length)) & ~0x7
        out = self.mmu.access(which, p.asid, va, write)
        assert out.translated_pa == self.kernel.translate(p.asid, va).pa

    @precondition(lambda self: self.shared)
    @rule(pick=st.integers(0, 11), frac=st.floats(0.0, 0.999),
          write=st.booleans())
    def do_access_shared(self, pick, frac, write):
        asid, vma = self.shared[pick % len(self.shared)]
        core = 0 if asid == self.a.asid else 1
        va = (vma.vbase + int(frac * vma.length)) & ~0x7
        out = self.mmu.access(core, asid, va, write)
        assert out.translated_pa == self.kernel.translate(asid, va).pa

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #

    @invariant()
    def synonym_filter_never_misses_live_shared_pages(self):
        if not hasattr(self, "shared"):
            return
        for asid, vma in self.shared:
            process = self.kernel.process(asid)
            for offset in range(0, vma.length, PAGE_SIZE):
                assert process.synonym_filter.is_synonym_candidate(
                    vma.vbase + offset)

    @invariant()
    def no_virtual_copies_of_shared_blocks(self):
        if not hasattr(self, "shared"):
            return
        for asid, vma in self.shared:
            for offset in range(0, min(vma.length, 4 * PAGE_SIZE), 64):
                key = virtual_block_key(asid, vma.vbase + offset)
                assert self.mmu.caches.probe_line(0, key) is None
                assert self.mmu.caches.probe_line(1, key) is None

    @invariant()
    def frame_accounting_consistent(self):
        if not hasattr(self, "kernel"):
            return
        frames = self.kernel.frames
        assert (frames.free_frames() + frames.allocated_frames()
                == frames.total_frames)


def machine_test(mmu: str):
    """The state machine's test case on one MMU configuration."""
    machine = type(f"SystemMachine_{mmu}", (SystemMachine,), {"MMU": mmu})
    machine.TestCase.settings = settings(
        max_examples=25, stateful_step_count=30, deadline=None)
    return machine.TestCase


TestHybridSystemMachine = machine_test("hybrid_tlb")
TestHybridSegmentsSystemMachine = machine_test("hybrid_segments")
TestBaselineSystemMachine = machine_test("baseline")
TestBaselineThpSystemMachine = machine_test("baseline_thp")
TestDirectSegmentSystemMachine = machine_test("direct_segment")
TestRmmSystemMachine = machine_test("rmm")
