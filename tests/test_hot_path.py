"""Work counts on the translation-miss path and the trace layer, with no timing.

A TLB miss on an already-mapped page must traverse the radix table
exactly once (the walker's resolve returns the translation with the PTE
path) and never call ``Kernel.translate`` again; per-access structures
count in place instead of through ``StatGroup.add``.  Trace generation
is bounded in executed Python lines per record.
"""

import sys
from collections import Counter

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.common.address import physical_block_key
from repro.common.params import SystemConfig
from repro.common.stats import StatGroup
from repro.core import ConventionalMmu, HybridMmu
from repro.osmodel import Kernel
from repro.osmodel.pagetable import PageTable
from repro.sim.runner import lay_out
from repro.virt import Hypervisor, VirtualMachine, VirtConventionalMmu

MB = 1024 * 1024


@pytest.fixture()
def spy(monkeypatch):
    """Counts page-table traversals (per table), ``Kernel.translate``,
    ``VirtualMachine.host_resolve`` and ``StatGroup.add`` calls."""
    counts = Counter()

    def counting(cls, name, key=None):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            counts[key(self) if key else name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counting(PageTable, "walk", key=lambda table: ("walk", id(table)))
    counting(Kernel, "translate")
    counting(VirtualMachine, "host_resolve")
    counting(StatGroup, "add")
    return counts


def traversals(counts, table):
    return counts[("walk", id(table))]


def mapped_page(kernel, process):
    vma = kernel.mmap(process, MB, policy="demand")
    kernel.translate(process.asid, vma.vbase)   # fault it in
    return vma.vbase


def test_conventional_miss_one_traversal(spy):
    kernel = Kernel(SystemConfig())
    mmu = ConventionalMmu(kernel)
    p = kernel.create_process("p")
    va = mapped_page(kernel, p)
    spy.clear()
    mmu.access(0, p.asid, va, False)
    assert mmu.walkers[0].stats["walks"] == 1
    assert traversals(spy, p.page_table) == 1
    assert spy["translate"] == 0


def test_delayed_tlb_miss_one_traversal(spy):
    kernel = Kernel(SystemConfig())
    mmu = HybridMmu(kernel, delayed="tlb")
    p = kernel.create_process("p")
    va = mapped_page(kernel, p)
    spy.clear()
    mmu.access(0, p.asid, va, False)      # LLC miss -> delayed TLB miss
    assert mmu.delayed.walker.stats["walks"] == 1
    assert traversals(spy, p.page_table) == 1
    assert spy["translate"] == 0


def test_synonym_tlb_miss_one_traversal(spy):
    kernel = Kernel(SystemConfig())
    mmu = HybridMmu(kernel, delayed="tlb")
    p, q = kernel.create_process("p"), kernel.create_process("q")
    va = kernel.mmap_shared([p, q], MB)[p.asid].vbase
    kernel.translate(p.asid, va)
    spy.clear()
    out = mmu.access(0, p.asid, va, False)
    assert traversals(spy, p.page_table) == 1
    assert spy["translate"] == 0
    assert mmu.synonym_walker.stats["walks"] == 1
    assert mmu.hybrid_stats["true_synonym_accesses"] == 1
    assert out.translated_pa == kernel.translate(p.asid, va).pa


def test_segment_fallback_one_traversal(spy):
    kernel = Kernel(SystemConfig())
    mmu = HybridMmu(kernel, delayed="segments")
    p = kernel.create_process("p")
    va = mapped_page(kernel, p)           # demand: no segment covers it
    spy.clear()
    mmu.access(0, p.asid, va, False)
    assert mmu.delayed.stats["paging_fallbacks"] == 1
    assert traversals(spy, p.page_table) == 1
    assert spy["translate"] == 0


def test_twod_walk_one_host_traversal_per_resolve(spy):
    hypervisor = Hypervisor()
    vm = hypervisor.create_vm("vm")
    mmu = VirtConventionalMmu(hypervisor, vm)
    guest = vm.guest_kernel
    p = guest.create_process("p")
    va = mapped_page(guest, p)
    walker = mmu.walker
    walker.walk(p.asid, va)               # populate the host page table
    walker.nested_tlb.flush()
    walker._walk_cache.clear()
    misses = walker.nested_tlb.stats["misses"]
    spy.clear()
    walker.walk(p.asid, va)
    resolves = walker.nested_tlb.stats["misses"] - misses
    assert resolves == 5                  # four guest PTEs + the leaf gPA
    assert spy["host_resolve"] == resolves
    assert traversals(spy, p.page_table) == 1
    # One traversal per host resolve, plus the leaf's permission read.
    assert traversals(spy, vm.host_page_table) == resolves + 1
    assert spy["translate"] == 0


def test_l1_hit_makes_no_stat_add(spy):
    caches = CacheHierarchy(SystemConfig())
    key = physical_block_key(0x1234_5000)
    caches.access(0, key, False)
    spy.clear()
    assert caches.access(0, key, False).hit_level == "l1"
    assert spy["add"] == 0


# Executed lines per record before the generator used bisect VMA lookup,
# precomputed pattern weights and inline RNG draws (Python 3.11, seed 0,
# 3,000 records): memcached 670 (a linear scan over its 512 VMAs),
# mcf 274, postgres 115, gups 56.  Bounds are about half of those, and a
# fifth for memcached.  mcf's is 0.6x: most of its count is the per-call
# set-up of a 47k-page Zipf table and permutation, which stays O(pages).
TRACE_LINE_BOUNDS = {"memcached": 134, "mcf": 165, "postgres": 57, "gups": 28}


def trace_lines_per_record(name, records=3000):
    """``sys.settrace`` line events per record, pattern set-up included."""
    laid_out = lay_out(name, Kernel(SystemConfig()), seed=0)
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for _ in laid_out.trace(records):
            pass
    finally:
        sys.settrace(previous)
    return lines / records


@pytest.mark.parametrize("name", sorted(TRACE_LINE_BOUNDS))
def test_trace_lines_per_record(name):
    assert trace_lines_per_record(name) <= TRACE_LINE_BOUNDS[name]
