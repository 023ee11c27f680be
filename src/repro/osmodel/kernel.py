"""The operating-system facade the simulated hardware talks to.

The kernel owns physical memory, processes, the system-wide segment table
and index tree, and the synonym bookkeeping the paper assigns to software:

* marking pages shared and updating per-process Bloom filters
  (Section III-B), including rebuilds past a saturation threshold;
* TLB shootdowns and cache flushes on remap/permission changes
  (Section III-A), delivered to registered hardware listeners;
* demand- and eager-segment-backed memory allocation (Section IV-B);
* copy-on-write resolution of permission faults on r/o content-shared
  pages (Section III-D).

The hardware-facing entry point is :meth:`translate`, which performs the
functional VA→PA mapping (resolving first-touch faults inline) and
returns the page's permissions and ground-truth synonym status;
:meth:`pte_path` adds the PTE addresses a walk reads, in one traversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.address import PAGE_SHIFT, PAGE_SIZE, page_base
from repro.common.params import SynonymFilterConfig, SystemConfig
from repro.common.stats import StatGroup
from repro.osmodel.address_space import (
    POLICY_DEMAND,
    POLICY_EAGER,
    POLICY_SHARED,
    Process,
    Vma,
)
from repro.osmodel.frames import FrameAllocator
from repro.osmodel.index_tree import IndexTree
from repro.osmodel.pagetable import PERM_READ, PERM_RW, PageFault, PageTableEntry
from repro.osmodel.segments import OsSegmentTable, Segment

#: Listener signature for shootdowns: (asid, page_va) of the dead mapping.
ShootdownFn = Callable[[int, int], None]
#: Listener signature for per-page cache flushes: (asid, page_va, was_shared).
FlushFn = Callable[[int, int, bool], None]


class SegmentationViolation(Exception):
    """Access outside every VMA of the address space."""

    def __init__(self, asid: int, va: int) -> None:
        super().__init__(f"access outside address space: asid={asid} va={va:#x}")
        self.asid = asid
        self.va = va


@dataclass(slots=True)
class Translation:
    """Functional translation result handed to the hardware models."""

    pa: int
    permissions: int
    shared: bool       # ground-truth synonym status of the page
    page_shift: int = PAGE_SHIFT  # 12 for 4 KB leaves, 21 for 2 MB ones


def _translation(entry: PageTableEntry, va: int) -> Translation:
    offset_mask = (1 << entry.page_shift) - 1
    return Translation((entry.pfn << PAGE_SHIFT) | (va & offset_mask),
                       entry.permissions, entry.shared, entry.page_shift)


class Kernel:
    """System software model."""

    #: Filter fill ratio beyond which the OS rebuilds a process's filters.
    FILTER_REBUILD_THRESHOLD = 0.5

    def __init__(self, config: SystemConfig | None = None,
                 filter_config: SynonymFilterConfig | None = None,
                 segment_table_capacity: int = 2048,
                 transparent_huge_pages: bool = False) -> None:
        self.config = config or SystemConfig()
        self.filter_config = filter_config or self.config.synonym_filter
        self.stats = StatGroup("kernel")
        self.frames = FrameAllocator(self.config.physical_memory_bytes)
        self.segment_table = OsSegmentTable(capacity=segment_table_capacity)
        #: Transparent huge pages: eager allocations are 2 MB-aligned and
        #: first touches install 2 MB leaves where alignment permits.
        self.thp = transparent_huge_pages
        self.index_tree = IndexTree(self.frames)
        self._processes: Dict[int, Process] = {}
        self._next_asid = 1
        self._free_asids: List[int] = []
        self._shootdown_listeners: List[ShootdownFn] = []
        self._flush_listeners: List[FlushFn] = []
        self._permission_listeners: List[Callable[[int, int, int], None]] = []
        self._segment_listeners: List[Callable[[Segment], None]] = []
        # Frames shared CoW by fork(): owned by more than one address
        # space, so per-process teardown must not free them.  (A full
        # refcount would reclaim them on last exit; this model documents
        # them as intentionally retained.)
        self._cow_frames: set = set()

    # ------------------------------------------------------------------ #
    # Processes
    # ------------------------------------------------------------------ #

    def create_process(self, name: str, va_base: Optional[int] = None) -> Process:
        """Spawn a process with a fresh (or recycled) ASID.

        Heap bases are staggered per process (ASLR-style) by default.
        Beyond realism this matters to the hybrid design: the caches are
        virtually indexed, so identical layouts across processes would
        pile every process's hot set into the same cache sets.

        ASIDs are 16-bit (Section III-A: 65,536 address spaces).  Retired
        ASIDs are recycled in FIFO order; :meth:`destroy_process` already
        flushed all state under the old ASID, so reuse is safe.
        """
        if self._free_asids:
            asid = self._free_asids.pop(0)
            self.stats.add("asids_recycled")
        else:
            if self._next_asid > 0xFFFF:
                raise RuntimeError("ASID space exhausted (65,536 live "
                                   "address spaces)")
            asid = self._next_asid
            self._next_asid += 1
        if va_base is None:
            va_base = 0x1000_0000 + (asid % 64) * 0x37_F000
        process = Process(name, asid, self.frames, self.segment_table,
                          self.filter_config, va_base=va_base)
        if self.thp:
            process.segment_allocator.align_frames = 512  # 2 MB
        self._processes[asid] = process
        self.stats.add("processes_created")
        return process

    def destroy_process(self, process: Process) -> None:
        """Tear down an address space completely.

        Unmaps every VMA (flushing caches and shooting down TLBs page by
        page), releases the radix-table node frames, and retires the
        ASID for recycling.  After this the kernel holds no state for
        the process and its ASID may name a different address space.
        """
        for vma in process.vmas():
            self.munmap(process, vma)
        process.page_table.release()
        del self._processes[process.asid]
        self._free_asids.append(process.asid)
        self.stats.add("processes_destroyed")

    def process(self, asid: int) -> Process:
        return self._processes[asid]

    def processes(self) -> List[Process]:
        return list(self._processes.values())

    # ------------------------------------------------------------------ #
    # Hardware listener registration
    # ------------------------------------------------------------------ #

    def on_shootdown(self, listener: ShootdownFn) -> None:
        """Register a TLB-like structure for shootdown delivery."""
        self._shootdown_listeners.append(listener)

    def on_page_flush(self, listener: FlushFn) -> None:
        """Register a cache hierarchy for per-page flush delivery."""
        self._flush_listeners.append(listener)

    def on_segment_removed(self, listener: Callable[[Segment], None]) -> None:
        """Register a segment-translating structure (direct-segment
        registers, a range TLB) for delivery of removed eager segments,
        whose pages the per-page shootdowns of :meth:`munmap` never reach."""
        self._segment_listeners.append(listener)

    def _shootdown(self, asid: int, page_va: int) -> None:
        self.stats.add("shootdowns")
        for listener in self._shootdown_listeners:
            listener(asid, page_va)

    def _flush_page(self, asid: int, page_va: int, was_shared: bool) -> None:
        self.stats.add("page_flushes")
        for listener in self._flush_listeners:
            listener(asid, page_va, was_shared)

    # ------------------------------------------------------------------ #
    # Memory mapping
    # ------------------------------------------------------------------ #

    def mmap(self, process: Process, size_bytes: int,
             policy: str = POLICY_DEMAND, permissions: int = PERM_RW) -> Vma:
        """Map fresh private anonymous memory.

        ``policy`` selects demand paging or eager segment backing; either
        way pages enter the page table on first touch so utilization and
        fault behaviour are measurable.
        """
        if policy not in (POLICY_DEMAND, POLICY_EAGER):
            raise ValueError(f"unknown mmap policy {policy!r}")
        if policy == POLICY_EAGER:
            segments = process.segment_allocator.allocate(size_bytes)
            vbase = segments[0].vbase
            length = sum(s.length for s in segments)
            # Keep the plain-VA cursor in sync with the segment cursor.
            process._va_cursor = max(process._va_cursor,
                                     process.segment_allocator._va_cursor)
            vma = Vma(vbase, length, POLICY_EAGER, permissions,
                      segments=segments)
        else:
            vbase = process.reserve_va(size_bytes)
            vma = Vma(vbase, ((size_bytes + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE,
                      POLICY_DEMAND, permissions)
        self.stats.add(f"mmap_{policy}")
        return process.add_vma(vma)

    def mmap_shared(self, participants: Iterable[Process], size_bytes: int,
                    permissions: int = PERM_RW) -> Dict[int, Vma]:
        """Create a r/w shared (synonym) region across several processes.

        One contiguous physical extent backs the region; every participant
        maps it at its own virtual address, creating true synonyms.  Each
        participant's Bloom filters are updated page by page — the paper's
        OS responsibility on the private→shared transition.
        """
        size_bytes = ((size_bytes + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE
        frames_needed = size_bytes >> PAGE_SHIFT
        start_frame = self.frames.alloc_contiguous(frames_needed)
        pbase = start_frame << PAGE_SHIFT
        result: Dict[int, Vma] = {}
        for process in participants:
            vbase = process.reserve_va(size_bytes, area="mmap")
            vma = Vma(vbase, size_bytes, POLICY_SHARED, permissions,
                      shared=True, shared_pbase=pbase)
            process.add_vma(vma)
            for offset in range(0, size_bytes, PAGE_SIZE):
                process.record_shared_page(vbase + offset)
            self._maybe_rebuild_filter(process)
            result[process.asid] = vma
        self.stats.add("mmap_shared")
        return result

    def munmap(self, process: Process, vma: Vma) -> None:
        """Tear down a mapping: flush caches, shoot down TLBs, free memory."""
        for offset in range(0, vma.length, PAGE_SIZE):
            va = vma.vbase + offset
            entry = process.page_table.walk(va)[0]
            if entry is not None:
                # Flush first: the listeners translate the still-mapped page.
                self._flush_page(process.asid, va, vma.shared)
                self._shootdown(process.asid, va)
                process.page_table.unmap(va)
                if (vma.policy == POLICY_DEMAND
                        and entry.pfn not in self._cow_frames):
                    self.frames.free(entry.pfn, 1)
        if vma.policy == POLICY_EAGER:
            for seg in vma.segments:
                # Adjacency merging can grow one segment across several
                # eager VMAs; release it only with its last referencing VMA.
                if any(seg is other_seg
                       for other in process.vmas() if other is not vma
                       for other_seg in other.segments):
                    continue
                self.segment_table.remove(seg.seg_id)
                for listener in self._segment_listeners:
                    listener(seg)
                self.frames.free(seg.pbase >> PAGE_SHIFT, seg.length >> PAGE_SHIFT)
                process.segment_allocator.forget(seg)
        process.remove_vma(vma)
        self.stats.add("munmap")

    # ------------------------------------------------------------------ #
    # Synonym status transitions
    # ------------------------------------------------------------------ #

    def share_existing_pages(self, process: Process, vbase: int,
                             length: int) -> None:
        """Private→shared transition of an already-mapped range.

        Updates the Bloom filters and flushes the affected ASID+VA lines
        from the caches (they must re-enter under physical addresses), per
        Section III-A "Page Deallocation and Remap".
        """
        for offset in range(0, length, PAGE_SIZE):
            va = page_base(vbase + offset)
            try:
                entry = process.page_table.entry(va)
            except PageFault:
                continue
            entry.shared = True
            process.record_shared_page(va)
            self._flush_page(process.asid, va, False)
            self._shootdown(process.asid, va)
        vma = process.find_vma(vbase)
        if vma is not None:
            vma.shared = True
        self._maybe_rebuild_filter(process)
        self.stats.add("share_transitions")

    def share_readonly(self, processes_vas: List[Tuple[Process, int]],
                       pbase: int) -> None:
        """Content-based r/o sharing (Section III-D).

        The given (process, va) pages are remapped onto one physical page
        with read-only permissions.  No synonym-filter update is needed:
        r/o synonyms stay virtually addressed because they cannot create
        incoherence; cached copies are permission-downgraded instead.
        """
        for process, va in processes_vas:
            va = page_base(va)
            old = process.page_table.unmap(va)
            if old is not None and old.pfn != (pbase >> PAGE_SHIFT):
                self.frames.free(old.pfn, 1)
            process.page_table.map(va, pbase >> PAGE_SHIFT,
                                   permissions=PERM_READ, shared=False)
            self._shootdown(process.asid, va)
        self.stats.add("content_sharings")

    def fork(self, parent: Process, name: Optional[str] = None) -> Process:
        """Duplicate an address space with copy-on-write sharing.

        Every mapped page of the parent is re-mapped read-only in *both*
        address spaces, pointing at the same frame.  Under hybrid virtual
        caching this needs **no synonym-filter update**: the copies are
        read-only synonyms, which Section III-D explicitly allows to stay
        virtually addressed (r/o data cannot become incoherent).  The
        first write in either process raises a permission fault and
        :meth:`handle_cow_fault` privatizes the page.

        Demand VMAs are duplicated as CoW; eager-segment VMAs are *not*
        segment-shared (segments are per-ASID) — their already-touched
        pages become CoW 4 KB mappings and untouched parts are backed by
        fresh eager segments in the child.
        """
        child = self.create_process(name or f"{parent.name}-child")
        for vma in parent.vmas():
            if vma.policy == POLICY_SHARED:
                assert vma.shared_pbase is not None
                child_vma = Vma(child.reserve_va(vma.length, area="mmap"),
                                vma.length, POLICY_SHARED, vma.permissions,
                                shared=True, shared_pbase=vma.shared_pbase)
                child.add_vma(child_vma)
                for offset in range(0, vma.length, PAGE_SIZE):
                    child.record_shared_page(child_vma.vbase + offset)
                continue
            # Private mapping: same VAs in the child, CoW-shared frames.
            child_vma = Vma(vma.vbase, vma.length, POLICY_DEMAND,
                            vma.permissions)
            child.add_vma(child_vma)
            # Keep the child's heap cursor clear of inherited ranges.
            child._va_cursor = max(child._va_cursor, vma.vlimit)
            child.segment_allocator._va_cursor = max(
                child.segment_allocator._va_cursor, vma.vlimit)
            for offset in range(0, vma.length, PAGE_SIZE):
                va = vma.vbase + offset
                try:
                    entry = parent.page_table.entry(va)
                except PageFault:
                    continue
                if entry.is_huge or entry.shared:
                    continue  # huge/shared leaves keep their own handling
                ro = entry.permissions & ~0x2
                parent.page_table.set_permissions(va, ro)
                child.page_table.map(va, entry.pfn, ro, shared=False)
                self._cow_frames.add(entry.pfn)
                self._shootdown(parent.asid, va)
                for listener in self._permission_listeners:
                    listener(parent.asid, va, ro)
        self.stats.add("forks")
        return child

    def register_dma_region(self, process: Process, vbase: int,
                            length: int) -> None:
        """Mark pages used for device DMA as synonym pages.

        Section III-A: "The pages used for direct memory access (DMA) by
        I/O devices are also marked as synonym pages, and they are cached
        in physical address" — devices address memory physically, so the
        single-name rule requires the CPU side to use physical names too.
        """
        for offset in range(0, length, PAGE_SIZE):
            va = page_base(vbase + offset)
            try:
                entry = process.page_table.entry(va)
            except PageFault:
                # Fault it in first so DMA has a concrete frame.
                self.translate(process.asid, va)
                entry = process.page_table.entry(va)
            entry.shared = True
            process.record_shared_page(va)
            self._flush_page(process.asid, va, False)
            self._shootdown(process.asid, va)
        self._maybe_rebuild_filter(process)
        self.stats.add("dma_registrations")

    def change_permissions(self, process: Process, vbase: int, length: int,
                           permissions: int) -> None:
        """Change a mapped range's permissions (e.g. mprotect).

        Section III-A: "When the permission of a non-synonym page
        changes, the permission bits in cached copies must be updated
        along with the flush of the delayed translation TLB entry for
        the page."  Cached copies are downgraded in place via the
        permission-update listeners; TLB entries are shot down.
        """
        for offset in range(0, length, PAGE_SIZE):
            va = page_base(vbase + offset)
            try:
                entry = process.page_table.entry(va)
            except PageFault:
                continue
            entry.permissions = permissions
            self._shootdown(process.asid, va)
            for listener in self._permission_listeners:
                listener(process.asid, va, permissions)
        vma = process.find_vma(vbase)
        if vma is not None and vma.vbase == vbase and vma.length == length:
            vma.permissions = permissions
        self.stats.add("permission_changes")

    def on_permission_change(self, listener) -> None:
        """Register a cache hierarchy for in-place permission downgrades.

        Listener signature: ``(asid, page_va, new_permissions)``.
        """
        self._permission_listeners.append(listener)

    def handle_cow_fault(self, process: Process, va: int) -> int:
        """Copy-on-write: give a faulting writer its own r/w page.

        Returns the new physical page base.  Models the paper's permission
        -fault flow for content-shared pages: allocate, copy, remap r/w.
        """
        va = page_base(va)
        new_frame = self.frames.alloc_frame()
        process.page_table.unmap(va)
        process.page_table.map(va, new_frame, permissions=PERM_RW, shared=False)
        self._flush_page(process.asid, va, False)
        self._shootdown(process.asid, va)
        self.stats.add("cow_faults")
        return new_frame << PAGE_SHIFT

    def _maybe_rebuild_filter(self, process: Process) -> None:
        if process.synonym_filter.fill_ratio() > self.FILTER_REBUILD_THRESHOLD:
            process.rebuild_filter()
            self.stats.add("filter_rebuilds")

    # ------------------------------------------------------------------ #
    # Translation (the hardware's functional oracle)
    # ------------------------------------------------------------------ #

    def translate(self, asid: int, va: int) -> Translation:
        """VA→PA with inline first-touch fault handling."""
        return _translation(self._leaf(asid, va)[0], va)

    def pte_path(self, asid: int, va: int) -> Tuple[Translation, List[int]]:
        """:meth:`translate` plus the PTE addresses a hardware walk reads
        (root→leaf), from one traversal of a mapped page.  Faults are
        resolved first; the caller accounts their cost via kernel stats."""
        entry, path = self._leaf(asid, va)
        return _translation(entry, va), path

    def _leaf(self, asid: int, va: int) -> Tuple[PageTableEntry, List[int]]:
        """Leaf PTE and PTE path of ``va``, faulting a first touch in."""
        process = self._processes[asid]
        entry, path = process.page_table.walk(va)
        if entry is None:
            self._handle_fault(process, va)
            entry, path = process.page_table.walk(va)
        return entry, path  # type: ignore[return-value]

    def _handle_fault(self, process: Process, va: int) -> None:
        vma = process.find_vma(va)
        if vma is None:
            raise SegmentationViolation(process.asid, va)
        page_va = page_base(va)
        if vma.policy == POLICY_DEMAND:
            frame = self.frames.alloc_frame()
            process.page_table.map(page_va, frame, vma.permissions, shared=False)
            self.stats.add("demand_faults")
        elif vma.policy == POLICY_EAGER:
            segment = vma.segment_for(va)
            if segment is None:
                raise SegmentationViolation(process.asid, va)
            segment.touch(page_va)
            pa = segment.translate(page_va)
            if self.thp and self._try_map_huge(process, segment, va):
                self.stats.add("huge_first_touches")
            else:
                process.page_table.map(page_va, pa >> PAGE_SHIFT,
                                       vma.permissions, shared=False)
            self.stats.add("eager_first_touches")
        else:  # POLICY_SHARED
            assert vma.shared_pbase is not None
            pa = vma.shared_pbase + (page_va - vma.vbase)
            process.page_table.map(page_va, pa >> PAGE_SHIFT, vma.permissions,
                                   shared=True)
            self.stats.add("shared_first_touches")

    def _try_map_huge(self, process: Process, segment, va: int) -> bool:
        """Install a 2 MB leaf when alignment and coverage permit."""
        from repro.osmodel.pagetable import HUGE_PAGE_SIZE

        huge_base = va & ~(HUGE_PAGE_SIZE - 1)
        if not (segment.contains(huge_base)
                and segment.contains(huge_base + HUGE_PAGE_SIZE - 1)):
            return False
        pa_base = huge_base + segment.offset
        if pa_base & (HUGE_PAGE_SIZE - 1):
            return False
        process.page_table.map_huge(huge_base, pa_base >> PAGE_SHIFT,
                                    permissions=0x3, shared=False)
        # The whole huge page is now resident; count it as touched.
        for offset in range(0, HUGE_PAGE_SIZE, PAGE_SIZE):
            segment.touch(huge_base + offset)
        return True

    def is_synonym_page(self, asid: int, va: int) -> bool:
        """Ground truth for filter false-positive accounting."""
        process = self._processes[asid]
        try:
            return process.page_table.entry(page_base(va)).shared
        except PageFault:
            vma = process.find_vma(va)
            return bool(vma and vma.shared)

    # ------------------------------------------------------------------ #
    # Segment-side services (delayed many-segment translation)
    # ------------------------------------------------------------------ #

    def current_index_tree(self) -> IndexTree:
        """The index tree, rebuilt if the segment table changed."""
        if self.index_tree.ensure_current(self.segment_table):
            self.stats.add("index_tree_rebuilds")
        return self.index_tree

    def segment_lookup(self, asid: int, va: int):
        """OS-path segment lookup (HW segment-table cold-miss interrupt)."""
        return self.segment_table.find(asid, va)

    def shootdown_page(self, asid: int, va: int) -> None:
        """Explicit shootdown request (tests / remap experiments)."""
        self._shootdown(asid, page_base(va))
