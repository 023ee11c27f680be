"""Four-level radix page table (x86-64 style).

Table nodes are backed by real frames from the :class:`FrameAllocator`, so
every PTE has a concrete physical address.  That matters: the page walker
charges PTE reads through the cache hierarchy, and the paper's results
depend on walk traffic competing with data in the caches.

Each leaf PTE records the frame number, permission bits, and the *sharing
bit* the paper adds to page-table entries (Section III-A footnote): the
bit that tells a false-positive TLB fill that the page is in fact a
non-synonym.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.address import PAGE_SHIFT, VA_BITS
from repro.osmodel.frames import FrameAllocator

LEVELS = 4
BITS_PER_LEVEL = 9
PTE_SIZE = 8

PERM_READ = 0x1
PERM_WRITE = 0x2
PERM_RW = PERM_READ | PERM_WRITE

_VA_MASK = (1 << VA_BITS) - 1
_INDEX_MASK = (1 << BITS_PER_LEVEL) - 1
#: VPN shifts of the levels above the 4 KB leaves, root first.
_UPPER_SHIFTS = tuple(BITS_PER_LEVEL * level for level in range(LEVELS - 1, 0, -1))


class PageFault(Exception):
    """Raised when translating an unmapped virtual address."""

    def __init__(self, va: int) -> None:
        super().__init__(f"page fault at {va:#x}")
        self.va = va


HUGE_PAGE_SHIFT = 21
HUGE_PAGE_SIZE = 1 << HUGE_PAGE_SHIFT


@dataclass(slots=True)
class PageTableEntry:
    """Leaf mapping: frame, permissions, and the synonym ("sharing") bit.

    ``page_shift`` distinguishes 4 KB leaves (12) from 2 MB huge-page
    leaves (21) installed one level up the radix.
    """

    pfn: int
    permissions: int = PERM_RW
    shared: bool = False
    page_shift: int = PAGE_SHIFT

    @property
    def is_huge(self) -> bool:
        return self.page_shift != PAGE_SHIFT


class _Node:
    """One radix node: a frame-backed array of 512 slots."""

    __slots__ = ("pa", "slots")

    def __init__(self, pa: int) -> None:
        self.pa = pa
        self.slots: Dict[int, object] = {}


class PageTable:
    """Per-address-space 4-level radix table."""

    def __init__(self, frames: FrameAllocator) -> None:
        self._frames = frames
        self._node_frames: List[int] = []
        self._root = self._new_node()
        self._mapped_pages = 0
        self._released = False

    def _new_node(self) -> _Node:
        frame = self._frames.alloc_frame()
        self._node_frames.append(frame)
        return _Node(self._frames.frame_to_pa(frame))

    def release(self) -> int:
        """Free every radix-node frame (address-space teardown).

        Returns the number of frames released.  The table is unusable
        afterwards; releasing twice is a no-op.
        """
        if self._released:
            return 0
        for frame in self._node_frames:
            self._frames.free(frame, 1)
        released = len(self._node_frames)
        self._node_frames = []
        self._root = _Node(0)
        self._mapped_pages = 0
        self._released = True
        return released

    @staticmethod
    def _indices(va: int) -> List[int]:
        vpn = (va & _VA_MASK) >> PAGE_SHIFT
        return [(vpn >> shift) & _INDEX_MASK for shift in _UPPER_SHIFTS + (0,)]

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #

    def map(self, va: int, pfn: int, permissions: int = PERM_RW,
            shared: bool = False) -> None:
        """Install a leaf mapping for the page containing ``va``."""
        node = self._root
        idx = self._indices(va)
        for level_index in idx[:-1]:
            child = node.slots.get(level_index)
            if child is None:
                child = self._new_node()
                node.slots[level_index] = child
            node = child  # type: ignore[assignment]
        if idx[-1] not in node.slots:
            self._mapped_pages += 1
        node.slots[idx[-1]] = PageTableEntry(pfn, permissions, shared)

    def map_huge(self, va: int, pfn: int, permissions: int = PERM_RW,
                 shared: bool = False) -> None:
        """Install a 2 MB leaf one level above the 4 KB leaves.

        ``va`` must be 2 MB-aligned and ``pfn`` the frame number of a
        2 MB-aligned physical region.
        """
        if va & (HUGE_PAGE_SIZE - 1):
            raise ValueError(f"huge mapping at unaligned VA {va:#x}")
        if (pfn << PAGE_SHIFT) & (HUGE_PAGE_SIZE - 1):
            raise ValueError("huge mapping needs a 2 MB-aligned frame")
        node = self._root
        idx = self._indices(va)
        for level_index in idx[:-2]:
            child = node.slots.get(level_index)
            if child is None:
                child = self._new_node()
                node.slots[level_index] = child
            node = child  # type: ignore[assignment]
        existing = node.slots.get(idx[-2])
        if isinstance(existing, _Node) and existing.slots:
            raise ValueError(f"huge mapping at {va:#x} would shadow "
                             f"existing 4 KB mappings")
        if not isinstance(existing, PageTableEntry):
            self._mapped_pages += HUGE_PAGE_SIZE // (1 << PAGE_SHIFT)
        node.slots[idx[-2]] = PageTableEntry(pfn, permissions, shared,
                                             page_shift=HUGE_PAGE_SHIFT)

    def unmap(self, va: int) -> Optional[PageTableEntry]:
        """Remove the leaf mapping (4 KB or 2 MB); returns it or None."""
        node = self._root
        idx = self._indices(va)
        for depth, level_index in enumerate(idx[:-1]):
            child = node.slots.get(level_index)
            if child is None:
                return None
            if isinstance(child, PageTableEntry):
                # Huge leaf encountered one level up.
                del node.slots[level_index]
                self._mapped_pages -= HUGE_PAGE_SIZE >> PAGE_SHIFT
                return child
            node = child  # type: ignore[assignment]
        entry = node.slots.pop(idx[-1], None)
        if entry is not None:
            self._mapped_pages -= 1
        return entry  # type: ignore[return-value]

    def set_permissions(self, va: int, permissions: int) -> None:
        """Rewrite a leaf's permission bits (CoW downgrades/promotions)."""
        self.entry(va).permissions = permissions

    def set_shared(self, va: int, shared: bool) -> None:
        """Flip the PTE sharing (synonym) bit."""
        self.entry(va).shared = shared

    # ------------------------------------------------------------------ #
    # Translation
    # ------------------------------------------------------------------ #

    def walk(self, va: int) -> Tuple[Optional[PageTableEntry], List[int]]:
        """One radix traversal: the leaf PTE (4 KB or 2 MB; None when
        unmapped) and the physical addresses of the PTEs a hardware walk
        reads, root→leaf.

        An unmapped level still contributes the address that *would* be
        read (the walk discovers the fault by reading it).
        """
        vpn = (va & _VA_MASK) >> PAGE_SHIFT
        node = self._root
        path = []
        for shift in _UPPER_SHIFTS:
            index = (vpn >> shift) & _INDEX_MASK
            path.append(node.pa + index * PTE_SIZE)
            slot = node.slots.get(index)
            if type(slot) is not _Node:
                return slot, path  # type: ignore[return-value]
            node = slot
        index = vpn & _INDEX_MASK
        path.append(node.pa + index * PTE_SIZE)
        return node.slots.get(index), path  # type: ignore[return-value]

    def entry(self, va: int) -> PageTableEntry:
        """Return the leaf PTE (4 KB or 2 MB) or raise :class:`PageFault`."""
        entry = self.walk(va)[0]
        if entry is None:
            raise PageFault(va)
        return entry

    def translate(self, va: int) -> int:
        """VA → PA for a mapped address (any leaf size)."""
        entry = self.entry(va)
        return (entry.pfn << PAGE_SHIFT) | (va & ((1 << entry.page_shift) - 1))

    def is_mapped(self, va: int) -> bool:
        return self.walk(va)[0] is not None

    def walk_path(self, va: int) -> List[int]:
        """Physical addresses of the PTEs a hardware walk reads, root→leaf."""
        return self.walk(va)[1]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def mapped_pages(self) -> int:
        return self._mapped_pages

    def iter_mappings(self) -> Iterator[Tuple[int, PageTableEntry]]:
        """Yield (va, entry) for every leaf mapping (OS bookkeeping)."""

        def recurse(node: _Node, prefix_vpn: int, level: int) -> Iterator[Tuple[int, PageTableEntry]]:
            for index, slot in node.slots.items():
                vpn = (prefix_vpn << BITS_PER_LEVEL) | index
                if isinstance(slot, _Node):
                    yield from recurse(slot, vpn, level + 1)
                else:
                    # Levels below this leaf contribute zero index bits.
                    shift = PAGE_SHIFT + BITS_PER_LEVEL * (LEVELS - 1 - level)
                    yield vpn << shift, slot  # type: ignore[misc]

        yield from recurse(self._root, 0, 0)
