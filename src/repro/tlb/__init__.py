"""TLB structures: set-associative TLB, per-core hierarchy, page walker."""

from repro.tlb.base import PERM_READ, PERM_RW, PERM_WRITE, SetAssociativeTlb, TlbEntry
from repro.tlb.hierarchy import TlbHierarchy
from repro.tlb.walker import PageWalker, WalkResult

__all__ = [
    "PERM_READ",
    "PERM_RW",
    "PERM_WRITE",
    "SetAssociativeTlb",
    "TlbEntry",
    "TlbHierarchy",
    "PageWalker",
    "WalkResult",
]
