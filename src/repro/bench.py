"""The model-regression check: 60 pinned points, their snapshots, a diff.

Each point simulates 1,500 timed accesses after 500 warm-up ones at
seed 7 on a fresh system and keeps everything the model computes —
``stats``, ``cycle_breakdown``, ``histograms``, ``cycles`` and
``instructions`` — as its *snapshot*.  The points cover every native
configuration (``MMU_CONFIGS`` + ``PRIOR_CONFIGS``) and the virtualized
MMUs (``VirtConventionalMmu`` and ``VirtHybridMmu`` with the delayed TLB
and with segments) on gups (random), postgres and ferret (sharing), mcf
(segments) and stream (streaming).

Two committed files pin them: ``tests/model_snapshots.json`` (one
canonical snapshot per point) and ``tests/model_digests.json`` (the
sha256 of each snapshot's canonical JSON).  ``repro bench check``
re-simulates every point and prints ``point: key old → new`` for every
value that moved; ``repro bench record`` rewrites both files after an
intentional model change (see EXPERIMENTS.md).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple

from repro.exec.job import Job
from repro.sim.runner import MMU_CONFIGS, PRIOR_CONFIGS, lay_out
from repro.sim.simulator import Simulator
from repro.virt import Hypervisor, VirtConventionalMmu, VirtHybridMmu

_TESTS = Path(__file__).resolve().parents[2] / "tests"
SNAPSHOTS_PATH = _TESTS / "model_snapshots.json"
DIGESTS_PATH = _TESTS / "model_digests.json"

WORKLOADS = ("gups", "postgres", "mcf", "stream", "ferret")
VIRT_MMUS = ("virt_baseline", "virt_hybrid_tlb", "virt_hybrid_segments")
MMUS = MMU_CONFIGS + PRIOR_CONFIGS + VIRT_MMUS
ACCESSES, WARMUP, SEED = 1500, 500, 7
SNAPSHOT_FIELDS = ("stats", "cycle_breakdown", "histograms", "cycles",
                   "instructions")

POINTS: List[Tuple[str, str]] = [(workload, mmu) for workload in WORKLOADS
                                 for mmu in MMUS]

Snapshot = Dict[str, Any]


def point_name(workload: str, mmu: str) -> str:
    return f"{workload}/{mmu}"


def simulate(workload: str, mmu: str):
    """One point on a fresh system."""
    if mmu not in VIRT_MMUS:
        return Job(workload=workload, mmu=mmu, accesses=ACCESSES,
                   warmup=WARMUP, seed=SEED).run()
    hypervisor = Hypervisor()
    vm = hypervisor.create_vm(f"vm-{workload}")
    laid_out = lay_out(workload, vm.guest_kernel, seed=SEED)
    if mmu == "virt_baseline":
        model = VirtConventionalMmu(hypervisor, vm)
    else:
        model = VirtHybridMmu(hypervisor, vm,
                              delayed=mmu.rsplit("_", 1)[1])
    return Simulator(model).run(laid_out, ACCESSES, warmup=WARMUP, seed=SEED)


def snapshot(workload: str, mmu: str) -> Snapshot:
    """The model's full output at one point."""
    doc = simulate(workload, mmu).to_json_dict()
    return {field: doc[field] for field in SNAPSHOT_FIELDS}


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(snap: Snapshot) -> str:
    return hashlib.sha256(_canonical(snap).encode("utf-8")).hexdigest()


def _flatten(value: Any, prefix: str = "") -> Dict[str, Any]:
    """Dotted keys down to the leaves; a list is one leaf."""
    if not isinstance(value, dict):
        return {prefix: value}
    flat: Dict[str, Any] = {}
    for key, item in value.items():
        flat.update(_flatten(item, f"{prefix}.{key}" if prefix else key))
    return flat


def diff(old: Mapping[str, Snapshot], new: Mapping[str, Snapshot]
         ) -> List[str]:
    """``point: key old → new`` for every leaf that differs.

    Both sides map point names to snapshots.  A key (or point) present
    on one side only shows ``(absent)`` on the other.  Values compare by
    their canonical JSON, so ``1`` and ``1.0`` differ as their digests
    do.
    """
    lines = []
    for point in sorted(set(old) | set(new)):
        before = _flatten(old.get(point, {}))
        after = _flatten(new.get(point, {}))
        for key in sorted(set(before) | set(after)):
            was = _canonical(before[key]) if key in before else "(absent)"
            now = _canonical(after[key]) if key in after else "(absent)"
            if was != now:
                lines.append(f"{point}: {key} {was} → {now}")
    return lines


def load_snapshots() -> Dict[str, Snapshot]:
    return json.loads(SNAPSHOTS_PATH.read_text())


def simulate_points() -> Dict[str, Snapshot]:
    return {point_name(*point): snapshot(*point) for point in POINTS}


def record() -> None:
    """Re-simulate every point and rewrite both committed files.

    The snapshot file holds one point per line, so a model change shows
    in ``git diff`` as the lines of the points it moved.
    """
    snaps = simulate_points()
    lines = [f"{json.dumps(name)}:{_canonical(snaps[name])}"
             for name in sorted(snaps)]
    SNAPSHOTS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    digests = {name: digest(snap) for name, snap in snaps.items()}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True)
                            + "\n")
