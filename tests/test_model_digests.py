"""Behaviour pin: full-result digests of every MMU on three workloads.

Each point simulates 1,500 timed accesses after 500 warm-up ones at
seed 7 and hashes the canonical JSON of everything the model computes:
``stats``, ``cycle_breakdown``, ``histograms``, ``cycles`` and
``instructions``.  The points cover every native configuration
(``MMU_CONFIGS`` + ``PRIOR_CONFIGS``) and the virtualized MMUs
(``VirtConventionalMmu`` and ``VirtHybridMmu`` with the delayed TLB and
with segments) on gups (random), postgres and ferret (sharing), mcf
(segments) and stream (streaming).

A digest difference means the simulated model changed.  Host-side
refactors and optimizations must keep every digest; an intentional model
change refreshes them in the same change (see EXPERIMENTS.md)::

    PYTHONPATH=src python tests/test_model_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Dict

import pytest

from repro.exec.job import Job
from repro.sim.runner import MMU_CONFIGS, PRIOR_CONFIGS, lay_out
from repro.sim.simulator import Simulator
from repro.virt import Hypervisor, VirtConventionalMmu, VirtHybridMmu

DIGESTS_PATH = pathlib.Path(__file__).with_name("model_digests.json")
WORKLOADS = ("gups", "postgres", "mcf", "stream", "ferret")
VIRT_MMUS = ("virt_baseline", "virt_hybrid_tlb", "virt_hybrid_segments")
MMUS = MMU_CONFIGS + PRIOR_CONFIGS + VIRT_MMUS
ACCESSES, WARMUP, SEED = 1500, 500, 7
DIGEST_FIELDS = ("stats", "cycle_breakdown", "histograms", "cycles",
                 "instructions")


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


def digest(workload: str, mmu: str) -> str:
    doc = simulate(workload, mmu).to_json_dict()
    payload = {field: doc[field] for field in DIGEST_FIELDS}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def point_name(workload: str, mmu: str) -> str:
    return f"{workload}/{mmu}"


POINTS = [(workload, mmu) for workload in WORKLOADS for mmu in MMUS]


@pytest.fixture(scope="module")
def committed() -> Dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def test_every_point_is_pinned(committed):
    assert sorted(committed) == sorted(point_name(*p) for p in POINTS)


@pytest.mark.parametrize("workload,mmu", POINTS,
                         ids=[point_name(*p) for p in POINTS])
def test_digest_matches(committed, workload, mmu):
    assert digest(workload, mmu) == committed[point_name(workload, mmu)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_model_digests.py --write")
    digests = {point_name(*p): digest(*p) for p in POINTS}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True)
                            + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
