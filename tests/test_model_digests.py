"""Behaviour pin: full-result digests of every MMU on five workloads.

The points, their simulation and the canonical snapshot live in
:mod:`repro.bench` (1,500 timed accesses after 500 warm-up ones at seed
7, on gups, postgres, mcf, stream and ferret).  Two committed files pin
them: ``tests/model_snapshots.json`` holds each point's snapshot and
``tests/model_digests.json`` its sha256.

A digest difference means the simulated model changed; the failure
lists the keys that moved.  Host-side refactors and optimizations must
keep every digest; an intentional model change refreshes both files in
the same change (see EXPERIMENTS.md)::

    PYTHONPATH=src python -m repro bench record
"""

from __future__ import annotations

import json
from typing import Dict

import pytest

from repro.bench import (DIGESTS_PATH, POINTS, diff, digest, load_snapshots,
                         point_name, snapshot)


@pytest.fixture(scope="module")
def committed() -> Dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


@pytest.fixture(scope="module")
def snapshots():
    return load_snapshots()


def test_every_point_is_pinned(committed):
    assert sorted(committed) == sorted(point_name(*p) for p in POINTS)


def test_snapshots_cover_every_point(snapshots):
    assert sorted(snapshots) == sorted(point_name(*p) for p in POINTS)


def test_snapshots_hash_to_committed_digests(committed, snapshots):
    drifted = [name for name in sorted(snapshots)
               if digest(snapshots[name]) != committed.get(name)]
    assert not drifted, ("model_snapshots.json and model_digests.json "
                         f"disagree on {drifted}; rerun `repro bench record`")


@pytest.mark.parametrize("workload,mmu", POINTS,
                         ids=[point_name(*p) for p in POINTS])
def test_digest_matches(committed, snapshots, workload, mmu):
    name = point_name(workload, mmu)
    snap = snapshot(workload, mmu)
    if digest(snap) != committed[name]:
        moved = diff({name: snapshots.get(name, {})}, {name: snap})
        pytest.fail("model output moved:\n" + "\n".join(moved))
