"""Behaviour pin: the generated reference stream of every catalog workload.

For each name in ``repro.workloads.names()`` the digest is the sha256 of
the first 2,000 ``(asid, core, va, is_write, gap)`` records of
``lay_out(name, Kernel(SystemConfig()), seed=7).trace(2000)``.  The
model digests (``test_model_digests.py``) cover five workloads; this pin
covers every pattern kind and allocation profile, including memcached's
512-VMA heap and the ``strided`` pattern.

A digest difference means the trace generator drew differently.  Host
optimizations of the generator must keep every digest; an intentional
change to a workload refreshes them in the same change::

    PYTHONPATH=src python tests/test_trace_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Dict

import pytest

from repro.common.params import SystemConfig
from repro.osmodel import Kernel
from repro.sim.runner import lay_out
from repro.workloads import names

DIGESTS_PATH = pathlib.Path(__file__).with_name("trace_digests.json")
RECORDS, SEED = 2000, 7


def digest(name: str) -> str:
    laid_out = lay_out(name, Kernel(SystemConfig()), seed=SEED)
    h = hashlib.sha256()
    for r in laid_out.trace(RECORDS):
        h.update(f"{r.asid},{r.core},{r.va},{int(r.is_write)},{r.gap}\n"
                 .encode("ascii"))
    return h.hexdigest()


@pytest.fixture(scope="module")
def committed() -> Dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def test_every_workload_is_pinned(committed):
    assert sorted(committed) == sorted(names())


@pytest.mark.parametrize("name", names())
def test_trace_digest_matches(committed, name):
    assert digest(name) == committed[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_trace_digests.py --write")
    digests = {name: digest(name) for name in names()}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True)
                            + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
