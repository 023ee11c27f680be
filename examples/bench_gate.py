#!/usr/bin/env python
"""The model-regression check, end to end and in memory.

1. simulate two of the pinned points and diff their snapshots against
   the committed ``tests/model_snapshots.json`` — the model is
   deterministic, so nothing moves;
2. perturb the model (count every DRAM stall twice, as a slip in the
   timing model would) and diff again: every moved value is named as
   ``point: key old → new``.

Equivalent CLI: ``repro bench check`` (all 60 points; exits 1 when any
key moved), and ``repro bench record`` after an intentional change.
"""

from repro import bench
from repro.timing.model import TimingModel

POINTS = [("stream", "baseline"), ("mcf", "hybrid_segments")]


def check():
    """The diff of ``POINTS`` against their committed snapshots."""
    committed = bench.load_snapshots()
    old, new = {}, {}
    for point in POINTS:
        name = bench.point_name(*point)
        old[name] = committed[name]
        new[name] = bench.snapshot(*point)
    return bench.diff(old, new)


def report(lines) -> None:
    print(f"verdict: {'FAIL' if lines else 'PASS'} "
          f"({len(POINTS)} points, {len(lines)} moved keys)")
    for line in lines:
        print(f"  {line}")


def main() -> None:
    print("-- the committed model --")
    report(check())

    print("\n-- a perturbed model: every DRAM stall counted twice --")
    record = TimingModel.record

    def record_dram_twice(self, outcome, instructions_between=1):
        record(self, outcome, instructions_between)
        self.acct.dram_stall_cycles += outcome.dram_cycles

    TimingModel.record = record_dram_twice
    try:
        report(check())
    finally:
        TimingModel.record = record


if __name__ == "__main__":
    main()
