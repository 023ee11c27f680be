"""Deterministic random-number helpers.

Every stochastic component (workload generators, fragmentation injection,
worst-case index-cache traffic) takes an explicit seed so that experiments
are reproducible run-to-run.  We use ``random.Random`` instances rather
than the module-level functions so independent components never perturb
each other's streams.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_left
from itertools import accumulate


def make_rng(seed: int, stream: str = "") -> random.Random:
    """Return an independent ``random.Random`` derived from (seed, stream).

    The ``stream`` label decorrelates multiple generators sharing one
    user-facing seed (e.g. a workload's layout RNG vs. its access RNG).
    The derivation must not use ``hash()``: string hashing is randomized
    per process (PYTHONHASHSEED), which would make the same (seed,
    stream) produce different traces across runs.
    """
    if stream:
        seed = (seed << 32) ^ zlib.crc32(stream.encode())
    return random.Random(seed)


def below(rng: random.Random):
    """Return a callable drawing ``rng.randrange(0, n)`` for ``n >= 1``.

    It consumes exactly the bits the stdlib does (``getrandbits`` of
    ``n.bit_length()`` bits, rejecting draws ``>= n``), so it can replace
    ``randrange`` inside a generator without changing its stream, at the
    cost of one bound-method call per draw instead of three.
    """
    getrandbits = rng.getrandbits

    def draw(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return draw


def shuffle(rng: random.Random, x: list) -> None:
    """Shuffle ``x`` in place exactly as ``rng.shuffle(x)`` would."""
    getrandbits = rng.getrandbits
    for n in range(len(x), 1, -1):
        # Swap x[n - 1] with x[randrange(0, n)], drawn as below() does.
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        x[n - 1], x[j] = x[j], x[n - 1]


def zipf_sampler(rng: random.Random, n: int, theta: float = 0.8):
    """Return a callable sampling Zipf-distributed ranks in ``[0, n)``.

    Uses the standard inverse-CDF construction over precomputed cumulative
    weights; ``theta`` is the skew (0 = uniform, ~1 = strongly skewed).
    Hot-ranked items model the hot-page behaviour of server workloads.
    """
    if n <= 0:
        raise ValueError("zipf_sampler needs n >= 1")
    weights = [1.0 / rank ** theta for rank in range(1, n + 1)]
    total = sum(weights)
    cumulative = list(accumulate(w / total for w in weights))
    random_ = rng.random
    hi = n - 1

    def sample() -> int:
        # First rank whose cumulative weight reaches u; float rounding
        # can leave the last entry just below 1.0, so cap at n - 1.
        return bisect_left(cumulative, random_(), 0, hi)

    return sample
