"""The trace generator's RNG helpers draw exactly what the stdlib draws.

``below`` and ``shuffle`` stand in for ``Random.randrange(0, n)`` and
``Random.shuffle`` on the trace hot path.  They must return the same
values and leave the generator in the same state, so a CPython change to
``random`` fails here by name instead of as a digest mismatch.
"""

import pytest

from repro.common.rng import below, make_rng, shuffle, zipf_sampler

SEEDS = (0, 1, 7, 1009)
BOUNDS = (1, 2, 63, 64, 65, 2 ** 31, 2 ** 40 + 3)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", BOUNDS)
def test_below_matches_randrange(seed, n):
    ours, theirs = make_rng(seed, "below"), make_rng(seed, "below")
    draw = below(ours)
    assert [draw(n) for _ in range(500)] == [theirs.randrange(0, n) for _ in range(500)]
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("length", (0, 1, 2, 50_000))
def test_shuffle_matches_stdlib(seed, length):
    ours, theirs = make_rng(seed, "shuffle"), make_rng(seed, "shuffle")
    x, y = list(range(length)), list(range(length))
    shuffle(ours, x)
    theirs.shuffle(y)
    assert x == y
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,theta", [(1, 0.8), (10, 0.0), (1000, 0.7), (4096, 1.2)])
def test_zipf_sampler_is_inverse_cdf(seed, n, theta):
    """Each sample is the first rank whose cumulative weight reaches u."""
    weights = [1.0 / ((rank + 1) ** theta) for rank in range(n)]
    total = sum(weights)
    cumulative, acc = [], 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    sample = zipf_sampler(make_rng(seed, "zipf"), n, theta)
    reference = make_rng(seed, "zipf")
    for _ in range(500):
        u = reference.random()
        expected = next((r for r, c in enumerate(cumulative) if c >= u), n - 1)
        assert sample() == expected
