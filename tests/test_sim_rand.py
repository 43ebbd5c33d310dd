"""Random streams and distribution properties."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rand import (
    Constant,
    Exponential,
    HeavyTail,
    LogNormal,
    Pareto,
    Streams,
    Uniform,
    Zipfian,
    bounded_draw,
)


class TestStreams:
    def test_same_seed_same_sequence(self):
        a = Streams(42).stream("x")
        b = Streams(42).stream("x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_are_independent(self):
        streams = Streams(42)
        a = streams.stream("a")
        b = streams.stream("b")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_stream_is_cached(self):
        streams = Streams(42)
        assert streams.stream("x") is streams.stream("x")

    def test_insensitive_to_creation_order(self):
        s1 = Streams(7)
        s2 = Streams(7)
        __ = s1.stream("noise")  # extra stream must not perturb "x"
        seq1 = [s1.stream("x").random() for _ in range(5)]
        seq2 = [s2.stream("x").random() for _ in range(5)]
        assert seq1 == seq2


class TestDistributions:
    def test_constant(self, rng):
        dist = Constant(5.0)
        assert dist.sample(rng) == 5.0
        assert dist.mean == 5.0

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            Constant(-1.0)

    def test_uniform_bounds(self, rng):
        dist = Uniform(2.0, 4.0)
        for _ in range(200):
            assert 2.0 <= dist.sample(rng) <= 4.0
        assert dist.mean == 3.0

    def test_exponential_mean(self, rng):
        dist = Exponential(100.0)
        samples = [dist.sample(rng) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(100.0, rel=0.05)

    def test_lognormal_mean_and_cv(self, rng):
        dist = LogNormal(mean=50.0, cv=0.5)
        samples = [dist.sample(rng) for _ in range(50_000)]
        mean = sum(samples) / len(samples)
        var = sum((x - mean) ** 2 for x in samples) / len(samples)
        assert mean == pytest.approx(50.0, rel=0.05)
        assert math.sqrt(var) / mean == pytest.approx(0.5, rel=0.1)

    def test_lognormal_positive(self, rng):
        dist = LogNormal(mean=1.0, cv=2.0)
        assert all(dist.sample(rng) > 0 for _ in range(1000))

    def test_pareto_minimum_is_scale(self, rng):
        dist = Pareto(xm=3.0, alpha=2.0)
        assert all(dist.sample(rng) >= 3.0 for _ in range(1000))

    def test_pareto_infinite_mean_below_one(self):
        assert Pareto(1.0, 0.5).mean == math.inf
        assert Pareto(1.0, 2.0).mean == pytest.approx(2.0)

    def test_heavy_tail_mixture_mean(self, rng):
        dist = HeavyTail(Constant(1.0), Constant(100.0), tail_prob=0.1)
        assert dist.mean == pytest.approx(0.9 * 1.0 + 0.1 * 100.0)
        samples = [dist.sample(rng) for _ in range(10_000)]
        tail_frac = sum(1 for x in samples if x == 100.0) / len(samples)
        assert tail_frac == pytest.approx(0.1, abs=0.02)

    def test_heavy_tail_prob_bounds(self):
        with pytest.raises(ValueError):
            HeavyTail(Constant(1.0), Constant(2.0), tail_prob=1.5)


class TestZipfian:
    def test_samples_in_range(self, rng):
        zipf = Zipfian(1000, theta=0.99)
        for _ in range(5000):
            assert 0 <= zipf.sample(rng) < 1000

    def test_key_zero_is_hottest(self, rng):
        zipf = Zipfian(1000, theta=0.99)
        counts = {}
        for _ in range(20_000):
            key = zipf.sample(rng)
            counts[key] = counts.get(key, 0) + 1
        assert max(counts, key=counts.get) == 0

    def test_more_skew_with_higher_theta(self, rng):
        low = Zipfian(1000, theta=0.5)
        high = Zipfian(1000, theta=0.99)
        low_hot = sum(1 for _ in range(20_000) if low.sample(rng) == 0)
        high_hot = sum(1 for _ in range(20_000) if high.sample(rng) == 0)
        assert high_hot > low_hot

    def test_large_n_uses_approximation(self, rng):
        zipf = Zipfian(2_000_000, theta=0.9)
        for _ in range(1000):
            assert 0 <= zipf.sample(rng) < 2_000_000

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Zipfian(0, theta=0.9)
        with pytest.raises(ValueError):
            Zipfian(10, theta=1.0)


@settings(max_examples=50, deadline=None)
@given(
    mean=st.floats(min_value=0.1, max_value=1e6),
    cv=st.floats(min_value=0.01, max_value=5.0),
)
def test_lognormal_always_positive_and_finite(mean, cv):
    import random

    dist = LogNormal(mean, cv)
    rng = random.Random(0)
    for _ in range(20):
        x = dist.sample(rng)
        assert x > 0
        assert math.isfinite(x)


#: The Kinderman-Monahan rejection constant of CPython's ``normalvariate``.
_KM_MAGIC = 4 * math.exp(-0.5) / math.sqrt(2.0)


def _reference_lognormal(rng, mu, sigma):
    """CPython's ``normalvariate`` rejection loop, exponentiated."""
    while True:
        u1 = rng.random()
        u2 = 1.0 - rng.random()
        z = _KM_MAGIC * (u1 - 0.5) / u2
        if z * z / 4.0 <= -math.log(u2):
            return math.exp(mu + z * sigma)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    mean=st.floats(min_value=0.1, max_value=1e6),
    cv=st.floats(min_value=0.01, max_value=5.0),
)
def test_lognormal_matches_reference_loop(seed, mean, cv):
    """``LogNormal.sample`` draws exactly what the reference loop draws.

    CI runs this on every supported Python, so a stdlib change to
    ``normalvariate`` fails here instead of shifting every golden.
    """
    import random

    dist = LogNormal(mean, cv)
    rng = random.Random(seed)
    ref = random.Random(seed)
    for _ in range(50):
        assert dist.sample(rng) == _reference_lognormal(ref, dist._mu, dist._sigma)
    assert rng.getstate() == ref.getstate()


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=1, max_value=100_000), theta=st.floats(0.05, 0.995))
def test_zipfian_stays_in_range(n, theta):
    import random

    zipf = Zipfian(n, theta=theta)
    rng = random.Random(1)
    for _ in range(50):
        assert 0 <= zipf.sample(rng) < n


class TestBoundedDraw:
    """``bounded_draw`` reproduces ``randrange``/``randint`` draw for draw.

    Compared against ``randrange``/``randint`` on a second stream with
    the same seed, on values and on the stream state afterwards, from
    three starting positions: ``fresh`` (just seeded), ``buffered``
    (after 144 ``random()`` draws) and ``native`` (after one
    ``getrandbits`` draw).  CI runs this on every supported Python, so
    a stdlib change to ``randrange`` fails here instead of shifting
    generator streams.
    """

    BOUNDS = (1, 2, 3, 10, 11, 300, 600, 8192, 8193, 10000, 1280000)
    DRAWS = 200

    def _pair(self, start, seed=11):
        import random as stdlib_random

        pair = stdlib_random.Random(seed), stdlib_random.Random(seed)
        for rng in pair:
            if start == "buffered":
                for _ in range(144):
                    rng.random()
            elif start == "native":
                rng.getrandbits(8)
        return pair

    @pytest.mark.parametrize("start", ["fresh", "buffered", "native"])
    @pytest.mark.parametrize("n", BOUNDS)
    def test_matches_randrange(self, n, start):
        rng, ref = self._pair(start)
        draw = bounded_draw(n)
        assert [draw(rng) for _ in range(self.DRAWS)] == [
            ref.randrange(n) for _ in range(self.DRAWS)
        ]
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("start", ["fresh", "buffered", "native"])
    def test_offset_matches_randint(self, start):
        rng, ref = self._pair(start)
        draw = bounded_draw(11)
        assert [5 + draw(rng) for _ in range(self.DRAWS)] == [
            ref.randint(5, 15) for _ in range(self.DRAWS)
        ]
        assert rng.getstate() == ref.getstate()

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            bounded_draw(0)
