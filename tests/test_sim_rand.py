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


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=1, max_value=100_000), theta=st.floats(0.05, 0.995))
def test_zipfian_stays_in_range(n, theta):
    import random

    zipf = Zipfian(n, theta=theta)
    rng = random.Random(1)
    for _ in range(50):
        assert 0 <= zipf.sample(rng) < n


class TestBufferedRandomEquivalence:
    """``BufferedRandom`` must be value-identical to ``random.Random``.

    The buffered uniform path, the native rebinding on mixed streams,
    and the rewind-sync for direct core consumers are wall-clock
    optimisations only: every draw sequence must match a plain
    ``random.Random`` seeded identically, no matter how the call kinds
    interleave.
    """

    OPS = ("random", "randint", "getrandbits", "randbytes",
           "gauss", "lognormvariate", "shuffle", "getstate_roundtrip")

    def _apply(self, rng, op):
        if op == "random":
            return rng.random()
        if op == "randint":
            return rng.randint(0, 10 ** 9)
        if op == "getrandbits":
            return rng.getrandbits(64)
        if op == "randbytes":
            return rng.randbytes(7)
        if op == "gauss":
            return rng.gauss(0.0, 1.0)
        if op == "lognormvariate":
            return rng.lognormvariate(0.1, 0.8)
        if op == "shuffle":
            items = list(range(10))
            rng.shuffle(items)
            return tuple(items)
        state = rng.getstate()
        rng.setstate(state)
        return None

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.sampled_from(OPS + ("random",) * 4), min_size=1, max_size=400
        ),
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    def test_torture_interleaving_matches_plain_random(self, ops, seed):
        import random as stdlib_random

        from repro.sim.rand import BufferedRandom

        buffered = BufferedRandom(seed)
        plain = stdlib_random.Random(seed)
        for op in ops:
            assert self._apply(buffered, op) == self._apply(plain, op), op

    def test_long_uniform_run_crosses_refill_boundaries(self):
        import random as stdlib_random

        from repro.sim.rand import BufferedRandom

        buffered = BufferedRandom(99)
        plain = stdlib_random.Random(99)
        draws = [(buffered.random(), plain.random()) for _ in range(5000)]
        assert all(a == b for a, b in draws)
        # The warm-up completed and the buffer engaged.
        assert buffered._buf

    def test_mixed_stream_goes_native_and_stays_identical(self):
        import random as stdlib_random

        from repro.sim.rand import BufferedRandom

        buffered = BufferedRandom(7)
        plain = stdlib_random.Random(7)
        assert buffered.random() == plain.random()
        assert buffered.getrandbits(32) == plain.getrandbits(32)
        # First direct-core call before warm-up: the instance rebinds
        # the C-level methods and never buffers.
        assert "random" in buffered.__dict__
        for _ in range(500):
            assert buffered.random() == plain.random()
        assert not buffered._buf
        # Re-seeding restores the buffering wrapper.
        buffered.seed(7)
        assert "random" not in buffered.__dict__

    def test_state_roundtrip_mid_buffer(self):
        import random as stdlib_random

        from repro.sim.rand import BufferedRandom

        buffered = BufferedRandom(3)
        plain = stdlib_random.Random(3)
        for _ in range(300):  # past warm-up, buffer engaged
            assert buffered.random() == plain.random()
        state = buffered.getstate()
        expected = [plain.random() for _ in range(10)]
        assert [buffered.random() for _ in range(10)] == expected
        buffered.setstate(state)
        assert [buffered.random() for _ in range(10)] == expected


class TestBoundedDraw:
    """``bounded_draw`` reproduces ``randrange``/``randint`` draw for draw.

    Compared against a plain ``random.Random`` on values and on the core
    state afterwards, from a :class:`BufferedRandom` that is fresh, one
    that is buffering (past the ``random()`` warm-up) and one already
    native.  CI runs this on every supported Python, so a stdlib change
    to ``randrange`` fails here instead of shifting generator streams.
    """

    BOUNDS = (1, 2, 3, 10, 11, 300, 600, 8192, 8193, 10000, 1280000)
    DRAWS = 200

    def _pair(self, state, seed=11):
        import random as stdlib_random

        from repro.sim.rand import BufferedRandom

        buffered = BufferedRandom(seed)
        plain = stdlib_random.Random(seed)
        if state == "buffered":
            for _ in range(BufferedRandom._warmup + 16):
                assert buffered.random() == plain.random()
            assert buffered._buf
        elif state == "native":
            assert buffered.getrandbits(8) == plain.getrandbits(8)
            assert "getrandbits" in buffered.__dict__
        return buffered, plain

    @pytest.mark.parametrize("state", ["fresh", "buffered", "native"])
    @pytest.mark.parametrize("n", BOUNDS)
    def test_matches_randrange(self, n, state):
        buffered, plain = self._pair(state)
        draw = bounded_draw(n)
        assert [draw(buffered) for _ in range(self.DRAWS)] == [
            plain.randrange(n) for _ in range(self.DRAWS)
        ]
        assert buffered.getstate() == plain.getstate()

    @pytest.mark.parametrize("state", ["fresh", "buffered", "native"])
    def test_offset_matches_randint(self, state):
        buffered, plain = self._pair(state)
        draw = bounded_draw(11)
        assert [5 + draw(buffered) for _ in range(self.DRAWS)] == [
            plain.randint(5, 15) for _ in range(self.DRAWS)
        ]
        assert buffered.getstate() == plain.getstate()

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            bounded_draw(0)
