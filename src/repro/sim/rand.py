"""Named, seeded random streams and latency distributions.

All randomness in a simulation flows through a :class:`Streams` object so
that a run is a pure function of ``(config, seed)``.  Each subsystem asks
for its own named stream (``streams.stream("lockmgr")``), which makes runs
insensitive to the *order* in which unrelated subsystems draw numbers —
adding a draw to the disk model does not perturb the workload generator.

Distributions are small immutable objects with ``sample(rng) -> float``.
The latency-bearing ones (service times, I/O) use a lognormal body —
the canonical shape for storage and queueing service times — optionally
mixed with a Pareto tail to model fsync stalls and write-cache flushes.
"""

import hashlib
import math
import random

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a baked-in dependency
    _np = None


class BufferedRandom(random.Random):
    """``random.Random`` serving ``random()`` from a refillable buffer.

    The buffer is pre-drawn in one block — via ``numpy.random.RandomState``
    when available (its legacy ``random_sample`` consumes the MT19937 core
    word-for-word like CPython's ``random()``), else via a tight scalar
    loop — and the core state is fast-forwarded past the whole block.

    Stream semantics are unchanged: the sequence of variates any mix of
    consumers sees is byte-identical to an unbuffered ``random.Random``
    with the same seed.  Two rules keep that true:

    - ``random()`` (and everything built on it: ``uniform``, ``gauss``,
      ``normalvariate``, ``expovariate``, ``lognormvariate``, Zipfian and
      Pareto draws ...) serves the next pre-drawn variate;
    - consumers that read the MT core *directly* (``getrandbits`` — and
      through it ``randrange``/``randint``/``shuffle``/``sample`` — plus
      ``randbytes`` and ``getstate``) first *rewind-sync*: the core state
      is restored to the block anchor and replayed over the variates
      already served, discarding the unserved remainder.  The next
      ``random()`` starts a fresh block from the synced position.
    """

    #: Class-level defaults so ``seed`` works during ``Random.__init__``
    #: (which runs before instance attributes exist).
    _buf = ()
    _idx = 0
    _anchor = None
    _streak = 0
    _buffer_size = 1024
    #: Consecutive un-synced ``random()`` draws before buffering kicks
    #: in.  Streams that interleave direct-core consumers (``randint``,
    #: ``shuffle`` ...) between short runs of variates never reach it and
    #: stay on the native scalar path — buffering them would pay a block
    #: refill plus a rewind-sync per interleaving and win nothing.
    _warmup = 128

    def __init__(self, seed=None, buffer_size=1024):
        super().__init__(seed)
        self._buffer_size = int(buffer_size)
        self._rs = None

    # -- buffered uniform path -----------------------------------------

    def random(self):
        """The next variate of the stream (buffered after a warm-up)."""
        # Bounds check, not try/except: unbuffered streams (the warm-up
        # never completes on mixed streams) would raise on every draw,
        # and exception dispatch costs ~10x the comparison.
        idx = self._idx
        buf = self._buf
        if idx < len(buf):
            self._idx = idx + 1
            return buf[idx]
        streak = self._streak
        if streak >= self._warmup:
            return self._refill()
        self._streak = streak + 1
        return super().random()

    def _refill(self):
        """Refill the buffer from the core and serve the first variate.

        The core is left *past the whole block*; ``_anchor`` remembers
        the pre-block state so direct core consumers can rewind-sync.
        """
        anchor = random.Random.getstate(self)
        n = self._buffer_size
        if _np is not None:
            core = anchor[1]
            rs = self._rs
            if rs is None:
                rs = self._rs = _np.random.RandomState()
            rs.set_state(("MT19937", core[:-1], core[-1]))
            buf = rs.random_sample(n).tolist()
            after = rs.get_state()
            random.Random.setstate(
                self,
                (
                    anchor[0],
                    tuple(after[1].tolist()) + (int(after[2]),),
                    self.gauss_next,
                ),
            )
        else:
            scalar = super().random
            buf = [scalar() for _ in range(n)]
        self._anchor = anchor
        self._buf = buf
        self._idx = 1
        return buf[0]

    def _sync(self):
        """Rewind the core to the logical stream position, drop the buffer."""
        buf = self._buf
        if buf:
            if self._idx < len(buf):
                # Unserved variates pending: rewind to the block anchor
                # and replay only what was actually served.  Only the
                # core words rewind — ``gauss_next`` lives outside the
                # core and may have been updated since the refill.
                anchor = self._anchor
                random.Random.setstate(
                    self, (anchor[0], anchor[1], self.gauss_next)
                )
                scalar = super().random
                for _ in range(self._idx):
                    scalar()
            # else: the block was fully served; the core already sits at
            # the logical position.
            self._buf = ()
            self._idx = 0
        self._anchor = None
        self._streak = 0

    # -- direct core consumers: sync first -----------------------------

    def getrandbits(self, k):
        # ``_buf`` empty implies no anchor either (invariant), so the
        # no-buffer case only needs the warm-up streak reset — plus the
        # native rebinding: a direct core consumer arriving before the
        # warm-up completes marks the stream as mixed, buffering will
        # never pay, and the Python ``random`` wrapper costs ~1us/draw
        # on streams that stay unbuffered.  Binding the C core
        # ``random`` on the instance skips the wrapper for good; the
        # value stream is identical with or without buffering.
        if self._buf:
            self._sync()
        else:
            self._go_native()
        return super().getrandbits(k)

    def randbytes(self, n):
        if self._buf:
            self._sync()
        else:
            self._go_native()
        return super().randbytes(n)

    def _go_native(self):
        """Mixed stream: bind the core methods, skip the wrappers for good.

        Once a stream is native, ``random()`` never buffers again, so
        the ``getrandbits``/``randbytes`` sync checks are dead too —
        ``randrange``/``randint`` go straight to the C core.
        """
        self._streak = 0
        self.random = super().random
        self.getrandbits = super().getrandbits
        self.randbytes = super().randbytes

    def getstate(self):
        self._sync()
        return super().getstate()

    def setstate(self, state):
        self._buf = ()
        self._idx = 0
        self._anchor = None
        self._streak = 0
        self._undo_native()
        super().setstate(state)

    def seed(self, a=None, version=2):
        self._buf = ()
        self._idx = 0
        self._anchor = None
        self._streak = 0
        self._undo_native()
        super().seed(a, version)

    def _undo_native(self):
        pop = self.__dict__.pop
        pop("random", None)
        pop("getrandbits", None)
        pop("randbytes", None)


def bounded_draw(n):
    """Return ``draw(rng)``, value- and stream-identical to ``rng.randrange(n)``.

    ``draw`` is CPython's ``Random._randbelow_with_getrandbits`` with the
    bit count worked out once for the fixed bound: ``getrandbits(k)``
    with ``k = n.bit_length()`` until the result is below ``n``.  It
    skips ``randrange``'s argument checks and one Python call layer.
    ``rng.randint(a, b)`` equals ``a + bounded_draw(b - a + 1)(rng)``.
    ``tests/test_sim_rand.py`` pins the equivalence on every supported
    Python, so a change to the stdlib's draw fails there instead of
    silently shifting a stream.
    """
    if n < 1:
        raise ValueError("bounded_draw needs n >= 1, got %r" % (n,))
    k = n.bit_length()

    def draw(rng):
        getrandbits = rng.getrandbits
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return draw


class Streams:
    """A family of independent named RNG streams derived from one seed."""

    def __init__(self, seed):
        self.seed = seed
        self._streams = {}

    def stream(self, name):
        """Return (creating on first use) the stream for ``name``."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(
                ("%s/%s" % (self.seed, name)).encode("utf-8")
            ).digest()
            rng = BufferedRandom(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def scoped(self, prefix):
        """A view whose stream names are prefixed with ``prefix``.

        The cluster layer hands each node ``streams.scoped("node3/")``
        so two engines asking for ``"mysql.engine"`` get *independent*
        streams (``node3/mysql.engine`` vs ``node0/mysql.engine``)
        without any engine code knowing about nodes.  Scopes nest.
        """
        return ScopedStreams(self, prefix)


class ScopedStreams:
    """A name-prefixing view over a :class:`Streams` family."""

    __slots__ = ("_base", "_prefix")

    def __init__(self, base, prefix):
        self._base = base
        self._prefix = prefix

    @property
    def seed(self):
        return self._base.seed

    def stream(self, name):
        return self._base.stream(self._prefix + name)

    def scoped(self, prefix):
        return ScopedStreams(self._base, self._prefix + prefix)

    def __repr__(self):
        return "<ScopedStreams %r of %r>" % (self._prefix, self._base)


#: ``random.NV_MAGICCONST`` — the Kinderman-Monahan rejection constant,
#: reproduced here so :class:`LogNormal` can inline the stdlib draw loop.
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)


class Distribution:
    """Base class for latency / size distributions."""

    def sample(self, rng):
        raise NotImplementedError

    @property
    def mean(self):
        raise NotImplementedError


class Constant(Distribution):
    """A degenerate distribution: always ``value``."""

    __slots__ = ("value",)

    def __init__(self, value):
        if value < 0:
            raise ValueError("Constant value must be >= 0")
        self.value = value

    def sample(self, rng):
        return self.value

    @property
    def mean(self):
        return self.value

    def __repr__(self):
        return "Constant(%r)" % (self.value,)


class Uniform(Distribution):
    """Uniform on ``[low, high]``."""

    __slots__ = ("low", "high")

    def __init__(self, low, high):
        if not 0 <= low <= high:
            raise ValueError("need 0 <= low <= high")
        self.low = low
        self.high = high

    def sample(self, rng):
        return rng.uniform(self.low, self.high)

    @property
    def mean(self):
        return (self.low + self.high) / 2.0

    def __repr__(self):
        return "Uniform(%r, %r)" % (self.low, self.high)


class Exponential(Distribution):
    """Exponential with the given mean (used for arrival jitter)."""

    __slots__ = ("_mean",)

    def __init__(self, mean):
        if mean <= 0:
            raise ValueError("Exponential mean must be > 0")
        self._mean = mean

    def sample(self, rng):
        return rng.expovariate(1.0 / self._mean)

    @property
    def mean(self):
        return self._mean

    def __repr__(self):
        return "Exponential(%r)" % (self._mean,)


class LogNormal(Distribution):
    """Lognormal parameterised by its mean and coefficient of variation.

    Given desired mean m and cv c: sigma^2 = ln(1 + c^2) and
    mu = ln(m) - sigma^2 / 2, so that E[X] = m and Std[X]/E[X] = c.
    """

    __slots__ = ("_mean", "cv", "_mu", "_sigma")

    def __init__(self, mean, cv):
        if mean <= 0:
            raise ValueError("LogNormal mean must be > 0")
        if cv <= 0:
            raise ValueError("LogNormal cv must be > 0")
        self._mean = mean
        self.cv = cv
        sigma2 = math.log(1.0 + cv * cv)
        self._sigma = math.sqrt(sigma2)
        self._mu = math.log(mean) - sigma2 / 2.0

    def sample(self, rng):
        # Inlined ``rng.lognormvariate(self._mu, self._sigma)``: the same
        # Kinderman-Monahan rejection loop (and therefore the same draw
        # sequence, bit for bit) as ``random.normalvariate``, minus two
        # Python call layers on the run's hottest distribution.  When the
        # stream is a :class:`BufferedRandom` with pre-drawn variates
        # available, the loop reads them straight off the buffer (each
        # rejection round consumes exactly two uniforms).
        log = math.log
        mu = self._mu
        sigma = self._sigma
        buf = getattr(rng, "_buf", None)
        if buf is not None:
            idx = rng._idx
            n = len(buf)
            while idx + 2 <= n:
                u1 = buf[idx]
                u2 = 1.0 - buf[idx + 1]
                idx += 2
                z = _NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    rng._idx = idx
                    return math.exp(mu + z * sigma)
            rng._idx = idx
        random = rng.random
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                return math.exp(mu + z * sigma)

    @property
    def mean(self):
        return self._mean

    def __repr__(self):
        return "LogNormal(mean=%r, cv=%r)" % (self._mean, self.cv)


class Pareto(Distribution):
    """Pareto with scale ``xm`` and shape ``alpha`` (alpha > 1 for finite mean)."""

    __slots__ = ("xm", "alpha")

    def __init__(self, xm, alpha):
        if xm <= 0 or alpha <= 0:
            raise ValueError("Pareto requires xm > 0 and alpha > 0")
        self.xm = xm
        self.alpha = alpha

    def sample(self, rng):
        return self.xm * math.pow(1.0 - rng.random(), -1.0 / self.alpha)

    @property
    def mean(self):
        if self.alpha <= 1.0:
            return math.inf
        return self.alpha * self.xm / (self.alpha - 1.0)

    def __repr__(self):
        return "Pareto(xm=%r, alpha=%r)" % (self.xm, self.alpha)


class HeavyTail(Distribution):
    """Mixture: with probability ``tail_prob`` draw from ``tail``, else ``body``.

    Models fsync / write-cache stalls: a well-behaved lognormal body with
    occasional order-of-magnitude excursions.
    """

    __slots__ = ("body", "tail", "tail_prob")

    def __init__(self, body, tail, tail_prob):
        if not 0.0 <= tail_prob <= 1.0:
            raise ValueError("tail_prob must be in [0, 1]")
        self.body = body
        self.tail = tail
        self.tail_prob = tail_prob

    def sample(self, rng):
        if rng.random() < self.tail_prob:
            return self.tail.sample(rng)
        return self.body.sample(rng)

    @property
    def mean(self):
        return (
            self.tail_prob * self.tail.mean + (1.0 - self.tail_prob) * self.body.mean
        )

    def __repr__(self):
        return "HeavyTail(%r, %r, tail_prob=%r)" % (
            self.body,
            self.tail,
            self.tail_prob,
        )


class Zipfian:
    """YCSB-style Zipfian integer generator over ``[0, n)``.

    Uses the standard Gray et al. quick algorithm with an incrementally
    maintained zeta value; ``theta`` close to 1 means more skew.
    """

    def __init__(self, n, theta=0.99):
        if n <= 0:
            raise ValueError("Zipfian n must be > 0")
        if not 0.0 < theta < 1.0:
            raise ValueError("Zipfian theta must be in (0, 1)")
        self.n = n
        self.theta = theta
        self._zeta_n = self._zeta(n, theta)
        self._zeta_2 = self._zeta(min(n, 2), theta)
        self._alpha = 1.0 / (1.0 - theta)
        if n <= 2:
            # Degenerate key spaces: sample from the explicit CDF (the
            # quick algorithm's eta term divides by zero here).
            self._eta = None
        else:
            self._eta = (1.0 - math.pow(2.0 / n, 1.0 - theta)) / (
                1.0 - self._zeta_2 / self._zeta_n
            )
        # ``sample`` returns key 1 when ``u * zeta_n`` falls below this.
        self._key1_bound = 1.0 + math.pow(0.5, theta)
        self._last_key = n - 1

    @staticmethod
    def _zeta(n, theta):
        # Exact for small n, integral approximation for large n: the
        # difference is immaterial for key selection and this keeps setup
        # O(1) for YCSB-scale key spaces.
        if n <= 10000:
            return sum(1.0 / math.pow(i, theta) for i in range(1, n + 1))
        head = sum(1.0 / math.pow(i, theta) for i in range(1, 10001))
        tail = (math.pow(n, 1.0 - theta) - math.pow(10000, 1.0 - theta)) / (
            1.0 - theta
        )
        return head + tail

    def sample(self, rng):
        """Return a key in ``[0, n)``; key 0 is the hottest."""
        u = rng.random()
        uz = u * self._zeta_n
        if uz < 1.0 or self.n == 1:
            return 0
        if uz < self._key1_bound or self.n == 2:
            return 1
        key = int(self.n * math.pow(self._eta * u - self._eta + 1.0, self._alpha))
        last = self._last_key
        return key if key < last else last

    def __repr__(self):
        return "Zipfian(n=%r, theta=%r)" % (self.n, self.theta)
