"""A single-server disk model with heavy-tailed flush latency.

The paper's inherent-variance sources (``fil_flush`` in MySQL, the flush
under Postgres's WALWriteLock) are driven by the *latency distribution* of
the underlying device, amplified by FIFO queueing when several requests
pile up.  This model captures both:

- each request's service time = per-call base + bytes / bandwidth, with the
  base drawn from a lognormal body mixed with a Pareto tail (fsync stalls);
- requests are serialised FIFO; a request arriving while the device is busy
  waits until the device drains (tracked with a "busy-until" horizon rather
  than a process, which keeps the model cheap and exactly FIFO).

Fault injection (``repro.faults``): during a configured brownout window
every service time on the device is multiplied by the plan's slowdown
factor, and a seeded coin can make an operation fail with
:class:`~repro.faults.TransientIOError` after paying an error-detection
latency — callers on durability paths (the WAL layers) retry.  Both hooks
are no-ops behind the ``faults.enabled`` check when no plan is active.
"""

from repro.exec.schema import register_config
from repro.faults.injector import TransientIOError
from repro.sim.rand import HeavyTail, LogNormal, Pareto


@register_config
class DiskConfig:
    """Tunable device parameters (times in microseconds, sizes in bytes).

    The defaults describe a SATA-era device behind an OS page cache, the
    regime of the paper's testbed: buffered writes are cheap (~tens of µs),
    a flush (fsync) costs milliseconds with an occasional long stall.
    """

    def __init__(
        self,
        write_base_mean=30.0,
        write_base_cv=0.4,
        bandwidth_bytes_per_us=200.0,
        flush_base_mean=2000.0,
        flush_base_cv=0.6,
        flush_tail_prob=0.02,
        flush_tail_scale=8000.0,
        flush_tail_alpha=1.8,
        read_base_mean=400.0,
        read_base_cv=0.5,
    ):
        self.write_base_mean = write_base_mean
        self.write_base_cv = write_base_cv
        self.bandwidth_bytes_per_us = bandwidth_bytes_per_us
        self.flush_base_mean = flush_base_mean
        self.flush_base_cv = flush_base_cv
        self.flush_tail_prob = flush_tail_prob
        self.flush_tail_scale = flush_tail_scale
        self.flush_tail_alpha = flush_tail_alpha
        self.read_base_mean = read_base_mean
        self.read_base_cv = read_base_cv

    @classmethod
    def page_cache(cls):
        """A data 'disk' fronted by the OS page cache.

        The paper's reduced-scale (2-WH) machine held the whole dataset
        in RAM, so InnoDB buffer-pool misses were served by the OS page
        cache at tens of microseconds, not by the platters — the variance
        under memory pressure came from the pool mutex, not from I/O.
        """
        return cls(
            write_base_mean=25.0,
            write_base_cv=0.3,
            bandwidth_bytes_per_us=2000.0,
            flush_base_mean=2000.0,
            flush_base_cv=0.6,
            flush_tail_prob=0.02,
            flush_tail_scale=8000.0,
            flush_tail_alpha=1.8,
            read_base_mean=45.0,
            read_base_cv=0.35,
        )

    @classmethod
    def battery_backed(cls):
        """A log device behind a battery-backed write cache.

        fsync returns once the controller cache has the data: fast with a
        modest tail — the regime in which the paper's 128-WH profile puts
        ``fil_flush`` *below* the lock waits.
        """
        return cls(
            write_base_mean=15.0,
            write_base_cv=0.3,
            bandwidth_bytes_per_us=1000.0,
            flush_base_mean=350.0,
            flush_base_cv=0.45,
            flush_tail_prob=0.01,
            flush_tail_scale=2000.0,
            flush_tail_alpha=2.0,
            read_base_mean=200.0,
            read_base_cv=0.4,
        )


class Disk:
    """One device: FIFO service, seeded latency draws, op counters."""

    def __init__(self, sim, rng, config=None, name="disk"):
        self.sim = sim
        self.rng = rng
        self.config = config or DiskConfig()
        self.name = name
        self._faults = sim.faults
        self._busy_until = 0.0
        cfg = self.config
        self._write_dist = LogNormal(cfg.write_base_mean, cfg.write_base_cv)
        self._read_dist = LogNormal(cfg.read_base_mean, cfg.read_base_cv)
        self._flush_dist = HeavyTail(
            LogNormal(cfg.flush_base_mean, cfg.flush_base_cv),
            Pareto(cfg.flush_tail_scale, cfg.flush_tail_alpha),
            cfg.flush_tail_prob,
        )
        self.writes = 0
        self.reads = 0
        self.flushes = 0
        self.bytes_written = 0
        self.io_errors = 0
        # Telemetry.  The horizon model has no explicit queue, so depth
        # is reported as the FIFO delay a request pays before service —
        # the quantity that amplifies the flush tail under pile-ups.
        tm = sim.telemetry
        prefix = "disk.%s" % name
        self._t_reads = tm.counter(prefix + ".reads")
        self._t_writes = tm.counter(prefix + ".writes")
        self._t_flushes = tm.counter(prefix + ".flushes")
        self._t_queue_delay = tm.histogram(prefix + ".queue_delay")
        self._t_service = tm.histogram(prefix + ".service_time")

    @property
    def queue_delay(self):
        """Virtual time a request arriving now would wait before service."""
        return max(0.0, self._busy_until - self.sim.now)

    @property
    def busy(self):
        return self._busy_until > self.sim.now

    def _fail(self, op):
        """Generator: should ``op`` fail now, serve the error and raise."""
        if self._faults.enabled and self._faults.io_error(self.name, op):
            self.io_errors += 1
            yield from self._serve(self._faults.plan.io_error_latency)
            raise TransientIOError(
                "injected %s error on disk %r at t=%.1f" % (op, self.name, self.sim.now)
            )

    def _serve(self, service_time):
        """Generator: FIFO-queue then hold for ``service_time``."""
        if self._faults.enabled:
            service_time *= self._faults.disk_latency_factor(self.name, self.sim.now)
        start = max(self.sim.now, self._busy_until)
        self._t_queue_delay.observe(start - self.sim.now)
        self._t_service.observe(service_time)
        self._busy_until = start + service_time
        yield self._busy_until - self.sim.now

    def write(self, nbytes):
        """Generator: a buffered write of ``nbytes`` (no durability)."""
        yield from self._fail("write")
        self.writes += 1
        self._t_writes.inc()
        self.bytes_written += nbytes
        service = (
            self._write_dist.sample(self.rng)
            + nbytes / self.config.bandwidth_bytes_per_us
        )
        yield from self._serve(service)

    def write_blocks(self, nblocks, block_bytes):
        """Generator: ``nblocks`` sequential writes of whole blocks.

        Models Postgres's XLogWrite: each block costs a per-call base
        (syscall + setup) plus transfer time for the *whole* block, even
        when the tail block is only partially filled — the source of the
        Figure 4 block-size tradeoff.
        """
        if nblocks <= 0:
            return
        yield from self._fail("write")
        self.writes += nblocks
        self._t_writes.inc(nblocks)
        self.bytes_written += nblocks * block_bytes
        per_call = self._write_dist.sample(self.rng)
        service = nblocks * (
            per_call + block_bytes / self.config.bandwidth_bytes_per_us
        )
        yield from self._serve(service)

    def read(self, nbytes):
        """Generator: a random read of ``nbytes``."""
        yield from self._fail("read")
        self.reads += 1
        self._t_reads.inc()
        service = (
            self._read_dist.sample(self.rng)
            + nbytes / self.config.bandwidth_bytes_per_us
        )
        yield from self._serve(service)

    def read_sequential(self, nbytes, chunk_bytes=131072):
        """Generator: a sequential scan of ``nbytes`` in fixed-size chunks.

        Recovery replay (``repro.recovery``) reads the durable WAL prefix
        front to back; each chunk pays the per-call base plus transfer
        time, so replay time grows with the durable log length at the
        crash instant.  Evaluates to the byte count read.
        """
        if nbytes <= 0:
            return 0
        remaining = nbytes
        while remaining > 0:
            chunk = chunk_bytes if remaining > chunk_bytes else remaining
            yield from self.read(chunk)
            remaining -= chunk
        return nbytes

    def flush(self):
        """Generator: force previously written data to stable storage.

        This is where the heavy tail lives: the body is a lognormal around
        ``flush_base_mean`` and with probability ``flush_tail_prob`` the
        call hits a Pareto-tailed stall.

        This call is also the *durability boundary* for crash recovery
        (``repro.recovery``): data is crash-proof only once the process
        that issued the flush resumes past this generator.  A node crash
        mid-flush kills the issuing process before it can advance its
        durable horizon, so the write counts as lost — matching a real
        fsync whose completion never reached the caller.
        """
        yield from self._fail("flush")
        self.flushes += 1
        self._t_flushes.inc()
        service = self._flush_dist.sample(self.rng)
        yield from self._serve(service)

    def __repr__(self):
        return "<Disk %s writes=%d reads=%d flushes=%d>" % (
            self.name,
            self.writes,
            self.reads,
            self.flushes,
        )
