"""A simulated datacenter network: per-link FIFO queueing + seeded latency.

The cluster layer (``repro.cluster``) sends small control messages —
transaction requests, 2PC votes, decisions, acks — between nodes.  Each
message pays:

- **serialisation** on the sending link: ``nbytes / bandwidth``, FIFO
  behind whatever that directed link is already transmitting (the same
  busy-until horizon model as :class:`~repro.sim.disk.Disk`, so queueing
  under fan-out bursts is exact and cheap);
- **propagation**: a lognormal one-way latency with a heavy tail
  (switch-buffer and kernel-scheduler excursions — Fruth et al.'s
  "Tell-Tale Tail Latencies" regime), drawn from the network's dedicated
  seeded stream.

Links are *directed* ``(src, dst)`` pairs; a node sending to itself pays
a loopback cost only (no link queueing, no fault hooks).

Fault injection (``repro.faults``): during a ``net_delay`` window every
propagation latency is multiplied by the plan's factor; during a
partition window messages on affected links are *held* until the window
heals and then delivered normally — deterministic stalls, never drops,
so a partitioned 2PC run still terminates and stays byte-reproducible.
"""

from repro.exec.schema import register_config
from repro.sim.rand import HeavyTail, LogNormal, Pareto


@register_config
class NetworkConfig:
    """Fabric parameters (times in microseconds, sizes in bytes).

    Defaults describe a same-rack 10 GbE fabric: ~120 µs one-way latency
    with a modest heavy tail, 1250 bytes/µs of per-link bandwidth.
    """

    def __init__(
        self,
        latency_mean=120.0,
        latency_cv=0.35,
        tail_prob=0.005,
        tail_scale=1500.0,
        tail_alpha=2.2,
        bandwidth_bytes_per_us=1250.0,
        loopback_cost=2.0,
    ):
        if latency_mean < 0:
            raise ValueError("latency_mean must be >= 0")
        if bandwidth_bytes_per_us <= 0:
            raise ValueError("bandwidth_bytes_per_us must be > 0")
        self.latency_mean = latency_mean
        self.latency_cv = latency_cv
        self.tail_prob = tail_prob
        self.tail_scale = tail_scale
        self.tail_alpha = tail_alpha
        self.bandwidth_bytes_per_us = bandwidth_bytes_per_us
        self.loopback_cost = loopback_cost

    @classmethod
    def lan(cls):
        """The default same-rack fabric."""
        return cls()

    @classmethod
    def wan(cls):
        """A cross-site fabric: millisecond latency, fatter tail."""
        return cls(
            latency_mean=2_000.0,
            latency_cv=0.25,
            tail_prob=0.01,
            tail_scale=20_000.0,
            tail_alpha=1.8,
            bandwidth_bytes_per_us=125.0,
        )


class Network:
    """The shared fabric: directed links with FIFO serialisation."""

    def __init__(self, sim, rng, config=None, name="net"):
        self.sim = sim
        self.rng = rng
        self.config = config or NetworkConfig()
        self.name = name
        self._faults = sim.faults
        self._busy_until = {}
        cfg = self.config
        self._latency_dist = HeavyTail(
            LogNormal(cfg.latency_mean, cfg.latency_cv),
            Pareto(cfg.tail_scale, cfg.tail_alpha),
            cfg.tail_prob,
        )
        self.messages = 0
        self.bytes_sent = 0
        self.partition_holds = 0
        tm = sim.telemetry
        prefix = "net.%s" % name
        self._t_messages = tm.counter(prefix + ".messages")
        self._t_bytes = tm.counter(prefix + ".bytes")
        self._t_latency = tm.histogram(prefix + ".latency")
        self._t_queue_delay = tm.histogram(prefix + ".queue_delay")
        self._t_partition_holds = tm.counter(prefix + ".partition_holds")
        # The message/byte counters shadow the plain accounting
        # attributes one-for-one and fire on every control message of a
        # clustered run, so they are folded in bulk at registry flush
        # instead of paying two Counter.incs per send.
        self._flushed_messages = 0
        self._flushed_bytes = 0
        tm.add_flush_hook(self._flush_counters)

    def _flush_counters(self):
        """Fold the deferred message/byte totals into their counters."""
        delta = self.messages - self._flushed_messages
        if delta:
            self._t_messages.inc(delta)
            self._flushed_messages = self.messages
        delta = self.bytes_sent - self._flushed_bytes
        if delta:
            self._t_bytes.inc(delta)
            self._flushed_bytes = self.bytes_sent

    def send(self, src, dst, nbytes):
        """Generator: deliver ``nbytes`` from node ``src`` to node ``dst``.

        Returns (to the caller of ``yield from``) once the message has
        arrived at ``dst``.  The caller is the process modelling the
        *message's* journey, not the sender's thread — spawn a courier
        process to model fire-and-forget sends.
        """
        self.messages += 1
        self.bytes_sent += nbytes
        if src == dst:
            if self.config.loopback_cost:
                yield self.config.loopback_cost
            return
        sim = self.sim
        if self._faults.enabled:
            heal = self._faults.net_partition_until(src, dst, sim.now)
            if heal is not None and heal > sim.now:
                # The link is cut: hold the message until the partition
                # heals, then let it contend for the link normally.
                self.partition_holds += 1
                self._t_partition_holds.inc()
                yield heal - sim.now
        link = (src, dst)
        xmit = nbytes / self.config.bandwidth_bytes_per_us
        start = max(sim.now, self._busy_until.get(link, 0.0))
        self._t_queue_delay.observe(start - sim.now)
        self._busy_until[link] = start + xmit
        latency = self._latency_dist.sample(self.rng)
        if self._faults.enabled:
            latency *= self._faults.net_latency_factor(sim.now)
        self._t_latency.observe(latency)
        yield (start + xmit + latency) - sim.now

    def send_delay(self, src, dst, nbytes):
        """The whole cost of :meth:`send` as one delay (fault-free path).

        Hot senders (the single-home coordinator hop, the replication
        ship loop) ``yield network.send_delay(...)`` instead of ``yield
        from network.send(...)`` — identical state mutations, counter
        totals and RNG draws, one generator frame fewer per message.
        Only valid when ``src != dst`` and fault injection is disabled
        (a partition hold needs the two-yield shape of :meth:`send`);
        callers must fall back to :meth:`send` otherwise.
        """
        self.messages += 1
        self.bytes_sent += nbytes
        sim = self.sim
        link = (src, dst)
        xmit = nbytes / self.config.bandwidth_bytes_per_us
        now = sim.now
        start = self._busy_until.get(link, 0.0)
        if start < now:
            start = now
        self._t_queue_delay.observe(start - now)
        self._busy_until[link] = start + xmit
        latency = self._latency_dist.sample(self.rng)
        self._t_latency.observe(latency)
        return (start + xmit + latency) - now

    def __repr__(self):
        return "<Network %s messages=%d bytes=%d>" % (
            self.name,
            self.messages,
            self.bytes_sent,
        )
