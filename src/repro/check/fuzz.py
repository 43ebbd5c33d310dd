"""The seeded chaos fuzzer: generate, run, check, shrink.

One integer seed determines one :class:`FuzzCase` — engine, topology,
workload, scheduler, chaos plan and run seed — via a dedicated
``random.Random`` (never the global RNG, never hash order), so the same
seed produces the same case and the same violations in any process.

:func:`fuzz_one` runs the case with the oracles on.  On a violation it
greedily **shrinks**: fewer transactions, then earlier crash instants
(for node-crash plans), then no fault plan, then no replication (or a
simpler mode: anything → sync, replica reads → primary), then fewer
shards —
re-running after each candidate and keeping it only if the failure
survives — and renders the minimal case as a ready-to-paste
pytest function (:func:`reproducer_source`).

The engines draw from per-purpose seeded streams, so a shrunk config is
not guaranteed to preserve the *same* interleaving — it preserves the
*failure*, which is what the oracles define.  Greedy shrinking is
deterministic: candidates are tried in a fixed order and the first
survivor restarts the loop.

CLI front-end: ``scripts/fuzz_check.py``.
"""

import random

from repro.faults.plan import (
    FUZZ_FAULT_KINDS,
    FUZZ_NETWORK_FAULT_KINDS,
    FUZZ_REPLICATION_FAULT_KINDS,
    FaultPlan,
    random_plan_kwargs,
)

from repro.check import _test_hooks
from repro.check.oracles import check_all

ENGINES = ("mysql", "postgres", "voltdb")

#: Shrink effort cap: each step re-runs the simulation once.
MAX_SHRINK_STEPS = 64


class FuzzCase:
    """One generated configuration (plain literals; repr round-trips)."""

    FIELDS = (
        "seed", "engine", "workload", "workload_kwargs", "scheduler",
        "n_txns", "rate_tps", "num_shards", "fault_kind", "fault_kwargs",
        "run_seed", "replicas", "repl_kwargs",
    )

    __slots__ = FIELDS

    def __init__(self, seed, engine, workload, workload_kwargs, scheduler,
                 n_txns, rate_tps, num_shards, fault_kind, fault_kwargs,
                 run_seed, replicas=0, repl_kwargs=None):
        self.seed = seed
        self.engine = engine
        self.workload = workload
        self.workload_kwargs = dict(workload_kwargs)
        self.scheduler = scheduler
        self.n_txns = n_txns
        self.rate_tps = rate_tps
        self.num_shards = num_shards
        self.fault_kind = fault_kind
        self.fault_kwargs = dict(fault_kwargs)
        self.run_seed = run_seed
        self.replicas = replicas
        self.repl_kwargs = dict(repl_kwargs or {})

    def replaced(self, **overrides):
        fields = {name: getattr(self, name) for name in self.FIELDS}
        fields.update(overrides)
        return FuzzCase(**fields)

    def astuple(self):
        return tuple(
            tuple(sorted(value.items())) if isinstance(value, dict) else value
            for value in (getattr(self, name) for name in self.FIELDS)
        )

    def __eq__(self, other):
        return isinstance(other, FuzzCase) and self.astuple() == other.astuple()

    def __hash__(self):
        return hash(self.astuple())

    def __repr__(self):
        return "<FuzzCase seed=%d %s/%s shards=%d replicas=%d fault=%s n=%d>" % (
            self.seed, self.engine, self.workload, self.num_shards,
            self.replicas, self.fault_kind or "none", self.n_txns,
        )


def make_case(seed):
    """The pure function from seed to configuration.

    Engines rotate round-robin and clustered shard counts cycle with the
    seed, so any contiguous seed range covers all three engines and
    shard counts 1-4 deterministically; everything else is drawn from a
    ``random.Random(seed)``.
    """
    rng = random.Random(seed)
    engine = ENGINES[seed % 3]
    if engine == "voltdb":
        num_shards = 1  # no 2PC branch support (task-concurrent model)
    else:
        num_shards = (seed % 4) + 1
    if num_shards > 1:
        workload = "tpcc"
        workload_kwargs = {
            "warehouses": 4 * num_shards,
            "remote_payment_prob": round(rng.uniform(0.1, 0.4), 2),
        }
    elif rng.random() < 0.5:
        # Hot YCSB: a tiny key space forces lock conflicts.
        workload = "ycsb"
        workload_kwargs = {
            "scale_factor": 1,
            "rows_per_sf": rng.randrange(8, 65),
            "read_fraction": round(rng.uniform(0.2, 0.8), 2),
        }
    else:
        workload = "tpcc"
        workload_kwargs = {"warehouses": rng.randrange(2, 9)}
    scheduler = rng.choice(("FCFS", "VATS")) if engine == "mysql" else None
    n_txns = rng.randrange(30, 121)
    rate_tps = round(rng.uniform(200.0, 900.0), 1)
    kinds = FUZZ_FAULT_KINDS
    if num_shards > 1:
        kinds = kinds + FUZZ_NETWORK_FAULT_KINDS
    fault_kind = rng.choice(kinds)
    horizon_us = n_txns / rate_tps * 1_000_000.0
    fault_kwargs = random_plan_kwargs(rng, fault_kind, horizon_us)
    run_seed = rng.randrange(1_000_000)
    # Replication draws come *last* so every pre-replication field of a
    # legacy seed is unchanged — shrink corpora and pinned reproducers
    # from before the subsystem existed still map to the same base case.
    if engine == "voltdb":
        # No redo stream to ship (synchronous command log): replication
        # is a no-op there, so the fuzzer never configures it.
        replicas = 0
    else:
        replicas = rng.choice((0, 0, 1, 2))
    repl_kwargs = {}
    if replicas:
        repl_kwargs = {
            "mode": rng.choice(("sync", "semi_sync", "async")),
            "ack_k": 1,
            "read_policy": rng.choice(("primary", "replica_ok")),
            "staleness_bound_us": round(rng.uniform(1_000.0, 20_000.0), 1),
        }
        if rng.random() < 0.25:
            # Replicated cases trade their drawn fault for a replica-lag
            # window a quarter of the time — the one fault class that
            # only exists with replicas attached.
            (replication_kind,) = FUZZ_REPLICATION_FAULT_KINDS
            fault_kind = replication_kind
            fault_kwargs = random_plan_kwargs(rng, fault_kind, horizon_us)
    return FuzzCase(
        seed, engine, workload, workload_kwargs, scheduler, n_txns,
        rate_tps, num_shards, fault_kind, fault_kwargs, run_seed,
        replicas, repl_kwargs,
    )


def build_config(case):
    """The :class:`~repro.bench.runner.ExperimentConfig` for a case."""
    from repro.bench.runner import ExperimentConfig

    engine_config = None
    if case.scheduler is not None:
        from repro.engines.mysql import MySQLConfig

        engine_config = MySQLConfig(scheduler=case.scheduler)
    fault_plan = None
    if case.fault_kwargs:
        fault_plan = FaultPlan(
            name="fuzz-%s" % (case.fault_kind,), **case.fault_kwargs
        )
    replication = None
    if case.replicas:
        from repro.replication import ReplicationConfig

        replication = ReplicationConfig(**case.repl_kwargs)
    return ExperimentConfig(
        engine=case.engine,
        workload=case.workload,
        workload_kwargs=dict(case.workload_kwargs),
        engine_config=engine_config,
        seed=case.run_seed,
        n_txns=case.n_txns,
        rate_tps=case.rate_tps,
        num_shards=case.num_shards,
        fault_plan=fault_plan,
        replicas=case.replicas,
        replication=replication,
        check=True,
    )


def run_case(case):
    """Run one case with oracles on; returns (violations, result)."""
    from repro.bench.runner import run_experiment

    result = run_experiment(build_config(case))
    return check_all(result.history), result


def _shrink_candidates(case):
    """Smaller variants, most aggressive first (deterministic order)."""
    n = case.n_txns
    for smaller in (n // 2, n - max(1, n // 4), n - 1):
        if 2 <= smaller < n:
            yield case.replaced(n_txns=smaller)
    crashes = case.fault_kwargs.get("node_crash_times")
    if crashes:
        # Earlier crash instants mean less pre-crash history to wade
        # through in the reproducer (and a shorter WAL at the crash).
        halved = tuple(
            (target, round(t / 2.0, 1)) for target, t in crashes
        )
        if halved != tuple((target, t) for target, t in crashes):
            kwargs = dict(case.fault_kwargs)
            kwargs["node_crash_times"] = halved
            yield case.replaced(fault_kwargs=kwargs)
    if case.fault_kwargs:
        yield case.replaced(fault_kind=None, fault_kwargs={})
    if case.replicas:
        # Dropping replication entirely is the big shrink; failing that,
        # collapsing the mode to sync removes the ack-quota and
        # staleness dimensions while keeping the replica machinery.
        yield case.replaced(replicas=0, repl_kwargs={})
        if case.repl_kwargs.get("mode") != "sync":
            simpler = dict(case.repl_kwargs)
            simpler["mode"] = "sync"
            yield case.replaced(repl_kwargs=simpler)
        if case.repl_kwargs.get("read_policy") == "replica_ok":
            simpler = dict(case.repl_kwargs)
            simpler["read_policy"] = "primary"
            yield case.replaced(repl_kwargs=simpler)
    if case.num_shards > 2:
        yield case.replaced(num_shards=2)
    if case.num_shards == 2:
        # Collapsing to one shard removes 2PC entirely; keep the
        # workload as-is (single-node tpcc is still valid).
        shrunk = dict(case.workload_kwargs)
        shrunk.pop("remote_payment_prob", None)
        yield case.replaced(num_shards=1, workload_kwargs=shrunk)


def shrink(case, max_steps=MAX_SHRINK_STEPS):
    """Greedy deterministic shrink; returns the minimal failing case."""
    best = case
    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for candidate in _shrink_candidates(best):
            steps += 1
            violations, _result = run_case(candidate)
            if violations:
                best = candidate
                improved = True
                break
            if steps >= max_steps:
                break
    return best


def reproducer_source(case, violations=()):
    """A ready-to-paste pytest function reproducing the failure."""
    lines = []
    lines.append("def test_fuzz_reproducer_seed_%d():" % (case.seed,))
    lines.append(
        '    """Shrunk from fuzz seed %d (%s, %d shards, fault=%s).'
        % (case.seed, case.engine, case.num_shards, case.fault_kind or "none")
    )
    for violation in list(violations)[:3]:
        lines.append("    %r" % (violation,))
    lines.append('    """')
    lines.append("    from repro.bench.runner import ExperimentConfig, run_experiment")
    lines.append("    from repro.check import check_all")
    if _test_hooks.CORRUPTION is not None:
        lines.append("    from repro.check import _test_hooks")
    if case.fault_kwargs:
        lines.append("    from repro.faults.plan import FaultPlan")
    if case.scheduler is not None:
        lines.append("    from repro.engines.mysql import MySQLConfig")
    if case.replicas:
        lines.append("    from repro.replication import ReplicationConfig")
    lines.append("")
    if _test_hooks.CORRUPTION is not None:
        lines.append(
            "    _test_hooks.CORRUPTION = %r  # planted test corruption"
            % (_test_hooks.CORRUPTION,)
        )
    lines.append("    config = ExperimentConfig(")
    lines.append("        engine=%r," % (case.engine,))
    lines.append("        workload=%r," % (case.workload,))
    lines.append("        workload_kwargs=%r," % (case.workload_kwargs,))
    if case.scheduler is not None:
        lines.append(
            "        engine_config=MySQLConfig(scheduler=%r)," % (case.scheduler,)
        )
    lines.append("        seed=%r," % (case.run_seed,))
    lines.append("        n_txns=%r," % (case.n_txns,))
    lines.append("        rate_tps=%r," % (case.rate_tps,))
    if case.num_shards > 1:
        lines.append("        num_shards=%r," % (case.num_shards,))
    if case.fault_kwargs:
        lines.append(
            "        fault_plan=FaultPlan(name=%r, **%r),"
            % ("fuzz-%s" % (case.fault_kind,), case.fault_kwargs)
        )
    if case.replicas:
        lines.append("        replicas=%r," % (case.replicas,))
        lines.append(
            "        replication=ReplicationConfig(**%r)," % (case.repl_kwargs,)
        )
    lines.append("        check=True,")
    lines.append("    )")
    lines.append("    violations = check_all(run_experiment(config).history)")
    lines.append(
        '    assert violations == [], "\\n".join(map(repr, violations))'
    )
    return "\n".join(lines) + "\n"


class FuzzReport:
    """Outcome of fuzzing one seed."""

    __slots__ = ("seed", "case", "violations", "shrunk", "reproducer")

    def __init__(self, seed, case, violations, shrunk=None, reproducer=None):
        self.seed = seed
        self.case = case
        self.violations = violations
        self.shrunk = shrunk
        self.reproducer = reproducer

    @property
    def failed(self):
        return bool(self.violations)

    def __repr__(self):
        return "<FuzzReport seed=%d %s>" % (
            self.seed, "FAIL" if self.failed else "ok",
        )


def fuzz_one(seed, shrink_on_failure=True, max_shrink_steps=MAX_SHRINK_STEPS):
    """Generate, run and (on failure) shrink one seed."""
    case = make_case(seed)
    violations, _result = run_case(case)
    if not violations:
        return FuzzReport(seed, case, [])
    shrunk = case
    if shrink_on_failure:
        shrunk = shrink(case, max_steps=max_shrink_steps)
    final_violations, _result = run_case(shrunk)
    return FuzzReport(
        seed, case, violations, shrunk,
        reproducer_source(shrunk, final_violations),
    )


def fuzz_many(seeds, jobs=1, shrink_on_failure=True,
              max_shrink_steps=MAX_SHRINK_STEPS):
    """Fuzz a batch of seeds through the execution layer.

    Every case is an independent deterministic run, so the sweep fans
    out across an :class:`~repro.exec.executor.Executor` (``jobs > 1``
    runs in a process pool); reports come back in seed order,
    identical to ``[fuzz_one(s) for s in seeds]`` by the determinism
    argument.  Shrinking stays serial — each step's candidate depends
    on the previous verdict — and only failures pay for it.

    Planted-corruption test hooks (``repro.check._test_hooks``) are
    process-local state, so sweeps that set them must use ``jobs=1``.
    """
    seeds = list(seeds)
    cases = [make_case(seed) for seed in seeds]
    from repro.exec.executor import run_many

    artifacts = run_many([build_config(case) for case in cases], jobs=jobs)
    reports = []
    for seed, case, artifact in zip(seeds, cases, artifacts):
        violations = artifact.check_report()
        if not violations:
            reports.append(FuzzReport(seed, case, []))
            continue
        shrunk = case
        if shrink_on_failure:
            shrunk = shrink(case, max_steps=max_shrink_steps)
        final_violations, _result = run_case(shrunk)
        reports.append(FuzzReport(
            seed, case, violations, shrunk,
            reproducer_source(shrunk, final_violations),
        ))
    return reports
