"""The chaos fuzzer: determinism, property runs, shrinking.

Three layers, cheapest first:

- Hypothesis over the *generator* alone (no simulation): ``make_case``
  is a pure function of the seed and every shrink candidate is strictly
  smaller and well-formed.
- Property runs: every engine crossed with {no faults, crashes,
  partition} must produce a violation-free history.
- The shrinker itself: plant a real corruption via
  ``repro.check._test_hooks``, fuzz, and require a deterministic
  minimal reproducer of at most 10 transactions — including across
  interpreter processes with different ``PYTHONHASHSEED``.

The 25-seed sweep at the bottom is the CI ``check-smoke`` budget; it is
marked ``fuzz_smoke`` and skipped in the default run.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.digest import run_digest
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.check import _test_hooks
from repro.check.fuzz import (
    ENGINES,
    FuzzCase,
    _shrink_candidates,
    build_config,
    fuzz_many,
    fuzz_one,
    make_case,
    run_case,
    reproducer_source,
)
from repro.faults.plan import FaultPlan

from tests.util import assert_hash_seed_invariant


# ----------------------------------------------------------------------
# Generator properties (no simulation runs; keep hypothesis fast)
# ----------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_make_case_is_pure(seed):
    a = make_case(seed)
    b = make_case(seed)
    assert a == b
    assert a.astuple() == b.astuple()
    assert a.engine in ENGINES
    assert 1 <= a.num_shards <= 4
    assert a.engine != "voltdb" or a.num_shards == 1
    assert 30 <= a.n_txns <= 120
    assert a.fault_kind is not None and a.fault_kwargs
    assert 0 <= a.replicas <= 2
    assert a.engine != "voltdb" or a.replicas == 0
    if a.replicas:
        assert a.repl_kwargs["mode"] in ("sync", "semi_sync", "async")
        assert a.repl_kwargs["read_policy"] in ("primary", "replica_ok")
    else:
        assert a.repl_kwargs == {}
        assert a.fault_kind != "replica-lag"


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_case_builds_valid_config(seed):
    config = build_config(make_case(seed))
    assert config.check is True
    assert isinstance(config.fault_plan, FaultPlan)


def _case_size(case):
    """A well-founded shrink order: every candidate must be < its parent.

    Node-crash plans add a crash-time dimension so the instant-halving
    candidates (same txn count, same kwargs keys) still strictly
    decrease; replication adds a complexity score (replica count, then
    mode/read-policy simplicity) so mode-collapsing candidates do too.
    """
    crash_total = sum(
        t for _target, t in case.fault_kwargs.get("node_crash_times", ())
    )
    repl_complexity = 0
    if case.replicas:
        repl_complexity = 10 * case.replicas
        if case.repl_kwargs.get("mode") != "sync":
            repl_complexity += 2
        if case.repl_kwargs.get("read_policy") == "replica_ok":
            repl_complexity += 1
    return (
        case.n_txns, case.num_shards, len(case.fault_kwargs),
        repl_complexity, crash_total,
    )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_shrink_candidates_strictly_smaller(seed):
    case = make_case(seed)
    size = _case_size(case)
    candidates = list(_shrink_candidates(case))
    assert candidates, "every fresh case must have somewhere to shrink"
    for candidate in candidates:
        assert isinstance(candidate, FuzzCase)
        assert candidate.n_txns >= 2
        assert _case_size(candidate) < size
        # Candidates must still build runnable configs.
        build_config(candidate)


def test_reproducer_source_is_executable_python():
    case = make_case(3)
    source = reproducer_source(case)
    assert source.startswith("def test_fuzz_reproducer_seed_3")
    compile(source, "<reproducer>", "exec")


# ----------------------------------------------------------------------
# Property runs: engines x fault regimes must check clean
# ----------------------------------------------------------------------


def _regime_plan(regime, num_shards):
    if regime == "none":
        return None
    if regime == "crashes":
        return FaultPlan(name="fuzz-crashes", crash_prob=0.01)
    if regime == "partition":
        # Inert on one shard (no network), by design.
        return FaultPlan(name="fuzz-partition",
                         partition_windows=((10_000.0, 40_000.0),))
    raise ValueError(regime)


@pytest.mark.parametrize("engine", ["mysql", "postgres", "voltdb"])
@pytest.mark.parametrize("regime", ["none", "crashes", "partition"])
def test_property_clean_history(engine, regime):
    num_shards = 2 if engine != "voltdb" and regime == "partition" else 1
    if num_shards > 1:
        workload_kwargs = {"warehouses": 8, "remote_payment_prob": 0.3}
        workload = "tpcc"
    else:
        workload = "ycsb"
        workload_kwargs = {"scale_factor": 1, "rows_per_sf": 16,
                           "read_fraction": 0.5}
    config = ExperimentConfig(
        engine=engine,
        workload=workload,
        workload_kwargs=workload_kwargs,
        n_txns=60,
        rate_tps=400.0,
        seed=11,
        num_shards=num_shards,
        fault_plan=_regime_plan(regime, num_shards),
        check=True,
    )
    result = run_experiment(config)
    assert result.check_report() == []
    assert sum(result.outcome_counts.values()) == 60


# ----------------------------------------------------------------------
# Shrinking: planted bug -> small deterministic reproducer
# ----------------------------------------------------------------------


def test_planted_bug_shrinks_to_small_reproducer():
    with _test_hooks.corrupted("lost_update"):
        first = fuzz_one(0)
        second = fuzz_one(0)
    assert first.failed
    assert first.shrunk.n_txns <= 10
    assert first.shrunk == second.shrunk
    assert first.reproducer == second.reproducer
    assert "def test_fuzz_reproducer_seed_0" in first.reproducer
    assert "_test_hooks.CORRUPTION = 'lost_update'" in first.reproducer
    compile(first.reproducer, "<reproducer>", "exec")


def test_shrunk_reproducer_still_fails():
    """The emitted pytest function must actually reproduce the bug."""
    with _test_hooks.corrupted("lost_update"):
        report = fuzz_one(0)
        namespace = {}
        exec(compile(report.reproducer, "<reproducer>", "exec"), namespace)
        test_fn = namespace["test_fuzz_reproducer_seed_0"]
        with pytest.raises(AssertionError):
            test_fn()
    # The reproducer sets the corruption knob itself; reset for safety.
    _test_hooks.CORRUPTION = None


def test_shrink_removes_faults_when_irrelevant():
    """lost_update is fault-independent, so the shrinker should strip
    the fault plan from the minimal case."""
    with _test_hooks.corrupted("lost_update"):
        report = fuzz_one(0)
    assert report.case.fault_kwargs
    assert report.shrunk.fault_kwargs == {}


def test_cross_process_hash_seed_fuzzer_determinism():
    """The minimal reproducer must be byte-identical across interpreters
    with different hash seeds (same discipline as test_determinism)."""
    code = (
        "import sys, json; sys.path[:0] = json.loads(sys.argv[1]); "
        "from repro.check import _test_hooks; "
        "from repro.check.fuzz import fuzz_one; "
        "_test_hooks.CORRUPTION = 'lost_update'; "
        "r = fuzz_one(0); "
        "print(json.dumps([r.shrunk.astuple(), r.reproducer]))"
    )
    output = assert_hash_seed_invariant(code)
    shrunk, reproducer = json.loads(output)
    assert "def test_fuzz_reproducer_seed_0" in reproducer


def test_fuzz_runs_do_not_leak_state():
    """A fuzz run must not perturb an unrelated run's digest (shared
    module state like the corruption knob must stay clean)."""
    config = ExperimentConfig(
        engine="mysql",
        workload="ycsb",
        workload_kwargs={"scale_factor": 1, "rows_per_sf": 16,
                         "read_fraction": 0.5},
        n_txns=40,
        rate_tps=400.0,
        seed=5,
    )
    before = run_digest(run_experiment(config))
    run_case(make_case(1))
    after = run_digest(run_experiment(config))
    assert before == after


def test_fuzz_many_matches_fuzz_one():
    """The batched sweep is the serial loop: same cases, same verdicts."""
    seeds = [0, 1, 2]
    reports = fuzz_many(seeds, shrink_on_failure=False)
    assert [r.seed for r in reports] == seeds
    for report in reports:
        lone = fuzz_one(report.seed, shrink_on_failure=False)
        assert report.case == lone.case
        assert [repr(v) for v in report.violations] == [
            repr(v) for v in lone.violations
        ]


# ----------------------------------------------------------------------
# CI smoke budget: 25 seeds, all engines, chaos on, zero violations
# ----------------------------------------------------------------------


@pytest.mark.fuzz_smoke
def test_fuzz_smoke_25_seeds():
    # The seed sweep routes through the execution layer (fuzz_many);
    # per-report equivalence to fuzz_one is pinned in
    # test_fuzz_many_matches_fuzz_one below.
    engines = set()
    shard_counts = set()
    for report in fuzz_many(range(25), shrink_on_failure=False):
        assert not report.failed, (
            "seed %d: %r" % (report.seed, report.violations[:5])
        )
        engines.add(report.case.engine)
        shard_counts.add(report.case.num_shards)
    assert engines == {"mysql", "postgres", "voltdb"}
    assert shard_counts == {1, 2, 3, 4}


@pytest.mark.fuzz_smoke
def test_fuzz_smoke_replication_100_seeds():
    """Every replicated case in the first 100 seeds must check clean —
    including the replication oracle family — and the sweep must cover
    all three modes, both read policies and the replica-lag fault."""
    from repro.check.oracles import check_replication

    modes = set()
    policies = set()
    fault_kinds = set()
    replicated = 0
    for seed in range(100):
        case = make_case(seed)
        if not case.replicas:
            continue
        replicated += 1
        violations, result = run_case(case)
        assert violations == [], "seed %d: %r" % (seed, violations[:5])
        assert check_replication(result.history) == []
        assert sum(result.outcome_counts.values()) == case.n_txns
        modes.add(case.repl_kwargs["mode"])
        policies.add(case.repl_kwargs["read_policy"])
        fault_kinds.add(case.fault_kind)
    assert replicated >= 20, "seed mix lost its replicated coverage"
    assert modes == {"sync", "semi_sync", "async"}
    assert policies == {"primary", "replica_ok"}
    assert "replica-lag" in fault_kinds
