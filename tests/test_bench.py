"""Experiment harness: configs, results, ratio tables, profiled adapter."""

import pytest

from repro.bench.compare import geometric_mean, ratio_row, ratios
from repro.bench.profiled import EngineProfiledSystem
from repro.bench.runner import ExperimentConfig, engine_callgraph, run_experiment
from repro.core.report import render_profile, render_ratio_table, render_summary_table
from repro.engines.mysql import MySQLConfig
from repro.sim.stats import summarize


def tiny_config(**overrides):
    fields = dict(
        engine="mysql",
        workload="ycsb",
        workload_kwargs={"scale_factor": 2},
        engine_config=MySQLConfig(),
        seed=1,
        n_txns=100,
        rate_tps=1000.0,
        warmup_fraction=0.1,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


class TestExperimentConfig:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(engine="oracle")

    def test_replaced_overrides_only_named_fields(self):
        config = tiny_config()
        other = config.replaced(seed=99)
        assert other.seed == 99
        assert other.workload == config.workload
        assert config.seed == 1  # original untouched

    def test_engine_callgraph_lookup(self):
        assert engine_callgraph("mysql").root == "do_command"
        assert engine_callgraph("voltdb").root == "transaction"


class TestRunResult:
    def test_warmup_fraction_dropped(self):
        result = run_experiment(tiny_config())
        assert result.warmup_count == 10
        assert all(t.txn_id >= 10 for t in result.traces)

    def test_summary_over_measurement_set(self):
        result = run_experiment(tiny_config())
        summary = result.summary
        assert summary.count == len(result.traces)
        assert summary.mean > 0

    def test_latencies_of_type(self):
        result = run_experiment(tiny_config())
        per_type = result.latencies_of("ReadRecord")
        assert len(per_type) <= len(result.latencies)

    def test_deterministic_across_runs(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config())
        assert a.latencies == b.latencies

    def test_different_seeds_differ(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config(seed=2))
        assert a.latencies != b.latencies


class TestRatios:
    def test_ratios_direction(self):
        base = [10.0, 20.0, 30.0, 100.0]
        better = [5.0, 10.0, 15.0, 50.0]
        r = ratios(base, better)
        assert r["mean"] == pytest.approx(2.0)
        assert r["variance"] == pytest.approx(4.0)
        assert r["p99"] == pytest.approx(2.0)

    def test_ratio_row_label(self):
        result = run_experiment(tiny_config())
        label, r = ratio_row("TPCC", result, result)
        assert label == "TPCC"
        assert r["mean"] == pytest.approx(1.0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([0.0])


class TestProfiledSystem:
    def test_runs_with_instrumented_subset(self):
        system = EngineProfiledSystem(tiny_config())
        log = system.run(frozenset({"do_command"}), probe_cost=0.0)
        assert len(log.traces) > 0
        assert all(("do_command", "<root>") in t.durations for t in log.traces)

    def test_each_call_is_fresh_run(self):
        system = EngineProfiledSystem(tiny_config())
        system.run(frozenset(), 0.0)
        system.run(frozenset(), 0.0)
        assert len(system.runs) == 2


class TestReportRendering:
    def test_ratio_table(self):
        rows = [("TPCC", {"mean": 6.3, "variance": 5.6, "p99": 2.0})]
        text = render_ratio_table("Table 4", rows)
        assert "TPCC" in text and "6.3x" in text and "5.6x" in text

    def test_summary_table(self):
        rows = [("MySQL", summarize([1000.0, 2000.0, 3000.0]))]
        text = render_summary_table("Figure 6", rows)
        assert "MySQL" in text and "Mean (ms)" in text

    def test_profile_rendering(self):
        from repro.core.profiler import TProfiler
        from tests.test_profiler import SyntheticSystem

        result = TProfiler(SyntheticSystem(n_txns=100), k=2).profile()
        text = render_profile(result, top=4, config_label="test")
        assert "Function Name" in text
        assert "%" in text
