"""Picklable run artifacts: a RunResult detached from its simulator.

A :class:`~repro.bench.runner.RunResult` is deliberately heavyweight —
it pins the whole simulator object graph (kernel, engines, lock tables,
buffer pools) so interactive analysis can poke at anything.  That graph
cannot cross a process boundary, and holding one per run makes a
500-run sweep balloon.  :class:`RunArtifact` is a ``RunResult`` that
stores, as plain-data slots, the primitives every reading is written
over (transaction traces, the metrics snapshot, the recorded history,
per-reason accounting, the final clock, the check report), and carries
the canonical config payload + content digest it was produced from.

It defines no reading of its own: ``summary``, ``latencies``,
``throughput_tps``, ``digest()`` and friends are ``RunResult``'s, so
sweeps, the profiler adapter and the fuzzer work identically on either,
and ``digest()`` equals the originating result's, which is how the
parallel-equals-serial tests pin byte-identity.
"""

from repro.bench.runner import RunResult
from repro.exec.schema import from_dict


class RunArtifact(RunResult):
    """The plain-data outcome of one experiment run.

    Each slot shadows the live result's property of the same name.
    """

    __slots__ = (
        "config_data",
        "config_digest",
        "warmup_count",
        "final_clock",
        "dispatch_count",
        "all_traces",
        "metrics",
        "event_jsonl",
        "abort_counts",
        "failed_counts",
        "failed_txns",
        "fault_counts",
        "outcome_counts",
        "txn_outcomes",
        "check_violations",
        "history",
        "cluster_stats",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields.pop(name))
        if fields:
            raise TypeError("unknown artifact fields: %s" % sorted(fields))

    @classmethod
    def from_result(cls, result):
        """Extract the picklable artifact from a finished run."""
        config = result.config
        return cls(
            config_data=config.to_dict(),
            config_digest=config.config_digest(),
            warmup_count=result.warmup_count,
            final_clock=result.final_clock,
            dispatch_count=result.dispatch_count,
            all_traces=list(result.all_traces),
            metrics=result.metrics_snapshot(),
            event_jsonl=result.event_log_jsonl(),
            abort_counts=result.abort_counts,
            failed_counts=result.failed_counts,
            failed_txns=result.failed_txns,
            fault_counts=result.fault_counts,
            outcome_counts=result.outcome_counts,
            txn_outcomes=result.txn_outcomes,
            check_violations=result.check_report(),
            history=result.history,
            cluster_stats=result.cluster_stats,
        )

    @property
    def config(self):
        """The :class:`ExperimentConfig` rebuilt from the canonical form."""
        return from_dict(self.config_data)

    def metrics_snapshot(self):
        """The metrics report captured at the end of the run."""
        return self.metrics

    def event_log_jsonl(self):
        """The structured event log as JSON lines (empty when disabled)."""
        return self.event_jsonl

    def check_report(self):
        """The oracle verdict computed where the run executed.

        ``[]`` means clean; ``None`` when the run had ``check=False``.
        """
        return self.check_violations

    def __repr__(self):
        return "<RunArtifact %s n=%d digest=%s...>" % (
            self.config_data.get("engine"),
            len(self.traces),
            self.config_digest[:12],
        )
