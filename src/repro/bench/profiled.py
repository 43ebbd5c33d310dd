"""The adapter that lets TProfiler drive full engine runs.

TProfiler's loop needs a system it can re-run with different
instrumented subsets (Section 3.1); :class:`EngineProfiledSystem` wraps
an :class:`~repro.bench.runner.ExperimentConfig` so every profiler
iteration is a fresh, deterministic simulation differing only in which
functions carry probes.

Runs go through the execution layer (:mod:`repro.exec`): each call
builds the derived config and hands it to an
:class:`~repro.exec.executor.Executor`, so independent batches — the
:class:`~repro.core.profiler.NaiveProfiler`'s budget groups — fan out
across a process pool with ``jobs > 1`` while the refinement loop's
inherently sequential iterations run inline.  The adapter returns and
keeps :class:`~repro.exec.artifact.RunArtifact` objects (plain data),
not live ``RunResult`` graphs, so long profiling sessions stay light;
the profiler reads their ``traces``, the run's measurement set.
"""

from repro.core.profiler import ProfiledSystem
from repro.bench.runner import engine_callgraph
from repro.exec.executor import Executor


class EngineProfiledSystem(ProfiledSystem):
    """Profile any engine/workload combination.

    ``jobs`` controls how batched runs fan out; single runs always
    execute inline regardless.
    """

    def __init__(self, config, jobs=1):
        self.config = config
        self.callgraph = engine_callgraph(config.engine)
        self.executor = Executor(jobs=jobs)
        self.runs = []

    def _probed(self, instrumented, probe_cost):
        return self.config.replaced(
            instrumented=frozenset(instrumented), probe_cost=probe_cost
        )

    def run(self, instrumented, probe_cost):
        artifact = self.executor.run_one(self._probed(instrumented, probe_cost))
        self.runs.append(artifact)
        return artifact

    def run_many(self, batches, probe_cost):
        configs = [self._probed(batch, probe_cost) for batch in batches]
        artifacts = self.executor.run(configs)
        self.runs.extend(artifacts)
        return artifacts
