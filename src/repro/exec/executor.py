"""Run orchestration: inline and process-pool execution of experiments.

Every run of the simulator is a pure function of its
:class:`ExperimentConfig` — same config, same bytes, in any interpreter
(pinned by the hash-seed invariance and equivalence-golden tests).
That determinism makes parallel fan-out provably equivalent to serial
execution, which is what this module exploits: an :class:`Executor`
takes a list of configs and returns one picklable
:class:`~repro.exec.artifact.RunArtifact` per config, in input order,
either inline (``jobs=1``) or across a spawn-based process pool.

Workers receive the config as its canonical ``to_dict()`` payload and
rebuild it with :func:`~repro.exec.schema.from_dict` — nothing but
plain data crosses the pipe in either direction, so no simulator object
graph is ever pickled or pinned.
"""

# NOTE: never import repro.bench.runner (or anything that leads there)
# at module level.  Config modules import repro.exec.schema, which
# initialises the repro.exec package; a top-level runner import here
# would close that loop into a partially-initialised-module error.


def _execute(config_data):
    """Run one experiment from its canonical payload; plain data out."""
    from repro.bench.runner import run_experiment
    from repro.exec.artifact import RunArtifact
    from repro.exec.schema import from_dict

    result = run_experiment(from_dict(config_data))
    return RunArtifact.from_result(result)


class Executor:
    """Runs experiment configs inline or across a process pool.

    ``jobs=1`` executes in-process (no pool, no pickling); ``jobs>1``
    fans out over a ``spawn`` process pool — spawn-safe by construction
    since workers receive only canonical config payloads and rebuild
    everything from source.  Results always come back in input order,
    regardless of completion order.
    """

    def __init__(self, jobs=1):
        if jobs < 1:
            raise ValueError("jobs must be >= 1, got %r" % (jobs,))
        self.jobs = jobs

    def run(self, configs):
        """Execute every config; artifacts return in input order."""
        from repro.exec.schema import to_dict

        configs = list(configs)
        payloads = [to_dict(config) for config in configs]
        # Identical configs run once; determinism makes the shared
        # artifact indistinguishable from running each separately.
        pending = {}
        for i, config in enumerate(configs):
            pending.setdefault(config.config_digest(), []).append(i)

        artifacts = [None] * len(configs)
        if not pending:
            return artifacts
        if self.jobs == 1 or len(pending) == 1:
            fresh = (
                (digest, _execute(payloads[indices[0]]))
                for digest, indices in pending.items()
            )
        else:
            fresh = self._pool_run(pending, payloads)
        for digest, artifact in fresh:
            for i in pending[digest]:
                artifacts[i] = artifact
        return artifacts

    def _pool_run(self, pending, payloads):
        import concurrent.futures
        import multiprocessing

        workers = min(self.jobs, len(pending))
        spawn = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(workers, spawn) as pool:
            futures = [
                (digest, pool.submit(_execute, payloads[indices[0]]))
                for digest, indices in pending.items()
            ]
            # Collect in submission order: completion order never leaks
            # into result order.
            for digest, future in futures:
                yield digest, future.result()

    def run_one(self, config):
        """Execute a single config; returns its :class:`RunArtifact`."""
        return self.run([config])[0]


def run_many(configs, jobs=1):
    """One-shot convenience: ``Executor(jobs).run(configs)``."""
    return Executor(jobs=jobs).run(configs)
