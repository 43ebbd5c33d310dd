"""Parameter sweeps with the paper's "ideal solution" acceptance rule.

Section 2: a desirable change *reduces variance without negatively
impacting mean latency or throughput*.  :class:`ParameterSweep` runs an
experiment at each candidate setting and picks the best setting under
exactly that rule: among settings whose mean latency and throughput are
within tolerance of the best observed, choose the one with the lowest
variance.
"""

from repro.exec.executor import Executor


class SweepPoint:
    """One setting's outcome."""

    __slots__ = ("label", "value", "summary", "throughput")

    def __init__(self, label, value, summary, throughput):
        self.label = label
        self.value = value
        self.summary = summary
        self.throughput = throughput

    def __repr__(self):
        return "<SweepPoint %s mean=%.1f var=%.1f>" % (
            self.label,
            self.summary.mean,
            self.summary.variance,
        )


class ParameterSweep:
    """Sweep one knob over candidate values and pick the ideal setting.

    ``make_config(value)`` builds the
    :class:`~repro.bench.runner.ExperimentConfig` for a candidate value.

    Candidates are independent deterministic runs, so the sweep routes
    through the execution layer: ``jobs > 1`` fans them out across a
    process pool, with results in candidate order either way.
    """

    def __init__(self, make_config, mean_tolerance=0.10,
                 throughput_tolerance=0.05, jobs=1):
        self.make_config = make_config
        self.mean_tolerance = mean_tolerance
        self.throughput_tolerance = throughput_tolerance
        self.executor = Executor(jobs=jobs)
        self.points = []

    def run(self, candidates):
        """Run every candidate; returns the list of :class:`SweepPoint`."""
        candidates = list(candidates)
        artifacts = self.executor.run(
            [self.make_config(value) for value in candidates]
        )
        self.points = [
            SweepPoint(str(value), value, artifact.summary,
                       artifact.throughput_tps)
            for value, artifact in zip(candidates, artifacts)
        ]
        return self.points

    def best(self):
        """The ideal setting per the paper's rule.

        Eligible settings keep mean latency within ``mean_tolerance`` of
        the sweep's best mean and throughput within
        ``throughput_tolerance`` of the sweep's best throughput; among
        the eligible, minimum variance wins.
        """
        if not self.points:
            raise RuntimeError("run() the sweep first")
        best_mean = min(p.summary.mean for p in self.points)
        best_tput = max(p.throughput for p in self.points)
        eligible = [
            p
            for p in self.points
            if p.summary.mean <= best_mean * (1.0 + self.mean_tolerance)
            and p.throughput >= best_tput * (1.0 - self.throughput_tolerance)
        ]
        if not eligible:
            eligible = self.points
        return min(eligible, key=lambda p: p.summary.variance)

    def render(self):
        lines = ["%-12s %12s %12s %12s %10s" % ("setting", "mean(ms)", "var", "p99(ms)", "tput")]
        for point in self.points:
            s = point.summary
            lines.append(
                "%-12s %12.2f %12.0f %12.2f %10.0f"
                % (point.label, s.mean / 1e3, s.variance / 1e6, s.p99 / 1e3, point.throughput)
            )
        best = self.best()
        lines.append("ideal setting: %s (lowest variance within mean/throughput tolerance)" % best.label)
        return "\n".join(lines)
