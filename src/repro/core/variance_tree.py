"""The variance tree (Section 3.2).

Given per-transaction time attribution for the instrumented subset of the
call graph, the variance tree decomposes a parent's latency variance into
the variances of its components plus twice their pairwise covariances:

    Var(sum_i X_i) = sum_i Var(X_i) + 2 sum_{i<j} Cov(X_i, X_j)      (1)

where the components of an instrumented parent are its instrumented
children plus its *body* (own time), defined as the residual
``parent_total - sum(child totals observed under it)`` so the identity
holds exactly on finite samples (population moments throughout).

Because a parent's variance is always at least as large as any single
child's contribution, raw variance cannot identify root causes — that is
why scoring (``repro.core.scoring``) combines variance with specificity.
"""

from repro.sim.stats import covariance


def body_key(parent_key):
    """The factor key for a parent's own (self) time."""
    name, site = parent_key
    return (name + "::body", site)


class VarianceNode:
    """One factor's sample vector and variance across transactions."""

    __slots__ = ("key", "samples", "variance")

    def __init__(self, key, samples):
        self.key = key
        self.samples = samples
        self.variance = float(samples.var())

    @property
    def name(self):
        return self.key[0]

    @property
    def site(self):
        return self.key[1]

    def __repr__(self):
        return "VarianceNode(%s@%s, var=%.1f)" % (
            self.key[0],
            self.key[1],
            self.variance,
        )


class Decomposition:
    """A parent factor broken into body + instrumented children."""

    def __init__(self, parent, components):
        self.parent = parent
        self.components = components

    def covariances(self):
        """Pairwise population covariances among the components."""
        pairs = {}
        comps = self.components
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                pairs[(comps[i].key, comps[j].key)] = covariance(
                    comps[i].samples, comps[j].samples
                )
        return pairs

    def reconstructed_variance(self):
        """Right-hand side of eq. (1); equals the parent variance exactly."""
        total = sum(node.variance for node in self.components)
        total += 2.0 * sum(self.covariances().values())
        return total

    def __repr__(self):
        return "Decomposition(%s -> %d components)" % (
            self.parent.key[0],
            len(self.components),
        )


class VarianceTree:
    """Variance analysis over a set of finished transaction traces."""

    def __init__(self, traces):
        import numpy as np

        self.traces = [t for t in traces if t.committed]
        if not self.traces:
            raise ValueError("variance tree needs at least one committed trace")
        self.latencies = np.array([t.latency for t in self.traces], dtype=float)
        self.overall_variance = float(self.latencies.var())
        self._factor_samples = self._collect_factors()

    def _collect_factors(self):
        import numpy as np

        keys = set()
        for trace in self.traces:
            keys.update(trace.durations)
        samples = {}
        n = len(self.traces)
        for key in keys:
            arr = np.zeros(n, dtype=float)
            for i, trace in enumerate(self.traces):
                arr[i] = trace.durations.get(key, 0.0)
            samples[key] = arr
        return samples

    # ------------------------------------------------------------------
    # Factor-level queries
    # ------------------------------------------------------------------

    @property
    def factor_keys(self):
        return list(self._factor_samples)

    def node(self, key):
        return VarianceNode(key, self._factor_samples[key])

    def factor_variance(self, key):
        return float(self._factor_samples[key].var())

    def share(self, key):
        """This factor's variance as a fraction of overall latency variance."""
        if self.overall_variance == 0.0:
            return 0.0
        return self.factor_variance(key) / self.overall_variance

    def shares(self):
        """``{factor key: share of overall variance}`` for all factors."""
        return {key: self.share(key) for key in self._factor_samples}

    def name_shares(self):
        """Shares aggregated across call sites, keyed by function name.

        Aggregation sums the per-site sample vectors first (a transaction's
        total time in the function), then takes the variance — matching the
        paper's per-function aggregation rule.
        """
        by_name = {}
        for (name, _site), arr in self._factor_samples.items():
            if name in by_name:
                by_name[name] = by_name[name] + arr
            else:
                by_name[name] = arr.copy()
        if self.overall_variance == 0.0:
            return {name: 0.0 for name in by_name}
        return {
            name: float(arr.var()) / self.overall_variance
            for name, arr in by_name.items()
        }

    # ------------------------------------------------------------------
    # Parent decomposition
    # ------------------------------------------------------------------

    def decompose(self, parent_key):
        """Break ``parent_key`` into body + children components (eq. 1)."""
        import numpy as np

        if parent_key not in self._factor_samples:
            raise KeyError("factor %r was not instrumented" % (parent_key,))
        parent = self.node(parent_key)
        n = len(self.traces)
        child_keys = set()
        for trace in self.traces:
            child_keys.update(trace.under.get(parent_key, ()))
        components = []
        children_total = np.zeros(n, dtype=float)
        for key in sorted(child_keys):
            arr = np.zeros(n, dtype=float)
            for i, trace in enumerate(self.traces):
                arr[i] = trace.under.get(parent_key, {}).get(key, 0.0)
            children_total += arr
            components.append(VarianceNode(key, arr))
        body = VarianceNode(body_key(parent_key), parent.samples - children_total)
        components.insert(0, body)
        return Decomposition(parent, components)
