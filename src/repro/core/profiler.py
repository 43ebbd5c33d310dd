"""The TProfiler iterative-refinement driver (Section 3.1).

Each iteration: run the system with the current instrumented subset,
build the variance tree, score factors, pick the top-k informative ones,
and expand their children into the instrumented set for the next run.
The loop stops when no chosen factor has unexplored children (or after
``max_iterations``, the paper's "perhaps as much as ten").

A :class:`ProfiledSystem` adapter supplies the system under study: its
static call graph and a ``run(instrumented, probe_cost)`` method that
executes the workload and returns an object whose ``traces`` holds the
run's transactions (a :class:`~repro.core.annotations.TransactionLog`
or a run result).

:class:`NaiveProfiler` is the Figure 5 (right) baseline: it decomposes
*every* factor rather than only the high-scoring ones, so the number of
runs needed scales with the size of the call graph instead of with the
depth of the variance-relevant path.
"""

import math

from repro.core.scoring import score_factors, top_k_factors
from repro.core.variance_tree import VarianceTree


class ProfiledSystem:
    """Adapter protocol the profiler drives.

    Subclasses provide:

    - ``callgraph`` — a :class:`~repro.core.callgraph.CallGraph`;
    - ``run(instrumented, probe_cost)`` — execute the workload with the
      given instrumented function names and return an object whose
      ``traces`` holds the run's transactions.

    ``run_many`` executes a batch of independent instrumented subsets
    and returns one such object per subset, in order.  The default is a
    serial loop over ``run``; adapters backed by the execution layer
    (:class:`~repro.bench.profiled.EngineProfiledSystem`) override it to
    fan the batch out across an :class:`~repro.exec.Executor`.
    """

    callgraph = None

    def run(self, instrumented, probe_cost):
        raise NotImplementedError

    def run_many(self, batches, probe_cost):
        return [self.run(frozenset(batch), probe_cost) for batch in batches]


class FactorReport:
    """One row of the final profile (the Table 1 / Table 2 rows)."""

    __slots__ = ("name", "site", "share", "variance", "score", "height")

    def __init__(self, name, site, share, variance, score, height):
        self.name = name
        self.site = site
        self.share = share
        self.variance = variance
        self.score = score
        self.height = height

    def __repr__(self):
        return "FactorReport(%s@%s, share=%.1f%%)" % (
            self.name,
            self.site,
            100.0 * self.share,
        )


class ProfileResult:
    """Outcome of a full profiling session."""

    def __init__(self, factors, tree, instrumented, iterations, runs):
        self.factors = factors
        self.tree = tree
        self.instrumented = instrumented
        self.iterations = iterations
        self.runs = runs

    def top(self, k):
        return self.factors[:k]

    def share_of(self, name):
        """Combined share of overall variance across call sites of ``name``."""
        return self.tree.name_shares().get(name, 0.0)

    def __repr__(self):
        return "<ProfileResult %d factors after %d runs>" % (
            len(self.factors),
            self.runs,
        )


class TProfiler:
    """Iterative-refinement profiler with score-guided expansion."""

    def __init__(
        self,
        system,
        k=5,
        max_iterations=10,
        probe_cost=0.05,
        expand_share_threshold=0.01,
        specificity_exponent=2,
    ):
        self.system = system
        self.k = k
        self.max_iterations = max_iterations
        self.probe_cost = probe_cost
        self.expand_share_threshold = expand_share_threshold
        self.specificity_exponent = specificity_exponent
        self.runs = 0

    def profile(self):
        """Run the full instrument-collect-analyze-expand loop."""
        graph = self.system.callgraph
        instrumented = {graph.root}
        tree = None
        iterations = 0
        for _ in range(self.max_iterations):
            iterations += 1
            log = self.system.run(frozenset(instrumented), self.probe_cost)
            self.runs += 1
            tree = VarianceTree(log.traces)
            added = self._expand(tree, graph, instrumented)
            if not added:
                break
        return ProfileResult(
            factors=self._final_factors(tree, graph),
            tree=tree,
            instrumented=frozenset(instrumented),
            iterations=iterations,
            runs=self.runs,
        )

    def _expand(self, tree, graph, instrumented):
        """Choose top-k informative factors and instrument their children."""
        shares = tree.name_shares()
        scores = score_factors(tree, graph, self.specificity_exponent)
        # Candidates: measured functions that still have unexplored
        # children and account for a non-trivial share of overall variance.
        candidates = {}
        for name, score in scores.items():
            base = name[: -len("::body")] if name.endswith("::body") else name
            unexplored = [c for c in graph.children(base) if c not in instrumented]
            if not unexplored:
                continue
            if shares.get(name, 0.0) < self.expand_share_threshold:
                continue
            candidates[base] = max(candidates.get(base, 0.0), score)
        chosen = top_k_factors(candidates, self.k)
        added = set()
        for name in chosen:
            for child in graph.children(name):
                if child not in instrumented:
                    instrumented.add(child)
                    added.add(child)
        return added

    def _final_factors(self, tree, graph):
        """Rank all measured factors for the final report."""
        scores = score_factors(tree, graph, self.specificity_exponent)
        shares = tree.shares()
        rows = []
        for key in tree.factor_keys:
            name, site = key
            base = name[: -len("::body")] if name.endswith("::body") else name
            if base not in graph:
                continue
            rows.append(
                FactorReport(
                    name=name,
                    site=site,
                    share=shares[key],
                    variance=tree.factor_variance(key),
                    score=scores.get(name, 0.0),
                    height=graph.height(base),
                )
            )
        rows.sort(key=lambda r: (-r.score, -r.share, r.name))
        return rows


class NaiveProfiler:
    """The expand-everything baseline (Figure 5, right).

    To keep instrumentation overhead bounded, any profiler can instrument
    at most ``budget`` functions per run; the naive strategy must
    decompose every non-leaf function (parent plus all children measured
    together), so its run count scales with the call-graph size.
    """

    def __init__(self, system=None, budget=100):
        self.system = system
        self.budget = budget

    def runs_needed(self, callgraph, expanded=False):
        """Number of runs to decompose every factor.

        With ``expanded=True``, counts over the fully expanded call *tree*
        (every root-to-node path its own node) — the paper's 2e15-node
        figure for MySQL; otherwise over the static DAG's functions.
        """
        if expanded:
            total, leaves = callgraph.expanded_tree_counts()
            non_leaves = total - leaves
            # Each expanded non-leaf must appear in some run together with
            # its children; a run holds at most `budget` probes.
            return max(1, math.ceil(non_leaves / self.budget))
        probes = 0
        for name in callgraph.functions:
            children = callgraph.children(name)
            if children:
                probes += 1 + len(children)
        return max(1, math.ceil(probes / self.budget))

    def batches(self, callgraph=None):
        """The budget-bounded instrumented subsets, in decomposition order.

        Every non-leaf function must be measured together with all of
        its children; groups pack into batches of at most ``budget``
        probes.  The batches are mutually independent — each is its own
        deterministic run — which is what lets :meth:`profile` fan them
        out across the execution layer instead of looping serially.
        """
        graph = callgraph if callgraph is not None else self.system.callgraph
        batches = []
        batch = []
        for name in graph.functions:
            children = graph.children(name)
            if not children:
                continue
            group = [name] + children
            if len(batch) + len(group) > self.budget and batch:
                batches.append(frozenset(batch))
                batch = []
            batch.extend(group)
        if batch:
            batches.append(frozenset(batch))
        return batches

    def profile(self, probe_cost=0.05):
        """Actually run the naive strategy against a (small) system."""
        if self.system is None:
            raise RuntimeError("NaiveProfiler.profile needs a system")
        batches = self.batches()
        if not batches:
            return None, 0
        logs = self.system.run_many(batches, probe_cost)
        tree = VarianceTree(logs[-1].traces)
        return tree, len(batches)
