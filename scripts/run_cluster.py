#!/usr/bin/env python
"""Run a sharded cluster experiment and report the distributed picture.

Usage::

    PYTHONPATH=src python scripts/run_cluster.py --shards 4
    PYTHONPATH=src python scripts/run_cluster.py --shards 4 \\
        --remote-payment 0.15 --router range --check-determinism
    PYTHONPATH=src python scripts/run_cluster.py --shards 2 \\
        --engine postgres --plan net-delay --out events.jsonl
    PYTHONPATH=src python scripts/run_cluster.py --shards 4 \\
        --seeds 8 --jobs 4 --check-determinism

Prints the single-home/cross-shard split, coordinator wait statistics
(``dist_prepare_wait`` / ``dist_commit_wait``), per-node commit counts,
per-reason abort totals and the latency summary, plus a content digest
of the run (``repro.bench.digest.run_digest``).  ``--check-determinism``
re-executes every configuration and fails unless the digests match
byte-for-byte.

``--seeds N`` fans out over N consecutive seeds and ``--jobs`` sets the
process-pool width (``repro.exec``); the detailed report covers the
first seed, subsequent seeds print one digest line each.
"""

import argparse
import sys

from repro.bench.digest import run_digest
from repro.bench.runner import ExperimentConfig
from repro.cluster import Topology
from repro.exec import Executor
from repro.faults import NAMED_PLANS, named_plan


def build_parser():
    parser = argparse.ArgumentParser(
        description="Run one deterministic sharded-cluster experiment."
    )
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--engine", default="mysql",
                        choices=["mysql", "postgres"])
    parser.add_argument("--router", default="hash", choices=["hash", "range"])
    parser.add_argument("--warehouses", type=int, default=16)
    parser.add_argument("--remote-payment", type=float, default=0.15,
                        help="fraction of Payments homed at a remote "
                             "warehouse (cross-shard writes)")
    parser.add_argument("--remote-stock", type=float, default=0.01,
                        help="per-order-line probability of a remote "
                             "supplying warehouse in NewOrder")
    parser.add_argument("--n-txns", type=int, default=600)
    parser.add_argument("--rate-tps", type=float, default=200.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seeds", type=int, default=1,
                        help="fan out over this many consecutive seeds "
                             "(default 1)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the fan-out (default 1)")
    parser.add_argument("--plan", choices=sorted(NAMED_PLANS),
                        help="optional named fault plan from repro.faults")
    parser.add_argument("--check-determinism", action="store_true",
                        help="re-execute every config; fail unless "
                             "digests match")
    parser.add_argument("--out", metavar="FILE",
                        help="write the telemetry event log (JSONL) here; "
                             "first seed only with --seeds > 1")
    return parser


def build_config(args, seed):
    workload_kwargs = {
        "warehouses": args.warehouses,
        "remote_payment_prob": args.remote_payment,
        "remote_warehouse_prob": args.remote_stock,
    }
    if args.engine == "postgres":
        workload_kwargs.update(
            {"warehouse_zipf_theta": None, "item_zipf_theta": None}
        )
    return ExperimentConfig(
        engine=args.engine,
        workload="tpcc",
        workload_kwargs=workload_kwargs,
        seed=seed,
        n_txns=args.n_txns,
        rate_tps=args.rate_tps,
        warmup_fraction=0.0,
        num_shards=args.shards,
        topology=Topology(router=args.router),
        fault_plan=None if args.plan is None else named_plan(args.plan),
    )


def main(argv=None):
    args = build_parser().parse_args(argv)
    seeds = range(args.seed, args.seed + args.seeds)
    configs = [build_config(args, seed) for seed in seeds]
    executor = Executor(jobs=args.jobs)
    artifacts = executor.run(configs)
    first = artifacts[0]
    stats = first.cluster_stats

    print("engine=%s shards=%d router=%s seed=%d n_txns=%d plan=%s jobs=%d"
          % (args.engine, args.shards, args.router, args.seed,
             args.n_txns, args.plan or "none", args.jobs))
    print("single_home=%d cross_shard=%d committed=%d failed=%d"
          % (stats["single_home_txns"], stats["cross_shard_txns"],
             first.committed_count, first.failed_txns))

    hists = first.metrics_snapshot()["histograms"]
    for name in ("cluster.prepare_wait", "cluster.commit_wait"):
        stats_row = hists.get(name, {"count": 0})
        if stats_row["count"]:
            print("%s: count=%d mean=%.0fus p99=%.0fus"
                  % (name, stats_row["count"], stats_row["mean"],
                     stats_row["p99"]))
        else:
            print("%s: count=0" % (name,))
    for node_id in range(args.shards):
        node = first.node_metrics_snapshot(node_id)["counters"]
        print("  node%d: committed=%d branches_committed=%d"
              % (node_id,
                 node.get("%s.txns_committed" % args.engine, 0),
                 node.get("%s.branches_committed" % args.engine, 0)))
    for label, counts in (("aborts", first.abort_counts),
                          ("failed", first.failed_counts)):
        for reason in sorted(counts):
            print("  %s.%s=%d" % (label, reason, counts[reason]))
    summary = first.summary
    print("latency: mean=%.0fus p99=%.0fus variance=%.3g"
          % (summary.mean, summary.p99, summary.variance))
    digests = [run_digest(artifact) for artifact in artifacts]
    print("digest=%s" % (digests[0],))
    for seed, digest in list(zip(seeds, digests))[1:]:
        print("digest seed=%d %s" % (seed, digest))

    if args.out:
        jsonl = first.event_log_jsonl()
        with open(args.out, "w") as fh:
            fh.write(jsonl)
        print("wrote %d events to %s" % (len(jsonl.splitlines()), args.out))

    if args.check_determinism:
        # A second, fully independent execution of every config (the
        # executor keeps nothing between run() calls).
        rerun = [run_digest(a) for a in executor.run(configs)]
        for seed, one, two in zip(seeds, digests, rerun):
            if one != two:
                print("DETERMINISM FAILURE seed=%d: %s != %s"
                      % (seed, one, two))
                return 1
        print("determinism check passed (two runs, identical digests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
