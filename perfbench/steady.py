"""Steadiness mode: is the benchmark steady enough for its own bounds?

Usage, from the repository root::

    python3 perfbench/steady.py --workload voltdb-tpcc --runs 10

Runs ``run.py --trace 0`` for ``BENCHMARK.json``'s ``run_seconds`` in
two sets of ``--runs`` runs, one process at a time, each run with its
own seed: seeds 1 to ``--runs`` in the first set, the next ``--runs``
in the second.  For every end-to-end metric it prints each set's median
and quartiles, the spread (interquartile distance as a share of the
median, with the quartiles ``statistics.quantiles(values, n=4)`` gives)
and the gap between the two sets' medians as a share of the first, both
against the metric's bound.  Exits 1 when a spread or a gap exceeds its
bound, or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload, seed, seconds):
    child = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = child.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if child.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(child.stdout + child.stderr)
        return None
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def report(workload, sets, metrics):
    ok = True
    print("%s: %d sets of %d runs" % (workload, len(sets), len(sets[0])))
    print("  %-12s %-5s %12s %12s %12s %8s %8s %8s"
          % ("metric", "set", "median", "q1", "q3", "spread", "gap", "bound"))
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for index, runs in enumerate(sets):
            values = [run[name] for run in runs]
            q1, q3, share = spread(values)
            medians.append(statistics.median(values))
            flag = ""
            if share > bound:
                flag, ok = " SPREAD>BOUND", False
            elif share > bound / 3:
                flag = " spread>bound/3"
            gap = "-"
            if index:
                gap_share = abs(medians[-1] - medians[0]) / medians[0]
                if gap_share > bound:
                    flag, ok = flag + " GAP>BOUND", False
                gap = "%.4f" % gap_share
            print("  %-12s %-5d %12.6g %12.6g %12.6g %8.4f %8s %8.3f%s"
                  % (name, index + 1, medians[-1], q1, q3, share, gap, bound,
                     flag))
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    contract = load_contract()
    ok = True
    for workload in args.workload:
        sets = []
        for set_index in range(SETS):
            runs = []
            for run_index in range(args.runs):
                seed = 1 + set_index * args.runs + run_index
                values = run_once(workload, seed, contract["run_seconds"])
                if values is None:
                    print("%s seed %d: run failed" % (workload, seed))
                    return 1
                print("%s seed %d: %s" % (workload, seed, json.dumps(values)),
                      flush=True)
                runs.append(values)
            sets.append(runs)
        ok = report(workload, sets, contract["end_to_end"]) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
