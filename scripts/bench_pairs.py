"""Run the benchmark in alternating parent/change pairs and summarise them.

    python3 scripts/bench_pairs.py --parent <rev> --workload maps --seed 53 \
        --pairs 10 --out BENCH_<n>_pairs.json

The change is the checkout this script sits in, as it is on disk; the parent
is <rev>, checked out from the same repository by ``git worktree add
--detach`` into a temporary directory (no network) and removed on exit.
Each pair runs ``benchmark/run.py --trace 0`` once in each tree, the parent
first in odd pairs and the change first in even ones, so that a drift of the
host's speed does not favour one side.  Every run lasts ``BENCHMARK.json``'s
``run_seconds``.  ``--workload`` may be given more than once; every workload
gets ``--pairs`` pairs.

The record has the layout of the earlier ``BENCH_<n>_pairs.json`` files
(``what``, ``command``, ``parent``, ``host``, ``runs``) plus ``summary``:
for each workload and each end-to-end metric of ``BENCHMARK.json``, the
median and quartiles of both sides, the pairs the change won in the
direction ``BENCHMARK.json`` calls better, and ``resolved_gain``: whether
the change won at least 9 of every 10 pairs and its median beats the
parent's by more than the parent's interquartile range.  Quartiles are
``statistics.quantiles(..., n=4, method="inclusive")``.

Nothing under ``benchmark/`` is edited; each run writes to its own tree's
``benchmark/out/``.  Timings are only comparable within one record.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


@contextlib.contextmanager
def parent_tree(rev):
    """A detached worktree of rev, removed on exit."""
    tmp = tempfile.mkdtemp(prefix="bench-pairs-")
    path = os.path.join(tmp, "parent")
    try:
        git("worktree", "add", "--detach", path, rev)
        yield path
    finally:
        with contextlib.suppress(subprocess.CalledProcessError):
            git("worktree", "remove", "--force", path)
        git("worktree", "prune")
        shutil.rmtree(tmp, ignore_errors=True)


def run_once(tree, workload, seed, seconds):
    """attempted, failed and the end-to-end metrics of one untraced run."""
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmark", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, end_to_end):
    """Per workload and metric: both sides' spread, the change's wins over
    the pairs both sides completed, and whether the gain is resolved."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        by_side = {s: {r["pair"]: r["metrics"] for r in runs
                       if r["workload"] == workload and r["side"] == s} for s in SIDES}
        pairs = sorted(by_side["parent"].keys() & by_side["change"].keys())
        out[workload] = {}
        for metric in end_to_end:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            parent = [by_side["parent"][p][name] for p in pairs]
            change = [by_side["change"][p][name] for p in pairs]
            ps, cs = spread(parent), spread(change)
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            gap = sign * (cs["median"] - ps["median"])
            out[workload][name] = {
                "better": metric["better"], "pairs": len(pairs), "wins": wins,
                "parent": ps, "change": cs,
                "resolved_gain": 10 * wins >= 9 * len(pairs) and gap > ps["q3"] - ps["q1"],
            }
    return out


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True, action="append")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", required=True, help="path of the JSON record to write")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")

    seconds = spec["run_seconds"]
    runs = []
    with parent_tree(args.parent) as parent:
        trees = {"parent": parent, "change": ROOT}
        for workload in args.workload:
            for pair in range(1, args.pairs + 1):
                for side in SIDES if pair % 2 else SIDES[::-1]:
                    result = run_once(trees[side], workload, args.seed, seconds)
                    runs.append({"pair": pair, "side": side, "workload": workload,
                                 "seed": args.seed, **result})
                    print(f"{workload} pair {pair} {side}: {result['metrics']}", file=sys.stderr)
    record = {
        "what": "parent/change pairs of benchmark/run.py --trace 0, each side run from its own "
                "copy of the source tree, alternating which side runs first (odd pairs: parent "
                f"first); {args.pairs} pairs per workload",
        "command": f"python3 benchmark/run.py --workload <w> --seed {args.seed} "
                   f"--seconds {seconds} --trace 0",
        "parent": git("rev-parse", "--short", args.parent),
        "host": {"machine": platform.machine(), "nproc": os.cpu_count()},
        "runs": runs,
        "summary": summarize(runs, spec["end_to_end"]),
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
