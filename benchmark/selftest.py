"""Self-test of the benchmark itself.

    python3 benchmark/selftest.py

- Each workload runs at a tiny size (two jobs), untraced and traced, and its
  result line must carry exactly the metric names and units BENCHMARK.json
  lists, with no failed job.
- A job whose program fails is counted: ``verify --M 2 --tau 0.5
  --corrupt-mu`` must exit 4 and give failed_frac 1.
- In a directory that holds only BENCHMARK.json and the benchmark, run.py
  must exit nonzero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run


def bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(root, "benchmark", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--jobs", "2"],
        capture_output=True, text=True, timeout=600, cwd=root)


def check_workloads(spec):
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(run.ROOT, w["name"], trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{w['name']} --trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            print(lines[-2])
            print(lines[-1])
            res = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{w['name']} --trace {trace}: metric names or units differ: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{w['name']} --trace {trace}: {res['failed']} failed jobs")
    return problems


def check_failure_counted(workdir):
    workloads, _ = run.load_library()
    from beltbound import cli

    out = os.path.join(workdir, "verify.json")
    argv = ["--command", "verify", "--M", "2", "--tau", "0.5", "--corrupt-mu", "--out", out]
    codes = []

    def job(inp, part):
        codes.append(cli.run(argv))
        return codes[-1]

    control = workloads.Workload(
        "corrupt-mu", min_jobs=1, pool=1, make_inputs=None, run=job,
        check=lambda inp, code: workloads.cli_failures(code, out, expect_exit=0))
    s = run.summarize(*run.timed(control, [None], 0, 1), 1)
    problems = []
    if codes != [4]:
        problems.append(f"corrupt-mu verify exited {codes}, expected [4]")
    if s["failed"] != 1 or s["failed_frac"] != 1.0:
        problems.append(f"corrupt-mu job not counted as failed: {s}")
    return problems


def check_bare_directory(workdir):
    bare = os.path.join(workdir, "bare")
    os.makedirs(os.path.join(bare, "benchmark"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for f in os.listdir(run.HERE):
        if f.endswith(".py"):
            shutil.copy(os.path.join(run.HERE, f), os.path.join(bare, "benchmark"))
    proc = bench(bare, "origin-corpus", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(run.OUT, exist_ok=True)
    problems = check_workloads(spec)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        problems += check_failure_counted(workdir)
        problems += check_bare_directory(workdir)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
