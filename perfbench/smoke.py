"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

For each workload it runs one cycle of the smallest unit, untraced and
traced, and checks that every metric named in BENCHMARK.json is printed
with its unit, as a text line and in the final JSON object.  It then
plants a wrong known answer and expects the command to fail, and runs the
benchmark in a copy that holds only BENCHMARK.json and perfbench/, where it
must fail without printing a result.  Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("axioms", "corpus", "scale", "cli")


def bench(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170)


def check_metrics(workload, trace, spec, problems):
    proc = bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['attempted']} attempted, {result['failed']} failed")
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} differ")
    for name, unit in want.items():
        if not any(l.startswith(f"{name} ") and l.endswith(f" {unit}") for l in lines[:-1]):
            problems.append(f"{where}: no text line for {name} in {unit}")
    print(f"ok {where}: {len(got)} metrics, {result['attempted']} verdicts")


def check_planted(workload, problems):
    proc = bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", "0", "--smoke", "--plant")
    last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
    if proc.returncode == 0 or json.loads(last[0]).get("correct", False):
        problems.append(f"{workload}: a planted wrong answer passed")
    else:
        print(f"ok {workload}: planted wrong answer fails ({last[0][:60]}...)")


def check_bare(problems):
    """Without the engine's source the benchmark must fail and print no result."""
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench(bare, "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("the benchmark ran without the engine's source")
    else:
        print(f"ok bare copy: exit {proc.returncode}, {proc.stderr.strip()}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        check_metrics(workload, 0, spec["end_to_end"], problems)
        check_metrics(workload, 1, spec["per_layer"], problems)
        check_planted(workload, problems)
    check_bare(problems)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
