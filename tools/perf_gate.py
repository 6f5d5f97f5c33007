#!/usr/bin/env python
"""Parent-versus-change perfbench gate: ``python tools/perf_gate.py BASE_SHA``.

Runs perfbench on zoo-cold, zoo-process and analysis in PAIRS alternating
runs of BASE_SHA (checked out into a temporary ``git worktree``) and of this
checkout, after byte-compiling ``src`` in both so that neither side's
``setup_s`` includes compiling the package from source.  Fails when a run
is not ``correct``, or when head's median throughput_per_s is below base's
by more than its bound in BENCHMARK.json.  Writes both sides' median of
every metric to ``$GITHUB_STEP_SUMMARY``.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("zoo-cold", "zoo-process", "analysis")
PAIRS = 3
GATED = "throughput_per_s"


def gated_bound() -> float:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return next(metric["bound"] for metric in spec["end_to_end"] if metric["name"] == GATED)


def parse_result(stdout: str) -> dict:
    """perfbench's result is its last output line; a run without one is incorrect."""
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False, "metrics": {}}


def compile_sources(checkout: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, check=True)


def run_perfbench(checkout: Path, workload: str) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "10", "--trace", "0"]
    return parse_result(subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True).stdout)


def medians(runs: list) -> dict:
    names = {name for run in runs for name in run["metrics"]}
    return {name: statistics.median(run["metrics"][name]["value"] for run in runs
                                    if name in run["metrics"]) for name in names}


def compare(workload: str, base: list, head: list, bound: float) -> list:
    """Why *head* fails against *base* on one workload (empty when it passes)."""
    if not all(run["correct"] for run in base + head):
        return [f"{workload}: a run is not correct"]
    before, after = medians(base)[GATED], medians(head)[GATED]
    if after < before * (1 - bound):
        return [f"{workload}: {GATED} {before:.4g} -> {after:.4g}, more than {bound:.0%} below base"]
    return []


def main(base_sha: str) -> int:
    bound = gated_bound()
    failures, lines = [], ["| workload | metric | base | head |", "|---|---|---|---|"]
    with tempfile.TemporaryDirectory() as scratch:
        base_dir = Path(scratch) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(base_dir), base_sha], cwd=ROOT, check=True)
        try:
            for checkout in (base_dir, ROOT):
                compile_sources(checkout)
            for workload in WORKLOADS:
                runs = {base_dir: [], ROOT: []}
                for pair in range(PAIRS):
                    for checkout in (base_dir, ROOT) if pair % 2 == 0 else (ROOT, base_dir):
                        runs[checkout].append(run_perfbench(checkout, workload))
                failures += compare(workload, runs[base_dir], runs[ROOT], bound)
                before, after = medians(runs[base_dir]), medians(runs[ROOT])
                lines += [f"| {workload} | {name} | {before.get(name, float('nan')):.4g} "
                          f"| {after.get(name, float('nan')):.4g} |" for name in sorted({*before, *after})]
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base_dir)], cwd=ROOT)
    report = "\n".join(["## perfbench medians, base vs head", "", *lines, "",
                        *(f"- FAIL {failure}" for failure in failures)]) + "\n"
    with open(os.environ.get("GITHUB_STEP_SUMMARY") or os.devnull, "a", encoding="utf-8") as summary:
        summary.write(report)
    print(report)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]) if len(sys.argv) == 2 else __doc__)
