#!/usr/bin/env python
"""Benchmark trend tracking (the CI ``bench-trend`` step).

Two modes:

``collect``
    Run the five ``python -m repro bench`` suites in-process — the backend
    comparison, the automata suite, the persistent-store suite, the
    service-throughput suite (with p50/p95/p99 latency percentiles) and the
    workload-zoo suite — and
    write one combined JSON report (``BENCH_<pr>.json`` shape).  Every
    embedded suite report carries the CLI's ``context`` block (CPU count,
    Python version, platform, fixed RNG seed), so a reader can judge
    whether two reports are comparable at all.

``compare``
    Diff a freshly collected report against the latest committed baseline
    (``benchmarks/trend/BENCH_*.json``, highest number wins; or an explicit
    ``--baseline``).  Every numeric leaf whose key ends in ``_seconds`` is
    compared; anything more than ``--threshold`` (default 30%) slower is a
    regression.  Regressions in a **blocking** suite (``--blocking``,
    default ``backends,service`` — the two suites that caught the parallel
    path losing to serial) emit GitHub ``::error`` annotations and fail the
    step with exit code 1; every other suite stays warn-only
    (``::warning``), because shared-runner timing noise in the secondary
    suites must not gate merges.  When ``$GITHUB_STEP_SUMMARY`` is set, a
    per-suite markdown table of all shared timings is appended to it.

Typical CI usage::

    python tools/bench_trend.py collect --output BENCH_current.json
    python tools/bench_trend.py compare --current BENCH_current.json

To record a new baseline, commit the collected file as
``benchmarks/trend/BENCH_<pr>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
TREND_DIR = ROOT / "benchmarks" / "trend"
BASELINE_PATTERN = re.compile(r"BENCH_(\d+)\.json$")

#: (suite name, repro CLI argv) — kept small enough for a CI smoke run.
SUITES = (
    ("backends", ["bench", "--workload", "synthetic", "--length", "10"]),
    ("automata", ["bench", "--suite", "automata", "--repeats", "3", "--requests", "20"]),
    ("store", ["bench", "--suite", "store", "--length", "6"]),
    ("service", ["bench", "--suite", "service", "--requests", "48", "--length", "4"]),
    ("zoo", ["bench", "--suite", "zoo", "--requests", "24", "--backends", "serial,process",
             "--workers", "2"]),
    ("evolve", ["bench", "--suite", "evolve", "--requests", "4"]),
)

#: Suites whose regressions fail the CI step instead of merely annotating it.
DEFAULT_BLOCKING = ("backends", "service")


def collect(output: Path) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.cli import main as repro_main

    combined: Dict[str, object] = {}
    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="bench-trend-") as scratch:
        for name, argv in SUITES:
            report_path = Path(scratch) / f"{name}.json"
            print(f"bench-trend: running suite {name!r}: python -m repro {' '.join(argv)}")
            code = repro_main([*argv, "--json", str(report_path)])
            if code != 0 or not report_path.exists():
                failures.append(name)
                continue
            combined[name] = json.loads(report_path.read_text(encoding="utf-8"))
    output.write_text(json.dumps(combined, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"bench-trend: wrote {output} ({', '.join(combined) or 'no suites'})")
    if failures:
        print(f"::warning title=bench-trend::suite(s) failed to collect: {', '.join(failures)}")
    return 0


def timing_leaves(report: object, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Every numeric leaf whose key ends in ``_seconds``, as (path, value).

    Walking the tree instead of naming fields keeps the comparison in step
    with report-shape growth: a new suite or a new timing key participates
    the first time both sides carry it, with no tool change.
    """
    if isinstance(report, dict):
        for key, value in report.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, (int, float)) and key.endswith("_seconds"):
                yield path, float(value)
            else:
                yield from timing_leaves(value, path)
    elif isinstance(report, list):
        for index, value in enumerate(report):
            yield from timing_leaves(value, f"{prefix}[{index}]")


def latest_baseline() -> Optional[Path]:
    candidates: List[Tuple[int, Path]] = []
    if TREND_DIR.is_dir():
        for path in TREND_DIR.iterdir():
            match = BASELINE_PATTERN.search(path.name)
            if match:
                candidates.append((int(match.group(1)), path))
    return max(candidates)[1] if candidates else None


def write_step_summary(
    rows_by_suite: Dict[str, List[Tuple[str, float, float, float, str]]],
    blocking: frozenset,
    threshold: float,
) -> None:
    """Append one markdown table per suite to ``$GITHUB_STEP_SUMMARY``."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    lines = [f"## Benchmark trend (threshold +{threshold:.0%})", ""]
    for suite in sorted(rows_by_suite):
        gate = "blocking" if suite in blocking else "warn-only"
        lines += [f"### `{suite}` ({gate})", ""]
        lines += ["| timing | baseline | current | ratio | status |", "|---|---|---|---|---|"]
        for path, before, after, ratio, status in rows_by_suite[suite]:
            lines.append(
                f"| `{path}` | {before * 1000:.1f} ms | {after * 1000:.1f} ms "
                f"| {ratio:.2f}x | {status} |"
            )
        lines.append("")
    with open(summary_path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def compare(
    current_path: Path,
    baseline_path: Optional[Path],
    threshold: float,
    blocking: frozenset = frozenset(DEFAULT_BLOCKING),
) -> int:
    if baseline_path is None:
        baseline_path = latest_baseline()
    if baseline_path is None:
        print("bench-trend: no committed baseline (benchmarks/trend/BENCH_*.json); skipping")
        return 0
    current = json.loads(current_path.read_text(encoding="utf-8"))
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))

    current_timings = dict(timing_leaves(current))
    baseline_timings = dict(timing_leaves(baseline))
    shared = sorted(set(current_timings) & set(baseline_timings))
    print(
        f"bench-trend: comparing {current_path.name} against {baseline_path.name} "
        f"({len(shared)} shared timings, threshold +{threshold:.0%}, "
        f"blocking: {', '.join(sorted(blocking)) or 'none'})"
    )
    for suite in sorted(set(current) & set(baseline)):
        here = current[suite].get("context", {}) if isinstance(current[suite], dict) else {}
        there = baseline[suite].get("context", {}) if isinstance(baseline[suite], dict) else {}
        if here and there and here != there:
            print(
                f"bench-trend: note — {suite} context differs from the baseline's "
                f"(current: {here.get('cpu_count')} cpus, {here.get('platform')}; "
                f"baseline: {there.get('cpu_count')} cpus, {there.get('platform')})"
            )

    warnings = 0
    failures = 0
    rows_by_suite: Dict[str, List[Tuple[str, float, float, float, str]]] = {}
    for path in shared:
        before, after = baseline_timings[path], current_timings[path]
        if before <= 0:
            continue
        suite = path.split(".", 1)[0]
        ratio = after / before
        status = "ok"
        marker = ""
        if ratio > 1 + threshold and after - before > 0.001:  # ignore sub-ms jitter
            if suite in blocking:
                failures += 1
                status = "regression (blocking)"
                marker = "  <-- regression (blocking)"
                print(
                    f"::error title=Benchmark regression::{path} is {ratio:.2f}x the "
                    f"baseline ({before * 1000:.1f} ms -> {after * 1000:.1f} ms); "
                    f"the {suite!r} suite gates merges — see the context blocks "
                    f"in {current_path.name}"
                )
            else:
                warnings += 1
                status = "regression (warn-only)"
                marker = "  <-- regression"
                print(
                    f"::warning title=Benchmark regression::{path} is {ratio:.2f}x the "
                    f"baseline ({before * 1000:.1f} ms -> {after * 1000:.1f} ms); "
                    f"informational only — see the context blocks in {current_path.name}"
                )
        print(f"  {path}: {before * 1000:9.1f} ms -> {after * 1000:9.1f} ms ({ratio:5.2f}x){marker}")
        rows_by_suite.setdefault(suite, []).append((path, before, after, ratio, status))

    write_step_summary(rows_by_suite, blocking, threshold)
    print(
        f"bench-trend: {failures} blocking and {warnings} warn-only regression(s) "
        f"beyond +{threshold:.0%} across {len(shared)} timings"
    )
    if failures:
        print(
            f"bench-trend: FAILED — {failures} regression(s) in blocking suite(s) "
            f"({', '.join(sorted(blocking))}); re-run to rule out runner noise or "
            "commit a new baseline with a justification"
        )
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    collect_parser = commands.add_parser("collect", help="run the bench suites, write one report")
    collect_parser.add_argument(
        "--output", type=Path, default=Path("BENCH_current.json"), help="combined report path"
    )

    compare_parser = commands.add_parser("compare", help="diff a report against the baseline")
    compare_parser.add_argument("--current", type=Path, required=True, help="freshly collected report")
    compare_parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline report (default: highest-numbered benchmarks/trend/BENCH_*.json)",
    )
    compare_parser.add_argument(
        "--threshold", type=float, default=0.30, help="warn beyond this slowdown (default: 0.30)"
    )
    compare_parser.add_argument(
        "--blocking",
        default=",".join(DEFAULT_BLOCKING),
        help="comma-separated suites whose regressions fail the step "
        f"(default: {','.join(DEFAULT_BLOCKING)}; pass '' for warn-only everywhere)",
    )

    args = parser.parse_args(argv)
    if args.command == "collect":
        return collect(args.output)
    blocking = frozenset(name.strip() for name in args.blocking.split(",") if name.strip())
    return compare(args.current, args.baseline, args.threshold, blocking)


if __name__ == "__main__":
    raise SystemExit(main())
