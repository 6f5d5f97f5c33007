#!/usr/bin/env python3
"""End-to-end benchmark of the containment stack.

Run from the repository root::

    python3 perfbench/run.py --workload zoo-cold --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (and writes its spans as Chrome trace-event JSON
under ``.perfbench/``).  ``--workload all`` runs the four workloads in one
process, then repeats one pass of each in reverse order and checks that no
layer count moved.  The last line of standard output is one JSON object;
the exit code is nonzero when any verdict, fingerprint, known answer or
layer count is wrong.  See perfbench/README.md.
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.measure import latency_summary  # noqa: E402
from perfbench.trace import Tracer, interval_union, self_times  # noqa: E402

WORKLOAD_NAMES = ("zoo-cold", "zoo-process", "analysis", "serve-mixed")
LEVELS = ("low", "mid", "high")

#: The end-to-end metrics every ``--trace 0`` run prints, with units.
END_TO_END = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    *[(f"latency_p50_s.{level}", "s") for level in LEVELS],
    *[(f"latency_tail_s.{level}", "s") for level in LEVELS],
    ("max_rate_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

#: The per-layer metrics every ``--trace 1`` run prints, with units.
PER_LAYER = [
    ("chase.calls", "count"), ("chase.busy_s", "s"), ("chase.consistent_share", "ratio"),
    ("solver.self_s", "s"), ("solver.patterns", "count"), ("solver.pruned_share", "ratio"),
    ("rpq.build_nfa.calls", "count"), ("rpq.build_nfa.busy_s", "s"),
    ("rpq.parse.calls", "count"), ("rpq.parse.busy_s", "s"),
    ("core.compile.calls", "count"), ("core.compile.busy_s", "s"),
    ("core.words.busy_s", "s"), ("core.words.count", "count"),
    ("booleanize.busy_s", "s"), ("schema_tbox.busy_s", "s"), ("roll_up.busy_s", "s"),
    ("completion.calls", "count"), ("completion.busy_s", "s"), ("completion.tbox_size", "count"),
    ("engine.results.hit_ratio", "ratio"), ("engine.completions.hit_ratio", "ratio"),
    ("engine.schema_tboxes.hit_ratio", "ratio"), ("engine.automata.hit_ratio", "ratio"),
    ("engine.contains.busy_s", "s"),
    ("pool.spawn_s", "s"), ("pool.batch_s", "s"), ("pool.wait_s", "s"), ("pool.imbalance", "ratio"),
    ("transport.encode.busy_s", "s"), ("transport.references_sent", "count"),
    ("transport.values_sent", "count"), ("transport.fallback_share", "ratio"),
    ("transport.seed_bytes", "bytes"),
    ("store.get.busy_s", "s"), ("store.put.busy_s", "s"), ("store.hits", "count"),
    ("store.misses", "count"), ("store.writes", "count"),
    ("coalescer.queue_wait_p50_s", "s"), ("coalescer.queue_wait_tail_s", "s"),
    ("coalescer.batch_size_mean", "count"), ("coalescer.dedup_share", "ratio"),
    ("coalescer.flush_busy_s", "s"), ("service.parse_cache.hit_ratio", "ratio"),
    ("analysis.job_busy_s", "s"), ("analysis.containment_calls_per_job", "count"),
    ("transform.grouping.busy_s", "s"),
    ("ref_s", "s"), *[(f"raw.{name}", unit) for name, unit in END_TO_END],
    ("generator.late_max_s", "s"), ("error_rate", "ratio"),
    ("trace.overhead_share", "ratio"), ("trace.self_sum_share", "ratio"),
    ("isolation.mismatched_passes", "count"),
]

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: Samples a closed-loop pass needs for its latencies to be summarised as
#: per-operation medians over the passes rather than pooled over passes.
PER_PASS_TAIL_SAMPLES = 100


# --------------------------------------------------------------------------- #
# metric arithmetic (pure; covered by the self-tests)
# --------------------------------------------------------------------------- #
def end_to_end(
    records: List[Any],
    adjusted: bool,
    setup_once: float,
    closed_loop: bool,
    peak_rss_mb: float,
    limit_s: float = 0.0,
) -> Tuple[Dict[str, float], Dict[str, dict]]:
    """The end-to-end metrics of *records*, plus the latency summaries
    behind them (percentile and sample count).

    With *adjusted*, each latency is scaled by the speed factor around its
    operation (around its phase, for the open loop), and each closed-loop
    pass time by the pass's factor.  Set-up stays in wall seconds (import,
    file and process work, timed when no reference slices run), and so do
    the open loop's rates: below saturation it serves the rate it is
    offered.
    """
    def pass_seconds(record: Any) -> float:
        return record.seconds * record.factor if adjusted and closed_loop else record.seconds

    def latencies(record: Any) -> List[float]:
        if adjusted:
            return [x * f for x, f in zip(record.latencies, record.op_factors)]
        return record.latencies

    metrics: Dict[str, float] = {
        "setup_s": setup_once + statistics.median(r.setup for r in records),
        "throughput_per_s": statistics.median(r.ops / pass_seconds(r) for r in records),
        "peak_rss_mb": peak_rss_mb,
    }
    if closed_loop:
        # one load level: the operations arrive back to back, in the same
        # order in every pass.  When a pass holds enough samples for a tail
        # of its own (143 zoo verdicts), each sample is the median of its
        # operation's latencies over the passes, so a stall must hit the
        # same operation in most passes to move the tail; a pass with too
        # few (24 analysis jobs) has its samples pooled with the other
        # passes'
        if min(len(r.latencies) for r in records) >= PER_PASS_TAIL_SAMPLES:
            summaries = {"all": latency_summary(operation_medians([latencies(r) for r in records]))}
        else:
            summaries = {"all": latency_summary([x for r in records for x in latencies(r)])}
        for level in LEVELS:
            summaries[level] = summaries["all"]
        metrics["max_rate_per_s"] = metrics["throughput_per_s"]
    else:
        # every pass of the open loop draws its own schedule and holds
        # hundreds of requests per rate: each pass gets its own summary and
        # the median over passes is reported, so one pass caught in a stall
        # cannot carry the tail
        summaries = {"all": median_summary([latencies(r) for r in records])}
        served = 0.0
        for level in LEVELS:
            phases = [r.phases[level] for r in records]
            summaries[level] = median_summary([
                [x * (phase["factor"] if adjusted else 1.0) for x in phase["latencies"]]
                for phase in phases
            ])
            drained = all(phase["drain"] <= limit_s for phase in phases)
            if summaries[level]["tail"] <= limit_s and drained:
                served = statistics.median(phase["count"] / phase["window"] for phase in phases)
        metrics["max_rate_per_s"] = served
    metrics["latency_p50_s"] = summaries["all"]["p50"]
    metrics["latency_tail_s"] = summaries["all"]["tail"]
    for level in LEVELS:
        metrics[f"latency_p50_s.{level}"] = summaries[level]["p50"]
        metrics[f"latency_tail_s.{level}"] = summaries[level]["tail"]
    return metrics, summaries


def operation_medians(groups: List[List[float]]) -> List[float]:
    """Per position, the median over *groups* (one group per pass, the same
    operations in the same order)."""
    if len({len(group) for group in groups}) != 1:
        raise ValueError("passes hold different numbers of samples")
    return [statistics.median(column) for column in zip(*groups)]


def median_summary(groups: List[List[float]]) -> Dict[str, float]:
    """Each group's latency summary, and the median over groups of each
    figure (the groups share one size, so they share one percentile)."""
    summaries = [latency_summary(group) for group in groups]
    return {key: statistics.median(summary[key] for summary in summaries)
            for key in summaries[0]}


def count_mismatches(records: List[Any]) -> int:
    """Passes whose layer counts differ from the first pass's."""
    return sum(1 for record in records[1:] if record.counts != records[0].counts)


def layer_values(tracer: Tracer, index: int, record: Any, factor: float) -> Dict[str, float]:
    """The span- and count-derived per-layer values of traced pass *index*."""
    spans = tracer.frozen_spans()
    selfs = self_times(spans)
    intervals: Dict[Tuple[str, int], List[Tuple[int, int]]] = {}
    own: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    root = None
    for position, span in enumerate(spans):
        if span[5] != index:
            continue
        name = span[0]
        intervals.setdefault((name, span[4]), []).append((span[1], span[2]))
        own[name] = own.get(name, 0) + selfs[position]
        calls[name] = calls.get(name, 0) + 1
        if name == "pass" and span[3] is None:
            root = position

    def busy(name: str) -> float:
        covered = sum(interval_union(v) for (n, _t), v in intervals.items() if n == name)
        return covered / 1e9 * factor

    def count(name: str) -> float:
        return tracer.counts.get((index, name), 0)

    def samples(name: str) -> List[float]:
        return tracer.samples.get((index, name), [])

    # self times of the pass root's descendants must add up to its wall time
    descendants = {root} if root is not None else set()
    for position, span in enumerate(spans):
        if span[3] in descendants:
            descendants.add(position)
    root_wall = spans[root][2] - spans[root][1] if root is not None else 0
    self_sum = sum(selfs[position] for position in descendants)

    patterns = count("solver.patterns")
    waits = [value * factor for value in samples("coalescer.queue_wait")]
    wait_summary = latency_summary(waits) if waits else {"p50": 0.0, "tail": 0.0}
    tbox_sizes = samples("completion.tbox_size")
    imbalance = samples("pool.imbalance")
    values = {
        "chase.calls": count("chase.calls"),
        "chase.busy_s": busy("chase"),
        "chase.consistent_share": count("chase.consistent") / count("chase.calls")
        if count("chase.calls") else 0.0,
        "solver.self_s": own.get("solver", 0) / 1e9 * factor,
        "solver.patterns": patterns,
        "solver.pruned_share": count("solver.pruned") / patterns if patterns else 0.0,
        "rpq.build_nfa.calls": calls.get("rpq.build_nfa", 0),
        "rpq.build_nfa.busy_s": busy("rpq.build_nfa"),
        "rpq.parse.calls": calls.get("rpq.parse", 0),
        "rpq.parse.busy_s": busy("rpq.parse"),
        "core.compile.calls": calls.get("core.compile", 0),
        "core.compile.busy_s": busy("core.compile"),
        "core.words.busy_s": busy("core.words"),
        "core.words.count": count("core.words.count"),
        "booleanize.busy_s": busy("booleanize"),
        "schema_tbox.busy_s": busy("schema_tbox"),
        "roll_up.busy_s": busy("roll_up"),
        "completion.calls": count("completion.calls"),
        "completion.busy_s": busy("completion"),
        "completion.tbox_size": statistics.mean(tbox_sizes) if tbox_sizes else 0.0,
        "engine.contains.busy_s": busy("engine.contains"),
        "pool.spawn_s": busy("pool.spawn"),
        "pool.batch_s": busy("pool.batch"),
        "pool.wait_s": busy("pool.wait"),
        "pool.imbalance": statistics.mean(imbalance) if imbalance else 0.0,
        "transport.encode.busy_s": busy("transport.encode"),
        "store.get.busy_s": busy("store.get"),
        "store.put.busy_s": busy("store.put"),
        "coalescer.queue_wait_p50_s": wait_summary["p50"],
        "coalescer.queue_wait_tail_s": wait_summary["tail"],
        "coalescer.flush_busy_s": busy("coalescer.flush"),
        "analysis.job_busy_s": busy("analysis.job"),
        "transform.grouping.busy_s": own.get("transform.grouping", 0) / 1e9 * factor,
        "trace.self_sum_share": self_sum / root_wall if root_wall else 0.0,
    }
    for name, _unit in PER_LAYER:
        if name in record.layers:
            values[name] = record.layers[name]
    return values


# --------------------------------------------------------------------------- #
# running
# --------------------------------------------------------------------------- #
class Outcome:
    """One workload's result: metrics, printable notes and failure counts."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.first_counts: Optional[Dict[str, int]] = None


def _peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return peak


def _one_pass(workload: Any, index: int) -> Any:
    from repro.core import clear_compile_memo

    clear_compile_memo()
    gc.collect()
    return workload.run_pass(index)


def pass_count(seconds: float, nominal_pass_s: float, minimum: int) -> int:
    """Passes that fill *seconds* at the workload's nominal pass length.

    The count depends only on the arguments, never on how fast this
    machine happens to be, so every run of a workload pools the same
    number of samples and reports its tail at the same percentile.
    """
    return max(minimum, round(seconds / nominal_pass_s))


def _passes(workload, count, start_index, tracer=None) -> List[Any]:
    records = []
    for index in range(start_index, start_index + count):
        if tracer is not None:
            tracer.current_pass = index
        records.append(_one_pass(workload, index))
    return records


#: What a fresh interpreter imports before it can serve any workload.
_IMPORT_PROBE = (
    "import time; started = time.perf_counter(); "
    "import repro.analysis, repro.engine, repro.service, repro.workloads.zoo; "
    "print(time.perf_counter() - started)"
)
SETUP_REPEATS = 5


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the program."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                               text=True, env=env, cwd=ROOT, timeout=60, check=True)
        times.append(float(child.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_workload(name: str, args, expected, scratch: Path) -> Outcome:
    from perfbench.workloads import LATENCY_LIMIT_S, WORKLOADS

    outcome = Outcome(name)
    workload = WORKLOADS[name](args.seed, expected, scratch)
    # set-up is repeated and its median kept: imports in fresh interpreters,
    # input generation in this one (the last preparation is the one used)
    prepare_times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.prepare()
        prepare_times.append(time.perf_counter() - started)
    setup_once = import_seconds() + statistics.median(prepare_times)
    stamp_started = time.perf_counter()
    workload.reference()
    outcome.notes.append(f"reference pass: {workload.reference_ops} operations, "
                         f"{time.perf_counter() - stamp_started:.2f} s (untimed)")
    outcome.notes.extend(f"reference failure: {line}" for line in workload.reference_failures[:10])
    probe = workload.probe
    budget = args.seconds / 2 if args.trace else args.seconds
    records = _passes(workload, pass_count(budget, workload.nominal_pass_s, MIN_PASSES), 0)
    traced: List[Any] = []
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        workload.tracer = tracer
        try:
            count = pass_count(budget, workload.nominal_pass_s, MIN_TRACED_PASSES)
            traced = _passes(workload, count, len(records), tracer)
        finally:
            tracer.uninstall()
            workload.tracer = None
    factor = statistics.median(r.factor for r in records)
    all_records = records + traced
    mismatched = count_mismatches(records + traced)
    if len(traced) > 1:
        traced_counts = [
            {key[1]: value for key, value in tracer.counts.items() if key[0] == index}
            for index in range(len(records), len(records) + len(traced))
        ]
        mismatched += sum(1 for counts in traced_counts[1:] if counts != traced_counts[0])
    outcome.first_counts = records[0].counts
    outcome.attempted = workload.reference_ops + sum(r.ops for r in all_records)
    outcome.failed = (len(workload.reference_failures) + sum(r.failures for r in all_records)
                      + mismatched)
    if mismatched:
        outcome.notes.append(f"isolation: {mismatched} pass(es) changed their layer counts")
    peak = _peak_rss_mb(name == "zoo-process")
    metrics, summaries = end_to_end(records, True, setup_once, workload.closed_loop, peak,
                                    LATENCY_LIMIT_S)
    for level in ("all", *LEVELS):
        summary = summaries[level]
        outcome.notes.append(
            f"latency ({level}): p50 {summary['p50']:.6f} s, tail p{summary['tail_percentile']} "
            f"{summary['tail']:.6f} s over {summary['samples']} samples"
        )
    outcome.notes.append(
        f"passes: {len(records)} timed"
        + (f" + {len(traced)} traced" if traced else "")
        + f", median speed factor {factor:.4f} over {len(probe.samples)} reference slices"
    )
    late = max((phase["late_max"] for r in all_records for phase in r.phases.values()), default=0.0)
    if not args.trace:
        units = dict(END_TO_END)
        outcome.metrics = {key: (metrics[key], units[key]) for key, _ in END_TO_END}
        return outcome
    raw, _ = end_to_end(records, False, setup_once, workload.closed_loop, peak, LATENCY_LIMIT_S)
    traced_metrics, _ = end_to_end(traced, True, setup_once, workload.closed_loop, peak,
                                   LATENCY_LIMIT_S)
    overhead_key = "throughput_per_s" if workload.closed_loop else "latency_p50_s"
    overhead = traced_metrics[overhead_key] / metrics[overhead_key]
    overhead = 1.0 / overhead - 1.0 if workload.closed_loop else overhead - 1.0
    per_pass = [layer_values(tracer, len(records) + i, record, record.factor)
                for i, record in enumerate(traced)]
    values: Dict[str, float] = {}
    for key in per_pass[0]:
        values[key] = statistics.median(p.get(key, 0.0) for p in per_pass)
    values.update({f"raw.{key}": value for key, value in raw.items()})
    values.update({
        "ref_s": probe.mean() if probe.samples else 0.0,
        "generator.late_max_s": late,
        "error_rate": outcome.failed / outcome.attempted,
        "trace.overhead_share": overhead,
        "isolation.mismatched_passes": mismatched,
    })
    outcome.metrics = {key: (float(values.get(key, 0.0)), unit) for key, unit in PER_LAYER}
    outcome.notes.append(f"tracing overhead: {overhead:+.3%} on {overhead_key}")
    trace_path = ROOT / ".perfbench" / f"trace-{name}-seed{args.seed}.json"
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.chrome_trace(), handle)
    outcome.notes.append(f"trace: {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
    return outcome


def order_check(args, expected, scratch: Path, outcomes: List[Outcome]) -> int:
    """Run one untimed pass of each workload in reverse order; count the
    workloads whose first-pass layer counts moved."""
    from perfbench.workloads import WORKLOADS

    moved = 0
    for outcome in reversed(outcomes):
        workload = WORKLOADS[outcome.name](args.seed, expected, scratch)
        workload.prepare()
        workload.reference()
        record = _one_pass(workload, 0)
        if record.counts != outcome.first_counts:
            moved += 1
            changed = sorted(key for key in set(record.counts) | set(outcome.first_counts)
                             if record.counts.get(key) != outcome.first_counts.get(key))
            print(f"[{outcome.name}] reverse order changed the layer counts: "
                  + ", ".join(f"{key} {outcome.first_counts.get(key)} -> {record.counts.get(key)}"
                              for key in changed), flush=True)
    return moved


def _finite(value: float) -> float:
    """JSON has no infinity: a failed request's infinite latency prints as
    1e30 (the run is already marked incorrect)."""
    return value if math.isfinite(value) else 1e30


def _print_outcome(outcome: Outcome) -> None:
    print(f"== {outcome.name}", flush=True)
    for note in outcome.notes:
        print(f"  {note}")
    for key, (value, unit) in outcome.metrics.items():
        print(f"  {key:36s} {value:.6g} {unit}")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'error_rate':36s} {error_rate:.6g} ratio "
          f"({outcome.failed} failed of {outcome.attempted} attempted)", flush=True)


def write_expected(expected, scratch: Path) -> None:
    """Regenerate expected.json for the default seed from serial passes."""
    from perfbench.answers import DEFAULT_SEED
    from perfbench.workloads import WORKLOADS

    fingerprints: Dict[str, str] = {}
    verdicts: Dict[str, bool] = {}
    for name in ("zoo-cold", "serve-mixed"):
        workload = WORKLOADS[name](DEFAULT_SEED, expected, scratch)
        workload.prepare()
        workload.expected.fingerprints = {}
        fingerprints.update(workload.reference())
        if name == "zoo-cold":
            from repro.engine import ContainmentEngine

            engine = ContainmentEngine()
            for item in workload.items:
                verdicts[item.key] = engine.contains(item.left, item.right, item.schema).contained
            engine.close()
    expected.verdicts = verdicts
    expected.fingerprints = {str(DEFAULT_SEED): fingerprints}
    expected.save()


def stop_children(timeout_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The engine's close joins its workers, but a worker it had to terminate
    is never joined, and the process backend's spawn context starts
    multiprocessing's resource tracker, which would otherwise outlive this
    process.  Workers still known to ``multiprocessing`` are terminated
    (killed after *timeout_s*) and joined; the tracker is stopped the way
    ``multiprocessing`` stops it (it ignores SIGTERM); any other child
    that has already ended is reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join(timeout_s)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _exit_on_sigterm(signum: int, _frame: Any) -> None:
    """Turn SIGTERM into SystemExit so the teardown in main() still runs."""
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=None,
                        help="expected verdicts and fingerprints (default: perfbench/expected.json)")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate the expected file for the default seed and exit")
    args = parser.parse_args(argv)
    try:
        import repro
        from perfbench.answers import EXPECTED_PATH, Expected
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    # measure this checkout's program, never a copy installed elsewhere
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro was imported from {repro.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    expected_path = args.expected or EXPECTED_PATH
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_expected:
            write_expected(Expected.load(expected_path) if expected_path.exists()
                           else Expected({}, {}), scratch)
            return 0
        expected = Expected.load(expected_path)
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        outcomes = []
        for name in names:
            outcome = run_workload(name, args, expected, scratch)
            _print_outcome(outcome)
            outcomes.append(outcome)
        moved = order_check(args, expected, scratch, outcomes) if args.workload == "all" else 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes) + moved
    prefix = len(outcomes) > 1
    metrics = {
        (f"{o.name}/{key}" if prefix else key): {"value": _finite(value), "unit": unit}
        for o in outcomes for key, (value, unit) in o.metrics.items()
    }
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
