"""The four workloads: set-up, an untimed reference pass, and timed passes.

Every timed pass is isolated: the runner clears ``repro.core``'s process-wide
compile memo and collects garbage before it, and the pass builds its own
engine, store, pool or service and closes them before it returns.  Each pass
returns a :class:`PassRecord` with raw wall times; speed adjustment and the
metric arithmetic happen in ``run.py``.

``counts`` in a record are the pass's layer counts.  They must repeat exactly
from pass to pass and across workload orders (``run.py`` checks both); only
counts that do not depend on thread timing belong there.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import tempfile
import time
from concurrent.futures import wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.core import clear_compile_memo
from repro.engine import ContainmentEngine, result_fingerprint
from repro.rpq.parser import parse_c2rpq
from repro.schema.parser import parse_schema
from repro.service import ContainmentService

from . import inputs as inputs_module
from .answers import Expected, analysis_mismatches
from .measure import SpeedProbe
from .open_loop import drive

__all__ = [
    "LATE_LIMIT_S",
    "LATENCY_LIMIT_S",
    "NOMINAL_RATES",
    "PHASE_SECONDS",
    "PassRecord",
    "WORKLOADS",
]

#: Offered serve-mixed rates (requests per wall second): about 25%, 50% and
#: 75% of the rate at which the mix's median latency starts to climb on the
#: reference VM.
NOMINAL_RATES = {"low": 40.0, "mid": 80.0, "high": 120.0}
#: Length of one serve-mixed phase (seconds).
PHASE_SECONDS = 2.5
#: The serve-mixed latency limit on the tail (seconds).
LATENCY_LIMIT_S = 1.0
#: A generator that ran later than this behind its schedule makes the
#: phase invalid (seconds).
LATE_LIMIT_S = 0.1
#: How long a serve-mixed phase waits for its answers before the rest
#: count as failed (wall seconds).
REQUEST_TIMEOUT_S = 60.0
#: Serial workloads take one reference slice per this much work (seconds),
#: and scale each operation by the slices within this many of it.
PROBE_INTERVAL_S = 0.1
LOCAL_SLICES = 2
#: serve-mixed takes this many slices (about 0.2 s) before and after each
#: phase.
PHASE_PROBE_SLICES = 100
#: Zoo pairs per ``check_many`` call in ``zoo-process``.
PROCESS_BATCH = 8
PROCESS_WORKERS = 2

_TIERS = ("results", "completions", "schema_tboxes", "automata")


@dataclass
class PassRecord:
    """What one timed pass measured (raw wall seconds)."""

    seconds: float
    ops: int
    latencies: List[float]
    setup: float
    counts: Dict[str, int]
    failures: int = 0
    layers: Dict[str, float] = field(default_factory=dict)
    phases: Dict[str, dict] = field(default_factory=dict)
    #: per latency sample, the speed factor around its operation (empty
    #: for the open loop, which is not adjusted)
    op_factors: List[float] = field(default_factory=list)

    @property
    def factor(self) -> float:
        """The pass's speed factor: its operations' factors weighted by
        their durations (1.0 when it has none)."""
        total = sum(self.latencies) if self.op_factors else 0.0
        if not total:
            return 1.0
        return sum(x * f for x, f in zip(self.latencies, self.op_factors)) / total


def _miss_counts(stats, prefix: str = "misses") -> Dict[str, int]:
    return {f"{prefix}.{tier}": getattr(stats, tier).misses for tier in _TIERS}


def _hit_ratios(stats) -> Dict[str, float]:
    ratios = {}
    for tier in _TIERS:
        cache = getattr(stats, tier)
        lookups = cache.hits + cache.misses
        ratios[f"engine.{tier}.hit_ratio"] = cache.hits / lookups if lookups else 0.0
    return ratios


class Workload:
    """Base class: ``prepare`` builds inputs, ``reference`` stamps the
    expected answers, ``run_pass`` times one isolated pass."""

    name = ""
    closed_loop = True
    #: Wall seconds one timed pass takes on the reference VM; sets how many
    #: passes fill a run's ``--seconds``.
    nominal_pass_s = 1.0

    def __init__(self, seed: int, expected: Expected, scratch: Path) -> None:
        self.seed = seed
        self.expected = expected
        self.scratch = scratch
        self.tracer = None
        self.probe = SpeedProbe()
        self._begin_pass()
        self.reference_ops = 0
        self.reference_failures: List[str] = []

    def _fresh_dir(self) -> Path:
        """A new empty directory for one store: a store file (or its WAL)
        left by an earlier pass would warm-start this one."""
        return Path(tempfile.mkdtemp(dir=self.scratch))

    def _span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def _op(self, op_id: Any) -> None:
        if self.tracer is not None:
            self.tracer.op.set(op_id)

    def _begin_pass(self) -> None:
        self._ops: List[Tuple[int, int]] = []
        self._first_slice = len(self.probe.samples)
        self._last_probe = time.perf_counter()

    def _after_operation(self, results: int = 1) -> None:
        """Note where an operation (covering *results* latency samples) sat
        among the reference slices, then take one slice per
        ``PROBE_INTERVAL_S`` of work since the last ones, so the slices
        sample the machine's speed evenly over the pass.  Callers time their
        operations around this, never through it."""
        self._ops.append((results, len(self.probe.samples)))
        due = int((time.perf_counter() - self._last_probe) / PROBE_INTERVAL_S)
        if due:
            self.probe.sample(due)
            self._last_probe = time.perf_counter()

    def _op_factors(self) -> List[float]:
        """Per latency sample: the speed factor of the slices taken around
        its operation (``LOCAL_SLICES`` before and after)."""
        samples = self.probe.samples[self._first_slice:]
        factors: List[float] = []
        for results, mark in self._ops:
            mark -= self._first_slice
            window = samples[max(0, mark - LOCAL_SLICES):mark + LOCAL_SLICES]
            factors.extend([self.probe.factor(window) if window else 1.0] * results)
        return factors


# --------------------------------------------------------------------------- #
# zoo-cold / zoo-process
# --------------------------------------------------------------------------- #
class ZooCold(Workload):
    """Serial ``engine.contains``, one call per pair, over the zoo corpus."""

    name = "zoo-cold"
    nominal_pass_s = 5.0

    def prepare(self) -> None:
        self.items = inputs_module.zoo_items(self.seed)

    def reference(self) -> Dict[str, str]:
        """Serial untimed pass: checks the seed-independent verdicts and,
        on the default seed, the committed fingerprints; returns the
        fingerprints every timed pass must reproduce."""
        engine = ContainmentEngine()
        stamped: Dict[str, str] = {}
        for item in self.items:
            self.reference_ops += 1
            try:
                result = engine.contains(item.left, item.right, item.schema)
            except Exception as error:  # noqa: BLE001 - counted as a failure
                self.reference_failures.append(f"{item.key}: {error!r}")
                continue
            stamped[item.key] = result_fingerprint(result)
            if result.contained != self.expected.verdicts.get(item.key):
                self.reference_failures.append(f"{item.key}: verdict {result.contained}")
        engine.close()
        committed = self.expected.committed(self.seed)
        if committed is not None:
            for key, fingerprint in stamped.items():
                if committed.get(f"zoo/{key}") != fingerprint:
                    self.reference_failures.append(f"{key}: fingerprint differs from expected.json")
        self.stamped = stamped
        return {f"zoo/{key}": value for key, value in stamped.items()}

    def run_pass(self, index: int) -> PassRecord:
        started = time.perf_counter()
        engine = ContainmentEngine()
        setup = time.perf_counter() - started
        latencies: List[float] = []
        results = []
        self._begin_pass()
        with self._span("pass"):
            for item in self.items:
                self._op(item.key)
                op_started = time.perf_counter()
                try:
                    result = engine.contains(item.left, item.right, item.schema)
                except Exception:  # noqa: BLE001 - counted as a failure
                    result = None
                latencies.append(time.perf_counter() - op_started)
                results.append(result)
                self._after_operation()
        seconds = sum(latencies)
        failures = self._check(results)
        stats = engine.stats
        engine.close()
        counts = _miss_counts(stats)
        counts["solver.patterns"] = sum(r.patterns_checked for r in results if r is not None)
        return PassRecord(seconds, len(results), latencies, setup, counts, failures,
                          layers=_hit_ratios(stats), op_factors=self._op_factors())

    def _check(self, results, items=None) -> int:
        return sum(
            1 for item, result in zip(items or self.items, results)
            if result is None or result_fingerprint(result) != self.stamped.get(item.key)
        )


class ZooProcess(ZooCold):
    """The same corpus through ``check_many(parallel="process")`` with a
    fresh persistent store, in batches of about ``PROCESS_BATCH`` pairs.

    Batch ``j`` takes every ``n``-th pair from the ``j``-th on, so each batch
    carries the same mix of property, tree-device and ATM pairs: cut in
    corpus order, the batches' times ranged from 0.3 s to 2 s and the median
    verdict latency jumped between batch kinds from run to run.
    """

    name = "zoo-process"
    nominal_pass_s = 5.3

    def prepare(self) -> None:
        super().prepare()
        count = -(-len(self.items) // PROCESS_BATCH)
        self.batches = [self.items[start::count] for start in range(count)]

    def _op_factors(self) -> List[float]:
        """Every sample takes the factor of all the pass's slices.

        The slices run in this process while the workers idle, so the ones
        around a batch say little about how fast the workers ran it: over
        ten runs of four passes, the slowest batch's time spread 17-22%
        (interquartile range over median) scaled by its local slices, 10-14%
        raw and 8-10% scaled by the pass's slices."""
        samples = self.probe.samples[self._first_slice:]
        factor = self.probe.factor(samples) if samples else 1.0
        return [factor] * sum(results for results, _mark in self._ops)

    def run_pass(self, index: int) -> PassRecord:
        store_path = self._fresh_dir() / "store.sqlite"
        started = time.perf_counter()
        engine = ContainmentEngine(persist=store_path, max_workers=PROCESS_WORKERS)
        with self._span("pool.spawn"):
            pool = engine.process_pool(PROCESS_WORKERS)
            pool.start()
            pool.worker_stats()  # one round trip: every worker is up
        setup = time.perf_counter() - started
        latencies: List[float] = []
        results: List[Any] = []
        sent: List[inputs_module.ZooItem] = []
        failures = 0
        try:
            self._begin_pass()
            with self._span("pass"):
                seconds = 0.0
                for number, batch in enumerate(self.batches):
                    self._op(number)
                    batch_started = time.perf_counter()
                    try:
                        batch_results = engine.check_many(
                            [(item.left, item.right, item.schema) for item in batch],
                            parallel="process", max_workers=PROCESS_WORKERS,
                        )
                    except Exception:  # noqa: BLE001 - counted as failures
                        batch_results = [None] * len(batch)
                    elapsed = time.perf_counter() - batch_started
                    seconds += elapsed
                    latencies.extend([elapsed] * len(batch))
                    results.extend(batch_results)
                    sent.extend(batch)
                    # the workers sit idle between batches
                    self._after_operation(len(batch))
            failures = self._check(results, sent)
            worker_stats = engine.process_stats()
            transport = pool.transport_stats.snapshot()
            store_stats = engine.store.stats.snapshot()
        finally:
            engine.close()
        counts = _miss_counts(worker_stats, "worker_misses")
        counts["solver.patterns"] = sum(r.patterns_checked for r in results if r is not None)
        counts["store.writes"] = store_stats.writes
        counts["transport.references_sent"] = transport.references_sent
        layers = _hit_ratios(worker_stats)
        layers.update({
            "transport.references_sent": transport.references_sent,
            "transport.values_sent": transport.values_sent,
            "transport.fallback_share": transport.fallback_items / transport.items if transport.items else 0.0,
            "transport.seed_bytes": transport.seed_bytes,
            "store.hits": store_stats.hits,
            "store.misses": store_stats.misses,
            "store.writes": store_stats.writes,
        })
        return PassRecord(seconds, len(results), latencies, setup, counts, failures, layers=layers,
                          op_factors=self._op_factors())


# --------------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------------- #
class Analysis(Workload):
    """Serial, in-memory type checking, equivalence and elicitation."""

    name = "analysis"
    nominal_pass_s = 1.8

    def prepare(self) -> None:
        self.jobs = inputs_module.analysis_jobs()

    def reference(self) -> Dict[str, str]:
        engine = ContainmentEngine()
        answers = {}
        for job in self.jobs:
            self.reference_ops += 1
            try:
                answers[job.key] = job.run(engine)[0]
            except Exception as error:  # noqa: BLE001 - counted as a failure
                self.reference_failures.append(f"{job.key}: {error!r}")
        engine.close()
        self.reference_failures.extend(
            f"{key}: answer {answers[key]!r}" for key in analysis_mismatches(answers)
        )
        return {}

    def run_pass(self, index: int) -> PassRecord:
        started = time.perf_counter()
        engine = ContainmentEngine()
        setup = time.perf_counter() - started
        latencies: List[float] = []
        answers: Dict[str, Any] = {}
        calls = 0
        failures = 0
        self._begin_pass()
        with self._span("pass"):
            for job in self.jobs:
                self._op(job.key)
                op_started = time.perf_counter()
                with self._span("analysis.job"):
                    try:
                        answers[job.key], job_calls = job.run(engine)
                        calls += job_calls
                    except Exception:  # noqa: BLE001 - counted as a failure
                        failures += 1
                latencies.append(time.perf_counter() - op_started)
                self._after_operation()
        seconds = sum(latencies)
        failures += len(analysis_mismatches(answers))
        stats = engine.stats
        engine.close()
        counts = _miss_counts(stats)
        counts["containment_calls"] = calls
        layers = _hit_ratios(stats)
        layers["analysis.containment_calls_per_job"] = calls / len(self.jobs)
        return PassRecord(seconds, len(self.jobs), latencies, setup, counts, failures, layers=layers,
                          op_factors=self._op_factors())


# --------------------------------------------------------------------------- #
# serve-mixed
# --------------------------------------------------------------------------- #
class ServeMixed(Workload):
    """An open loop into an in-process ``ContainmentService`` at three rates."""

    name = "serve-mixed"
    closed_loop = False
    nominal_pass_s = 8.0

    def prepare(self) -> None:
        self.inputs = inputs_module.serve_inputs(self.seed)
        # the store a restarted `serve --persist` would reopen: the hot
        # set's verdicts, written once by a plain persisting engine
        self.template = self._fresh_dir() / "template.sqlite"
        engine = ContainmentEngine(persist=self.template)
        for payload in self.inputs.hot.values():
            engine.contains(*self._parse(payload))
        engine.close()

    def _schedule(self, level: str, pass_index: int):
        return inputs_module.phase_schedule(
            self.inputs, self.seed, NOMINAL_RATES[level], PHASE_SECONDS, level, pass_index
        )

    @staticmethod
    def _parse(payload):
        return (parse_c2rpq(payload["left"]), parse_c2rpq(payload["right"]),
                parse_schema(payload["schema"]))

    def reference(self) -> Dict[str, str]:
        """Serial untimed pass over every payload a phase sends (the mix is
        the same in every pass); returns the expected fingerprints."""
        engine = ContainmentEngine()
        stamped: Dict[str, str] = {}
        used = sorted({arrival.key for level in NOMINAL_RATES for arrival in self._schedule(level, 0)})
        for key in used:
            self.reference_ops += 1
            payload = self.inputs.payload_text(key)
            try:
                left, right, schema = self.inputs.atm[key] if payload is None else self._parse(payload)
                stamped[f"serve/{key}"] = result_fingerprint(engine.contains(left, right, schema))
            except Exception as error:  # noqa: BLE001 - counted as a failure
                self.reference_failures.append(f"{key}: {error!r}")
        engine.close()
        committed = self.expected.committed(self.seed)
        if committed is not None:
            for key, fingerprint in stamped.items():
                if committed.get(key) != fingerprint:
                    self.reference_failures.append(f"{key}: fingerprint differs from expected.json")
        self.stamped = stamped
        return stamped

    def run_pass(self, index: int) -> PassRecord:
        phases: Dict[str, dict] = {}
        counts: Dict[str, int] = {}
        layers: Dict[str, float] = {}
        with self._span("pass"):
            for level in NOMINAL_RATES:
                phase = phases[level] = self._run_phase(index, level)
                counts.update({f"{level}.{key}": value for key, value in phase["counts"].items()})
                for key, value in phase["layers"].items():
                    # counts add up over the phases; ratios and means average
                    share = 1 if key.startswith("store.") else len(NOMINAL_RATES)
                    layers[key] = layers.get(key, 0.0) + value / share
        return PassRecord(
            seconds=sum(phase["window"] for phase in phases.values()),
            ops=sum(phase["count"] for phase in phases.values()),
            latencies=[value for phase in phases.values() for value in phase["latencies"]],
            op_factors=[phase["factor"] for phase in phases.values() for _ in phase["latencies"]],
            setup=statistics.median(phase["setup"] for phase in phases.values()),
            counts=counts,
            failures=sum(phase["failures"] for phase in phases.values()),
            layers=layers,
            phases=phases,
        )

    def _run_phase(self, index: int, level: str, attempt: int = 0) -> dict:
        arrivals = self._schedule(level, index)
        store_path = self._fresh_dir() / "store.sqlite"
        shutil.copyfile(self.template, store_path)
        # phases are isolated like passes: nothing compiled at one rate may
        # serve the next
        clear_compile_memo()
        gc.collect()
        # the generator cannot take reference slices during the phase
        # without competing with the service for the interpreter lock, so
        # the phase's speed comes from slices right before and right after
        # it, with nothing of the program running
        first_slice = len(self.probe.samples)
        self.probe.sample(PHASE_PROBE_SLICES)
        started = time.perf_counter()
        service = ContainmentService(parallel="serial", persist=store_path)
        setup = time.perf_counter() - started
        inputs = self.inputs

        def submit(position: int):
            arrival = arrivals[position]
            self._op(f"{level}/{position}")
            if arrival.kind == "atm":
                return service.coalescer.submit(*inputs.atm[arrival.key])
            return service.submit(inputs.payload_text(arrival.key))

        try:
            with self._span("phase"):
                run = drive([arrival.at for arrival in arrivals], submit)
                wait([f for f in run.futures if f is not None], timeout=REQUEST_TIMEOUT_S)
            coalescer = service.coalescer.stats.snapshot()
            parse = service.stats_report()["service"]["parse_caches"]
            stats = service.engine.stats
        finally:
            service.close()
        self.probe.sample(PHASE_PROBE_SLICES)
        factor = self.probe.factor(self.probe.samples[first_slice:])
        if run.late_max > LATE_LIMIT_S:
            if attempt >= 2:
                raise RuntimeError(
                    f"serve-mixed generator ran {run.late_max:.3f} s behind schedule "
                    f"in three attempts at the {level} rate; the run is invalid"
                )
            return self._run_phase(index, level, attempt + 1)
        latencies: List[float] = []
        failures = 0
        patterns: Dict[str, int] = {}
        for arrival, future, done, due in zip(arrivals, run.futures, run.done, run.dues):
            ok = future is not None and done is not None and future.exception() is None
            if ok:
                result = future.result()
                patterns[arrival.key] = result.patterns_checked
                ok = result_fingerprint(result) == self.stamped.get(f"serve/{arrival.key}")
            if ok:
                latencies.append(done - due)
            else:
                # a failed or refused request counts as over the limit
                failures += 1
                latencies.append(float("inf"))
        origin = run.dues[0] - arrivals[0].at
        finished = max((done for done in run.done if done is not None), default=origin)
        lookups = sum(cache["hits"] + cache["misses"] for cache in parse.values())
        layers = _hit_ratios(stats)
        layers.update({
            "coalescer.batch_size_mean": coalescer.submitted / coalescer.batches if coalescer.batches else 0.0,
            "coalescer.dedup_share": coalescer.deduplicated / coalescer.submitted if coalescer.submitted else 0.0,
            "service.parse_cache.hit_ratio": (
                sum(cache["hits"] for cache in parse.values()) / lookups if lookups else 0.0
            ),
            "store.hits": stats.store.hits,
            "store.misses": stats.store.misses,
            "store.writes": stats.store.writes,
        })
        counts = _miss_counts(stats)
        counts["store.writes"] = stats.store.writes
        counts["solver.patterns"] = sum(patterns.values())
        return {
            "latencies": latencies,
            "setup": setup,
            "failures": failures,
            "late_max": run.late_max,
            # from the phase's start to its last answer
            "window": finished - origin,
            "drain": max(0.0, finished - run.dues[-1]),
            "count": len(arrivals),
            "counts": counts,
            "layers": layers,
            "factor": factor,
        }


WORKLOADS = {
    workload.name: workload for workload in (ZooCold, ZooProcess, Analysis, ServeMixed)
}
