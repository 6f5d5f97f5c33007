"""The traced run: spans around each layer's entry points, from outside.

:meth:`Tracer.install` replaces entry points of the program's modules and
classes with timing wrappers and :meth:`Tracer.uninstall` puts the
originals back; nothing inside the program is edited.  A function imported
by name into another module is wrapped where it is *looked up* (for
example ``repro.containment.solver.compile_regex``), since rebinding the
defining module would not reach that caller.

Each span records its name, start, end, parent span, thread, pass and
operation id.  Spans stay in memory; :meth:`Tracer.chrome_trace` renders
them as Chrome trace-event JSON once the run is over.  A layer's self time
is its spans' duration minus the part covered by their child spans
(:func:`self_times`).
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import functools
import threading
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "interval_union", "self_times"]

#: (name, start_ns, end_ns, parent index or None, thread id, pass, op id)
Span = Tuple[str, int, int, Optional[int], int, Optional[int], Any]


def interval_union(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> List[int]:
    """Per span: its duration minus the union of its children's intervals
    (clipped to the span, so a child that outlives its parent cannot push
    the parent's self time below zero)."""
    children: Dict[int, List[Tuple[int, int]]] = collections.defaultdict(list)
    for span in spans:
        parent = span[3]
        if parent is not None:
            start, end = spans[parent][1], spans[parent][2]
            children[parent].append((max(span[1], start), min(span[2], end)))
    return [
        (span[2] - span[1]) - interval_union(children.get(index, ()))
        for index, span in enumerate(spans)
    ]


class Tracer:
    """Records spans and counts; install it around traced passes only."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        # counts and samples are keyed by (pass, name)
        self.counts: Dict[Tuple[Optional[int], str], float] = collections.Counter()
        self.samples: Dict[Tuple[Optional[int], str], List[float]] = collections.defaultdict(list)
        self.current_pass: Optional[int] = None
        self.op: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default=None)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []
        self.origin_ns = time.perf_counter_ns()

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def begin(self, name: str) -> Tuple[int, contextvars.Token]:
        span = [name, time.perf_counter_ns(), 0, self._current.get(),
                threading.get_ident(), self.current_pass, self.op.get()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        return index, self._current.set(index)

    def end(self, handle: Tuple[int, contextvars.Token]) -> None:
        index, token = handle
        self.spans[index][2] = time.perf_counter_ns()
        self._current.reset(token)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context manager form of :meth:`begin`/:meth:`end`."""
        handle = self.begin(name)
        try:
            yield
        finally:
            self.end(handle)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[self.current_pass, name] += amount

    def sample(self, name: str, values: Iterable[float]) -> None:
        with self._lock:
            self.samples[self.current_pass, name].extend(values)

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        after: Optional[Callable[["Tracer", tuple, Any], None]] = None,
        before: Optional[Callable[["Tracer", tuple], None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            handle = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(handle)
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attribute, wrapper)
        self._undo.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every wrapped entry point, newest first."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def install(self) -> None:
        """Wrap the entry points of every layer the benchmark reports on."""
        import repro.analysis.coverage as coverage
        import repro.analysis.elicitation as elicitation
        import repro.analysis.equivalence as equivalence
        import repro.analysis.statements as statements
        import repro.analysis.typecheck as typecheck
        import repro.containment.solver as solver
        import repro.core.compile as compile_module
        import repro.engine.parallel as parallel
        import repro.service.service as service
        from repro.chase.engine import ChaseEngine
        from repro.core.compile import CompiledAutomaton
        from repro.engine.engine import ContainmentEngine
        from repro.service.coalescer import RequestCoalescer
        from repro.store.store import ResultStore

        wrap = self.wrap
        wrap(ChaseEngine, "check_pattern", "chase", after=_count_chase)
        wrap(solver, "build_pattern", "chase")
        wrap(solver.ContainmentSolver, "contains", "solver", after=_count_patterns)
        wrap(solver.ContainmentSolver, "_count_label_assignments", "solver",
             after=lambda tracer, args, result: tracer.count("solver.pruned", result))
        wrap(compile_module, "build_nfa", "rpq.build_nfa")
        wrap(service, "parse_c2rpq", "rpq.parse")
        wrap(service, "parse_schema", "rpq.parse")
        wrap(solver, "compile_regex", "core.compile")
        wrap(CompiledAutomaton, "words", "core.words",
             after=lambda tracer, args, result: tracer.count("core.words.count", len(result)))
        wrap(solver, "booleanize", "booleanize")
        wrap(solver, "schema_to_extended_tbox", "schema_tbox")
        wrap(solver, "roll_up_choices", "roll_up")
        wrap(solver, "complete", "completion", after=_count_completion)
        wrap(ContainmentEngine, "contains", "engine.contains")
        wrap(ContainmentEngine, "check_many", "engine.check_many")
        wrap(parallel.WorkerPool, "run_batch", "pool.batch")
        wrap(parallel.WorkerPool, "_gather", "pool.wait")
        wrap(parallel, "plan_routing", "pool.route", after=_count_routing)
        wrap(parallel, "encode_payload", "transport.encode")
        wrap(ResultStore, "get", "store.get")
        wrap(ResultStore, "put", "store.put")
        wrap(ResultStore, "put_many", "store.put")
        wrap(RequestCoalescer, "_flush", "coalescer.flush", before=_record_queue_wait)
        wrap(service.ContainmentService, "submit", "service.submit")
        for module in (typecheck, elicitation, equivalence):
            wrap(module, "trim", "transform.grouping")
        for module in (equivalence, coverage, statements):
            wrap(module, "node_query", "transform.grouping")
            wrap(module, "edge_query", "transform.grouping")
        wrap(statements, "conjoin_unions", "transform.grouping")
        wrap(statements, "equality_query", "transform.grouping")

    # ------------------------------------------------------------------ #
    # reports
    # ------------------------------------------------------------------ #
    def frozen_spans(self) -> List[Span]:
        return [tuple(span) for span in self.spans]

    def chrome_trace(self) -> Dict[str, Any]:
        """The spans as Chrome trace-event JSON (complete events, µs)."""
        threads: Dict[int, int] = {}
        events = []
        for index, (name, start, end, parent, thread, pass_index, op) in enumerate(self.spans):
            tid = threads.setdefault(thread, len(threads) + 1)
            events.append({
                "name": name,
                "ph": "X",
                "ts": (start - self.origin_ns) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 1,
                "tid": tid,
                "args": {"span": index, "parent": parent, "pass": pass_index, "op": op},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _count_chase(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("chase.calls")
    if result.consistent:
        tracer.count("chase.consistent")


def _count_patterns(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("solver.patterns", result.patterns_checked)


def _count_completion(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("completion.calls")
    tracer.sample("completion.tbox_size", [result.tbox.size()])


def _count_routing(tracer: Tracer, args: tuple, result: Any) -> None:
    workers = args[1]
    loads = collections.Counter(result)
    if result:
        tracer.sample("pool.imbalance", [
            max(loads.get(worker, 0) for worker in range(workers)) * workers / len(result)
        ])


def _record_queue_wait(tracer: Tracer, args: tuple) -> None:
    now = time.monotonic()
    tracer.sample("coalescer.queue_wait", [now - pending.enqueued_at for pending in args[1]])
    tracer.sample("coalescer.batch_size", [len(args[1])])
