"""Request coalescing: micro-batching concurrent containment requests.

The serving layer's core mechanism.  Independent clients submit one request
at a time, but everything fast about this library is *batch-shaped*: the
result cache replays duplicates for free, the completion cache amortises
across requests of one schema and the automaton memo across all of them, and the process backend's
shard-by-schema routing only pays off when a batch holds enough requests to
spread.  The :class:`RequestCoalescer` recovers the batch shape from
concurrent traffic:

1. **Collect.**  Submissions land in a queue and return a
   :class:`~concurrent.futures.Future` immediately; a single flusher thread
   waits up to ``window`` seconds (from the first queued request) for
   companions, capping the batch at ``max_batch`` — an oversized backlog is
   split into consecutive full batches, and a window that closes with one
   request just flushes that request (micro-batching never *delays past the
   window*, it only merges what was already in flight).
2. **Deduplicate.**  Requests are grouped by the same canonical-fingerprint
   key the engine's result cache uses (schema fingerprint, left/right
   canonical tokens *and names*, config), so concurrent identical requests
   from different clients are decided once and fanned back out to every
   waiting future.
3. **Route.**  The unique requests go through
   :meth:`~repro.engine.ContainmentEngine.check_many` on the configured
   backend — ``"process"`` for GIL-free parallelism across the pool, with
   the engine's cache lookups and the pool's schema-affinity routing now
   applying *across independent clients*, not just within one caller's
   batch.

Verdicts are bit-identical to serial calls by construction: the coalescer
only re-groups *when* requests reach the engine, never what the engine
computes (asserted by fingerprint in ``tests/test_service.py`` and
``benchmarks/bench_service_throughput.py``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..containment.solver import ContainmentConfig, _as_union
from ..engine.engine import ContainmentEngine, _replay, _result_key

__all__ = ["CoalescerStats", "RequestCoalescer"]


@dataclass
class CoalescerStats:
    """Counters of one coalescer: traffic in, batches out, duplicates merged."""

    submitted: int = 0
    unique: int = 0
    deduplicated: int = 0
    batches: int = 0
    largest_batch: int = 0

    def snapshot(self) -> "CoalescerStats":
        """An independent copy (the live object keeps counting)."""
        return CoalescerStats(
            self.submitted, self.unique, self.deduplicated, self.batches, self.largest_batch
        )

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for the ``/stats`` endpoint and benchmark reports."""
        return {
            "submitted": self.submitted,
            "unique": self.unique,
            "deduplicated": self.deduplicated,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "mean_batch_size": self.submitted / self.batches if self.batches else 0.0,
        }

    def __str__(self) -> str:
        return (
            f"coalescer: {self.submitted} requests in {self.batches} batches "
            f"({self.deduplicated} deduplicated, largest {self.largest_batch})"
        )


@dataclass
class _Pending:
    """One submitted request waiting for its batch to flush."""

    key: Tuple
    left: Any
    right: Any
    schema: Any
    config: Optional[ContainmentConfig]
    future: "Future[Any]"
    enqueued_at: float


def _resolve(future: "Future[Any]", result: Any) -> None:
    try:
        future.set_result(result)
    except InvalidStateError:  # pragma: no cover - client cancelled the future
        pass


def _reject(future: "Future[Any]", error: BaseException) -> None:
    try:
        future.set_exception(error)
    except InvalidStateError:  # pragma: no cover - client cancelled the future
        pass


class RequestCoalescer:
    """Micro-batches concurrent containment requests into ``check_many``.

    ``window`` is the coalescing window in **seconds** measured from the
    first request of a batch (``0`` disables waiting: each flush takes
    whatever is queued at that instant); ``max_batch`` caps one flush, with
    the overflow flushed immediately after; ``parallel`` is the
    ``check_many`` backend the flushed batches run on.  One flusher thread
    serialises all engine traffic, so the coalescer composes with any
    backend — including ``"process"``, where the pool lock would otherwise
    serialise competing batches anyway.

    :meth:`submit` never blocks on the engine; :meth:`check` is the
    convenience blocking form.  :meth:`close` drains the queue (every
    accepted future is resolved) and stops the flusher.
    """

    def __init__(
        self,
        engine: ContainmentEngine,
        *,
        window: float = 0.005,
        max_batch: int = 64,
        parallel: Any = "serial",
    ) -> None:
        if window < 0:
            raise ValueError("coalescing window must be >= 0 seconds")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.engine = engine
        self.window = window
        self.max_batch = max_batch
        self.parallel = ContainmentEngine._normalise_backend(parallel)
        self.stats = CoalescerStats()
        self._cond = threading.Condition()
        self._queue: Deque[_Pending] = deque()
        self._closed = False
        self._flusher = threading.Thread(
            target=self._run, name="repro-service-coalescer", daemon=True
        )
        self._flusher.start()

    # ------------------------------------------------------------------ #
    # the client side
    # ------------------------------------------------------------------ #
    def _request_key(self, left: Any, right: Any, schema: Any, config) -> Tuple:
        """The dedup key — exactly the engine's result-cache key.

        Two requests coalesce into one engine call precisely when a serial
        engine would have served the second from the first's cache entry, so
        deduplication can never merge requests whose verdicts could differ
        (names included: they surface in result fields).
        """
        return _result_key(
            schema,
            _as_union(left, "P"),
            _as_union(right, "Q"),
            config or self.engine.default_config,
        )

    def submit(
        self,
        left: Any,
        right: Any,
        schema: Any,
        config: Optional[ContainmentConfig] = None,
    ) -> "Future[Any]":
        """Queue one containment request; returns its future immediately."""
        pending = _Pending(
            self._request_key(left, right, schema, config),
            left,
            right,
            schema,
            config,
            Future(),
            time.monotonic(),
        )
        with self._cond:
            if self._closed:
                raise RuntimeError("the request coalescer has been closed")
            self._queue.append(pending)
            self.stats.submitted += 1
            self._cond.notify_all()
        return pending.future

    def check(
        self,
        left: Any,
        right: Any,
        schema: Any,
        config: Optional[ContainmentConfig] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """Submit and wait: the blocking single-request form."""
        return self.submit(left, right, schema, config).result(timeout)

    # ------------------------------------------------------------------ #
    # the flusher
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        overflow = False  # items left behind by a full batch flush next, no new window
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:  # closed and drained
                    return
                if (
                    self.window > 0
                    and len(self._queue) < self.max_batch
                    and not self._closed
                    and not overflow
                ):
                    # the window is anchored at the *head request's* arrival
                    # (not at this thread's wake-up): a request that already
                    # aged past the window while a previous batch was
                    # flushing is taken immediately
                    deadline = self._queue[0].enqueued_at + self.window
                    while len(self._queue) < self.max_batch and not self._closed:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cond.wait(remaining)
                batch = [
                    self._queue.popleft()
                    for _ in range(min(self.max_batch, len(self._queue)))
                ]
                overflow = bool(self._queue)
            self._flush(batch)

    def _flush(self, batch: List[_Pending]) -> None:
        """Dedup one batch, run it through the engine, fan results back out."""
        if not batch:  # pragma: no cover - the loop never takes an empty batch
            return
        leaders: List[_Pending] = []
        groups: Dict[Tuple, List[_Pending]] = {}
        for pending in batch:
            group = groups.get(pending.key)
            if group is None:
                groups[pending.key] = [pending]
                leaders.append(pending)
            else:
                group.append(pending)
        with self._cond:
            self.stats.batches += 1
            self.stats.unique += len(leaders)
            self.stats.deduplicated += len(batch) - len(leaders)
            self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        try:
            results = self.engine.check_many(
                [(p.left, p.right, p.schema, p.config) for p in leaders],
                parallel=self.parallel,
            )
        except BaseException as error:  # noqa: BLE001 - relayed to every waiter
            for pending in batch:
                _reject(pending.future, error)
            return
        for leader, result in zip(leaders, results):
            # one decision per key, but each *duplicate* waiter gets the
            # engine's cache replay: its own witness copy, so no client can
            # mutate another's result through a shared graph, and its own
            # schema's name, since the key ignores schema names
            waiters = groups[leader.key]
            _resolve(waiters[0].future, result)
            for pending in waiters[1:]:
                _resolve(pending.future, _replay(result, pending.schema, result.elapsed_seconds))

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, timeout: Optional[float] = None) -> bool:
        """Drain the queue, resolve every accepted future, stop the flusher.

        Idempotent; new submissions are rejected as soon as the close begins,
        but everything accepted before it completes normally — a shutting
        service answers its in-flight requests.  By default this blocks until
        the drain finishes (so a caller tearing down the engine next can
        never pull it out from under a running batch); pass *timeout* for a
        bounded wait instead and check the return value — ``True`` means the
        flusher is fully stopped, ``False`` that a batch is still in flight
        and the engine must stay open.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._flusher.is_alive():
            self._flusher.join(timeout)
        return not self._flusher.is_alive()

    def __enter__(self) -> "RequestCoalescer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
