"""Adaptive backend selection: measure, then choose serial or process.

``check_many(parallel="auto")`` — and the containment service, whose default
this is — should not make the user guess whether a batch is worth a worker
pool.  The wrong guess is exactly what the benchmark trend caught (ROADMAP
item 1): a process pool losing to serial because per-item transport cost
exceeded per-item solve cost.  So the engine measures both and decides:

* **Calibration probe.**  The first time a batch arrives for schemas with no
  recorded profile, the engine solves the batch's first item serially (its
  result is part of the answer — the probe is never wasted work) and times
  one ``pickle.dumps`` of the request tuple as the per-item transport cost.
  Both go into a per-schema-fingerprint EWMA (:meth:`AdaptiveSelector.observe`),
  so later batches skip the probe and re-use the profile; serial runs keep
  refreshing the solve estimate for free from result timings.

* **Backend estimates** (:meth:`AdaptiveSelector.choose`).  For a batch of
  ``n`` items with per-item solve cost ``s`` and transport cost ``t`` over
  ``w`` effective workers::

      serial  ≈ n·s
      process ≈ dispatch + n·t + n·s/w   (+ spawn penalty if the pool is cold)

  Process wins only when it beats serial by a :data:`margin <SERIAL_MARGIN>`
  — estimates are noisy, and when they are close, serial's predictability
  (and the absence of worker processes) is worth more than a few projected
  milliseconds.

Degenerate cases short-circuit to serial: single-item batches, single-core
boxes, unpicklable payloads (transport cost ``inf``), and schemas with no
profile and nothing left after the probe.  The selection changes only *where*
a batch runs; every backend returns bit-identical verdicts, so a wrong guess
costs milliseconds, never correctness.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional

__all__ = [
    "AdaptiveSelector",
    "CostProfile",
    "DISPATCH_OVERHEAD_SECONDS",
    "SERIAL_MARGIN",
    "SPAWN_PENALTY_SECONDS",
]

#: Fixed cost of putting a batch on the pool's queues and collecting replies.
DISPATCH_OVERHEAD_SECONDS = 0.002

#: Amortised cost of spawning the worker processes when the pool is cold; a
#: fresh interpreter per worker (spawn method) plus the first warm-up imports.
SPAWN_PENALTY_SECONDS = 0.25

#: The process backend must project at least this speedup over serial —
#: close calls go to serial, whose estimate has the least variance.
SERIAL_MARGIN = 1.2

#: EWMA weight of the newest observation (0.5: adapt fast, keep some memory).
EWMA_ALPHA = 0.5


@dataclass(frozen=True)
class CostProfile:
    """Measured per-item costs for one schema context (or an average)."""

    solve_seconds: float
    transport_seconds: float


class AdaptiveSelector:
    """Per-schema cost profiles plus the serial/process decision rule.

    Thread-safe (the service's coalescer flushes from a worker thread).
    ``cpu_count`` is injectable for tests — forcing a profile and a core
    count makes every decision deterministic.
    """

    def __init__(self, cpu_count: Optional[int] = None) -> None:
        self.cpu_count = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
        self._lock = threading.Lock()
        self._profiles: Dict[str, CostProfile] = {}
        self.decisions: Dict[str, int] = {"serial": 0, "process": 0}
        self.probes = 0
        self.last_decision: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # measurement
    # ------------------------------------------------------------------ #
    def observe(
        self, context: str, solve_seconds: float, transport_seconds: Optional[float] = None
    ) -> None:
        """Fold one measurement into *context*'s profile (EWMA).

        ``transport_seconds=None`` refreshes only the solve estimate — serial
        runs re-measure solving for free but learn nothing about pickling.
        """
        with self._lock:
            current = self._profiles.get(context)
            if current is None:
                self._profiles[context] = CostProfile(
                    solve_seconds,
                    transport_seconds if transport_seconds is not None else 0.0,
                )
                return
            blended_transport = current.transport_seconds
            if transport_seconds is not None:
                blended_transport = (
                    EWMA_ALPHA * transport_seconds + (1 - EWMA_ALPHA) * blended_transport
                )
            self._profiles[context] = CostProfile(
                EWMA_ALPHA * solve_seconds + (1 - EWMA_ALPHA) * current.solve_seconds,
                blended_transport,
            )

    def profile_for(self, contexts: Iterable[str]) -> Optional[CostProfile]:
        """The averaged profile of the known *contexts*, ``None`` if all new."""
        with self._lock:
            known = [self._profiles[c] for c in set(contexts) if c in self._profiles]
        if not known:
            return None
        return CostProfile(
            sum(p.solve_seconds for p in known) / len(known),
            sum(p.transport_seconds for p in known) / len(known),
        )

    def measure_transport(self, payload: Any) -> float:
        """The per-item serialization cost: one timed ``pickle.dumps``.

        An unpicklable payload measures as ``inf`` — the process backend
        could not ship it anyway, so the estimate pushes the choice to
        serial instead of letting the pool discover the failure later.
        """
        self.probes += 1
        started = time.perf_counter()
        try:
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - unpicklable ⇒ process is off the table
            return float("inf")
        return time.perf_counter() - started

    # ------------------------------------------------------------------ #
    # the decision rule
    # ------------------------------------------------------------------ #
    def choose(
        self,
        batch_size: int,
        profile: Optional[CostProfile],
        workers: Optional[int] = None,
        pool_ready: bool = False,
    ) -> str:
        """Pick ``"serial"`` or ``"process"`` for this batch."""
        effective_workers = max(1, min(workers or self.cpu_count, self.cpu_count, batch_size))
        if batch_size <= 1 or self.cpu_count < 2 or profile is None:
            return self._record("serial", batch_size, profile, None)

        serial = batch_size * profile.solve_seconds
        process = (
            DISPATCH_OVERHEAD_SECONDS
            + batch_size * profile.transport_seconds
            + batch_size * profile.solve_seconds / effective_workers
        )
        if not pool_ready:
            process += SPAWN_PENALTY_SECONDS
        choice = "process" if process * SERIAL_MARGIN <= serial else "serial"
        return self._record(
            choice, batch_size, profile, {"serial": serial, "process": process}
        )

    def _record(
        self,
        choice: str,
        batch_size: int,
        profile: Optional[CostProfile],
        estimates: Optional[Dict[str, float]],
    ) -> str:
        with self._lock:
            self.decisions[choice] += 1
            self.last_decision = {
                "backend": choice,
                "batch_size": batch_size,
                "profile": (
                    {
                        "solve_seconds": profile.solve_seconds,
                        "transport_seconds": profile.transport_seconds,
                    }
                    if profile is not None
                    else None
                ),
                "estimates": estimates,
            }
        return choice

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def report(self) -> Dict[str, Any]:
        """JSON-ready counters for service stats and benchmark reports."""
        with self._lock:
            return {
                "cpu_count": self.cpu_count,
                "profiles": len(self._profiles),
                "probes": self.probes,
                "decisions": dict(self.decisions),
                "last_decision": self.last_decision,
            }
