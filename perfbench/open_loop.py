"""The serve-mixed load generator: one thread driving an open loop.

Independent tenants do not wait for each other's answers, so requests are
sent on a fixed schedule whatever the service's state.  Each request's
latency runs from when it was *due*, not from when the generator got
round to sending it, so a stall that delays later sends is charged to the
requests it delayed; ``late_max`` reports how far behind the generator fell.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

__all__ = ["OpenLoopRun", "drive"]


@dataclass
class OpenLoopRun:
    """Due times, completion times (``None`` until done, or when refused),
    futures (``None`` when refused) and the generator's worst lateness."""

    dues: List[float]
    done: List[Optional[float]]
    futures: List[Optional[Future]]
    late_max: float


def drive(
    times: Sequence[float],
    submit: Callable[[int], Future],
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    lead: float = 0.005,
) -> OpenLoopRun:
    """Call ``submit(position)`` at each scheduled time and return the run.

    *times* are seconds from the start of the phase.  Completion is stamped
    by a done-callback, in whichever thread resolves the future.  A
    ``submit`` that raises is a refused request.
    """
    count = len(times)
    run = OpenLoopRun([], [None] * count, [None] * count, 0.0)
    origin = clock() + lead
    for position, at in enumerate(times):
        due = origin + at
        run.dues.append(due)
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        run.late_max = max(run.late_max, clock() - due)
        try:
            future = submit(position)
        except Exception:  # noqa: BLE001 - a refused request, reported by the caller
            continue
        run.futures[position] = future
        future.add_done_callback(
            lambda _future, position=position: run.done.__setitem__(position, clock())
        )
    return run
