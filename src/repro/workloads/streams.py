"""Request streams: service traffic replayed over the packaged workloads.

The batch builders of :mod:`repro.workloads.batches` produce *pairwise
distinct* requests — the right shape for measuring cold decision-procedure
work, and the wrong shape for exercising a serving layer, where real traffic
from independent clients repeats hot requests, interleaves schemas and
arrives in no useful order.  :func:`request_stream` replays exactly that:
a deterministic, seeded sequence of ``(left, right, schema)`` triples drawn
from the mixed multi-schema batch, with a configurable fraction of
*repeats* biased toward recently seen requests (hot keys), so a coalescing
service sees both deduplicable duplicates and genuinely fresh work in the
same window.

:func:`request_payloads` renders the same stream as JSON-ready dicts (the
schema as :func:`repro.schema.parser.schema_to_text` DSL text, queries as
their source strings) — the wire format of ``python -m repro serve`` — for
HTTP-level tests and the CI service smoke check.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..schema.parser import schema_to_text
from ..schema.schema import Schema
from .batches import mixed_batch

__all__ = ["closed_loop", "request_payloads", "request_stream"]


def request_stream(
    requests: int = 120,
    *,
    seed: int = 1729,
    repeat_fraction: float = 0.4,
    hot_window: int = 16,
    length: int = 4,
) -> List[Tuple[Any, Any, Schema]]:
    """A deterministic mixed-schema traffic replay of *requests* triples.

    Drawn round-robin-free from :func:`~repro.workloads.batches.mixed_batch`
    (medical + FHIR + social + ``synthetic(length)``) in a seeded shuffle;
    with probability *repeat_fraction* the next request instead repeats one
    of the last *hot_window* requests — the service-side duplicate/cache-hit
    traffic shape.  Identical arguments produce the identical stream, so a
    stream replayed through different serving modes is comparable
    request-for-request (the benchmarks assert fingerprint identity on it).
    """
    if requests < 1:
        raise ValueError("request_stream needs at least one request")
    if not 0.0 <= repeat_fraction < 1.0:
        raise ValueError("repeat_fraction must be in [0, 1)")
    rng = random.Random(seed)
    corpus = mixed_batch(length=length)
    order = list(range(len(corpus)))
    rng.shuffle(order)
    stream: List[Tuple[Any, Any, Schema]] = []
    cursor = 0
    while len(stream) < requests:
        if stream and rng.random() < repeat_fraction:
            window = stream[-hot_window:]
            stream.append(window[rng.randrange(len(window))])
        else:
            stream.append(corpus[order[cursor % len(order)]])
            cursor += 1
    return stream


def request_payloads(
    requests: int = 120,
    *,
    seed: int = 1729,
    repeat_fraction: float = 0.4,
    hot_window: int = 16,
    length: int = 4,
) -> List[Dict[str, str]]:
    """The same stream as JSON-ready ``{"schema", "left", "right"}`` dicts.

    Schema objects are rendered to DSL text once per distinct schema (the
    texts repeat verbatim across the stream, so a service's parse cache sees
    realistic hit rates).
    """
    stream = request_stream(
        requests,
        seed=seed,
        repeat_fraction=repeat_fraction,
        hot_window=hot_window,
        length=length,
    )
    texts: Dict[int, str] = {}
    payloads: List[Dict[str, str]] = []
    for left, right, schema in stream:
        text = texts.get(id(schema))
        if text is None:
            text = schema_to_text(schema)
            texts[id(schema)] = text
        payloads.append({"schema": text, "left": str(left), "right": str(right)})
    return payloads


def closed_loop(
    items: Sequence[Any], call: Callable[[Any], Any], clients: int = 8
) -> List[Any]:
    """Drive ``call(item)`` over *items* from closed-loop client threads.

    The load-generator shape shared by the service throughput benchmark,
    the CLI's ``bench``, the service tests and the CI smoke check:
    *clients* threads each keep exactly **one** request outstanding,
    pulling the next item off a shared cursor until the stream is
    exhausted.  Returns the results in item order.  A failing call stops
    its client (the others finish the stream) and the first failure — in
    item order — is re-raised afterwards, so errors surface instead of
    leaving silent ``None`` holes in the results.
    """
    if clients < 1:
        raise ValueError("closed_loop needs at least one client")
    results: List[Any] = [None] * len(items)
    failures: List[Tuple[int, BaseException]] = []
    cursor = [0]
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(items):
                return
            try:
                results[index] = call(items[index])
            except BaseException as error:  # noqa: BLE001 - re-raised below
                with lock:
                    failures.append((index, error))
                return

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        index, error = min(failures, key=lambda failure: failure[0])
        raise RuntimeError(f"closed-loop client failed on item {index}") from error
    return results
