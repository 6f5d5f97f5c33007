"""Vectorized automaton kernels: dense transition tables and bitset state sets.

The dict-of-dict transition maps in :mod:`repro.core.dfa` are the right
*construction* representation — partial, growable, validated — but the wrong
*execution* one: every hot operation (product, emptiness, witness search,
word enumeration, batched acceptance) pays a dict lookup plus a per-step
``sorted(..., key=sort_key)`` for the canonical symbol order.  This module
re-represents the compiled automata as flat integer arrays and int bitsets
so those operations become array sweeps:

* :class:`DenseDFA` — one flat ``num_states × alphabet`` transition table in
  an ``array('i')`` (``-1`` is the dead sink).  Columns are the automaton's
  used symbol ids in **canonical-key order**, so a left-to-right sweep over
  a row *is* the canonical symbol iteration and no sorting ever happens on a
  hot path.  The backing buffer is contiguous and typed, so ``tobytes()``
  and :meth:`DenseDFA.from_bytes` round-trip it without re-deriving a
  transition.
* int-bitset NFA state-set kernels — :func:`bitset_closure` (ε-closure /
  reachability over sparse edges), :func:`subset_construct` (the bitset
  subset construction behind :func:`repro.core.dfa.determinize`) and
  :func:`enumerate_nfa_words` (the pumped-normal-form enumeration of
  :meth:`repro.rpq.automaton.NFA.enumerate_words`, run over precomputed
  sorted adjacency, int-tuple partial words and byte-lane visit counters
  packed into one int, instead of per-step ``repr``-keyed sorts and dict
  copies).

Every kernel is **stdlib-only**.  When numpy is importable it is used as a
pure accelerator for the batch kernels (:meth:`DenseDFA.accepts_batch` and
the BFS sweeps); ``REPRO_NO_NUMPY=1`` — or numpy simply being absent —
falls back to the stdlib implementations with **identical outputs**: the
numpy paths compute the same reachable sets, the same distances and the
same acceptance booleans, never a reordered or approximated result.  CI
runs the differential suite under both paths and asserts fingerprint
identity, so numpy can never become a correctness dependency.
"""

from __future__ import annotations

import os
from array import array
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "NUMPY_DISABLE_VARIABLE",
    "DenseDFA",
    "bitset_closure",
    "enumerate_nfa_words",
    "numpy_disabled",
    "numpy_module",
    "subset_construct",
]

#: Setting this environment variable to anything but ``0``/empty forces the
#: stdlib kernels even when numpy is importable (CI runs the automata gate
#: and the differential smoke both ways and asserts fingerprint identity).
NUMPY_DISABLE_VARIABLE = "REPRO_NO_NUMPY"

_NUMPY_UNSET = object()
_numpy: Any = _NUMPY_UNSET

#: numpy pays tens of microseconds of per-operation overhead, which loses to
#: the stdlib loops on the small automata the regex corpus compiles to; the
#: vectorised paths only engage above these sizes (outputs are identical
#: either way — these are measured crossover points, not load-bearing).  The
#: distance/reachability sweeps win 2–4x above ~256 states; the batched
#: acceptance gather cannot use the stdlib walk's early dead-state exit, so
#: it only approaches parity on very large batches and the threshold is
#: deliberately conservative.
NUMPY_MIN_STATES = 256
NUMPY_MIN_BATCH = 4096


def numpy_disabled() -> bool:
    """``True`` when ``REPRO_NO_NUMPY`` forces the stdlib kernels."""
    return os.environ.get(NUMPY_DISABLE_VARIABLE, "").strip() not in ("", "0")


def numpy_module() -> Optional[Any]:
    """The numpy module when importable and not disabled, else ``None``.

    The import is attempted once per process; the environment variable is
    re-checked on every call so tests can flip the fallback at runtime.
    numpy is strictly an accelerator — every caller has a stdlib path with
    identical outputs.
    """
    global _numpy
    if numpy_disabled():
        return None
    if _numpy is _NUMPY_UNSET:
        try:
            import numpy  # noqa: PLC0415 - optional accelerator, probed lazily

            _numpy = numpy
        except Exception:  # noqa: BLE001 - any import failure means "no numpy"
            _numpy = None
    return _numpy


# --------------------------------------------------------------------------- #
# the dense DFA
# --------------------------------------------------------------------------- #
class DenseDFA:
    """A DFA's transition function as one flat ``num_states × width`` array.

    ``table[state * width + column]`` is the successor state (``-1`` for the
    dead sink); column ``k`` carries the symbol id ``alphabet[k]``, and
    ``alphabet`` is canonically ordered — sweeping a row left to right is the
    deterministic symbol iteration every core operation sorts for.

    The object is purely numeric (states and symbol ids, no symbol objects,
    no table reference): ``(num_states, initial, final, alphabet,
    tobytes())`` describes it completely, and :meth:`from_bytes` reattaches
    that description without re-deriving a single transition.
    """

    __slots__ = (
        "num_states",
        "initial",
        "final",
        "alphabet",
        "width",
        "table",
        "transitions",
        "_column",
        "_final_flags",
        "_distances",
        "_numpy_views",
    )

    def __init__(
        self,
        num_states: int,
        initial: int,
        final: Iterable[int],
        alphabet: Sequence[int],
        table: array,
    ) -> None:
        self.num_states = num_states
        self.initial = initial
        self.final: Tuple[int, ...] = tuple(sorted(final))
        self.alphabet: Tuple[int, ...] = tuple(alphabet)
        self.width = len(self.alphabet)
        if len(table) != num_states * self.width:
            raise ValueError(
                f"dense table of {len(table)} entries does not match "
                f"{num_states} states x {self.width} symbols"
            )
        self.table = table
        # -1 is the only negative the constructions ever write, so the dead
        # entries can be counted at C speed instead of a Python sweep
        self.transitions = len(table) - table.count(-1)
        self._column: Dict[int, int] = {
            symbol_id: column for column, symbol_id in enumerate(self.alphabet)
        }
        final_flags = bytearray(num_states)
        for state in self.final:
            final_flags[state] = 1
        self._final_flags = bytes(final_flags)
        self._distances: Optional[Tuple[int, ...]] = None
        self._numpy_views: Optional[Tuple[Any, Any, Any]] = None

    # ------------------------------------------------------------------ #
    # construction / wire form
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(
        cls,
        num_states: int,
        initial: int,
        final: Iterable[int],
        alphabet: Sequence[int],
        rows: Sequence[Dict[int, int]],
    ) -> "DenseDFA":
        """Build from per-state ``dict[symbol id, target]`` rows (the DFA form)."""
        width = len(alphabet)
        table = array("i", bytes(0)) if width == 0 else array("i", [-1]) * (num_states * width)
        for state, row in enumerate(rows):
            base = state * width
            for column, symbol_id in enumerate(alphabet):
                target = row.get(symbol_id)
                if target is not None:
                    table[base + column] = target
        return cls(num_states, initial, final, alphabet, table)

    @classmethod
    def from_bytes(
        cls,
        num_states: int,
        initial: int,
        final: Iterable[int],
        alphabet: Sequence[int],
        buffer: bytes,
    ) -> "DenseDFA":
        """Reattach a table from its :meth:`tobytes` output."""
        table = array("i", bytes(0))
        table.frombytes(buffer)
        return cls(num_states, initial, final, alphabet, table)

    def tobytes(self) -> bytes:
        """The flat table buffer (the inverse of :meth:`from_bytes`)."""
        return self.table.tobytes()

    # ------------------------------------------------------------------ #
    # single-word operations
    # ------------------------------------------------------------------ #
    def column(self, symbol_id: int) -> int:
        """The table column of *symbol_id* (``-1`` when the DFA never reads it)."""
        return self._column.get(symbol_id, -1)

    def successor(self, state: int, symbol_id: int) -> int:
        """δ(state, symbol) — ``-1`` is the dead sink."""
        column = self._column.get(symbol_id)
        if column is None:
            return -1
        return self.table[state * self.width + column]

    def accepts_ids(self, ids: Sequence[int]) -> bool:
        """Run one id word through the table."""
        state = self.initial
        table, width, columns = self.table, self.width, self._column
        for symbol_id in ids:
            column = columns.get(symbol_id)
            if column is None:
                return False
            state = table[state * width + column]
            if state < 0:
                return False
        return bool(self._final_flags[state])

    # ------------------------------------------------------------------ #
    # batched word acceptance
    # ------------------------------------------------------------------ #
    def accepts_batch(self, words: Sequence[Sequence[int]]) -> List[bool]:
        """Acceptance of many id words at once.

        The numpy fast path steps every word simultaneously (one fancy-index
        gather per position); the stdlib path walks each word.  Outputs are
        identical booleans in input order.
        """
        np = numpy_module()
        if np is not None and len(words) >= NUMPY_MIN_BATCH and self.width:
            return self._accepts_batch_numpy(np, words)
        accepts = self.accepts_ids
        return [accepts(ids) for ids in words]

    def _numpy_tables(self, np: Any) -> Tuple[Any, Any, Any]:
        """Cached numpy views: 2-D table, final flags, symbol id → column LUT."""
        views = self._numpy_views
        if views is None:
            table2d = np.frombuffer(self.table.tobytes(), dtype=np.intc).reshape(
                self.num_states, self.width
            ).astype(np.int64, copy=False)
            final_flags = np.frombuffer(self._final_flags, dtype=np.uint8)
            # dense id → column lookup; ids are small interning indices, so
            # the LUT stays tiny.  The trailing -1 slot catches both unknown
            # ids and the padding marker (python-style -1 indexing).
            largest_id = max(self.alphabet, default=0)
            lut = np.full(largest_id + 2, -1, dtype=np.int64)
            for column, symbol_id in enumerate(self.alphabet):
                lut[symbol_id] = column
            views = (table2d, final_flags, lut)
            self._numpy_views = views
        return views

    def _accepts_batch_numpy(self, np: Any, words: Sequence[Sequence[int]]) -> List[bool]:
        count = len(words)
        lengths = [len(ids) for ids in words]
        longest = max(lengths, default=0)
        if longest == 0:
            flag = bool(self._final_flags[self.initial])
            return [flag] * count
        table2d, final_flags, lut = self._numpy_tables(np)
        largest_id = len(lut) - 2
        # pad with -1; the id matrix is filled row-wise by C-level slice
        # assignment and translated to columns in one vectorised LUT gather
        id_matrix = np.full((count, longest), -1, dtype=np.int64)
        for row, ids in enumerate(words):
            if ids:
                id_matrix[row, : len(ids)] = ids
        # an id beyond the LUT means "symbol unknown to this automaton":
        # fold it onto the trailing -1 slot instead of growing the LUT
        id_matrix[id_matrix > largest_id] = -1
        column_matrix = lut[id_matrix]
        length_vector = np.asarray(lengths, dtype=np.int64)
        states = np.full(count, self.initial, dtype=np.int64)
        for position in range(longest):
            active = position < length_vector
            column = column_matrix[:, position]
            stepped = np.where(
                (states >= 0) & (column >= 0),
                table2d[states.clip(min=0), column.clip(min=0)],
                -1,
            )
            states = np.where(active, stepped, states)
        accepted = (states >= 0) & (final_flags[states.clip(min=0)] == 1)
        return accepted.tolist()

    # ------------------------------------------------------------------ #
    # reachability sweeps
    # ------------------------------------------------------------------ #
    def reachable(self) -> Set[int]:
        """States reachable from the initial state (forward sweep)."""
        np = numpy_module()
        if np is not None and self.width and self.num_states >= NUMPY_MIN_STATES:
            table2d = np.frombuffer(self.table.tobytes(), dtype=np.intc).reshape(
                self.num_states, self.width
            )
            seen = np.zeros(self.num_states, dtype=bool)
            seen[self.initial] = True
            frontier = np.asarray([self.initial])
            while frontier.size:
                targets = table2d[frontier].ravel()
                targets = np.unique(targets[targets >= 0])
                fresh = targets[~seen[targets]]
                seen[fresh] = True
                frontier = fresh
            return set(np.flatnonzero(seen).tolist())
        reached = {self.initial}
        stack = [self.initial]
        table, width = self.table, self.width
        while stack:
            base = stack.pop() * width
            for target in table[base : base + width]:
                if target >= 0 and target not in reached:
                    reached.add(target)
                    stack.append(target)
        return reached

    def distance_to_final(self) -> Tuple[int, ...]:
        """Per state, the BFS distance to the nearest final state (``-1`` = never).

        This is the reverse layered sweep behind emptiness, shortest-witness
        search and the enumeration's budget pruning; it is computed once per
        dense table and memoized.
        """
        if self._distances is not None:
            return self._distances
        np = numpy_module()
        if np is not None and self.width and self.num_states >= NUMPY_MIN_STATES:
            distances = self._distance_to_final_numpy(np)
        else:
            distances = self._distance_to_final_stdlib()
        self._distances = distances
        return distances

    def _distance_to_final_stdlib(self) -> Tuple[int, ...]:
        distance = [-1] * self.num_states
        wave = []
        for state in self.final:
            distance[state] = 0
            wave.append(state)
        # reverse adjacency, built once from one pass over the flat table
        predecessors: List[List[int]] = [[] for _ in range(self.num_states)]
        table, width = self.table, self.width
        for state in range(self.num_states):
            base = state * width
            for target in table[base : base + width]:
                if target >= 0:
                    predecessors[target].append(state)
        level = 0
        while wave:
            level += 1
            next_wave: List[int] = []
            for state in wave:
                for source in predecessors[state]:
                    if distance[source] < 0:
                        distance[source] = level
                        next_wave.append(source)
            wave = next_wave
        return tuple(distance)

    def _distance_to_final_numpy(self, np: Any) -> Tuple[int, ...]:
        table2d = np.frombuffer(self.table.tobytes(), dtype=np.intc).reshape(
            self.num_states, self.width
        )
        distance = np.full(self.num_states, -1, dtype=np.int64)
        current = np.zeros(self.num_states, dtype=bool)
        for state in self.final:
            distance[state] = 0
            current[state] = True
        level = 0
        while current.any():
            level += 1
            hits = current[table2d.clip(min=0)] & (table2d >= 0)
            predecessors = hits.any(axis=1) & (distance < 0)
            distance[predecessors] = level
            current = predecessors
        return tuple(distance.tolist())

    def is_empty(self) -> bool:
        """``True`` when no final state is reachable from the initial state."""
        return self.distance_to_final()[self.initial] < 0

    def shortest_witness_ids(self) -> Optional[Tuple[int, ...]]:
        """One shortest accepted word as symbol ids (``None`` when empty).

        Layered BFS over the dense table; ties break by column order, which
        is the canonical symbol order — the exact witness the dict-walk
        search produces.
        """
        if self._final_flags[self.initial]:
            return ()
        table, width, alphabet = self.table, self.width, self.alphabet
        final_flags = self._final_flags
        parents: Dict[int, Tuple[int, int]] = {}
        visited = bytearray(self.num_states)
        visited[self.initial] = 1
        frontier = [self.initial]
        while frontier:
            next_frontier: List[int] = []
            for state in frontier:
                base = state * width
                for column in range(width):
                    target = table[base + column]
                    if target < 0 or visited[target]:
                        continue
                    visited[target] = 1
                    parents[target] = (state, alphabet[column])
                    if final_flags[target]:
                        word: List[int] = []
                        current = target
                        while current in parents:
                            current, via = parents[current]
                            word.append(via)
                        word.reverse()
                        return tuple(word)
                    next_frontier.append(target)
            frontier = next_frontier
        return None


# --------------------------------------------------------------------------- #
# int-bitset NFA kernels
# --------------------------------------------------------------------------- #
def bitset_closure(num_states: int, edges: Iterable[Tuple[int, int]]) -> List[int]:
    """Per-state reflexive-transitive closure masks over sparse *edges*.

    ``result[i]`` has bit ``j`` set iff state ``j`` is reachable from ``i``
    (every state reaches itself).  This is the ε-closure kernel: the Thompson
    builder feeds its ε-edges in and reads each state's closure off one int.
    """
    direct = [1 << state for state in range(num_states)]
    for source, target in edges:
        direct[source] |= 1 << target
    closures = list(direct)
    # iterate to fixpoint: closing over a closed row is idempotent, and each
    # pass propagates reachability one join further
    changed = True
    while changed:
        changed = False
        for state in range(num_states):
            mask = closures[state]
            union = mask
            remaining = mask
            while remaining:
                low = remaining & -remaining
                union |= closures[low.bit_length() - 1]
                remaining ^= low
            if union != mask:
                closures[state] = union
                changed = True
    return closures


def subset_construct(
    initial_mask: int,
    final_mask: int,
    moves: Sequence[Sequence[int]],
) -> Tuple[int, List[Tuple[int, int, int]], List[int]]:
    """The bitset subset construction.

    *moves* holds, per alphabet column, the per-state successor masks
    (``moves[column][state_index]``).  Subsets are int bitsets; discovery is
    BFS with columns swept in order, so the state numbering is exactly the
    one the frozenset-based construction produced — a subset and its mask
    are in bijection, and both searches expand identical frontiers in
    identical order.

    Returns ``(num_states, transitions, final_states)`` with transitions as
    ``(source, column, target)`` triples over the dense numbering.
    """
    numbering: Dict[int, int] = {initial_mask: 0}
    order: List[int] = [initial_mask]
    transitions: List[Tuple[int, int, int]] = []
    index = 0
    while index < len(order):
        mask = order[index]
        for column, move in enumerate(moves):
            successor = 0
            remaining = mask
            while remaining:
                low = remaining & -remaining
                successor |= move[low.bit_length() - 1]
                remaining ^= low
            if not successor:
                continue
            target = numbering.get(successor)
            if target is None:
                target = len(order)
                numbering[successor] = target
                order.append(successor)
            transitions.append((index, column, target))
        index += 1
    final_states = [numbering[mask] for mask in order if mask & final_mask]
    return len(order), transitions, final_states


# --------------------------------------------------------------------------- #
# pumped-normal-form NFA enumeration
# --------------------------------------------------------------------------- #
def nfa_enumeration_tables(nfa: Any):
    """Precomputed sorted adjacency for :func:`enumerate_nfa_words`.

    Returns ``(rows, symbols)``.  Per state index (states sorted ascending),
    ``rows`` holds a tuple of ``(symbol index, target index, count shift,
    count increment, target's distance to acceptance, target is final)``
    entries in the dict-walk enumeration's expansion order —
    ``(repr(symbol), target)`` — computed **once** per automaton instead of
    once per frontier expansion.  Symbols are interned into the ``symbols``
    list (by equality), so the search works on int words — hashing a partial
    word for the duplicate check never hashes a symbol object — and emitted
    words are materialised through the list.  Shift/increment address the
    target's byte lane in the int visit counter; the distance (``-1`` when
    acceptance is unreachable) feeds the length-budget pruning.
    """
    states = sorted(nfa.states)
    index_of = {state: position for position, state in enumerate(states)}
    final = nfa.final
    adjacency: List[List[Tuple[Any, int]]] = []
    for state in states:
        adjacency.append(
            sorted(nfa.transitions_from(state), key=lambda pair: (repr(pair[0]), pair[1]))
        )
    # unweighted reverse BFS from the final states: distance[i] is a lower
    # bound on the steps state i needs before any word can be accepted
    distance = [-1] * len(states)
    wave: List[int] = []
    for state in final:
        position = index_of[state]
        distance[position] = 0
        wave.append(position)
    predecessors: List[List[int]] = [[] for _ in states]
    for position, entries in enumerate(adjacency):
        for _, target in entries:
            predecessors[index_of[target]].append(position)
    level = 0
    while wave:
        level += 1
        next_wave: List[int] = []
        for position in wave:
            for source in predecessors[position]:
                if distance[source] < 0:
                    distance[source] = level
                    next_wave.append(source)
        wave = next_wave
    symbols: List[Any] = []
    symbol_index: Dict[Any, int] = {}
    rows: List[Tuple[Tuple[int, int, int, int, int, bool], ...]] = []
    for entries in adjacency:
        row = []
        for symbol, target in entries:
            interned = symbol_index.get(symbol)
            if interned is None:
                interned = len(symbols)
                symbol_index[symbol] = interned
                symbols.append(symbol)
            position = index_of[target]
            row.append(
                (
                    interned,
                    position,
                    position * 8,
                    1 << (position * 8),
                    distance[position],
                    target in final,
                )
            )
        rows.append(tuple(row))
    largest = max((entry[4] for row in rows for entry in row), default=0)
    return tuple(rows), tuple(symbols), largest


def _nfa_rows_for_budget(nfa: Any, rows_full, key: int):
    """Rows with the unreachable-within-budget entries already dropped.

    Filtering by the distance lower bound only removes expansions that could
    never contribute a word within the remaining length, so the emitted
    sequence is untouched; hoisting the comparison here keeps it out of the
    frontier loop.  Variants are cached per automaton, keyed by the budget
    capped at the largest finite distance (larger budgets filter nothing).
    """
    variants = getattr(nfa, "_enum_variants", None)
    if variants is None:
        variants = {}
        try:
            nfa._enum_variants = variants
        except AttributeError:  # pragma: no cover - exotic NFA stand-ins
            return tuple(
                tuple(entry for entry in row if 0 <= entry[4] <= key) for row in rows_full
            )
    rows = variants.get(key)
    if rows is None:
        rows = tuple(
            tuple(entry for entry in row if 0 <= entry[4] <= key) for row in rows_full
        )
        variants[key] = rows
    return rows


def enumerate_nfa_words(
    nfa: Any,
    max_length: int,
    max_state_repeats: int,
    max_words: int,
):
    """Pumped-normal-form enumeration over precomputed adjacency.

    Word-for-word identical to the dict-walk
    :meth:`~repro.rpq.automaton.NFA.enumerate_words` — same words, same
    order, same cap semantics — but the per-expansion ``repr``-keyed sort
    becomes a table lookup, the visit-count dict copies become byte lanes of
    one int, partial words are int tuples (the duplicate check hashes small
    ints, not symbol objects), and frontier entries whose state provably
    cannot reach acceptance within the remaining length budget (a pure
    lower-bound check) are never built at all.
    """
    tables = getattr(nfa, "_enum_tables", None)
    if tables is None:
        tables = nfa_enumeration_tables(nfa)
        try:
            nfa._enum_tables = tables
        except AttributeError:  # pragma: no cover - exotic NFA stand-ins
            pass
    rows_full, symbols, largest = tables
    materialise = symbols.__getitem__
    states = sorted(nfa.states)
    index_of = {state: position for position, state in enumerate(states)}

    emitted = 0
    seen: Set[Tuple[int, ...]] = set()
    if nfa.accepts_epsilon():
        seen.add(())
        emitted += 1
        yield ()
    frontier: List[Tuple[int, Tuple[int, ...], int]] = []
    for state in sorted(nfa.initial):
        position = index_of[state]
        frontier.append((position, (), 1 << (position * 8)))
    length = 0
    while frontier and length < max_length and emitted < max_words:
        length += 1
        budget = max_length - length
        rows = _nfa_rows_for_budget(nfa, rows_full, budget if budget < largest else largest)
        if budget:
            next_frontier: List[Tuple[int, Tuple[int, ...], int]] = []
            append = next_frontier.append
            for position, word, counts in frontier:
                for symbol, target, shift, increment, _, is_final in rows[position]:
                    if (counts >> shift) & 255 >= max_state_repeats:
                        continue  # one more visit would break the pumped bound
                    extended = word + (symbol,)
                    if is_final and extended not in seen:
                        seen.add(extended)
                        emitted += 1
                        yield tuple(map(materialise, extended))
                        if emitted >= max_words:
                            return
                    append((target, extended, counts + increment))
            frontier = next_frontier
        else:
            # the final level: every surviving entry steps straight into a
            # final state and nothing is extended afterwards, so no frontier
            # is built
            for position, word, counts in frontier:
                for symbol, _, shift, _, _, _ in rows[position]:
                    if (counts >> shift) & 255 >= max_state_repeats:
                        continue
                    extended = word + (symbol,)
                    if extended not in seen:
                        seen.add(extended)
                        emitted += 1
                        yield tuple(map(materialise, extended))
                        if emitted >= max_words:
                            return
            return
