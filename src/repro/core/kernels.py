"""Int-bitset automaton kernels behind NFA construction and word enumeration.

The NFA's dict-of-set transition maps are the right *construction*
representation — partial, growable, validated — but the wrong *execution*
one for the two operations the solvers repeat: ε-closure while building the
Thompson automaton, and the pumped-normal-form word enumeration of
Theorem 6.1.  This module runs both over ints:

* :func:`bitset_closure` — per-state reflexive-transitive closure masks over
  sparse edges (the ε-closure kernel of :func:`repro.rpq.automaton.build_nfa`),
  computed in one iterative Tarjan pass over the strongly connected
  components, O(states + edges) big-int ORs;
* :func:`enumerate_nfa_words` — the pumped-normal-form enumeration of
  :meth:`repro.rpq.automaton.NFA.enumerate_words`, run over precomputed
  sorted adjacency (:func:`nfa_enumeration_tables`), int-tuple partial words
  and byte-lane visit counters packed into one int, instead of per-step
  ``repr``-keyed sorts and dict copies.

Every kernel is stdlib-only.  The enumeration is word-for-word identical to
the dict-walk reference it replaces; the closure returns exactly the
reachability masks.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Set, Tuple

__all__ = [
    "bitset_closure",
    "enumerate_nfa_words",
]


# --------------------------------------------------------------------------- #
# int-bitset NFA kernels
# --------------------------------------------------------------------------- #
def bitset_closure(num_states: int, edges: Iterable[Tuple[int, int]]) -> List[int]:
    """Per-state reflexive-transitive closure masks over sparse *edges*.

    ``result[i]`` has bit ``j`` set iff state ``j`` is reachable from ``i``
    (every state reaches itself).  This is the ε-closure kernel: the Thompson
    builder feeds its ε-edges in and reads each state's closure off one int.

    One iterative Tarjan pass finds the strongly connected components in
    reverse topological order, so when a component closes every component
    it reaches already has its final mask: the component's mask is the OR of
    its members' bits and those masks, shared by all its members.  That is
    O(states + edges) big-int ORs, and no recursion, whatever the depth.
    """
    successors: List[List[int]] = [[] for _ in range(num_states)]
    for source, target in edges:
        successors[source].append(target)
    closures = [0] * num_states
    order = [-1] * num_states  # DFS discovery number, -1 while unvisited
    low = [0] * num_states
    on_stack = [False] * num_states
    stack: List[int] = []
    counter = 0
    for root in range(num_states):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(successors[root]))]
        while work:
            state, targets = work[-1]
            for target in targets:
                if order[target] < 0:
                    order[target] = low[target] = counter
                    counter += 1
                    stack.append(target)
                    on_stack[target] = True
                    work.append((target, iter(successors[target])))
                    break
                if on_stack[target] and order[target] < low[state]:
                    low[state] = order[target]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[state] < low[parent]:
                        low[parent] = low[state]
                if low[state] != order[state]:
                    continue
                # *state* roots a component: pop it and close it in one go
                members = []
                mask = 0
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    members.append(member)
                    mask |= 1 << member
                    if member == state:
                        break
                for member in members:
                    for target in successors[member]:
                        mask |= closures[target]  # 0 for members: not closed yet
                for member in members:
                    closures[member] = mask
    return closures


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

    Word-for-word identical to the historical dict walk (kept as the
    reference ``enumerate_words_dictwalk`` in ``tests/test_kernels.py``) —
    same words, same order, same cap semantics — but the per-expansion
    ``repr``-keyed sort becomes a table lookup, the visit-count dict copies
    become byte lanes of one int, partial words are int tuples (the
    duplicate check hashes small ints, not symbol objects), and frontier
    entries whose state provably cannot reach acceptance within the
    remaining length budget (a pure lower-bound check) are never built at
    all.
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
