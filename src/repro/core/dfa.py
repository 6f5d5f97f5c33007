"""Deterministic finite automata over interned symbols.

A :class:`DFA` is the compiled, canonicalisable form of a two-way regular
expression's automaton: states are dense ints, letters are
:class:`~repro.core.interning.SymbolTable` ids, and the transition function
is a tuple of per-state ``dict[int, int]`` maps (partial — a missing entry
is the dead sink).  Everything that needs a deterministic result across
processes iterates symbols by their canonical *sort key*, never by the
arrival-order id, so subset construction, minimisation and witness searches
produce identical automata on every machine.

The dict rows are the construction/validation form; execution runs on the
automaton's :meth:`DFA.dense` form — a flat :class:`repro.core.kernels.DenseDFA`
transition array whose columns are the canonical symbol order, so emptiness,
witness search, product discovery, minimisation signatures and word
enumeration sweep arrays instead of sorting dict keys per step.  The dense
form never changes a result: its column order *is* the canonical order the
dict walks sorted into, and the dict-walk enumeration is kept verbatim as
:meth:`DFA._enumerate_words_dictwalk` so benchmarks and property tests can
assert word-for-word equality.

Provided operations: :func:`determinize` (NFA → DFA), :meth:`DFA.minimize`
(Moore partition refinement plus trimming), :meth:`DFA.complement`,
:meth:`DFA.product` (intersection/union), :meth:`DFA.is_empty`,
:meth:`DFA.shortest_witness`, :meth:`DFA.enumerate_words` (deterministic,
duplicate-free language enumeration) and :meth:`DFA.equivalent`.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..rpq.regex import Symbol
from .interning import SymbolTable, symbol_table
from .kernels import DenseDFA, subset_construct

__all__ = ["DFA", "determinize"]

_DEAD = -1  # the implicit sink class used during minimisation


class DFA:
    """A deterministic automaton over interned symbols (partial δ, sink implicit)."""

    __slots__ = (
        "table",
        "num_states",
        "initial",
        "final",
        "_delta_rows",
        "_count",
        "_alphabet",
        "_dense",
        "_enum_rows",
        "_enum_variants",
    )

    def __init__(
        self,
        table: SymbolTable,
        num_states: int,
        initial: int,
        final: Iterable[int],
        transitions: Iterable[Tuple[int, int, int]],
    ) -> None:
        if not 0 <= initial < max(num_states, 1):
            raise ValueError(f"initial state {initial} out of range for {num_states} states")
        self.table = table
        self.num_states = num_states
        self.initial = initial
        self.final: FrozenSet[int] = frozenset(final)
        delta: List[Dict[int, int]] = [{} for _ in range(num_states)]
        count = 0
        for source, symbol_id, target in transitions:
            existing = delta[source].get(symbol_id)
            if existing is not None and existing != target:
                raise ValueError(
                    f"nondeterministic transition: state {source} reads symbol "
                    f"{symbol_id} into both {existing} and {target}"
                )
            if existing is None:
                count += 1
            delta[source][symbol_id] = target
        self._delta_rows: Optional[Tuple[Dict[int, int], ...]] = tuple(delta)
        self._count = count
        self._alphabet: Optional[Tuple[int, ...]] = None
        self._dense: Optional[DenseDFA] = None
        self._enum_rows: Optional[Tuple[Tuple, int]] = None
        self._enum_variants: Dict[int, Tuple] = {}

    @classmethod
    def from_dense(cls, table: SymbolTable, dense: DenseDFA) -> "DFA":
        """Reattach a :class:`~repro.core.kernels.DenseDFA`.

        This is the fast exit of the construction pipeline
        (`determinize`/`trim`/`minimize` emit dense tables directly).  The
        dense form comes out of a deterministic construction, so the dict
        rows are rebuilt lazily — only if a dict-walk consumer actually asks
        — without re-running the nondeterminism check.
        """
        dfa = cls.__new__(cls)
        dfa.table = table
        dfa.num_states = dense.num_states
        dfa.initial = dense.initial
        dfa.final = frozenset(dense.final)
        dfa._delta_rows = None
        dfa._count = dense.transitions
        dfa._alphabet = dense.alphabet
        dfa._dense = dense
        dfa._enum_rows = None
        dfa._enum_variants = {}
        return dfa

    @property
    def _delta(self) -> Tuple[Dict[int, int], ...]:
        """Per-state ``dict[symbol id, target]`` rows (built lazily from dense)."""
        rows = self._delta_rows
        if rows is None:
            dense = self._dense
            alphabet, width, flat = dense.alphabet, dense.width, dense.table
            if width == 0:
                rows = tuple({} for _ in range(dense.num_states))
            else:
                rows = tuple(
                    {
                        alphabet[column]: target
                        for column in range(width)
                        if (target := flat[base + column]) >= 0
                    }
                    for base in range(0, dense.num_states * width, width)
                )
            self._delta_rows = rows
        return rows

    def dense(self) -> DenseDFA:
        """The flat-array execution form of this automaton (built once)."""
        if self._dense is None:
            self._dense = DenseDFA.from_rows(
                self.num_states, self.initial, self.final, self.alphabet_ids(), self._delta
            )
        return self._dense

    # ------------------------------------------------------------------ #
    # basics
    # ------------------------------------------------------------------ #
    def successor(self, state: int, symbol_id: int) -> Optional[int]:
        """δ(state, symbol) — ``None`` means the dead sink."""
        return self._delta[state].get(symbol_id)

    def transitions(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over all ``(source, symbol id, target)`` transitions."""
        for source, row in enumerate(self._delta):
            for symbol_id, target in row.items():
                yield source, symbol_id, target

    def alphabet_ids(self) -> Tuple[int, ...]:
        """Ids labelling at least one transition, in canonical-key order (cached)."""
        if self._alphabet is None:
            used = {symbol_id for row in self._delta for symbol_id in row}
            self._alphabet = tuple(sorted(used, key=self.table.sort_key))
        return self._alphabet

    def state_count(self) -> int:
        return self.num_states

    def transition_count(self) -> int:
        """Number of transitions — counted once at construction, O(1) here."""
        return self._count

    def accepts_ids(self, ids: Sequence[int]) -> bool:
        state: Optional[int] = self.initial
        for symbol_id in ids:
            state = self._delta[state].get(symbol_id)
            if state is None:
                return False
        return state in self.final

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """``True`` when the automaton accepts the given symbol word."""
        ids = []
        for symbol in word:
            symbol_id = self.table.known(symbol)
            if symbol_id is None:
                return False  # a letter the automaton has never seen
            ids.append(symbol_id)
        return self.accepts_ids(ids)

    def accepts_epsilon(self) -> bool:
        return self.initial in self.final

    # ------------------------------------------------------------------ #
    # language queries
    # ------------------------------------------------------------------ #
    def is_empty(self) -> bool:
        """``True`` when no word at all is accepted."""
        return self.dense().is_empty()

    def shortest_witness_ids(self) -> Optional[Tuple[int, ...]]:
        """One shortest accepted word as an id tuple (``None`` when empty).

        Layered BFS over the dense table; ties break by column order, which
        is the canonical symbol order, so the witness is deterministic across
        processes (and identical to the historical dict-walk search).
        """
        return self.dense().shortest_witness_ids()

    def shortest_witness(self) -> Optional[Tuple[Symbol, ...]]:
        """One shortest accepted word as symbols (``None`` when empty)."""
        ids = self.shortest_witness_ids()
        return None if ids is None else self.table.word(ids)

    def _enumeration_rows(self) -> Tuple[Tuple, int]:
        """Per state, the productive dense row for enumeration, built once.

        Entries are ``(symbol, target, distance-to-final from target, target
        is final)`` in column (= canonical) order; targets that can never
        reach acceptance are dropped here instead of per-step.  Also returns
        the largest finite distance (budgets at or above it filter nothing).
        """
        if self._enum_rows is None:
            dense = self.dense()
            distances = dense.distance_to_final()
            symbols = [self.table.symbol(symbol_id) for symbol_id in dense.alphabet]
            flat, width = dense.table, dense.width
            final = self.final
            rows: List[Tuple[Tuple[Symbol, int, int, bool], ...]] = []
            largest = 0
            for state in range(self.num_states):
                base = state * width
                row = tuple(
                    (symbols[column], target, distances[target], target in final)
                    for column in range(width)
                    if (target := flat[base + column]) >= 0 and distances[target] >= 0
                )
                for entry in row:
                    if entry[2] > largest:
                        largest = entry[2]
                rows.append(row)
            self._enum_rows = (tuple(rows), largest)
        return self._enum_rows

    def _enumeration_rows_for_budget(self, budget: int) -> Tuple:
        """Rows with the out-of-reach-within-*budget* entries already dropped.

        Entries shrink to ``(symbol, target, target is final)``: the distance
        comparison moves out of the frontier loop entirely.  Variants are
        cached per budget, capped at the largest finite distance.
        """
        rows, largest = self._enumeration_rows()
        key = budget if budget < largest else largest
        variant = self._enum_variants.get(key)
        if variant is None:
            variant = tuple(
                tuple(
                    (symbol, target, is_final)
                    for symbol, target, remaining, is_final in row
                    if remaining <= key
                )
                for row in rows
            )
            self._enum_variants[key] = variant
        return variant

    def enumerate_words(
        self, max_length: int = 12, max_words: int = 10_000
    ) -> Iterator[Tuple[Symbol, ...]]:
        """Enumerate accepted words by non-decreasing length, canonical order.

        Determinism makes duplicates impossible by construction — every word
        has exactly one run — so, unlike the NFA enumerator, no seen-set is
        needed.  Runs over the precomputed dense enumeration rows, with the
        distance-to-final budget pruning baked into per-budget row variants
        (word set and order identical to :meth:`_enumerate_words_dictwalk`,
        the historical implementation kept as the benchmark/property-test
        reference).  Intended for language inspection and tests; the solvers
        keep enumerating over the NFA, whose pumped normal form is the
        completeness bound (see ``docs/ARCHITECTURE.md``).
        """
        if max_words <= 0:
            return
        emitted = 0
        if self.initial in self.final:
            emitted += 1
            yield ()
            if emitted >= max_words:
                return
        frontier: List[Tuple[int, Tuple[Symbol, ...]]] = [(self.initial, ())]
        length = 0
        while frontier and length < max_length and emitted < max_words:
            length += 1
            budget = max_length - length
            rows = self._enumeration_rows_for_budget(budget)
            if budget:
                next_frontier: List[Tuple[int, Tuple[Symbol, ...]]] = []
                append = next_frontier.append
                for state, word in frontier:
                    for symbol, target, is_final in rows[state]:
                        extended = word + (symbol,)
                        if is_final:
                            emitted += 1
                            yield extended
                            if emitted >= max_words:
                                return
                        append((target, extended))
                frontier = next_frontier
            else:
                # the final level: the budget-0 rows keep only direct steps
                # into acceptance, and nothing is extended afterwards, so no
                # frontier is built
                for state, word in frontier:
                    for symbol, _, _ in rows[state]:
                        emitted += 1
                        yield word + (symbol,)
                        if emitted >= max_words:
                            return
                return

    def _enumerate_words_dictwalk(
        self, max_length: int = 12, max_words: int = 10_000
    ) -> Iterator[Tuple[Symbol, ...]]:
        """The historical dict-walk enumeration, kept verbatim.

        :meth:`enumerate_words` must stay word-for-word identical to this;
        the kernel benchmarks price the two against each other and the
        property tests assert equality over generated corpora.
        """
        if max_words <= 0:
            return
        sort_key = self.table.sort_key
        emitted = 0
        if self.accepts_epsilon():
            emitted += 1
            yield ()
            if emitted >= max_words:
                return
        # distance from each state to the nearest final state (reverse BFS):
        # a path is only extended while it can still reach acceptance within
        # the length budget, so search work tracks the emitted words instead
        # of every path of the (possibly exponential) unpruned tree
        predecessors: Dict[int, List[int]] = {}
        for source, _, target in self.transitions():
            predecessors.setdefault(target, []).append(source)
        to_final: Dict[int, int] = {state: 0 for state in self.final}
        wave = list(self.final)
        distance = 0
        while wave:
            distance += 1
            next_wave: List[int] = []
            for state in wave:
                for source in predecessors.get(state, ()):
                    if source not in to_final:
                        to_final[source] = distance
                        next_wave.append(source)
            wave = next_wave
        delta = self._delta
        frontier: List[Tuple[int, Tuple[Symbol, ...]]] = [(self.initial, ())]
        length = 0
        while frontier and length < max_length and emitted < max_words:
            length += 1
            budget = max_length - length
            next_frontier: List[Tuple[int, Tuple[Symbol, ...]]] = []
            for state, word in frontier:
                row = delta[state]
                for symbol_id in sorted(row, key=sort_key):
                    target = row[symbol_id]
                    remaining = to_final.get(target)
                    if remaining is None or remaining > budget:
                        continue  # acceptance is out of reach down this path
                    extended = word + (self.table.symbol(symbol_id),)
                    if target in self.final:
                        emitted += 1
                        yield extended
                        if emitted >= max_words:
                            return
                    if remaining == 0 and budget == 0:
                        continue
                    next_frontier.append((target, extended))
            frontier = next_frontier

    # ------------------------------------------------------------------ #
    # boolean operations
    # ------------------------------------------------------------------ #
    def complement(self, alphabet_ids: Optional[Iterable[int]] = None) -> "DFA":
        """The automaton for the complement language over *alphabet_ids*.

        Complement is alphabet-relative; the default is this automaton's own
        alphabet.  The result is total over the chosen alphabet (the sink
        becomes an explicit, accepting state).
        """
        alphabet = tuple(alphabet_ids) if alphabet_ids is not None else self.alphabet_ids()
        sink = self.num_states
        transitions: List[Tuple[int, int, int]] = []
        for state in range(self.num_states):
            row = self._delta[state]
            for symbol_id in alphabet:
                transitions.append((state, symbol_id, row.get(symbol_id, sink)))
        for symbol_id in alphabet:
            transitions.append((sink, symbol_id, sink))
        final = [state for state in range(self.num_states + 1) if state not in self.final]
        return DFA(self.table, self.num_states + 1, self.initial, final, transitions)

    def product(self, other: "DFA", mode: str = "intersection") -> "DFA":
        """The product automaton for intersection or union of the languages.

        Both operands must share a symbol table.  Only the reachable part of
        the product is built, by BFS over the operands' dense tables (the
        pair numbering is identical to the historical dict-walk discovery —
        the joint alphabet is swept in canonical order either way).  For
        ``union`` the operands are implicitly totalised over the joint
        alphabet (the missing-transition sink of one side must not kill the
        other side's acceptance).
        """
        if other.table is not self.table:
            raise ValueError("product requires both automata to share one symbol table")
        if mode not in ("intersection", "union"):
            raise ValueError(f"unknown product mode {mode!r}")
        left_dense = self.dense()
        right_dense = other.dense()
        alphabet = tuple(
            sorted(set(left_dense.alphabet) | set(right_dense.alphabet), key=self.table.sort_key)
        )
        # per joint symbol: its column in each operand (-1 = never read there)
        columns = [
            (symbol_id, left_dense.column(symbol_id), right_dense.column(symbol_id))
            for symbol_id in alphabet
        ]
        left_table, left_width = left_dense.table, left_dense.width
        right_table, right_width = right_dense.table, right_dense.width

        def accepting(left: Optional[int], right: Optional[int]) -> bool:
            in_left = left in self.final
            in_right = right in other.final
            return (in_left and in_right) if mode == "intersection" else (in_left or in_right)

        intersection = mode == "intersection"
        start = (self.initial, other.initial)
        numbering: Dict[Tuple[Optional[int], Optional[int]], int] = {start: 0}
        order: List[Tuple[Optional[int], Optional[int]]] = [start]
        transitions: List[Tuple[int, int, int]] = []
        index = 0
        while index < len(order):
            left, right = order[index]
            for symbol_id, left_column, right_column in columns:
                next_left: Optional[int] = None
                if left is not None and left_column >= 0:
                    stepped = left_table[left * left_width + left_column]
                    if stepped >= 0:
                        next_left = stepped
                next_right: Optional[int] = None
                if right is not None and right_column >= 0:
                    stepped = right_table[right * right_width + right_column]
                    if stepped >= 0:
                        next_right = stepped
                if intersection and (next_left is None or next_right is None):
                    continue
                if next_left is None and next_right is None:
                    continue
                pair = (next_left, next_right)
                target = numbering.get(pair)
                if target is None:
                    target = len(order)
                    numbering[pair] = target
                    order.append(pair)
                transitions.append((index, symbol_id, target))
            index += 1
        final = [numbering[pair] for pair in order if accepting(*pair)]
        return DFA(self.table, len(order), 0, final, transitions)

    def equivalent(self, other: "DFA") -> bool:
        """Language equality, decided via symmetric-difference emptiness."""
        alphabet = tuple(
            sorted(set(self.alphabet_ids()) | set(other.alphabet_ids()), key=self.table.sort_key)
        )
        return (
            self.product(other.complement(alphabet), "intersection").is_empty()
            and other.product(self.complement(alphabet), "intersection").is_empty()
        )

    # ------------------------------------------------------------------ #
    # canonicalisation
    # ------------------------------------------------------------------ #
    def trim(self) -> "DFA":
        """Restrict to states on some initial → final path (initial kept).

        Reachability and productivity come from the dense kernels (forward
        sweep + the memoized reverse distance table); the surviving rows are
        copied straight into the trimmed automaton's dense table — states
        keep their relative numbering and columns that lost every transition
        are dropped, exactly what rebuilding from the surviving transition
        triples produced.
        """
        dense = self.dense()
        distances = dense.distance_to_final()
        useful = {state for state in dense.reachable() if distances[state] >= 0}
        useful.add(self.initial)
        kept = sorted(useful)
        renumber = {state: index for index, state in enumerate(kept)}
        alphabet, width, flat = dense.alphabet, dense.width, dense.table
        trimmed_flat = array("i", [-1]) * (len(kept) * width) if width else array("i")
        used_columns = set()
        for index, state in enumerate(kept):
            base = state * width
            target_base = index * width
            for column in range(width):
                target = flat[base + column]
                if target >= 0 and (renumbered := renumber.get(target)) is not None:
                    trimmed_flat[target_base + column] = renumbered
                    used_columns.add(column)
        if len(used_columns) != width:
            keep_columns = sorted(used_columns)
            narrow = array("i", [-1]) * (len(kept) * len(keep_columns))
            for index in range(len(kept)):
                base = index * width
                target_base = index * len(keep_columns)
                for narrow_column, column in enumerate(keep_columns):
                    narrow[target_base + narrow_column] = trimmed_flat[base + column]
            trimmed_flat = narrow
            alphabet = tuple(alphabet[column] for column in keep_columns)
        trimmed = DenseDFA(
            len(kept),
            renumber[self.initial],
            [renumber[state] for state in self.final if state in useful],
            alphabet,
            trimmed_flat,
        )
        return DFA.from_dense(self.table, trimmed)

    def minimize(self) -> "DFA":
        """The minimal trimmed DFA for the language (Moore partition refinement).

        The implicit dead sink is one block throughout, so the input need not
        be total; the result is again partial (dead transitions dropped) with
        states renumbered in canonical BFS order from the initial state.
        Refinement signatures are read off the trimmed automaton's dense rows
        — the column order is the canonical alphabet order the dict walk
        sorted into, so the partition and the final numbering are unchanged.
        """
        trimmed = self.trim()
        dense = trimmed.dense()
        alphabet, width, flat = dense.alphabet, dense.width, dense.table
        num_states = trimmed.num_states
        # initial partition: final vs non-final (the sink lives in class _DEAD)
        classes = [1 if state in trimmed.final else 0 for state in range(num_states)]
        while True:
            signatures: Dict[Tuple, int] = {}
            next_classes = [0] * num_states
            # list[-1] is the appended sentinel, so the dense table's -1 dead
            # marker indexes straight to _DEAD and the whole row signature is
            # one C-level map over the row slice
            lookup = classes + [_DEAD]
            for state in range(num_states):
                base = state * width
                signature = (
                    classes[state],
                    tuple(map(lookup.__getitem__, flat[base : base + width])),
                )
                block = signatures.setdefault(signature, len(signatures))
                next_classes[state] = block
            if next_classes == classes:
                break
            classes = next_classes

        # canonical numbering: BFS from the initial class in symbol-key order
        representative: Dict[int, int] = {}
        for state in range(num_states):
            representative.setdefault(classes[state], state)
        block_count = len(representative)
        minimal_flat = array("i", [-1]) * (block_count * width) if width else array("i")
        numbering = {classes[trimmed.initial]: 0}
        order = [classes[trimmed.initial]]
        index = 0
        while index < len(order):
            base = representative[order[index]] * width
            target_base = index * width
            for column in range(width):
                target_state = flat[base + column]
                if target_state < 0:
                    continue
                target_block = classes[target_state]
                target = numbering.get(target_block)
                if target is None:
                    target = len(order)
                    numbering[target_block] = target
                    order.append(target_block)
                minimal_flat[target_base + column] = target
            index += 1
        final = {
            numbering[classes[state]]
            for state in trimmed.final
            if classes[state] in numbering
        }
        minimal = DenseDFA(len(order), 0, final, alphabet, minimal_flat)
        return DFA.from_dense(self.table, minimal)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DFA(states={self.num_states}, final={sorted(self.final)}, "
            f"transitions={self.transition_count()})"
        )


# --------------------------------------------------------------------------- #
# NFA → DFA
# --------------------------------------------------------------------------- #
def determinize(nfa, table: Optional[SymbolTable] = None) -> DFA:
    """Subset-construct a :class:`DFA` from an ε-free NFA.

    Only reachable subsets are materialised, discovered in BFS order with
    symbols iterated by canonical key — the resulting state numbering is a
    pure function of the NFA, identical in every process.  The search runs
    on the int-bitset kernel (:func:`repro.core.kernels.subset_construct`);
    subset masks and frozensets are in bijection and both searches expand
    identical frontiers in identical order, so the numbering is the one the
    frozenset construction produced.  Inputs without the full NFA surface
    (``states``/``transitions``) fall back to the frozenset walk.
    """
    # explicit None check: a fresh (empty) SymbolTable is falsy via __len__
    if table is None:
        table = symbol_table()
    alphabet: List[Tuple[str, Symbol, int]] = []
    for symbol in nfa.alphabet():
        symbol_id = table.intern(symbol)
        alphabet.append((table.sort_key(symbol_id), symbol, symbol_id))
    alphabet.sort(key=lambda entry: entry[0])

    states = getattr(nfa, "states", None)
    if states is None or not hasattr(nfa, "transitions"):
        return _determinize_setwalk(nfa, table, alphabet)

    state_list = sorted(states)
    index_of = {state: position for position, state in enumerate(state_list)}
    column_of = {symbol: column for column, (_, symbol, _) in enumerate(alphabet)}
    moves: List[List[int]] = [[0] * len(state_list) for _ in alphabet]
    for source, symbol, target in nfa.transitions():
        moves[column_of[symbol]][index_of[source]] |= 1 << index_of[target]
    initial_mask = 0
    for state in nfa.initial:
        initial_mask |= 1 << index_of[state]
    final_mask = 0
    for state in nfa.final:
        final_mask |= 1 << index_of[state]
    num_states, triples, final_states = subset_construct(initial_mask, final_mask, moves)
    # straight to the dense execution form: the construction is deterministic
    # by definition, so no dict-row validation pass is needed.  Only columns
    # that actually label a transition are kept — that is exactly the
    # ``alphabet_ids()`` the triple-built DFA would have reported.
    used = sorted({column for _, column, _ in triples})
    width = len(used)
    flat = array("i", [-1]) * (num_states * width) if width else array("i")
    if width == len(alphabet):
        for source, column, target in triples:
            flat[source * width + column] = target
    else:
        remap = {column: narrow for narrow, column in enumerate(used)}
        for source, column, target in triples:
            flat[source * width + remap[column]] = target
    dense = DenseDFA(
        num_states, 0, final_states, tuple(alphabet[column][2] for column in used), flat
    )
    return DFA.from_dense(table, dense)


def _determinize_setwalk(
    nfa, table: SymbolTable, alphabet: List[Tuple[str, Symbol, int]]
) -> DFA:
    """The frozenset subset construction, for duck-typed NFA stand-ins."""
    start = frozenset(nfa.initial)
    numbering: Dict[FrozenSet[int], int] = {start: 0}
    order: List[FrozenSet[int]] = [start]
    transitions: List[Tuple[int, int, int]] = []
    index = 0
    while index < len(order):
        subset = order[index]
        for _, symbol, symbol_id in alphabet:
            successor = nfa.step(subset, symbol)
            if not successor:
                continue
            target = numbering.get(successor)
            if target is None:
                target = len(order)
                numbering[successor] = target
                order.append(successor)
            transitions.append((index, symbol_id, target))
        index += 1
    final = [numbering[subset] for subset in order if subset & nfa.final]
    return DFA(table, len(order), 0, final, transitions)
