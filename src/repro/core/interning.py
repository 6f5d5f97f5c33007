"""Interned alphabet symbols: signed role labels and concept names as small ints.

The compiled-automaton core (:mod:`repro.core.dfa`) works over dense integer
symbol ids rather than the :class:`~repro.rpq.regex.NodeTest` /
:class:`~repro.rpq.regex.EdgeStep` objects themselves: transition tables
become plain ``dict[int, int]`` maps, product and subset constructions hash
machine ints instead of dataclasses, and a compiled automaton can be
rebuilt in a worker process from nothing but its regex (symbols re-intern
deterministically on arrival).

A :class:`SymbolTable` is a bidirectional intern table.  Ids are assigned in
arrival order — they are *per-table* handles, never serialised — while the
*canonical key* of a symbol (its length-prefixed
:func:`~repro.rpq.regex.canonical_token`) is process-independent and is what
every deterministic iteration order in the core sorts by.

Tables are scoped: :func:`symbol_table` returns one shared table per context
string — callers use the schema's canonical fingerprint, so every automaton
compiled for one schema shares one small table — and the process-wide
default table for context ``None``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..rpq.regex import Symbol, canonical_token

__all__ = ["SymbolTable", "adopt_context", "symbol_table"]


class SymbolTable:
    """A bidirectional intern table mapping alphabet symbols to dense ints.

    Thread-safe; ids are assigned in first-arrival order and never reused.
    Symbols are the regex alphabet letters (node-label tests and signed edge
    steps), compared structurally.
    """

    def __init__(self, context: Optional[str] = None) -> None:
        self.context = context
        self._lock = threading.Lock()
        self._ids: Dict[Symbol, int] = {}
        self._symbols: List[Symbol] = []
        self._keys: List[str] = []

    # ------------------------------------------------------------------ #
    def intern(self, symbol: Symbol) -> int:
        """The id of *symbol*, interning it on first sight."""
        existing = self._ids.get(symbol)
        if existing is not None:
            return existing
        with self._lock:
            existing = self._ids.get(symbol)
            if existing is not None:
                return existing
            symbol_id = len(self._symbols)
            # publish into _ids LAST: lock-free readers (the fast path above,
            # known()) take an id from _ids and immediately index _symbols /
            # _keys, so those lists must be complete before the id is visible
            self._symbols.append(symbol)
            self._keys.append(canonical_token(symbol))
            self._ids[symbol] = symbol_id
            return symbol_id

    def known(self, symbol: Symbol) -> Optional[int]:
        """The id of *symbol* if already interned, else ``None`` (no interning)."""
        return self._ids.get(symbol)

    def symbol(self, symbol_id: int) -> Symbol:
        """The symbol behind *symbol_id* (``IndexError`` for unknown ids)."""
        return self._symbols[symbol_id]

    def sort_key(self, symbol_id: int) -> str:
        """The process-independent canonical key of the symbol behind the id.

        Every deterministic iteration in the core (subset construction,
        shortest-witness tie-breaks, word enumeration) orders symbols by this
        key, never by the arrival-order id.
        """
        return self._keys[symbol_id]

    def intern_word(self, word: Iterable[Symbol]) -> Tuple[int, ...]:
        """Intern every symbol of *word*; returns the id tuple."""
        return tuple(self.intern(symbol) for symbol in word)

    def word(self, ids: Sequence[int]) -> Tuple[Symbol, ...]:
        """Map an id tuple back to symbols."""
        return tuple(self._symbols[symbol_id] for symbol_id in ids)

    def __len__(self) -> int:
        return len(self._symbols)

    def __contains__(self, symbol: Symbol) -> bool:
        return symbol in self._ids

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        scope = self.context or "default"
        return f"SymbolTable({scope!r}, {len(self._symbols)} symbols)"


# --------------------------------------------------------------------------- #
# the per-context registry
# --------------------------------------------------------------------------- #
_REGISTRY_LIMIT = 256

_registry_lock = threading.Lock()
_default_table = SymbolTable()
_tables: "OrderedDict[str, SymbolTable]" = OrderedDict()


def symbol_table(context: Optional[str] = None) -> SymbolTable:
    """The shared :class:`SymbolTable` for *context* (one per schema fingerprint).

    ``None`` returns the process-wide default table.  The registry is bounded
    (least-recently-requested contexts are dropped once more than
    ``256`` are live).  Dropping a table never corrupts existing automata —
    they pin the table they were compiled against, and a re-request starts a
    fresh one — but automata compiled for the same context *across* an
    eviction hold different table objects, so cross-automaton operations
    (``DFA.product`` / ``DFA.equivalent``) between them raise rather than
    mix ids.  A long-running process cycling through more than ``256``
    schemas recovers by calling :func:`repro.core.clear_compile_memo` and
    recompiling both sides — the compile memo would otherwise keep serving
    the bundle pinned to the evicted table.
    """
    if context is None:
        return _default_table
    with _registry_lock:
        table = _tables.get(context)
        if table is None:
            table = SymbolTable(context)
            _tables[context] = table
        else:
            _tables.move_to_end(context)
        while len(_tables) > _REGISTRY_LIMIT:
            _tables.popitem(last=False)
        return table


def adopt_context(old_context: str, new_context: str) -> Optional[SymbolTable]:
    """Alias *old_context*'s table under *new_context* too; returns the table.

    The schema-evolution path (:meth:`repro.engine.ContainmentEngine.evolve`)
    uses this so automata migrated between fingerprint namespaces keep
    sharing one table *object* — ``DFA.product`` / ``DFA.equivalent`` compare
    ids and refuse to mix tables, so a migrated bundle and a freshly
    compiled one must intern into the same table.  Ids never enter any
    fingerprint (every deterministic order sorts by canonical key), so a
    shared table cannot change verdicts.

    Returns ``None`` without touching the registry when adoption is unsafe:
    the old context's table was never created (or was evicted), or the new
    context already holds a *different, non-empty* table — callers treat
    ``None`` as "recompile from scratch".
    """
    with _registry_lock:
        table = _tables.get(old_context)
        if table is None:
            return None
        existing = _tables.get(new_context)
        if existing is not None and existing is not table and len(existing) > 0:
            return None
        _tables[new_context] = table
        _tables.move_to_end(new_context)
        while len(_tables) > _REGISTRY_LIMIT:
            _tables.popitem(last=False)
        return table
