"""Two-way regular expressions over node labels Γ and signed edge labels Σ±.

The grammar is the one from Section 3 / Appendix A of the paper::

    φ ::= ∅ | ε | A | R | φ·φ | φ+φ | φ*

where ``A ∈ Γ`` matches a node (the path stays in place and checks the node
label) and ``R ∈ Σ±`` matches an edge traversed forwards or backwards.  The
one-or-more operator ``φ⁺`` is provided as syntactic sugar for ``φ·φ*``.

Expressions are immutable and hashable; the module also implements the
*reversal* operation ``φ⁻`` used by the paper's nesting device (Appendix F).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Sequence, Tuple, Union

from ..exceptions import QueryError
from ..graph.labels import SignedLabel

__all__ = [
    "Regex",
    "EmptyLanguage",
    "Epsilon",
    "NodeTest",
    "EdgeStep",
    "Concat",
    "Union",
    "Star",
    "EMPTY",
    "EPSILON",
    "node",
    "edge",
    "concat",
    "union",
    "star",
    "plus",
    "optional",
    "word",
    "Symbol",
    "canonical_token",
    "fold",
]

# A symbol of the underlying alphabet: either a node-label test or an edge step.
Symbol = Union["NodeTest", "EdgeStep"]


class Regex:
    """Base class of two-way regular expressions.

    Every traversal of a tree — hashing, equality, the canonical token,
    reversal, printing, pickling, the structural helpers and the Thompson
    builder of :mod:`repro.rpq.automaton` — runs on an explicit stack, so
    the left-nested trees that the parser and :func:`union` build for wide
    unions and long concatenations work at any depth, in this process and
    across a pickle.
    """

    #: the dataclass field names, in declaration order (read by hashing and
    #: equality instead of ``dataclasses.fields()``)
    _fields: Tuple[str, ...] = ()

    # -- structural helpers -------------------------------------------------
    def children(self) -> Tuple["Regex", ...]:
        """Direct sub-expressions."""
        return ()

    def node_labels(self) -> FrozenSet[str]:
        """Node labels from Γ mentioned in the expression."""
        return frozenset(symbol.label for symbol in self.symbols() if isinstance(symbol, NodeTest))

    def edge_labels(self) -> FrozenSet[str]:
        """Base edge labels from Σ mentioned in the expression."""
        return frozenset(
            symbol.signed.label for symbol in self.symbols() if isinstance(symbol, EdgeStep)
        )

    def symbols(self) -> Iterator[Symbol]:
        """Iterate over the alphabet symbols occurring in the expression,
        left to right."""
        stack: List[Regex] = [self]
        while stack:
            expr = stack.pop()
            if isinstance(expr, (NodeTest, EdgeStep)):
                yield expr
            else:
                stack.extend(reversed(expr.children()))

    def size(self) -> int:
        """Number of AST nodes (used by complexity-oriented benchmarks)."""
        count = 0
        stack: List[Regex] = [self]
        while stack:
            count += 1
            stack.extend(stack.pop().children())
        return count

    def reverse(self) -> "Regex":
        """The reversed expression φ⁻ (Appendix F): words read right-to-left
        with every edge step inverted.

        Cached on the (frozen) instance, like the structural hash: the
        roll-up reverses the same atoms on every containment test, and the
        cached tree also keeps its own cached hash for the compile memo.
        """
        cached = self.__dict__.get("_reversed")
        if cached is None:
            cached = fold(self, _reverse_node)
            if cached is not self:  # ∅, ε and node tests reverse to themselves
                object.__setattr__(self, "_reversed", cached)
        return cached

    def nullable(self) -> bool:
        """``True`` when ε belongs to the language."""
        return fold(self, _nullable_node)

    def is_empty_language(self) -> bool:
        """``True`` when the language is syntactically guaranteed to be empty."""
        return fold(self, _empty_node)

    # -- operator sugar ------------------------------------------------------
    def __mul__(self, other: "Regex") -> "Regex":
        return concat(self, other)

    def __add__(self, other: "Regex") -> "Regex":
        return union(self, other)

    # -- hashing, equality and serialisation ---------------------------------
    # Expressions are used as cache keys throughout (the compile memo of
    # repro.core), so hashing a deep tree must not recurse on every lookup.
    # The structural hash is computed once per node and cached on the
    # (frozen) instance; a node's hash mixes its children's cached hashes, so
    # the cost is O(size) on first use and O(1) afterwards.  Equality is
    # structural: same classes and equal fields, node by node.
    def __hash__(self) -> int:
        cached = self.__dict__.get("_structural_hash")
        if cached is None:
            _hash_tree(self)
            cached = self.__dict__["_structural_hash"]
        return cached

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        pending = [(self, other)]
        while pending:
            left, right = pending.pop()
            for name in left._fields:
                mine, theirs = getattr(left, name), getattr(right, name)
                if mine is theirs:
                    continue
                if isinstance(mine, Regex):
                    if mine.__class__ is not theirs.__class__:
                        return False
                    pending.append((mine, theirs))
                elif mine != theirs:
                    return False
        return True

    def __str__(self) -> str:
        return fold(self, _text_node)

    def __repr__(self) -> str:
        return fold(self, _repr_node)

    def __reduce__(self):
        # a flat program instead of the pickler's recursion into the tree;
        # it carries the fields only, so the caches (the hash mixes seeded
        # per-process str hashes) never travel and unpickled copies
        # recompute them locally
        return (_from_program, (_to_program(self),))


def fold(expr: Regex, combine: Callable[[Regex, Sequence[Any]], Any]) -> Any:
    """Evaluate *expr* bottom-up without recursion.

    ``combine(node, values)`` receives a node and the values of its
    children, left to right, and returns the node's value.  Nodes are
    combined in post-order (children left to right, then the node), the
    order a recursive evaluation would visit them in: the walk lists the
    nodes parent first, right subtree before left, and combines that list
    backwards.
    """
    order: List[Tuple[Regex, Tuple[Regex, ...]]] = []
    stack: List[Regex] = [expr]
    while stack:
        node = stack.pop()
        children = node.children()
        order.append((node, children))
        stack.extend(children)
    values: List[Any] = []
    for node, children in reversed(order):
        if children:
            arity = len(children)
            arguments = values[-arity:]
            del values[-arity:]
            values.append(combine(node, arguments))
        else:
            values.append(combine(node, ()))
    return values[0]


def _hash_tree(expr: Regex) -> None:
    """Cache the structural hash on every node of *expr* that lacks one.

    Nodes are hashed in reverse pre-order, children before parents, so each
    node's hash reads its children's cached ones."""
    pending: List[Regex] = []
    stack: List[Regex] = [expr]
    while stack:
        node = stack.pop()
        if "_structural_hash" not in node.__dict__:
            pending.append(node)
            stack.extend(node.children())
    for node in reversed(pending):
        values = tuple([getattr(node, name) for name in node._fields])
        object.__setattr__(node, "_structural_hash", hash((type(node).__name__, values)))


def _reverse_node(expr: Regex, children: Sequence[Regex]) -> Regex:
    if isinstance(expr, EdgeStep):
        return EdgeStep(expr.signed.inverse())
    if isinstance(expr, Concat):
        return Concat(children[1], children[0])
    if isinstance(expr, Union):
        return Union(children[0], children[1])
    if isinstance(expr, Star):
        return Star(children[0])
    return expr  # ∅, ε and node tests read the same both ways


def _nullable_node(expr: Regex, children: Sequence[bool]) -> bool:
    if isinstance(expr, Concat):
        return children[0] and children[1]
    if isinstance(expr, Union):
        return children[0] or children[1]
    return isinstance(expr, (Epsilon, Star))


def _empty_node(expr: Regex, children: Sequence[bool]) -> bool:
    if isinstance(expr, Concat):
        return children[0] or children[1]
    if isinstance(expr, Union):
        return children[0] and children[1]
    return isinstance(expr, EmptyLanguage)


def _text_node(expr: Regex, children: Sequence[str]) -> str:
    if isinstance(expr, Concat):
        left = _wrap(expr.left, children[0], Union)
        right = _wrap(expr.right, children[1], Union)
        return f"{left} . {right}"
    if isinstance(expr, Union):
        return f"{children[0]} + {children[1]}"
    if isinstance(expr, Star):
        return f"{_wrap(expr.inner, children[0], (Union, Concat))}*"
    if isinstance(expr, EmptyLanguage):
        return "<empty>"
    if isinstance(expr, Epsilon):
        return "<eps>"
    if isinstance(expr, NodeTest):
        return expr.label
    return str(expr.signed)


def _wrap(expr: Regex, text: str, kinds) -> str:
    """Parenthesise sub-expressions of looser precedence when printing."""
    if isinstance(expr, kinds):
        return f"({text})"
    return text


def _repr_node(expr: Regex, children: Sequence[str]) -> str:
    """The dataclass ``repr``, one node at a time."""
    if children:
        values = children
    else:
        values = [repr(getattr(expr, name)) for name in expr._fields]
    fields = ", ".join(f"{name}={value}" for name, value in zip(expr._fields, values))
    return f"{type(expr).__qualname__}({fields})"


def _to_program(expr: Regex) -> Tuple[tuple, ...]:
    """*expr* as a post-order program over its distinct nodes.

    Each instruction is ``(class, *fields)`` for a leaf and ``(class,
    *child positions)`` for an inner node; a subtree shared by several
    parents is listed once, so the program is no larger than the tree.
    """
    position: Dict[int, int] = {}
    program: List[tuple] = []
    stack: List[Any] = [expr]  # nodes to visit, and 1-tuples of nodes to emit
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:
            node = node[0]
            if id(node) not in position:
                position[id(node)] = len(program)
                program.append((node.__class__, *[position[id(c)] for c in node.children()]))
        elif id(node) not in position:
            children = node.children()
            if children:
                stack.append((node,))
                stack.extend(children[::-1])
            else:
                position[id(node)] = len(program)
                program.append((node.__class__, *[getattr(node, n) for n in node._fields]))
    return tuple(program)


def _from_program(program: Sequence[tuple]) -> Regex:
    """Rebuild the tree a :func:`_to_program` program describes."""
    built: List[Regex] = []
    for instruction in program:
        cls = instruction[0]
        node = object.__new__(cls)
        state = node.__dict__
        if cls is Concat or cls is Union:
            state["left"] = built[instruction[1]]
            state["right"] = built[instruction[2]]
        elif cls is Star:
            state["inner"] = built[instruction[1]]
        elif cls._fields:
            state[cls._fields[0]] = instruction[1]
        built.append(node)
    return built[-1]


@dataclass(frozen=True, eq=False, repr=False)
class EmptyLanguage(Regex):
    """``∅`` — matches no path at all."""


@dataclass(frozen=True, eq=False, repr=False)
class Epsilon(Regex):
    """``ε`` — matches the empty path (any node to itself)."""


@dataclass(frozen=True, eq=False, repr=False)
class NodeTest(Regex):
    """``A`` — matches an empty path whose (single) node carries label ``A``."""

    _fields = ("label",)

    label: str

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise QueryError(f"invalid node label in regex: {self.label!r}")


@dataclass(frozen=True, eq=False, repr=False)
class EdgeStep(Regex):
    """``R`` for ``R ∈ Σ±`` — traverses one edge, forwards or backwards."""

    _fields = ("signed",)

    signed: SignedLabel

    def __post_init__(self) -> None:
        if not isinstance(self.signed, SignedLabel):
            raise QueryError(f"EdgeStep expects a SignedLabel, got {self.signed!r}")


@dataclass(frozen=True, eq=False, repr=False)
class Concat(Regex):
    """``φ·ψ`` — concatenation of paths."""

    _fields = ("left", "right")

    left: Regex
    right: Regex

    def children(self) -> Tuple[Regex, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, eq=False, repr=False)
class Union(Regex):
    """``φ+ψ`` — union of languages."""

    _fields = ("left", "right")

    left: Regex
    right: Regex

    def children(self) -> Tuple[Regex, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, eq=False, repr=False)
class Star(Regex):
    """``φ*`` — zero or more repetitions."""

    _fields = ("inner",)

    inner: Regex

    def children(self) -> Tuple[Regex, ...]:
        return (self.inner,)


def canonical_token(expr: Regex) -> str:
    """An injective textual serialisation of the expression's structure.

    Used as the regex component of the canonical fingerprints that key the
    :mod:`repro.engine` caches (see docs/ARCHITECTURE.md, "Cache keys").
    Labels are length-prefixed, so the encoding stays injective whatever
    characters a label contains.  The token is written in one pre-order
    pass, reusing the token of any subtree that already has one, and cached
    on the (frozen) instance, like the structural hash.
    """
    cached = expr.__dict__.get("_canonical_token")
    if cached is None:
        parts: List[str] = []
        stack: List[Any] = [expr]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            known = item.__dict__.get("_canonical_token")
            if known is not None:
                parts.append(known)
            elif isinstance(item, EmptyLanguage):
                parts.append("0")
            elif isinstance(item, Epsilon):
                parts.append("e")
            elif isinstance(item, NodeTest):
                parts.append(f"n{len(item.label)}:{item.label}")
            elif isinstance(item, EdgeStep):
                text = str(item.signed)
                parts.append(f"r{len(text)}:{text}")
            elif isinstance(item, (Concat, Union)):
                parts.append("(." if isinstance(item, Concat) else "(+")
                stack.extend((")", item.right, " ", item.left))
            elif isinstance(item, Star):
                parts.append("(*")
                stack.extend((")", item.inner))
            else:  # pragma: no cover
                raise TypeError(f"unknown regex node: {item!r}")
        cached = "".join(parts)
        object.__setattr__(expr, "_canonical_token", cached)
    return cached


# --------------------------------------------------------------------------- #
# convenience constructors
# --------------------------------------------------------------------------- #
EMPTY = EmptyLanguage()
EPSILON = Epsilon()


def node(label: str) -> NodeTest:
    """Node-label test ``A``."""
    return NodeTest(label)


def edge(label: Union[str, SignedLabel]) -> EdgeStep:
    """Edge step ``r`` / ``r⁻`` (``"r-"`` in textual form)."""
    if isinstance(label, str):
        label = SignedLabel.parse(label)
    return EdgeStep(label)


def concat(*parts: Regex) -> Regex:
    """Concatenation of any number of expressions (ε for the empty product)."""
    result: Regex = EPSILON
    first = True
    for part in parts:
        result = part if first else Concat(result, part)
        first = False
    return result


def union(*parts: Regex) -> Regex:
    """Union of any number of expressions (∅ for the empty sum)."""
    result: Regex = EMPTY
    first = True
    for part in parts:
        result = part if first else Union(result, part)
        first = False
    return result


def star(inner: Regex) -> Regex:
    """Kleene star ``φ*``."""
    return Star(inner)


def plus(inner: Regex) -> Regex:
    """One-or-more ``φ⁺``, desugared to ``φ·φ*``."""
    return Concat(inner, Star(inner))


def optional(inner: Regex) -> Regex:
    """Zero-or-one ``φ?``, desugared to ``φ+ε``."""
    return Union(inner, EPSILON)


def word(*steps: Union[str, SignedLabel, Regex]) -> Regex:
    """Build the concatenation of atomic steps given in compact textual form.

    Strings starting with an upper-case letter are treated as node labels;
    anything else as (possibly inverse) edge labels — which matches the
    notational convention of the paper.  ``Regex`` arguments pass through.
    """
    parts = []
    for step in steps:
        if isinstance(step, Regex):
            parts.append(step)
        elif isinstance(step, SignedLabel):
            parts.append(EdgeStep(step))
        elif isinstance(step, str) and step[:1].isupper():
            parts.append(NodeTest(step))
        else:
            parts.append(edge(step))
    return concat(*parts)
