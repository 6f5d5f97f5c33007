"""Schema deltas and the structured reports behind the evolution API.

A :class:`SchemaDelta` diffs two schemas at the axiom level — node/edge label
sets plus per-``(source, signed-role, target)`` multiplicity constraints,
with an undeclared constraint ≡ :data:`~repro.schema.schema.Multiplicity.ZERO`
(exactly the equivalence :meth:`Schema.canonical_token` uses, so
``delta.is_empty`` ⇔ equal canonical fingerprints).

:meth:`ContainmentEngine.evolve` uses the delta to decide which cached
artefacts survive a schema edit.  The classification is deliberately
conservative, and the reasoning is worth recording here because it is what
keeps post-evolve verdicts bit-identical to a cold start:

* the schema Horn encoding ``T̂_S`` is emitted over the schema's *full*
  domain (every node label × signed role × node label), so **any** semantic
  edit changes ``T̂_S``, hence every completed TBox fingerprint, hence every
  non-trivial ``result_fingerprint`` — those artefacts are always
  invalidated, never migrated;
* compiled automata and their pumped word enumerations depend only on the
  *query* regexes, so they are not filed under a schema at all (the
  process-wide :func:`repro.core.compile_regex` memo is keyed by regex) and
  need no migration — there is no automata tier to report;
* cached verdicts whose decision never consulted the schema (the empty-left
  short circuit: no TBox, no patterns, no witness) migrate too;
* a fingerprint-identical "edit" (rename, declaring an explicit ZERO) is
  trivial: every tier is kept in place and nothing is touched.

:class:`InvalidationReport` is the per-tier return value of
:meth:`ContainmentEngine.invalidate_schema`, and :class:`EvolveReport` is
:meth:`~ContainmentEngine.evolve`'s kept/invalidated/migrated accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional, Tuple

from ..schema.schema import Multiplicity, Schema

__all__ = [
    "ConstraintChange",
    "EvolveReport",
    "InvalidationReport",
    "REPORT_TIERS",
    "SchemaDelta",
]

#: The engine cache tiers an invalidation / evolution report accounts for.
REPORT_TIERS = ("results", "completions", "schema-tboxes")


@dataclass(frozen=True)
class ConstraintChange:
    """One edited multiplicity axiom: ``source --signed--> target`` old → new.

    ``old``/``new`` are multiplicity symbols (``"0"``, ``"1"``, ``"?"``,
    ``"+"``, ``"*"``); an undeclared constraint reads as ``"0"``.
    """

    source: str
    signed: str
    target: str
    old: str
    new: str

    def describe(self) -> str:
        return f"{self.source} -{self.signed}-> {self.target}: {self.old} → {self.new}"


@dataclass(frozen=True)
class SchemaDelta:
    """The axiom-level difference between two schemas.

    Build with :meth:`between`.  ``is_empty`` is ``True`` exactly when the
    canonical fingerprints agree — i.e. the edit was a rename or an
    explicitly-declared ZERO, both invisible to every cache key.
    """

    old_fingerprint: str
    new_fingerprint: str
    added_node_labels: FrozenSet[str] = frozenset()
    removed_node_labels: FrozenSet[str] = frozenset()
    added_edge_labels: FrozenSet[str] = frozenset()
    removed_edge_labels: FrozenSet[str] = frozenset()
    constraint_changes: Tuple[ConstraintChange, ...] = ()

    @classmethod
    def between(cls, old: Schema, new: Schema) -> "SchemaDelta":
        """Diff *old* → *new* over the union of their declared constraints.

        Constraints over labels that were added or removed wholesale are
        reported through the label sets, not repeated per axiom; the
        per-axiom list covers triples whose labels exist on both sides.
        """
        old_constraints = {
            (source, signed, target): mult
            for source, signed, target, mult in old.declared_constraints()
        }
        new_constraints = {
            (source, signed, target): mult
            for source, signed, target, mult in new.declared_constraints()
        }
        shared_nodes = old.node_labels & new.node_labels
        shared_edges = old.edge_labels & new.edge_labels
        changes = []
        for triple in sorted(set(old_constraints) | set(new_constraints), key=repr):
            source, signed, target = triple
            if (
                source not in shared_nodes
                or target not in shared_nodes
                or signed.label not in shared_edges
            ):
                # reported through the label sets, not per axiom
                continue
            before = old_constraints.get(triple, Multiplicity.ZERO)
            after = new_constraints.get(triple, Multiplicity.ZERO)
            if before is not after:
                changes.append(
                    ConstraintChange(source, str(signed), target, str(before), str(after))
                )
        return cls(
            old_fingerprint=old.canonical_fingerprint(),
            new_fingerprint=new.canonical_fingerprint(),
            added_node_labels=frozenset(new.node_labels - old.node_labels),
            removed_node_labels=frozenset(old.node_labels - new.node_labels),
            added_edge_labels=frozenset(new.edge_labels - old.edge_labels),
            removed_edge_labels=frozenset(old.edge_labels - new.edge_labels),
            constraint_changes=tuple(changes),
        )

    @property
    def is_empty(self) -> bool:
        """``True`` when the two schemas are semantically identical."""
        return self.old_fingerprint == self.new_fingerprint

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for ``/stats``, bench reports and logs."""
        return {
            "old_fingerprint": self.old_fingerprint,
            "new_fingerprint": self.new_fingerprint,
            "is_empty": self.is_empty,
            "added_node_labels": sorted(self.added_node_labels),
            "removed_node_labels": sorted(self.removed_node_labels),
            "added_edge_labels": sorted(self.added_edge_labels),
            "removed_edge_labels": sorted(self.removed_edge_labels),
            "constraint_changes": [change.describe() for change in self.constraint_changes],
        }

    def summary(self) -> str:
        """A short human-readable report."""
        if self.is_empty:
            return "schema delta: empty (fingerprints identical)"
        parts = []
        if self.added_node_labels or self.removed_node_labels:
            parts.append(
                f"node labels +{len(self.added_node_labels)}/-{len(self.removed_node_labels)}"
            )
        if self.added_edge_labels or self.removed_edge_labels:
            parts.append(
                f"edge labels +{len(self.added_edge_labels)}/-{len(self.removed_edge_labels)}"
            )
        if self.constraint_changes:
            parts.append(f"{len(self.constraint_changes)} constraint edit(s)")
        detail = ", ".join(parts) or "token-level change"
        lines = [f"schema delta: {detail}"]
        lines.extend(f"  {change.describe()}" for change in self.constraint_changes[:8])
        if len(self.constraint_changes) > 8:
            lines.append(f"  … and {len(self.constraint_changes) - 8} more")
        return "\n".join(lines)


@dataclass(frozen=True)
class InvalidationReport:
    """Per-tier counts dropped by :meth:`ContainmentEngine.invalidate_schema`.

    ``store_rows`` counts persistent-tier rows deleted (best-effort over the
    keys known in memory; the store is content-addressed, so any rows left
    behind are dead weight, never stale).
    """

    schema_fingerprint: str
    results: int = 0
    completions: int = 0
    schema_tboxes: int = 0
    store_rows: int = 0

    @property
    def total(self) -> int:
        """Entries dropped from the in-memory tiers (store rows excluded)."""
        return self.results + self.completions + self.schema_tboxes

    def tier_counts(self) -> Dict[str, int]:
        return {
            "results": self.results,
            "completions": self.completions,
            "schema-tboxes": self.schema_tboxes,
        }

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for ``/stats`` and the cache CLI."""
        return {
            "schema_fingerprint": self.schema_fingerprint,
            "invalidated": self.tier_counts(),
            "store_rows": self.store_rows,
            "total": self.total,
        }

    def summary(self) -> str:
        """A short human-readable report."""
        tiers = ", ".join(f"{name}={count}" for name, count in self.tier_counts().items())
        return (
            f"invalidated schema {self.schema_fingerprint[:12]}…: "
            f"{tiers}, store_rows={self.store_rows}"
        )


def _zero_tiers() -> Dict[str, int]:
    return {tier: 0 for tier in REPORT_TIERS}


@dataclass(frozen=True)
class EvolveReport:
    """What :meth:`ContainmentEngine.evolve` did, tier by tier.

    * ``kept`` — entries still usable after the evolve: on a trivial
      (fingerprint-identical) edit everything found under the namespace, on a
      semantic edit exactly the migrated entries (they survive by rekeying);
    * ``migrated`` — entries copied into the new fingerprint namespace
      (schema-independent verdicts; completions and schema TBoxes never
      migrate — see the module docstring);
    * ``invalidated`` — old-namespace entries dropped without a successor;
    * ``invalidation`` — the underlying :class:`InvalidationReport` for the
      old namespace (``None`` on a trivial evolve).

    ``store_written`` counts migrated rows written through to the
    persistent tier.
    """

    delta: SchemaDelta
    trivial: bool
    kept: Dict[str, int] = field(default_factory=_zero_tiers)
    invalidated: Dict[str, int] = field(default_factory=_zero_tiers)
    migrated: Dict[str, int] = field(default_factory=_zero_tiers)
    invalidation: Optional[InvalidationReport] = None
    store_written: int = 0
    store_deleted: int = 0
    elapsed_seconds: float = 0.0

    @property
    def old_fingerprint(self) -> str:
        return self.delta.old_fingerprint

    @property
    def new_fingerprint(self) -> str:
        return self.delta.new_fingerprint

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for ``/stats``, the CLI and bench reports."""
        report = {
            "delta": self.delta.as_dict(),
            "trivial": self.trivial,
            "kept": dict(self.kept),
            "invalidated": dict(self.invalidated),
            "migrated": dict(self.migrated),
            "store_written": self.store_written,
            "store_deleted": self.store_deleted,
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.invalidation is not None:
            report["invalidation"] = self.invalidation.as_dict()
        return report

    def summary(self) -> str:
        """A short human-readable report."""
        def counts(mapping: Dict[str, int]) -> str:
            return ", ".join(f"{tier}={mapping.get(tier, 0)}" for tier in REPORT_TIERS)

        lines = [
            (
                f"evolve {self.old_fingerprint[:12]}… → {self.new_fingerprint[:12]}… "
                f"({'trivial' if self.trivial else 'semantic edit'}, "
                f"{self.elapsed_seconds * 1000:.1f} ms)"
            ),
            f"  kept:        {counts(self.kept)}",
            f"  migrated:    {counts(self.migrated)}",
            f"  invalidated: {counts(self.invalidated)}",
            f"  store: {self.store_written} written, {self.store_deleted} deleted",
        ]
        if not self.trivial:
            lines.insert(1, "  " + self.delta.summary().replace("\n", "\n  "))
        return "\n".join(lines)
