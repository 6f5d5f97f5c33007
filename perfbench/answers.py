"""Known answers and expected fingerprints: the benchmark's correctness gate.

* ``ANALYSIS_ANSWERS`` is written by hand from the paper's examples and the
  workload docstrings; no solver run produced it.
* ``expected.json`` (next to this file) holds, for the default seed, the
  ``result_fingerprint`` of every zoo pair (shared by ``zoo-cold`` and
  ``zoo-process``: the backends are bit-identical by design) and of every
  ``serve-mixed`` payload, plus the seed-independent verdict of every zoo
  pair.  ``python3 perfbench/run.py --write-expected`` regenerates it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = [
    "ANALYSIS_ANSWERS",
    "DEFAULT_SEED",
    "EXPECTED_PATH",
    "Expected",
    "analysis_mismatches",
]

#: The seed whose fingerprints are committed in ``expected.json``.
DEFAULT_SEED = 0

EXPECTED_PATH = Path(__file__).with_name("expected.json")

ANALYSIS_ANSWERS: Dict[str, Any] = {
    # Example 4.1 / Figure 1: T0 migrates S0 to S1; the broken variant drops
    # the guaranteed `targets` edge; the redundant rule changes nothing
    "typecheck/medical": True,
    "typecheck/medical-broken": False,
    "typecheck/medical-redundant": True,
    "equivalence/medical-redundant": True,
    "equivalence/medical-broken": False,
    # Figure 1's S1, recovered by elicitation (designTarget 1, targets +,
    # exhibits +, no Antigen-targets-Antigen edge)
    "elicitation/medical": {
        ("Vaccine", "designTarget", "Antigen"): "1",
        ("Vaccine", "targets", "Antigen"): "+",
        ("Pathogen", "exhibits", "Antigen"): "+",
        ("Antigen", "targets", "Antigen"): "0",
    },
    # the broken migration only creates `targets` through strict cross
    # reactions, so the elicited constraint weakens to *
    "elicitation/medical-broken": {("Vaccine", "targets", "Antigen"): "*"},
    # FHIR v3 -> v4 is well typed; the broken variant loses the required
    # encounter participant
    "typecheck/fhir": True,
    "typecheck/fhir-broken": False,
    "equivalence/fhir-broken": False,
    # generalPractitioner (1) becomes primaryCare (1); the managing
    # organization (1) plus the GP's employer give organization (+);
    # performer (+) becomes participant (+); subject stays 1
    "elicitation/fhir": {
        ("Patient", "primaryCare", "Practitioner"): "1",
        ("Patient", "organization", "Organization"): "+",
        ("Encounter", "participant", "Practitioner"): "+",
        ("Encounter", "subject", "Patient"): "1",
    },
    # the binary constructor reifies each membership with exactly one
    # `who` and one `inGroup`; the broken variant misses some `inGroup`
    "typecheck/social": True,
    "typecheck/social-broken": False,
    "equivalence/social-broken": False,
    "elicitation/social": {
        ("Membership", "who", "Person"): "1",
        ("Membership", "inGroup", "Group"): "1",
        ("Group", "moderatedBy", "Person"): "1",
    },
}
for _length in (2, 4, 6):
    # copying a chain conforms to the chain and equals itself; collapsing it
    # gives every L0 node exactly one shortcut, as every step is exactly-one
    ANALYSIS_ANSWERS[f"typecheck/chain-copy-{_length}"] = True
    ANALYSIS_ANSWERS[f"equivalence/chain-copy-{_length}"] = True
    ANALYSIS_ANSWERS[f"elicitation/chain-collapse-{_length}"] = {
        ("L0", "shortcut", f"L{_length}"): "1"
    }


def analysis_mismatches(answers: Dict[str, Any]) -> List[str]:
    """Keys whose answer differs from the table (or has no table entry)."""
    return sorted(
        key for key, answer in answers.items()
        if key not in ANALYSIS_ANSWERS or ANALYSIS_ANSWERS[key] != answer
    )


class Expected:
    """Expected verdicts and fingerprints, loaded from a JSON file."""

    def __init__(self, verdicts: Dict[str, bool], fingerprints: Dict[str, Dict[str, str]]):
        self.verdicts = verdicts
        self.fingerprints = fingerprints

    @classmethod
    def load(cls, path: Path = EXPECTED_PATH) -> "Expected":
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        return cls(data["verdicts"], data["fingerprints"])

    def save(self, path: Path = EXPECTED_PATH) -> None:
        data = {"verdicts": self.verdicts, "fingerprints": self.fingerprints}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")

    def committed(self, seed: int) -> Optional[Dict[str, str]]:
        """The committed fingerprints for *seed*, ``None`` when not committed."""
        return self.fingerprints.get(str(seed))
