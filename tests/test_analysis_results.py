"""Every result of perfbench's 24 analysis jobs, pinned by digest.

The committed fixture ``data/analysis_results.json`` holds, per job key, a
SHA-256 over every result the job's analysis returns, not only the answer
perfbench checks:

* type checking: the verdict, the signature errors, the coverage checks and
  every statement entailment with its flag;
* equivalence: the verdict and every difference;
* elicitation: the elicited schema (name and canonical token), the coverage
  checks and every candidate statement with its flag;

each containment result by its :func:`repro.engine.result_fingerprint`, each
statement by its canonical token, in the order the analysis reports them,
and each analysis's ``containment_calls``.  It was written before the
Theorem 4.2 sweeps learnt to decide the cells no edge rule produces without
building their queries, so it shows that shortcut changes no result.
Running this file as a script (``PYTHONPATH=src python
tests/test_analysis_results.py``) prints the digests of the checkout it runs
in.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from repro.dl.tbox import canonical_statement_token
from repro.engine import ContainmentEngine, result_fingerprint

_FIXTURE = Path(__file__).parent / "data" / "analysis_results.json"


def _perfbench_inputs():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _fingerprint(containment) -> str:
    return "∅" if containment is None else result_fingerprint(containment)


def _coverage_lines(coverage):
    yield f"coverage {coverage.covered} {coverage.unassociated_constructors}"
    for check in coverage.checks:
        yield (
            f"check {check.source_label} {check.role} {check.target_label} "
            f"{check.holds} {_fingerprint(check.result)}"
        )


def _statement_lines(entailments):
    for entailment in entailments:
        yield (
            f"statement {canonical_statement_token(entailment.statement)} "
            f"{entailment.entailed} {_fingerprint(entailment.containment)}"
        )


def _type_check_lines(result):
    yield (
        f"type_check {result.well_typed} {result.transformation_name} "
        f"{result.source_schema} {result.target_schema} {result.signature_errors}"
    )
    if result.coverage is not None:
        yield from _coverage_lines(result.coverage)
    yield from _statement_lines(result.statement_results)
    yield f"calls {result.containment_calls}"


def _equivalence_lines(result):
    yield f"equivalence {result.equivalent} {result.left_name} {result.right_name}"
    for difference in result.differences:
        yield (
            f"difference {difference.kind} {difference.description} "
            f"{_fingerprint(difference.left_result)} {_fingerprint(difference.right_result)}"
        )
    yield f"calls {result.containment_calls}"


def _elicitation_lines(result):
    yield f"elicited {result.schema.name} {result.schema.canonical_token()}"
    yield from _coverage_lines(result.coverage)
    yield from _statement_lines(result.statements)
    yield f"calls {result.containment_calls}"


_ANALYSES = {
    "type_check": _type_check_lines,
    "check_equivalence": _equivalence_lines,
    "elicit_schema": _elicitation_lines,
}


def job_digests(engine: ContainmentEngine):
    """``{job key: digest}`` over one run of every perfbench analysis job on
    *engine*, recording each analysis result the job's wrapper discards."""
    inputs = _perfbench_inputs()
    results = []

    def recording(name, analysis):
        def run(*args, **kwargs):
            result = analysis(*args, **kwargs)
            results.append((name, result))
            return result
        return run

    for name in _ANALYSES:
        setattr(inputs, name, recording(name, getattr(inputs, name)))
    digests = {}
    for job in inputs.analysis_jobs():
        del results[:]
        job.run(engine)
        (name, result), = results
        text = "\n".join(_ANALYSES[name](result))
        digests[job.key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def test_every_analysis_result_matches_the_fixture_cold_and_warm():
    expected = json.loads(_FIXTURE.read_text())
    assert len(expected) == 24
    engine = ContainmentEngine()
    try:
        for _ in ("cold", "warm"):
            digests = job_digests(engine)
            assert sorted(digests) == sorted(expected)
            mismatches = [key for key in expected if digests[key] != expected[key]]
            assert not mismatches, mismatches
    finally:
        engine.close()


if __name__ == "__main__":
    engine = ContainmentEngine()
    try:
        print(json.dumps(job_digests(engine), indent=1, sort_keys=True))
    finally:
        engine.close()
