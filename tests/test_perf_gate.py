"""tools/perf_gate.py's comparison of base and head perfbench results."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perf_gate", Path(__file__).resolve().parent.parent / "tools" / "perf_gate.py"
)
perf_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_gate)
BOUND = perf_gate.gated_bound()  # throughput_per_s's bound in BENCHMARK.json, 0.2


def _result(throughput, correct=True):
    """One run's stdout, ending in perfbench's result line."""
    line = json.dumps({"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
                       "metrics": {"throughput_per_s": {"value": throughput, "unit": "1/s"},
                                   "setup_s": {"value": 0.5, "unit": "s"}}})
    return perf_gate.parse_result(f"== zoo-cold\n  throughput_per_s {throughput} 1/s\n{line}\n")


@pytest.mark.parametrize("drop, passes", [(0.10, True), (0.25, False)])
def test_a_throughput_drop_fails_only_beyond_the_bound(drop, passes):
    base = [_result(40.0), _result(42.0), _result(38.0)]
    head = [_result(value * (1 - drop)) for value in (40.0, 42.0, 38.0)]
    failures = perf_gate.compare("zoo-cold", base, head, BOUND)
    assert (failures == []) is passes


def test_an_incorrect_or_missing_result_fails():
    base = [_result(40.0)]
    assert perf_gate.compare("zoo-cold", base, [_result(80.0, correct=False)], BOUND)
    assert perf_gate.compare("zoo-cold", base, [perf_gate.parse_result("Traceback ...\n")], BOUND)
    assert perf_gate.compare("zoo-cold", base, [perf_gate.parse_result("")], BOUND)
