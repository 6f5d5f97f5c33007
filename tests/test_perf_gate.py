"""tools/perf_gate.py's comparison of base and head perfbench results."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perf_gate", Path(__file__).resolve().parent.parent / "tools" / "perf_gate.py"
)
perf_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_gate)
BOUND = perf_gate.gated_bound()  # throughput_per_s's bound in BENCHMARK.json, 0.2


def _result_line(throughput, correct=True):
    """perfbench's result line."""
    return json.dumps({"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
                       "metrics": {"throughput_per_s": {"value": throughput, "unit": "1/s"},
                                   "setup_s": {"value": 0.5, "unit": "s"}}})


def _result(throughput, correct=True):
    """One run's stdout, ending in perfbench's result line."""
    line = _result_line(throughput, correct)
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


def test_both_checkouts_are_byte_compiled_before_the_first_pair(monkeypatch):
    calls = []

    def fake_run(command, cwd=None, **kwargs):
        calls.append((command, Path(cwd)))
        stdout = _result_line(40.0) if "perfbench/run.py" in command else ""
        return subprocess.CompletedProcess(command, 0, stdout=stdout)

    monkeypatch.setattr(perf_gate.subprocess, "run", fake_run)
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    assert perf_gate.main("0" * 40) == 0
    worktree = Path(calls[0][0][4])  # git worktree add --detach DIR SHA
    compiled = [cwd for command, cwd in calls if command[1:] == ["-m", "compileall", "-q", "src"]]
    assert compiled == [worktree, perf_gate.ROOT]
    first_pair = next(index for index, (command, _) in enumerate(calls) if "perfbench/run.py" in command)
    assert all("compileall" in calls[index][0] for index in (first_pair - 2, first_pair - 1))
