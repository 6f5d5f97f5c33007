"""The seed-0 zoo fingerprints committed in perfbench/expected.json.

A ``result_fingerprint`` covers every verdict-relevant field of a result,
the witness pattern and the completed TBox included, so any change to what
the pipeline computes on the zoo shows up here.  The file is only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import repro.core.compile as compile_module
from repro.core import clear_compile_memo
from repro.engine import ContainmentEngine
from repro.engine.parallel import result_fingerprint

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_SPEC = importlib.util.spec_from_file_location("perfbench_inputs", _PERFBENCH / "inputs.py")
inputs = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = inputs  # its dataclasses look their module up there
_SPEC.loader.exec_module(inputs)


def test_serial_zoo_results_match_the_committed_seed_0_fingerprints(monkeypatch):
    committed = json.loads((_PERFBENCH / "expected.json").read_text())["fingerprints"]["0"]
    items = inputs.zoo_items(0)
    assert len(items) == 143
    built = []

    def counting_build_nfa(regex):
        built.append(regex)
        return build_nfa(regex)

    build_nfa = compile_module.build_nfa
    monkeypatch.setattr(compile_module, "build_nfa", counting_build_nfa)
    clear_compile_memo()
    engine = ContainmentEngine()
    try:
        mismatched = [
            item.key
            for item in items
            if result_fingerprint(engine.contains(item.left, item.right, item.schema))
            != committed[f"zoo/{item.key}"]
        ]
    finally:
        engine.close()
    assert mismatched == []
    # one compilation per regex: stage 5, the roll-up and every schema share
    # the memo's bundle (118 distinct regexes at seed 0)
    assert len(built) == len(set(built))
