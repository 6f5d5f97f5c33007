"""The adaptive backend selector behind ``parallel="auto"``.

Unit tests force cost profiles and core counts into
:class:`repro.engine.AdaptiveSelector` so every decision is deterministic;
the integration tests then assert the one invariant that makes a wrong
guess harmless — ``"auto"`` verdicts are bit-identical to serial — and that
the probe/observe loop actually records what it measured.
"""

import pytest

from repro.engine import AdaptiveSelector, ContainmentEngine, CostProfile, result_fingerprint
from repro.engine.adaptive import SERIAL_MARGIN, SPAWN_PENALTY_SECONDS
from repro.service import ContainmentService
from repro.workloads.batches import containment_batch


def fingerprints(results):
    return [result_fingerprint(result) for result in results]


# --------------------------------------------------------------------------- #
# the decision rule, with forced inputs
# --------------------------------------------------------------------------- #
def selector(cpus=8):
    return AdaptiveSelector(cpu_count=cpus)


CHEAP_TRANSPORT = CostProfile(solve_seconds=0.1, transport_seconds=1e-6)


def test_degenerate_batches_go_serial():
    chooser = selector()
    assert chooser.choose(1, CHEAP_TRANSPORT) == "serial"  # single item
    assert chooser.choose(0, CHEAP_TRANSPORT) == "serial"
    assert selector(cpus=1).choose(16, CHEAP_TRANSPORT) == "serial"  # one core
    assert chooser.choose(16, None) == "serial"  # no profile yet


def test_process_wins_when_solve_dominates_transport():
    chooser = selector()
    assert chooser.choose(16, CHEAP_TRANSPORT, pool_ready=True) == "process"
    assert chooser.decisions["process"] == 1
    estimates = chooser.last_decision["estimates"]
    assert estimates["process"] * SERIAL_MARGIN <= estimates["serial"]


def test_expensive_transport_keeps_the_batch_serial():
    heavy_wire = CostProfile(solve_seconds=0.001, transport_seconds=0.05)
    assert selector().choose(16, heavy_wire, pool_ready=True) == "serial"


def test_unpicklable_payload_measures_as_inf_and_forces_serial():
    chooser = selector()
    cost = chooser.measure_transport(lambda: None)  # lambdas do not pickle
    assert cost == float("inf")
    profile = CostProfile(solve_seconds=0.1, transport_seconds=cost)
    assert chooser.choose(64, profile, pool_ready=True) == "serial"
    assert chooser.measure_transport(("a", 1, None)) < float("inf")


def test_spawn_penalty_tips_small_batches_to_serial():
    # 4 items x 0.01 s: an 8-way split saves ~35 ms — far less than the
    # 250 ms spawn cost, so a cold pool loses and a warm one wins
    profile = CostProfile(solve_seconds=0.01, transport_seconds=1e-6)
    chooser = selector()
    assert chooser.choose(4, profile, pool_ready=False) == "serial"
    assert chooser.last_decision["estimates"]["process"] > SPAWN_PENALTY_SECONDS
    assert chooser.choose(4, profile, pool_ready=True) == "process"


def test_close_calls_go_serial_by_margin():
    # a projected ~25% speedup is inside the 1.2x margin on 2 cores
    profile = CostProfile(solve_seconds=0.01, transport_seconds=0.0035)
    chooser = selector(cpus=2)
    assert chooser.choose(8, profile, pool_ready=True) == "serial"
    estimates = chooser.last_decision["estimates"]
    assert estimates["process"] < estimates["serial"]  # cheaper, but not enough


def test_workers_are_capped_by_cpus_and_batch_size():
    chooser = selector(cpus=4)
    chooser.choose(2, CHEAP_TRANSPORT, workers=16, pool_ready=True)
    estimates = chooser.last_decision["estimates"]
    # effective workers = min(16, 4 cpus, 2 items) = 2
    assert estimates["process"] == pytest.approx(
        0.002 + 2 * 1e-6 + 2 * 0.1 / 2, rel=1e-6
    )


# --------------------------------------------------------------------------- #
# measurement: observe / profile_for
# --------------------------------------------------------------------------- #
def test_observe_blends_with_ewma():
    chooser = selector()
    chooser.observe("ctx", 0.1, 0.01)
    assert chooser.profile_for(["ctx"]) == CostProfile(0.1, 0.01)
    chooser.observe("ctx", 0.2, 0.02)  # alpha = 0.5
    profile = chooser.profile_for(["ctx"])
    assert profile.solve_seconds == pytest.approx(0.15)
    assert profile.transport_seconds == pytest.approx(0.015)


def test_serial_observations_refresh_solve_but_keep_transport():
    chooser = selector()
    chooser.observe("ctx", 0.1, 0.01)
    chooser.observe("ctx", 0.3)  # transport_seconds=None: serial timing only
    profile = chooser.profile_for(["ctx"])
    assert profile.solve_seconds == pytest.approx(0.2)
    assert profile.transport_seconds == pytest.approx(0.01)


def test_profile_for_averages_known_contexts_and_ignores_unknown():
    chooser = selector()
    assert chooser.profile_for(["nope"]) is None
    chooser.observe("a", 0.1, 0.01)
    chooser.observe("b", 0.3, 0.03)
    profile = chooser.profile_for(["a", "b", "unknown"])
    assert profile.solve_seconds == pytest.approx(0.2)
    assert profile.transport_seconds == pytest.approx(0.02)


def test_report_is_json_ready_and_counts_decisions():
    import json

    chooser = selector(cpus=2)
    chooser.observe("ctx", 0.1, 0.01)
    chooser.choose(8, chooser.profile_for(["ctx"]), pool_ready=True)
    report = chooser.report()
    assert report["cpu_count"] == 2 and report["profiles"] == 1
    assert sum(report["decisions"].values()) == 1
    assert report["last_decision"]["backend"] in ("serial", "process")
    assert set(report["decisions"]) == {"serial", "process"}
    json.dumps(report)  # must serialise for /stats


# --------------------------------------------------------------------------- #
# the engine's auto backend
# --------------------------------------------------------------------------- #
def test_auto_matches_serial_fingerprints_and_records_a_probe():
    schema, pairs = containment_batch("medical")
    serial = ContainmentEngine().check_many(pairs, schema=schema)
    engine = ContainmentEngine()
    auto = engine.check_many(pairs, schema=schema, parallel="auto")
    assert fingerprints(auto) == fingerprints(serial)
    report = engine.adaptive_report()
    assert report["probes"] >= 1  # cold schema: the first item calibrated
    assert report["profiles"] >= 1
    assert sum(report["decisions"].values()) >= 1


def test_auto_routes_to_the_process_pool_when_the_profile_says_so():
    """Forcing a many-core selector with a solve-dominated profile must send
    the batch through the worker pool — and keep verdicts bit-identical."""
    schema, pairs = containment_batch("medical", length=4)
    serial = ContainmentEngine().check_many(pairs, schema=schema)
    engine = ContainmentEngine(max_workers=2)
    try:
        engine._selector = AdaptiveSelector(cpu_count=8)
        engine.selector.observe(
            schema.canonical_fingerprint(), solve_seconds=0.5, transport_seconds=1e-6
        )
        auto = engine.check_many(pairs, schema=schema, parallel="auto")
        assert fingerprints(auto) == fingerprints(serial)
        assert engine.selector.decisions["process"] >= 1
        assert engine.process_stats() is not None  # the pool really ran
    finally:
        engine.shutdown()


def test_auto_refreshes_the_profile_from_serial_runs():
    schema, pairs = containment_batch("medical")
    engine = ContainmentEngine()
    engine.check_many(pairs, schema=schema, parallel="auto")
    profile = engine.selector.profile_for([schema.canonical_fingerprint()])
    assert profile is not None and profile.solve_seconds > 0.0
    assert profile.transport_seconds > 0.0  # the probe's pickle timing


def test_empty_auto_batch_returns_empty():
    assert ContainmentEngine().check_many([], parallel="auto") == []


def test_service_defaults_to_auto_and_reports_the_selector():
    with ContainmentService(coalesce_window=0.0) as service:
        assert service.backend == "auto"
        response = service.handle(
            {"workload": "medical", "left": "p(x) := Antigen(x)", "right": "q(x) := Antigen(x)"}
        )
        assert response["contained"] is True
        report = service.stats_report()
        assert "adaptive" in report
        assert report["adaptive"]["probes"] >= 1  # the first request calibrated
