"""Self-tests of the benchmark's own arithmetic and bookkeeping.

They run in well under a second and need no worker processes:
``python3 -m pytest -q perfbench/tests``.
"""

import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import measure  # noqa: E402
from perfbench.answers import ANALYSIS_ANSWERS, analysis_mismatches  # noqa: E402
from perfbench.open_loop import drive  # noqa: E402
from perfbench.run import count_mismatches, end_to_end, operation_medians  # noqa: E402
from perfbench.trace import Tracer, interval_union, self_times  # noqa: E402
from perfbench.workloads import PassRecord  # noqa: E402


# --------------------------------------------------------------------------- #
# the tail rule
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "count, percentile",
    [(1000, 99), (143, 93), (21, 52), (20, 50), (19, None), (0, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, percentile):
    assert measure.tail_percentile(count) == percentile
    if percentile is not None:
        rank = -(-percentile * count // 100)
        assert count - rank >= measure.TAIL_BEYOND
        rank_above = -(-(percentile + 1) * count // 100)
        assert percentile == 99 or count - rank_above < measure.TAIL_BEYOND


def test_latency_summary_reports_percentile_and_sample_count():
    samples = [float(value) for value in range(1, 144)]  # 1..143
    summary = measure.latency_summary(samples)
    assert summary["samples"] == 143
    assert summary["tail_percentile"] == 93
    assert summary["tail"] == 133.0  # ten samples (134..143) lie beyond it
    assert summary["p50"] == 72.0


def test_thin_samples_report_the_maximum_as_p100():
    summary = measure.latency_summary([3.0, 1.0, 2.0])
    assert summary["tail"] == 3.0
    assert summary["tail_percentile"] == 100
    assert summary["samples"] == 3


def test_failed_requests_count_as_over_any_limit():
    summary = measure.latency_summary([0.01] * 30 + [float("inf")] * 11)
    assert summary["tail"] == float("inf")


# --------------------------------------------------------------------------- #
# speed adjustment
# --------------------------------------------------------------------------- #
def test_speed_factor_scales_to_the_nominal_slice():
    probe = measure.SpeedProbe()
    probe.samples = [0.004, 0.0045, 0.005]
    assert probe.factor() == pytest.approx(measure.NOMINAL_REFERENCE_S / 0.0045)
    # a pass that ran at half the nominal speed reads half as long
    slow = [2 * measure.NOMINAL_REFERENCE_S] * 5
    assert probe.factor(slow) == pytest.approx(0.5)


def test_trimmed_mean_drops_the_extremes():
    assert measure.trimmed_mean(list(range(10)) + [1000]) == pytest.approx(5.0)
    assert measure.trimmed_mean([7.0]) == 7.0


def test_reference_slices_are_recorded_one_by_one():
    probe = measure.SpeedProbe()
    probe.sample(3)
    assert len(probe.samples) == 3 and min(probe.samples) > 0


# --------------------------------------------------------------------------- #
# spans and self time
# --------------------------------------------------------------------------- #
def _span(name, start, end, parent):
    return (name, start, end, parent, 1, 0, None)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("pass", 0, 100, None),
        _span("solver", 10, 40, 0),
        _span("solver", 30, 60, 0),  # overlaps its sibling: counted once
        _span("chase", 15, 25, 1),
        _span("store", 90, 120, 0),  # outlives its parent: clipped at 100
    ]
    assert self_times(spans) == [100 - 60, 30 - 10, 30, 10, 30]
    assert interval_union([(0, 5), (3, 9), (20, 21)]) == 10


def test_nested_self_times_sum_to_the_root_wall_time():
    tracer = Tracer()
    with tracer.span("pass"):
        with tracer.span("solver"):
            with tracer.span("chase"):
                sum(range(1000))
        with tracer.span("store"):
            sum(range(1000))
    spans = tracer.frozen_spans()
    assert [span[3] for span in spans] == [None, 0, 1, 0]
    assert sum(self_times(spans)) == spans[0][2] - spans[0][1]
    events = tracer.chrome_trace()["traceEvents"]
    assert [event["name"] for event in events] == ["pass", "solver", "chase", "store"]
    assert events[2]["args"]["parent"] == 1


def test_wrappers_are_removed_again():
    class Owner:
        def work(self, value):
            return value + 1

    tracer = Tracer()
    tracer.current_pass = 3
    tracer.wrap(Owner, "work", "layer", after=lambda t, args, result: t.count("layer.calls"))
    assert Owner().work(1) == 2
    tracer.uninstall()
    assert Owner().work(1) == 2
    assert tracer.counts[3, "layer.calls"] == 1
    assert len(tracer.spans) == 1


# --------------------------------------------------------------------------- #
# the open-loop generator
# --------------------------------------------------------------------------- #
class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_a_stalled_generator_is_reported_late_and_latency_counts_from_due_time():
    clock = FakeClock()
    futures = []

    def submit(position):
        if position == 1:
            clock.now += 0.3  # the submit itself stalls the generator
        future = Future()
        futures.append(future)
        return future

    run = drive([0.0, 0.1, 0.2, 0.3], submit, clock=clock, sleep=clock.sleep)
    # request 2 was due 0.2 s in but could only be sent 0.4 s in
    assert run.late_max == pytest.approx(0.2)
    clock.now += 0.05
    for future in futures:
        future.set_result(None)
    latencies = [done - due for done, due in zip(run.done, run.dues)]
    assert latencies[2] == pytest.approx(0.45 - 0.2)
    assert latencies[0] == pytest.approx(0.45)


def test_a_refused_request_has_no_future():
    clock = FakeClock()

    def submit(position):
        raise RuntimeError("closed")

    run = drive([0.0], submit, clock=clock, sleep=clock.sleep)
    assert run.futures == [None] and run.done == [None]


# --------------------------------------------------------------------------- #
# metrics and known answers
# --------------------------------------------------------------------------- #
def _record(**fields):
    defaults = dict(seconds=2.0, ops=10, latencies=[0.1] * 10, setup=0.5,
                    counts={"misses.results": 5}, failures=0, layers={}, phases={},
                    op_factors=[0.5] * 10)
    defaults.update(fields)
    return PassRecord(**defaults)


def test_closed_loop_metrics_are_adjusted_and_fill_every_level():
    records = [_record(), _record(seconds=4.0)]
    metrics, summaries = end_to_end(records, True, 0.2, True, 50.0)
    assert metrics["setup_s"] == pytest.approx(0.2 + 0.5)  # wall seconds
    assert metrics["throughput_per_s"] == pytest.approx(((10 / 2 + 10 / 4) / 2) / 0.5)  # per pass
    raw, _ = end_to_end(records, False, 0.2, True, 50.0)
    assert raw["throughput_per_s"] == pytest.approx((10 / 2 + 10 / 4) / 2)
    assert metrics["max_rate_per_s"] == metrics["throughput_per_s"]
    assert metrics["latency_tail_s.high"] == metrics["latency_tail_s"] == pytest.approx(0.05)
    assert summaries["all"]["samples"] == 20


def test_large_closed_loop_passes_take_each_operations_median():
    usual = [0.1] * 109 + [1.0] * 11
    records = [_record(ops=120, latencies=list(usual), op_factors=[1.0] * 120)
               for _ in range(2)]
    records.append(_record(ops=120, latencies=[9.0] * 120, op_factors=[1.0] * 120))  # a stall
    metrics, summaries = end_to_end(records, True, 0.0, True, 1.0)
    assert summaries["all"]["samples"] == 120  # one sample per operation, not per pass
    assert summaries["all"]["tail_percentile"] == 91
    assert metrics["latency_p50_s"] == pytest.approx(0.1)
    assert metrics["latency_tail_s"] == pytest.approx(1.0)


def test_operation_medians_need_aligned_passes():
    assert operation_medians([[1.0, 4.0], [3.0, 2.0], [2.0, 9.0]]) == [2.0, 4.0]
    with pytest.raises(ValueError):
        operation_medians([[1.0, 2.0], [1.0]])


def test_each_latency_takes_the_factor_around_its_operation():
    record = _record(latencies=[1.0, 3.0], ops=2, seconds=4.0, op_factors=[1.0, 0.5])
    assert record.factor == pytest.approx((1.0 + 1.5) / 4.0)
    metrics, summaries = end_to_end([record], True, 0.0, True, 1.0)
    assert metrics["throughput_per_s"] == pytest.approx(2 / 2.5)
    assert summaries["all"]["tail"] == pytest.approx(1.5)


def test_max_rate_is_the_highest_level_within_the_limit():
    def phase(count, latency, drain=0.1):
        return {"latencies": [latency] * count, "drain": drain, "count": count, "window": 2.0,
                "factor": 1.0}

    record = _record(phases={"low": phase(20, 0.1), "mid": phase(40, 0.2), "high": phase(60, 5.0)})
    metrics, _ = end_to_end([record], True, 0.0, False, 1.0, limit_s=1.0)
    assert metrics["max_rate_per_s"] == pytest.approx(20.0)
    backlog = _record(phases={"low": phase(20, 0.1), "mid": phase(40, 0.2, drain=3.0),
                              "high": phase(60, 5.0)})
    metrics, _ = end_to_end([backlog], True, 0.0, False, 1.0, limit_s=1.0)
    assert metrics["max_rate_per_s"] == pytest.approx(10.0)
    assert metrics["latency_tail_s.high"] == pytest.approx(5.0)


def test_open_loop_tails_are_medians_over_passes():
    def phase(latency):
        return {"latencies": [0.01] * 39 + [latency] * 11, "drain": 0.0, "count": 50,
                "window": 2.0, "factor": 1.0}

    records = [_record(phases={level: phase(tail) for level in ("low", "mid", "high")})
               for tail in (0.1, 0.2, 9.0)]  # one pass caught in a stall
    metrics, summaries = end_to_end(records, True, 0.0, False, 1.0, limit_s=1.0)
    assert metrics["latency_tail_s.mid"] == pytest.approx(0.2)
    assert summaries["mid"]["samples"] == 50


def test_a_pass_whose_counts_moved_is_counted():
    assert count_mismatches([_record(), _record()]) == 0
    assert count_mismatches([_record(), _record(counts={"misses.results": 6}), _record()]) == 1


def test_known_answer_table_matches_the_paper_examples():
    assert ANALYSIS_ANSWERS["typecheck/medical"] is True
    assert ANALYSIS_ANSWERS["typecheck/medical-broken"] is False
    assert ANALYSIS_ANSWERS["elicitation/medical"][("Vaccine", "targets", "Antigen")] == "+"
    assert analysis_mismatches({"typecheck/medical": True}) == []
    assert analysis_mismatches({"typecheck/medical-broken": True}) == ["typecheck/medical-broken"]
    assert analysis_mismatches({"typecheck/unknown": True}) == ["typecheck/unknown"]


def test_every_analysis_job_has_a_known_answer():
    from perfbench.inputs import analysis_jobs

    keys = [job.key for job in analysis_jobs()]
    assert sorted(keys) == sorted(ANALYSIS_ANSWERS)
