"""QoS metrics: violation curves and jitter."""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest

from repro.hardware.presets import jetson_nano
from repro.robustness import FaultPlan, LoadShedConfig, RetryPolicy, RobustnessConfig
from repro.runtime.capture import float_bits
from repro.runtime.engine import EngineResult, SequentialEngine
from repro.runtime.metrics import QoSReport, RequestRecord, collect_records
from repro.runtime.simulator import EVALUATED_MODELS, _profiles_for, _request_classes
from repro.runtime.workload import (
    SCENARIOS,
    WorkloadGenerator,
    WorkloadItem,
    build_task_specs,
    materialize_requests,
)
from repro.scheduling.policies import ClockWorkScheduler
from repro.scheduling.request import Request, TaskSpec


def record(model="m", arrival=0.0, finish=20.0, ext=10.0, rid=None, preempt=0):
    record.counter = getattr(record, "counter", 0) + 1
    return RequestRecord(
        request_id=rid if rid is not None else record.counter,
        model=model,
        arrival_ms=arrival,
        finish_ms=finish,
        ext_ms=ext,
        preemptions=preempt,
    )


class TestRequestRecord:
    def test_rr(self):
        r = record(finish=30.0, ext=10.0)
        assert r.e2e_ms == 30.0
        assert r.response_ratio == 3.0
        assert r.violates(2.9)
        assert not r.violates(3.0)

    def test_dropped_always_violates(self):
        r = record(finish=None)
        assert r.dropped
        assert r.response_ratio == float("inf")
        assert r.violates(1e9)


class TestQoSReport:
    def make_report(self):
        return QoSReport(
            [
                record(model="a", finish=10.0, ext=10.0),  # RR 1
                record(model="a", finish=30.0, ext=10.0),  # RR 3
                record(model="b", arrival=0.0, finish=50.0, ext=10.0),  # RR 5
                record(model="b", finish=None, ext=10.0),  # dropped
            ]
        )

    def test_violation_rate(self):
        rep = self.make_report()
        assert rep.violation_rate(2.0) == 0.75  # RR 3, 5, inf
        assert rep.violation_rate(4.0) == 0.5
        assert rep.violation_rate(100.0) == 0.25  # only the drop

    def test_violation_curve_monotone(self):
        rep = self.make_report()
        curve = rep.violation_curve([2, 4, 8, 100])
        assert (np.diff(curve) <= 0).all()

    def test_models_and_latencies(self):
        rep = self.make_report()
        assert rep.models() == ("a", "b")
        assert len(rep.latencies_for("a")) == 2
        assert len(rep.latencies_for("b")) == 1  # drop excluded
        assert len(rep.latencies_for()) == 3

    def test_jitter(self):
        rep = self.make_report()
        assert rep.jitter_ms("a") == pytest.approx(10.0)  # std of [10, 30]
        assert rep.jitter_ms("b") == 0.0
        assert math.isnan(rep.jitter_ms("absent"))

    def test_mean_rr(self):
        rep = self.make_report()
        assert rep.mean_response_ratio("a") == pytest.approx(2.0)

    def test_counts(self):
        rep = self.make_report()
        assert rep.n_requests == 4
        assert rep.n_dropped == 1

    def test_empty_report(self):
        rep = QoSReport([])
        assert math.isnan(rep.violation_rate(2.0))
        assert math.isnan(rep.jitter_ms())

    def test_latency_summary_keys(self):
        s = self.make_report().latency_summary("a")
        assert s["min"] == 10.0 and s["max"] == 30.0


class TestCollectRecords:
    def test_freeze_and_sort(self):
        spec = TaskSpec(name="m", ext_ms=10.0, blocks_ms=(10.0,))
        done = Request(task=spec, arrival_ms=5.0)
        done.finish_ms = 20.0
        dropped = Request(task=spec, arrival_ms=1.0)
        result = EngineResult(completed=[done], dropped=[dropped])
        records = collect_records(result)
        assert [r.arrival_ms for r in records] == [1.0, 5.0]
        assert records[0].dropped
        assert not records[1].dropped
        assert records[1].e2e_ms == 15.0


# -- record-freeze pin -------------------------------------------------------


@dataclass(frozen=True)
class _LegacyRequestRecord:
    """The frozen-dataclass record, as it stood before the named tuple."""

    request_id: int
    model: str
    arrival_ms: float
    finish_ms: float | None
    ext_ms: float
    preemptions: int = 0
    alpha: float = 1.0
    outcome: str = "served"
    retries: int = 0


def _legacy_collect_records(result: EngineResult) -> list[_LegacyRequestRecord]:
    """The keyword-built ``freeze`` collector, kept as the oracle."""

    def freeze(req: Request, outcome: str) -> _LegacyRequestRecord:
        return _LegacyRequestRecord(
            request_id=req.request_id,
            model=req.task_type,
            arrival_ms=req.arrival_ms,
            finish_ms=req.finish_ms if outcome == "served" else None,
            ext_ms=req.ext_ms,
            preemptions=req.preemptions,
            alpha=req.task.alpha,
            outcome=outcome,
            retries=req.retries,
        )

    records = [freeze(r, "served") for r in result.completed]
    records += [freeze(r, "rejected") for r in result.dropped]
    records += [freeze(r, "failed") for r in result.failed]
    records += [freeze(r, "timed_out") for r in result.timed_out]
    records += [freeze(r, "shed") for r in result.shed]
    records.sort(key=lambda r: r.arrival_ms)
    return records


FLOAT_FIELDS = ("arrival_ms", "finish_ms", "ext_ms", "alpha")


@pytest.fixture(scope="module")
def five_outcome_result():
    """A robust run reaching every outcome: admission rejects (ClockWork's
    straggler drop), sheds, injected failures and deadline misses.

    Arrivals are snapped to a 50 ms grid so requests in different outcome
    buckets share arrival times: only then does the bucket concatenation
    order show in the stable sort's output."""
    device = jetson_nano()
    specs = build_task_specs(
        _profiles_for(EVALUATED_MODELS, device.name),
        plan_kind="vanilla",
        request_classes=_request_classes(EVALUATED_MODELS),
        alphas={EVALUATED_MODELS[0]: 0.5},
    )
    items = [
        WorkloadItem(50.0 * (item.arrival_ms // 50.0), item.model_name)
        for item in WorkloadGenerator(EVALUATED_MODELS, seed=3).generate(
            SCENARIOS[5]
        )
    ]
    cfg = RobustnessConfig(
        faults=FaultPlan(seed=5, fail_rate=0.1, stall_rate=0.05, drop_rate=0.03),
        retry=RetryPolicy(max_retries=1, backoff_base_ms=2.0),
        timeout_rr=12.0,
        load_shed=LoadShedConfig(max_queue_depth=8),
    )
    engine = SequentialEngine(ClockWorkScheduler(drop_alpha=10.0), robustness=cfg)
    return engine.run(materialize_requests(items, specs))


class TestRecordFreezePin:
    def test_every_outcome_reached(self, five_outcome_result):
        outcomes = {r.outcome for r in collect_records(five_outcome_result)}
        assert outcomes == {"served", "rejected", "shed", "failed", "timed_out"}

    def test_matches_keyword_freeze(self, five_outcome_result):
        new = collect_records(five_outcome_result)
        old = _legacy_collect_records(five_outcome_result)
        assert len(new) == len(old) == 1000
        assert RequestRecord._fields == tuple(_LegacyRequestRecord.__dataclass_fields__)
        for a, b in zip(new, old):
            for name in RequestRecord._fields:
                x, y = getattr(a, name), getattr(b, name)
                if name in FLOAT_FIELDS and y is not None:
                    assert float_bits(x) == float_bits(y), name
                else:
                    assert x == y, name
        assert any(r.retries for r in new)
        assert len({r.alpha for r in new}) == 2
        # Every pair of outcome buckets shares some arrival time, so any
        # change to the concatenation order would show in the sort.
        outcomes_at: dict[float, set[str]] = {}
        for r in new:
            outcomes_at.setdefault(r.arrival_ms, set()).add(r.outcome)
        pairs = set()
        for tied in outcomes_at.values():
            pairs |= set(combinations(sorted(tied), 2))
        assert len(pairs) == 10
        assert all(r.finish_ms is None for r in new if r.outcome != "served")

    def test_record_is_immutable(self):
        r = record()
        with pytest.raises(AttributeError):
            r.finish_ms = 1.0
        with pytest.raises(AttributeError):
            r.outcome = "failed"

    def test_keyword_construction_and_defaults(self):
        r = RequestRecord(
            request_id=7, model="m", arrival_ms=1.0, finish_ms=None, ext_ms=2.0
        )
        assert (r.preemptions, r.alpha, r.outcome, r.retries) == (0, 1.0, "served", 0)
        assert r.dropped and r.violates(1e9)
        assert RequestRecord(7, "m", 1.0, None, 2.0) == r
