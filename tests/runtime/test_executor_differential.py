"""RT-A differential: the in-place processor-sharing loop against the
frozen pre-rewrite ``ConcurrentEngine``.

Both engines replay the same materialised arrival schedule; every request
must finish at the bit-identical time, land in the same outcome bucket in
the same order, and the fault counters must agree. The grid covers the
six Table-2 scenarios x three seeds x ``aligned`` x ``alignment_barrier``
x {no robustness, fail/stall/drop faults with retries and deadlines,
stall/drop faults with deadlines}.

One cell is compared only where the frozen loop completes: the barrier
with retried failures. The frozen loop kept a failed request in the
mentor sets of the requests that joined during its failed attempt; its
retry was re-admitted with those requests as mentors of its own, the
pair waited on each other and the run raised "alignment barrier
deadlock" (30 of that cell's 36 runs). The current loop drops a failed
attempt from every mentor set, so those runs must instead complete with
exactly one terminal outcome per request; the runs the frozen loop did
complete must still match it.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.hardware.contention import ContentionModel
from repro.hardware.presets import jetson_nano
from repro.robustness import FaultPlan, RetryPolicy, RobustnessConfig
from repro.runtime.capture import float_bits
from repro.runtime.executor import ConcurrentEngine
from repro.runtime.simulator import EVALUATED_MODELS, _profiles_for, _request_classes
from repro.runtime.workload import (
    SCENARIOS,
    Scenario,
    WorkloadGenerator,
    build_task_specs,
    materialize_requests,
)

from tests.runtime._legacy_engines import LegacyConcurrentEngine

CHAOS = RobustnessConfig(
    faults=FaultPlan(seed=17, fail_rate=0.08, stall_rate=0.06, drop_rate=0.03),
    retry=RetryPolicy(max_retries=2, backoff_base_ms=2.0),
    timeout_rr=40.0,
)
STALL_DROP = RobustnessConfig(
    faults=FaultPlan(seed=29, stall_rate=0.10, drop_rate=0.05),
    timeout_rr=25.0,
)
CONFIGS = {"plain": None, "chaos": CHAOS, "stall_drop": STALL_DROP}
BUCKETS = ("completed", "dropped", "failed", "timed_out", "shed")
COUNTERS = ("retries", "stalls", "fault_fails", "fault_drops")


@pytest.fixture(scope="module")
def specs():
    device = jetson_nano()
    profiles = _profiles_for(EVALUATED_MODELS, device.name)
    return build_task_specs(
        profiles,
        plan_kind="vanilla",
        request_classes=_request_classes(EVALUATED_MODELS),
    )


def _run(engine_cls, items, specs, aligned, barrier, robustness):
    arrivals = materialize_requests(items, specs)
    index = {id(req): i for i, (_, req) in enumerate(arrivals)}
    engine = engine_cls(
        ContentionModel(jetson_nano()),
        aligned=aligned,
        alignment_barrier=barrier,
        robustness=robustness,
    )
    try:
        result = engine.run(arrivals)
    except SimulationError as exc:  # both sides must fail the same way
        return ("raised", type(exc), str(exc))
    buckets = {
        name: [index[id(r)] for r in getattr(result, name)] for name in BUCKETS
    }
    finishes = [
        None if req.finish_ms is None else float_bits(req.finish_ms)
        for _, req in arrivals
    ]
    outcomes = [req.outcome for _, req in arrivals]
    retries = [req.retries for _, req in arrivals]
    counters = {name: getattr(result, name) for name in COUNTERS}
    return buckets, finishes, outcomes, retries, counters


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("barrier", [False, True], ids=["ps", "barrier"])
@pytest.mark.parametrize("aligned", [True, False], ids=["aligned", "naive"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_rta_loop_matches_legacy(specs, scenario, seed, aligned, barrier, config):
    sc = Scenario(scenario.name, scenario.lambda_ms, scenario.load, 300)
    items = WorkloadGenerator(EVALUATED_MODELS, seed=seed).generate(sc)
    robustness = CONFIGS[config]
    new = _run(ConcurrentEngine, items, specs, aligned, barrier, robustness)
    assert new[0] != "raised", new
    old = _run(LegacyConcurrentEngine, items, specs, aligned, barrier, robustness)
    if barrier and config == "chaos" and old[0] == "raised":
        buckets, _, outcomes, _, _ = new
        settled = sorted(i for members in buckets.values() for i in members)
        assert settled == list(range(len(items)))  # one bucket each
        assert "pending" not in outcomes
    else:
        assert new == old


def test_fault_configs_exercise_their_paths(specs):
    """The faulted runs above are only a differential if faults fire:
    across the grid's scenarios every counter and bucket is reached."""
    seen: dict[str, int] = {}
    for scenario in SCENARIOS:
        sc = Scenario(scenario.name, scenario.lambda_ms, scenario.load, 300)
        items = WorkloadGenerator(EVALUATED_MODELS, seed=0).generate(sc)
        for barrier, config in ((False, CHAOS), (True, STALL_DROP)):
            buckets, _, _, _, counters = _run(
                ConcurrentEngine, items, specs, True, barrier, config
            )
            for name, members in buckets.items():
                seen[name] = seen.get(name, 0) + len(members)
            for name, count in counters.items():
                seen[name] = seen.get(name, 0) + count
    for name in ("completed", "failed", "timed_out", *COUNTERS):
        assert seen[name] > 0, name
