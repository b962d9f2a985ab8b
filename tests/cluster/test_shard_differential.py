"""The array-native fleet deal against the frozen per-request deal.

:meth:`FleetOrchestrator.shard` decides placements in a Python loop but
computes enqueue times, hop accounting, per-node grouping and the
failover partition with numpy. ``_legacy_shard.legacy_shard`` is the
per-request deal it replaced, kept verbatim. Across seeds, inventories
(the 100-node default and a capability-restricted mix) and node-fault
plans (none, empty, scripted kills, stochastic, degrade-only) the two
must agree exactly:

* byte-identical ``NodeShard.digest()`` for every node;
* equal ``transfer_hops`` and ``re_routed`` counts;
* bit-equal ``transfer_ms`` and ``failover_ms`` (both are summed in deal
  order, so the float bits depend on the summation order too);
* the same ``SimulationError`` when failover strands a model.
"""

from __future__ import annotations

import os

import pytest

from repro.cluster import DEFAULT_INVENTORY, FleetOrchestrator, NodeClass
from repro.errors import SimulationError
from repro.experiments.fleet import derived_lambda_ms
from repro.experiments.fleet_chaos import scripted_kill_schedule
from repro.robustness import NodeFaultEvent, NodeFaultKind, NodeFaultPlan
from repro.runtime.capture import float_bits
from repro.runtime.workload import Scenario

from tests.cluster._legacy_shard import legacy_shard

CHAOS_SEED = int(os.environ.get("SPLIT_CHAOS_SEED", "5"))
SEEDS = (1, 7, CHAOS_SEED)
N_REQUESTS = 4000
#: yolov2 runs on every class, vgg19 and resnet50 on two each, googlenet
#: and gpt2 only on the desktop cards: the eligible-class sets differ.
RESTRICTED = (
    NodeClass("jetson-nano", 6, supports=frozenset({"yolov2", "vgg19"})),
    NodeClass("jetson-xavier", 3, supports=frozenset({"yolov2", "resnet50"})),
    NodeClass("desktop-gpu", 3),
)
INVENTORIES = {"default": DEFAULT_INVENTORY, "restricted": RESTRICTED}

@pytest.fixture(scope="module")
def orchestrators():
    """One deployed orchestrator per (inventory, seed), shared by the
    module's cases; each case sets its own fault plan before dealing."""
    cache: dict[tuple[str, int], FleetOrchestrator] = {}

    def get(inventory: str, seed: int) -> FleetOrchestrator:
        if (inventory, seed) not in cache:
            cache[inventory, seed] = FleetOrchestrator(
                INVENTORIES[inventory], seed=seed
            )
        return cache[inventory, seed]

    return get


def make_plan(kind: str, orch: FleetOrchestrator, scenario: Scenario, seed: int):
    horizon = orch.fault_horizon_ms(scenario)
    n_nodes = len(orch.nodes)
    if kind == "none":
        return None
    if kind == "empty":
        return NodeFaultPlan()
    if kind == "scripted":
        return scripted_kill_schedule(n_nodes, horizon)
    if kind == "stochastic":
        return NodeFaultPlan(
            seed=seed,
            fail_stop_rate=0.1,
            fail_recover_rate=0.2,
            degrade_rate=0.2,
            degrade_multiplier=3.0,
        )
    assert kind == "degrade"
    return NodeFaultPlan(
        scripted=(
            NodeFaultEvent(
                NodeFaultKind.DEGRADE,
                None,
                at_ms=0.25 * horizon,
                recover_at_ms=0.75 * horizon,
                service_multiplier=2.5,
            ),
        )
    )


def deal(fn):
    """Run one deal; an error is an outcome too (compared by message)."""
    try:
        return fn(), None
    except SimulationError as exc:
        return None, str(exc)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("inventory", sorted(INVENTORIES))
@pytest.mark.parametrize(
    "plan_kind", ["none", "empty", "scripted", "stochastic", "degrade"]
)
def test_array_deal_matches_frozen_deal(
    orchestrators, inventory, seed, plan_kind
):
    orch = orchestrators(inventory, seed)
    scenario = Scenario(
        "shard-oracle", derived_lambda_ms(orch, 0.8), "high", N_REQUESTS
    )
    orch.node_faults = make_plan(plan_kind, orch, scenario, seed)

    old, old_err = deal(lambda: legacy_shard(orch, scenario))
    new, new_err = deal(lambda: orch.shard(scenario))
    assert new_err == old_err
    if old is None:
        return
    assert [s.node for s in new] == [s.node for s in old.shards]
    assert [s.digest() for s in new] == [s.digest() for s in old.shards]
    hops, transfer_ms = orch._last_transfer
    re_routed, failover_ms = orch._last_failover
    assert hops == old.transfer_hops
    assert float_bits(transfer_ms) == float_bits(old.transfer_ms)
    assert re_routed == old.re_routed
    assert float_bits(failover_ms) == float_bits(old.failover_ms)
    if plan_kind in ("scripted", "stochastic"):
        assert re_routed > 0  # the failover path actually ran


@pytest.mark.chaos
def test_stranded_model_raises_like_the_frozen_deal():
    """Fail-stopping the only desktop card strands gpt2: both deals raise
    the same error, naming the model."""
    inventory = (
        NodeClass("jetson-nano", 2, supports=frozenset({"yolov2"})),
        NodeClass("desktop-gpu", 1),
    )
    orch = FleetOrchestrator(
        inventory,
        models=("yolov2", "gpt2"),
        seed=CHAOS_SEED,
        node_faults=NodeFaultPlan(
            scripted=(NodeFaultEvent(NodeFaultKind.FAIL_STOP, 2, at_ms=3_000.0),)
        ),
    )
    scenario = Scenario("hole", 40.0, "high", 800)
    _, old_err = deal(lambda: legacy_shard(orch, scenario))
    _, new_err = deal(lambda: orch.shard(scenario))
    assert old_err is not None and "gpt2" in old_err
    assert new_err == old_err
