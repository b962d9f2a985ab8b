"""Replay summaries: the comparable footprint of one served trace.

The wire-level differential tests (``tests/server/test_net_differential``)
need to compare a live socket replay against :func:`~repro.runtime.
simulator.simulate` on the same arrival schedule. Request ids are a
process-global counter, so they differ between the two runs; what *is*
stable is the ``(task_type, arrival_ms)`` pair — arrival times come from
the same seeded :class:`~repro.runtime.workload.WorkloadGenerator` floats
on both sides. Keying on a float is only sound because *neither codec
may perturb a single bit*: the binary codec ships raw IEEE-754 doubles,
and Python's JSON emits shortest-round-trip ``repr`` which parses back
to the identical double — a guarantee of the implementation, not of JSON
in general, so it is pinned by a regression test
(``tests/server/test_net_codec.py``) rather than assumed silently, and
:func:`assert_bits_identical` lets the differential suite check the
stronger bit-level property instead of ``==`` (which NaN payloads and
signed zeros can fool). A :class:`ReplaySummary` keys every observation
on that pair:

* the completion order and exact finish times of served requests,
* the split plan fixed at first dispatch for every request that reached
  one (elastic splitting makes this a per-request decision),
* the outcome partition (served / rejected / shed / failed / timed_out).

Two equal summaries mean the two systems made the same scheduling
decisions — the same preemption points, the same plan choices, the same
shed/fault/deadline verdicts — which is the pin that lets the socket
front-end evolve without drifting from the kernel.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol

from repro.runtime.kernel import EngineResult
from repro.scheduling.request import Request

#: Stable request identity across processes: (task_type, arrival_ms).
RequestKey = tuple[str, float]


class ReplayObservation(Protocol):
    """What one wire result must expose to be summarised (duck-typed by
    :class:`repro.server.client.WireResult`)."""

    outcome: str
    model: str
    arrival_ms: float
    finish_ms: float | None
    plan_ms: tuple[float, ...] | None


@dataclass(frozen=True)
class ReplaySummary:
    """Order- and outcome-exact footprint of one replayed trace."""

    #: Served requests in completion order.
    order: tuple[RequestKey, ...]
    #: Exact finish times, aligned with :attr:`order`.
    finishes: tuple[float, ...]
    #: Fixed execution plans, for every request that was dispatched at
    #: least once (sorted by key for order-free comparison).
    plans: tuple[tuple[RequestKey, tuple[float, ...]], ...]
    served: frozenset[RequestKey]
    rejected: frozenset[RequestKey]
    shed: frozenset[RequestKey]
    failed: frozenset[RequestKey]
    timed_out: frozenset[RequestKey]

    @property
    def n_observed(self) -> int:
        return (
            len(self.served)
            + len(self.rejected)
            + len(self.shed)
            + len(self.failed)
            + len(self.timed_out)
        )

    def outcome_totals(self) -> dict[str, int]:
        return {
            "served": len(self.served),
            "rejected": len(self.rejected),
            "shed": len(self.shed),
            "failed": len(self.failed),
            "timed_out": len(self.timed_out),
        }


def _key(task_type: str, arrival_ms: float) -> RequestKey:
    return (task_type, arrival_ms)


def float_bits(value: float) -> bytes:
    """The IEEE-754 bit pattern of one double (big-endian bytes)."""
    return struct.pack("!d", value)


_OUTCOMES = ("served", "rejected", "shed", "failed", "timed_out")

#: One float slot of a summary: its label's parts and its value. Slots
#: that compare equal on ``(section, task, index)`` have equal labels.
_Slot = tuple[str, str, int, float, float]


def _float_slots(summary: ReplaySummary) -> int:
    """How many floats :func:`_slots` yields for ``summary``."""
    return (
        len(summary.order)
        + len(summary.finishes)
        + sum(1 + len(plan) for _, plan in summary.plans)
        + summary.n_observed
    )


def _slots(summary: ReplaySummary) -> Iterator[_Slot]:
    """Every float in a summary, keys' floats included, in a canonical
    order: ``(section, task, index, key arrival, value)``."""
    for i, (task, arrival) in enumerate(summary.order):
        yield "order", task, i, arrival, arrival
    for i, finish in enumerate(summary.finishes):
        yield "finishes", "", i, 0.0, finish
    for (task, arrival), plan in summary.plans:
        yield "plan-key", task, -1, arrival, arrival
        for j, block in enumerate(plan):
            yield "plan", task, j, arrival, block
    for outcome in _OUTCOMES:
        for task, arrival in sorted(getattr(summary, outcome)):
            yield outcome, task, -1, arrival, arrival


def _label(slot: _Slot) -> str:
    section, task, index, arrival, _ = slot
    if section == "order":
        return f"order[{index}]={task}"
    if section == "finishes":
        return f"finishes[{index}]"
    if section == "plan":
        return f"plan {task}@{arrival!r}[{index}]"
    return f"{section} {task}"


def assert_bits_identical(wire: ReplaySummary, ref: ReplaySummary) -> None:
    """Assert two summaries carry bit-for-bit identical floats.

    Stronger than ``wire == ref``: float equality would call ``-0.0`` and
    ``0.0`` the same and can never match NaNs, whereas a wire codec that
    preserves every double exactly must reproduce the *bit patterns*.
    Raises AssertionError naming the first diverging value.

    Both summaries are walked in lockstep, so the comparison allocates
    nothing that grows with the trace; a label is built only for the
    first divergence.
    """
    n_a, n_b = _float_slots(wire), _float_slots(ref)
    if n_a != n_b:
        raise AssertionError(
            f"summaries differ in shape: {n_a} vs {n_b} float slots"
        )
    for a, b in zip(_slots(wire), _slots(ref)):
        # A plan block's label also names its key's arrival, which the
        # plan-key slot just before it has already matched bit for bit.
        if (
            a[0] != b[0]
            or a[1] != b[1]
            or a[2] != b[2]
            or float_bits(a[4]) != float_bits(b[4])
        ):
            raise AssertionError(
                f"float bits diverge at {_label(a)!r}: "
                f"{float_bits(a[4]).hex()} != {float_bits(b[4]).hex()} "
                f"({_label(b)!r})"
            )


def summarize_engine_result(result: EngineResult) -> ReplaySummary:
    """Summary of a batch engine run (``completed`` is in finish order)."""
    order: list[RequestKey] = []
    finishes: list[float] = []
    plans: dict[RequestKey, tuple[float, ...]] = {}

    def note_plan(req: Request) -> None:
        if req.plan_ms is not None:
            plans[_key(req.task_type, req.arrival_ms)] = req.plan_ms

    for req in result.completed:
        key = _key(req.task_type, req.arrival_ms)
        order.append(key)
        if req.finish_ms is None:
            raise ValueError(f"completed request {req.request_id} not finished")
        finishes.append(req.finish_ms)
        note_plan(req)
    buckets: dict[str, list[Request]] = {
        "rejected": result.dropped,
        "shed": result.shed,
        "failed": result.failed,
        "timed_out": result.timed_out,
    }
    sets: dict[str, frozenset[RequestKey]] = {}
    for outcome, reqs in buckets.items():
        keys: list[RequestKey] = []
        for req in reqs:
            keys.append(_key(req.task_type, req.arrival_ms))
            note_plan(req)
        sets[outcome] = frozenset(keys)
    return ReplaySummary(
        order=tuple(order),
        finishes=tuple(finishes),
        plans=tuple(sorted(plans.items())),
        served=frozenset(order),
        rejected=sets["rejected"],
        shed=sets["shed"],
        failed=sets["failed"],
        timed_out=sets["timed_out"],
    )


def summarize_observations(
    observations: Iterable[ReplayObservation],
) -> ReplaySummary:
    """Summary of wire results, in the order the server emitted them.

    A single connection's result/error frames arrive in terminal order
    (the outbound queue preserves sink order), so the served subsequence
    *is* the completion order.
    """
    order: list[RequestKey] = []
    finishes: list[float] = []
    plans: dict[RequestKey, tuple[float, ...]] = {}
    sets: dict[str, set[RequestKey]] = {
        "served": set(),
        "rejected": set(),
        "shed": set(),
        "failed": set(),
        "timed_out": set(),
    }
    for obs in observations:
        key = _key(obs.model, obs.arrival_ms)
        if obs.outcome not in sets:
            raise ValueError(f"unknown outcome {obs.outcome!r} for {key}")
        sets[obs.outcome].add(key)
        if obs.plan_ms is not None:
            plans[key] = tuple(obs.plan_ms)
        if obs.outcome == "served":
            order.append(key)
            if obs.finish_ms is None:
                raise ValueError(f"served observation {key} has no finish time")
            finishes.append(obs.finish_ms)
    return ReplaySummary(
        order=tuple(order),
        finishes=tuple(finishes),
        plans=tuple(sorted(plans.items())),
        served=frozenset(sets["served"]),
        rejected=frozenset(sets["rejected"]),
        shed=frozenset(sets["shed"]),
        failed=frozenset(sets["failed"]),
        timed_out=frozenset(sets["timed_out"]),
    )
