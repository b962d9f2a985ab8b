"""Bit-identity verdicts on replay summaries, pinned to the frozen oracle.

:func:`~repro.runtime.capture.assert_bits_identical` walks two summaries
in lockstep and builds a label only where they diverge. Its verdict and
its exact ``AssertionError`` text must match the frozen list-building
comparison in ``_legacy_capture.py`` on every case below: equal
summaries, a shape mismatch, a section boundary that moves at equal
size, a first divergence in every section, signed zeros and NaN
payloads. Comparing two 20k-request summaries must also stay within a
small, size-independent allocation budget.
"""

from __future__ import annotations

import dataclasses
import struct
import tracemalloc

import pytest

from repro.runtime.capture import ReplaySummary, assert_bits_identical

from tests.runtime import _legacy_capture as legacy

NAN_A = struct.unpack("!d", bytes.fromhex("7ff8000000000001"))[0]
NAN_B = struct.unpack("!d", bytes.fromhex("7ff8000000000002"))[0]

BASE = ReplaySummary(
    order=(("a", 1.0), ("b", 2.5), ("a", 4.0)),
    finishes=(3.0, 7.5, 9.0),
    plans=(
        (("a", 1.0), (1.5, 1.5)),
        (("a", 4.0), (2.0,)),
        (("b", 2.5), (0.5, 1.0, 1.0)),
        (("c", 5.0), (1.0, 2.0)),
    ),
    served=frozenset({("a", 1.0), ("b", 2.5), ("a", 4.0)}),
    rejected=frozenset({("c", 0.5)}),
    shed=frozenset({("b", 6.0), ("a", 6.5)}),
    failed=frozenset({("c", 5.0)}),
    timed_out=frozenset({("a", 8.0)}),
)


def _with(summary: ReplaySummary = BASE, **changes) -> ReplaySummary:
    return dataclasses.replace(summary, **changes)


def _replace_plan(i: int, plan) -> tuple:
    plans = list(BASE.plans)
    plans[i] = plan
    return tuple(plans)


def _verdict(check, wire: ReplaySummary, ref: ReplaySummary) -> str | None:
    try:
        check(wire, ref)
    except AssertionError as exc:
        return str(exc)
    return None


CASES = {
    "equal": BASE,
    "equal copy": _with(order=tuple(list(BASE.order))),
    "shape: extra rejected": _with(rejected=BASE.rejected | {("d", 0.25)}),
    "shape: longer plan": _with(plans=_replace_plan(1, (("a", 4.0), (2.0, 3.0)))),
    "shape: fewer served": _with(
        order=BASE.order[:2], finishes=BASE.finishes[:2],
        served=frozenset(BASE.order[:2]),
    ),
    "order task": _with(order=(("a", 1.0), ("c", 2.5), ("a", 4.0))),
    "order arrival": _with(order=(("a", 1.0), ("b", 2.75), ("a", 4.0))),
    "finish": _with(finishes=(3.0, 7.5, 9.5)),
    "plan key task": _with(plans=_replace_plan(1, (("z", 4.0), (2.0,)))),
    "plan key arrival": _with(plans=_replace_plan(1, (("a", 4.5), (2.0,)))),
    "plan block": _with(plans=_replace_plan(2, (("b", 2.5), (0.5, 1.25, 1.0)))),
    "served": _with(served=frozenset({("a", 1.0), ("b", 2.5), ("a", 4.25)})),
    "rejected": _with(rejected=frozenset({("d", 0.5)})),
    "shed": _with(shed=frozenset({("b", 6.0), ("a", 6.75)})),
    "failed": _with(failed=frozenset({("c", 5.5)})),
    "timed_out": _with(timed_out=frozenset({("b", 8.0)})),
    # Equal size, but two slots move from the plans to the served order.
    "section boundary": _with(
        order=BASE.order + (("c", 5.0),),
        finishes=BASE.finishes + (11.0,),
        plans=_replace_plan(2, (("b", 2.5), (0.5,))),
    ),
    "negative zero finish": _with(finishes=(3.0, -0.0, 9.0)),
    "negative zero plan key": _with(plans=_replace_plan(1, (("a", -0.0), (2.0,)))),
    "nan payloads": _with(finishes=(3.0, NAN_A, 9.0)),
}
REFS = {
    "negative zero finish": _with(finishes=(3.0, 0.0, 9.0)),
    "negative zero plan key": _with(plans=_replace_plan(1, (("a", 0.0), (2.0,)))),
    "nan payloads": _with(finishes=(3.0, NAN_B, 9.0)),
}
#: Same NaN payload in distinct float objects: bit-identical.
NAN_SAME = (
    _with(plans=_replace_plan(1, (("a", float("nan")), (NAN_A,)))),
    _with(plans=_replace_plan(1, (("a", float("nan")), (NAN_A,)))),
)


@pytest.mark.parametrize("case", sorted(CASES))
def test_verdict_matches_frozen_comparison(case):
    wire, ref = CASES[case], REFS.get(case, BASE)
    expected = _verdict(legacy.assert_bits_identical, wire, ref)
    assert (expected is None) == case.startswith("equal")
    assert _verdict(assert_bits_identical, wire, ref) == expected
    # The comparison is asymmetric only in which side is named first.
    assert _verdict(assert_bits_identical, ref, wire) == _verdict(
        legacy.assert_bits_identical, ref, wire
    )


def test_same_nan_payload_is_identical():
    wire, ref = NAN_SAME
    assert wire.plans[1][0][1] is not ref.plans[1][0][1]
    assert _verdict(legacy.assert_bits_identical, wire, ref) is None
    assert _verdict(assert_bits_identical, wire, ref) is None


def _large_summary(n: int) -> ReplaySummary:
    keys = [("yolov2" if i % 2 else "vgg19", i * 110.0 + 0.25) for i in range(n)]
    served = keys[: n - n // 10]
    return ReplaySummary(
        order=tuple(served),
        finishes=tuple(arrival + 31.5 for _, arrival in served),
        plans=tuple((key, (12.5, 13.0, 14.25)) for key in sorted(keys)),
        served=frozenset(served),
        rejected=frozenset(keys[n - n // 10 :]),
        shed=frozenset(),
        failed=frozenset(),
        timed_out=frozenset(),
    )


def test_comparison_allocates_little():
    wire, ref = _large_summary(20_000), _large_summary(20_000)
    tracemalloc.start()
    try:
        assert_bits_identical(wire, ref)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"comparison peaked at {peak / 1e6:.2f} MB"
