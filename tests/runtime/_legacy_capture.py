"""Frozen replay-summary bit comparison (revision b5747ad), verbatim.

Before :func:`repro.runtime.capture.assert_bits_identical` walked both
summaries in lockstep, it materialised every float of each side as a
``(label, bit-pattern)`` list and compared the two lists. Those two
functions are kept here, unmodified, as the *old* side of the verdict
oracle (``test_capture.py``).

Do not fix, extend, or "clean up" this module: its only value is being
exactly what shipped before the comparison streamed.
"""

from __future__ import annotations

from repro.runtime.capture import ReplaySummary, float_bits


def _summary_bits(summary: ReplaySummary) -> list[tuple[str, bytes]]:
    """Every float in a summary as (label, bit-pattern), in a canonical
    order, with keys' floats included — the full bit-level footprint."""
    out: list[tuple[str, bytes]] = []
    for i, (task, arrival) in enumerate(summary.order):
        out.append((f"order[{i}]={task}", float_bits(arrival)))
    for i, finish in enumerate(summary.finishes):
        out.append((f"finishes[{i}]", float_bits(finish)))
    for (task, arrival), plan in summary.plans:
        out.append((f"plan-key {task}", float_bits(arrival)))
        for j, block in enumerate(plan):
            out.append((f"plan {task}@{arrival!r}[{j}]", float_bits(block)))
    for outcome in ("served", "rejected", "shed", "failed", "timed_out"):
        for task, arrival in sorted(getattr(summary, outcome)):
            out.append((f"{outcome} {task}", float_bits(arrival)))
    return out


def assert_bits_identical(wire: ReplaySummary, ref: ReplaySummary) -> None:
    """Assert two summaries carry bit-for-bit identical floats.

    Stronger than ``wire == ref``: float equality would call ``-0.0`` and
    ``0.0`` the same and can never match NaNs, whereas a wire codec that
    preserves every double exactly must reproduce the *bit patterns*.
    Raises AssertionError naming the first diverging value.
    """
    a, b = _summary_bits(wire), _summary_bits(ref)
    if len(a) != len(b):
        raise AssertionError(
            f"summaries differ in shape: {len(a)} vs {len(b)} float slots"
        )
    for (label_a, bits_a), (label_b, bits_b) in zip(a, b):
        if label_a != label_b or bits_a != bits_b:
            raise AssertionError(
                f"float bits diverge at {label_a!r}: "
                f"{bits_a.hex()} != {bits_b.hex()} ({label_b!r})"
            )
