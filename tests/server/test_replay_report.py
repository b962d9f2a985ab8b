"""A replay report's repr stays O(1) in the number of results.

``asyncio.run`` repr's its main task while restoring the SIGINT handler
(``signal.getsignal`` formats an enum ``ValueError`` around the
``functools.partial`` that holds the task), and the task's repr includes
its result, built in full before ``reprlib`` truncates it. A report
returned through ``asyncio.run`` must therefore never repr its results.
"""

from __future__ import annotations

import asyncio
import signal

from repro.server.client import ReplayReport


class _Unprintable:
    outcome = "served"
    reprs = 0

    def __repr__(self) -> str:
        # Counted, since reprlib (which formats a task's result) swallows
        # the error.
        _Unprintable.reprs += 1
        raise RuntimeError("a result was repr'd")


def _report(n: int) -> ReplayReport:
    return ReplayReport(results=[_Unprintable()] * n, sent=n, wall_s=1.25)


def test_repr_does_not_touch_results():
    text = repr(_report(50_000))
    assert len(text) < 120
    assert "50000" in text and "wall_s=1.25" in text
    assert len(repr(_report(3))) <= len(text)


def test_asyncio_run_does_not_repr_results():
    async def replay() -> ReplayReport:
        return _report(50_000)

    before = _Unprintable.reprs
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        report = asyncio.run(replay())
    finally:
        signal.signal(signal.SIGINT, previous)
    assert _Unprintable.reprs == before
    assert report.conserved
    assert report.outcome_counts() == {"served": 50_000}
