"""Scheduler interface consumed by the discrete-event executor."""

from __future__ import annotations

import abc

from repro.scheduling.queue import RequestQueue
from repro.scheduling.request import Request


class Scheduler(abc.ABC):
    """Queue-ordering policy.

    The executor calls :meth:`on_arrival` when a request arrives,
    :meth:`select` at every dispatch point (block boundaries included), and
    :meth:`plan_for` once per request at its first dispatch to fix the
    execution plan (split blocks or whole model).
    """

    #: Human-readable policy name (report labels).
    name: str = "scheduler"
    #: Extra latency charged when the processor switches away from a
    #: partially-executed request (checkpoint save/restore cost). A class
    #: constant by default; the kernel overrides it *per instance* when a
    #: processor's :class:`~repro.hardware.NodeProfile` carries a
    #: node-level ``preemption_overhead_ms`` (heterogeneous fleets
    #: checkpoint at different speeds).
    preemption_overhead_ms: float = 0.0
    #: Optional batched admission: ``bulk_admit(queue, requests)`` takes a
    #: time-ordered arrival chunk and must be observably identical —
    #: ordering, counters, side effects — to calling :meth:`on_arrival`
    #: once per request in order, and may only be provided by policies that
    #: never reject and whose :meth:`on_arrival` into an empty queue does
    #: nothing but make the request its sole entry (the fast lane appends
    #: such arrivals directly). ``None`` (the default) makes the kernel's
    #: fast lane fall back to per-request admission; policies opt in by
    #: defining a method of this name (see ``SplitScheduler``).
    bulk_admit = None

    @abc.abstractmethod
    def on_arrival(self, queue: RequestQueue, request: Request, now_ms: float) -> bool:
        """Place ``request`` in ``queue``; return False to reject (drop) it."""

    def select(self, queue: RequestQueue, now_ms: float) -> int:
        """Index of the request to run next (default: head)."""
        return 0

    def plan_for(
        self, request: Request, queue: RequestQueue, now_ms: float
    ) -> tuple[float, ...]:
        """Execution plan fixed at first dispatch. Defaults to the task's
        configured block plan."""
        return request.task.blocks_ms
