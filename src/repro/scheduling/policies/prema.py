"""PREMA-style baseline: token-based preemptive multi-task scheduling.

PREMA (HPCA'20) assigns each task a static priority class and accumulates
*tokens* proportional to priority x normalised waiting time (slowdown);
at every scheduling point the request with the most tokens runs, and a
running job can be preempted at checkpoint boundaries, paying a
checkpoint save/restore cost.

Checkpoints in PREMA fall at layer-count boundaries, *not* time-even
boundaries — the executor therefore sees uneven preemption granularity,
which is precisely the gap SPLIT's evenly-sized splitting closes. The
simulator encodes this by giving PREMA tasks equal-operator-count chunk
plans (built by :func:`repro.runtime.workload.prema_chunk_plan`).
"""

from __future__ import annotations

from repro.scheduling.policies.base import Scheduler
from repro.scheduling.queue import RequestQueue
from repro.scheduling.request import Request, TaskSpec
from repro.types import RequestClass

#: PREMA's paper uses priority classes {1, 3, 9}; we map latency-critical
#: short tasks high and long tasks low, as its SLA discussion prescribes.
PRIORITY_BY_CLASS = {
    RequestClass.SHORT: 9.0,
    RequestClass.LONG: 3.0,
}

#: Token values reachable with zero waiting time (``p * (1 + 0)``); a
#: winner on this plateau forces the full-scan fallback in ``select``.
_PLATEAU_TOKENS = frozenset(PRIORITY_BY_CLASS.values())


def _select_scan(queue: RequestQueue, now_ms: float) -> int:
    """The original full-queue argmax — the selection oracle.

    ``select`` delegates here on its exactness escapes, and the
    equivalence tests run whole scenarios against it. The token
    expression is kept textually identical to ``PremaScheduler.token``
    so selections match bit-for-bit.
    """
    best_idx = 0
    best_token = -1.0
    priorities = PRIORITY_BY_CLASS
    for i, req in enumerate(queue):
        task = req.task
        waited = now_ms - req.arrival_ms
        if waited < 0.0:
            waited = 0.0
        t = priorities[task.request_class] * (1.0 + waited / task.ext_ms)
        if t > best_token:
            best_token = t
            best_idx = i
    return best_idx


class PremaScheduler(Scheduler):
    """Dynamic token scheduling with checkpoint-granular preemption."""

    name = "prema"

    def __init__(self, preemption_overhead_ms: float = 1.6):
        # Checkpoint save + restore of intermediate activations. On the
        # Jetson/ONNX Runtime platform a checkpoint restore is at minimum a
        # session switch, so the default equals the device preset's fixed
        # per-boundary cost (block_overhead_ms = 1.6 ms) — the same price
        # SPLIT pays at each of its cut boundaries.
        self.preemption_overhead_ms = preemption_overhead_ms
        #: Task type -> ``(task, priority)``: the class priority resolved
        #: once per task object instead of hashing the ``RequestClass``
        #: enum (a Python-level ``__hash__``) for every candidate; a
        #: different TaskSpec under the same type name re-resolves.
        self._priority: dict[str, tuple[TaskSpec, float]] = {}

    def on_arrival(self, queue: RequestQueue, request: Request, now_ms: float) -> bool:
        queue.append(request)
        return True

    def token(self, request: Request, now_ms: float) -> float:
        """Priority-weighted normalised waiting time (PREMA's token)."""
        priority = PRIORITY_BY_CLASS[request.task.request_class]
        slowdown = request.waited_ms(now_ms) / request.ext_ms
        return priority * (1.0 + slowdown)

    def select(self, queue: RequestQueue, now_ms: float) -> int:
        """Candidate-pruned token selection, bit-identical to a full scan.

        PREMA's token ``p * (1 + waited / ext)`` is *arrival-monotone*:
        within one task type (fixed ``p`` and ``ext``) the earliest queued
        arrival always holds the largest token, strictly so once it has
        waited at all. The queue keeps a lazy per-type min-arrival heap
        (:meth:`RequestQueue.min_arrival_candidates`), so the argmax is
        found by scoring O(#types) candidates instead of rescanning the
        whole queue at every block boundary. The token expression is kept
        textually identical to :meth:`token` / :func:`_select_scan` so the
        winning floats match bit-for-bit.

        Two exactness escapes keep the decision identical to the full scan
        in every corner case:

        * exact token *ties* between candidates are broken by live queue
          position (``index_of``), the full scan's first-wins rule;
        * a winner sitting on the zero-wait plateau (token exactly equal
          to its class priority) falls back to the full scan — on that
          plateau the within-type ordering is no longer strict, so a
          same-type non-candidate could tie; the plateau only occurs when
          the winner just arrived, which under load means a short queue.
        """
        candidates = queue.min_arrival_candidates()
        resolved = self._priority
        best_req: Request | None = None
        best_token = -1.0
        tied: list[Request] | None = None
        for req in candidates:
            task = req.task
            entry = resolved.get(task.name)
            if entry is None or entry[0] is not task:
                entry = (task, PRIORITY_BY_CLASS[task.request_class])
                resolved[task.name] = entry
            waited = now_ms - req.arrival_ms
            if waited < 0.0:
                waited = 0.0
            t = entry[1] * (1.0 + waited / task.ext_ms)
            if t > best_token:
                best_token = t
                best_req = req
                tied = None
            elif t == best_token and best_req is not None:
                if tied is None:
                    tied = [best_req]
                tied.append(req)
        if best_req is None or best_token in _PLATEAU_TOKENS:
            return _select_scan(queue, now_ms)
        if tied is not None:
            return min(queue.index_of(r) for r in tied)
        return queue.index_of(best_req)
