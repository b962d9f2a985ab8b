"""Concurrent multi-stream execution (the RT-A baseline).

RT-A (Runtime-Aware scheduling, ICCAD'21) merges pending models and runs
them concurrently through GPU streams, aligning operators to limit
contention; aggregate throughput slightly beats serial, but every request
in the window progresses at the shared rate, so a short request co-running
with long ones sees its end-to-end latency stretch toward theirs — the
behaviour Fig. 1 and §2.2 describe.

Model: a FIFO admission window of ``device.max_streams`` requests executes
by processor sharing at aggregate rate ``aligned_efficiency(n)``; requests
beyond the window queue FIFO.

A :class:`~repro.robustness.RobustnessConfig` adds the same fault story
the sequential engine has, at whole-request granularity (processor sharing
has no block boundaries): an injected failure wastes the request's full
execution then retries it with backoff, a stall inflates its work, a drop
discards it at admission, and deadlines are enforced at admission and
completion. Load shedding is queue-discipline-specific and not supported
here (the sequential engine and the server implement it).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any

from repro.errors import SimulationError
from repro.hardware.contention import ContentionModel
from repro.robustness.config import RobustnessConfig
from repro.robustness.faults import FaultKind
from repro.runtime.engine import EngineResult
from repro.runtime.kernel import validate_batch_arrivals
from repro.scheduling.request import Request


class ConcurrentEngine:
    """Window-limited processor-sharing execution of admitted requests."""

    def __init__(
        self,
        contention: ContentionModel,
        aligned: bool = True,
        alignment_barrier: bool = False,
        robustness: RobustnessConfig | None = None,
    ):
        self.contention = contention
        #: ``aligned=True`` uses RT-A's alignment throughput curve;
        #: False models naive multi-stream contention (ablation).
        self.aligned = aligned
        #: The paper's Fig.-1 semantics: a request that joins mid-flight is
        #: *aligned* with the already-running requests and cannot return
        #: before they complete ("it has to be aligned with request B and
        #: wait for the completion of request B", §1). Off by default —
        #: the fleet evaluation uses the more charitable processor-sharing
        #: completion; Fig. 1 turns this on.
        self.alignment_barrier = alignment_barrier
        if robustness is not None and robustness.load_shed is not None:
            raise SimulationError(
                "ConcurrentEngine does not support load shedding; use the "
                "sequential engine or the server"
            )
        self.robustness = robustness

    def _rate(self, n_active: int) -> float:
        if self.aligned:
            return self.contention.aligned_rate(n_active)
        return self.contention.per_request_rate(n_active)

    def run(self, arrivals: list[tuple[float, Request]]) -> EngineResult:
        result = EngineResult()
        cfg = self.robustness
        injector = cfg.make_injector() if cfg is not None else None
        validate_batch_arrivals(arrivals)
        heap: list[tuple[float, int, Request]] = []
        for i, (t, req) in enumerate(arrivals):
            heapq.heappush(heap, (t, i, req))

        #: rid -> mutable ``[req, work left]``; progress drains ``left`` in
        #: place, so an event touches each entry once and allocates nothing.
        window: dict[int, list[Any]] = {}
        backlog: deque[Request] = deque()
        retry_heap: list[tuple[float, int, Request]] = []
        retry_seq = itertools.count()
        #: rids whose current execution was failed by the injector.
        doomed: set[int] = set()
        #: rid -> ids of requests it joined mid-flight (alignment mentors);
        #: with the barrier on, completion is deferred until they finish.
        mentors: dict[int, set[int]] = {}
        #: work-finished requests held back by unfinished mentors.
        held: dict[int, Request] = {}
        barrier = self.alignment_barrier
        max_streams = self.contention.device.max_streams
        #: Per-request progress rate by window size (``_rate`` is a pure
        #: function of it, and the window never exceeds ``max_streams``).
        rates = [self._rate(n) for n in range(max_streams + 1)]
        inf = math.inf
        now = 0.0

        def admit(t: float) -> None:
            while backlog and len(window) < max_streams:
                req = backlog.popleft()
                if cfg is not None and t >= cfg.deadline_ms(req):
                    req.outcome = "timed_out"
                    result.timed_out.append(req)
                    continue
                work = req.task.ext_ms
                if injector is not None:
                    decision = injector.decide(
                        req.task_type, req.arrival_ms, 0, req.retries
                    )
                    if decision is not None:
                        if decision.kind is FaultKind.DROP:
                            result.fault_drops += 1
                            req.outcome = "failed"
                            result.failed.append(req)
                            continue
                        if decision.kind is FaultKind.STALL:
                            work *= decision.stall_factor
                            result.stalls += 1
                        else:  # FAIL: detected only once the work is spent
                            doomed.add(req.request_id)
                if not req.started:
                    req.begin((req.task.ext_ms,), t)
                if barrier:
                    mentors[req.request_id] = set(window.keys()) | set(held)
                window[req.request_id] = [req, work]

        def advance(to: float) -> None:
            nonlocal now
            span = to - now
            if span < -1e-9:
                raise SimulationError("time went backwards")
            if span > 0 and window:
                done = span * rates[len(window)]
                for entry in window.values():
                    entry[1] = entry[1] - done
            now = to

        def complete(req: Request, t: float) -> None:
            req.next_block = len(req.plan_ms or (0,))
            req.finish_ms = t
            if cfg is not None and t > cfg.deadline_ms(req):
                req.outcome = "timed_out"
                result.timed_out.append(req)
            else:
                req.outcome = "served"
                result.completed.append(req)
            mentors.pop(req.request_id, None)

        def fail_or_retry(req: Request, t: float) -> None:
            assert cfg is not None
            result.fault_fails += 1
            req.retries += 1
            mentors.pop(req.request_id, None)
            # The failed attempt is no longer running: nobody waits on it
            # (a retry re-admits it with fresh mentors of its own).
            for waiting_on in mentors.values():
                waiting_on.discard(req.request_id)
            if cfg.retry.exhausted(req.retries):
                req.outcome = "failed"
                result.failed.append(req)
            else:
                result.retries += 1
                heapq.heappush(
                    retry_heap,
                    (
                        t + cfg.retry.backoff_ms(req.retries - 1),
                        next(retry_seq),
                        req,
                    ),
                )

        def release_held(t: float) -> None:
            """Complete held requests whose mentors have all finished."""
            done_something = True
            while done_something:
                done_something = False
                active = set(window) | set(held)
                for rid, req in list(held.items()):
                    if not (mentors.get(rid, set()) & active - {rid}):
                        del held[rid]
                        complete(req, t)
                        done_something = True

        while heap or window or backlog or held or retry_heap:
            t_arr = heap[0][0] if heap else inf
            t_retry = retry_heap[0][0] if retry_heap else inf
            if window:
                min_left = min(entry[1] for entry in window.values())
                t_done = now + max(0.0, min_left) / rates[len(window)]
            else:
                t_done = inf
            if t_arr <= min(t_done, t_retry):
                if t_arr == inf:
                    raise SimulationError(
                        "alignment barrier deadlock: held requests with no "
                        "running mentors"
                    )
                advance(t_arr)
                _, _, req = heapq.heappop(heap)
                backlog.append(req)
                admit(now)
            elif t_retry <= t_done:
                advance(t_retry)
                while retry_heap and retry_heap[0][0] <= now:
                    _, _, req = heapq.heappop(retry_heap)
                    backlog.append(req)
                admit(now)
            else:
                advance(t_done)
                finished = [
                    rid for rid, entry in window.items() if entry[1] <= 1e-9
                ]
                if not finished:
                    raise SimulationError("completion event with nothing done")
                for rid in finished:
                    req = window.pop(rid)[0]
                    if rid in doomed:
                        doomed.discard(rid)
                        fail_or_retry(req, now)
                        continue
                    if barrier and mentors.get(rid, set()) & (
                        set(window) | set(held)
                    ):
                        held[rid] = req  # work done, waiting for alignment
                    else:
                        complete(req, now)
                if held:
                    release_held(now)
                admit(now)
        return result
