"""Frozen pre-kernel execution paths (revision 50545cc), verbatim.

These are the event loops the unified discrete-event kernel
(:mod:`repro.runtime.kernel`) replaced: the SequentialEngine fast path,
its robust fork, and the MultiProcessorEngine per-GPU loops. They are
kept here — unmodified except for class names and imports — as the
*old* side of the differential golden-trace suite
(``test_kernel_differential.py``), which proves the kernel produces
byte-identical block traces and float-identical QoS curves.

It also keeps the RT-A processor-sharing loop (``LegacyConcurrentEngine``)
as it stood before the in-place window rewrite, the old side of
``test_executor_differential.py``.

Do not fix, extend, or "clean up" this module: its only value is being
exactly what shipped before the kernel swap.
"""

from __future__ import annotations

import heapq
import itertools
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.errors import SimulationError
from repro.hardware.contention import ContentionModel
from repro.robustness.config import RobustnessConfig
from repro.robustness.faults import FaultKind
from repro.runtime.kernel import EngineResult, validate_batch_arrivals
from repro.runtime.multi import MultiEngineResult
from repro.runtime.trace import ExecutionTrace, TraceEntry
from repro.scheduling.policies.base import Scheduler
from repro.scheduling.queue import RequestQueue
from repro.scheduling.request import Request

RecordSink = Callable[[Request, str], None]


class LegacySequentialEngine:
    """The pre-kernel SequentialEngine: forked fast/robust event loops."""

    def __init__(
        self,
        scheduler: Scheduler,
        keep_trace: bool = False,
        robustness: RobustnessConfig | None = None,
        queue_cls: type = RequestQueue,
    ):
        self.scheduler = scheduler
        self.keep_trace = keep_trace
        self.robustness = robustness
        self.queue_cls = queue_cls

    def run(self, arrivals: list[tuple[float, Request]]) -> EngineResult:
        for t, _ in arrivals:
            if t < 0:
                raise SimulationError(f"negative arrival time {t}")
        if self.robustness is None:
            return self._run_fast(arrivals)
        return self._run_robust(arrivals, self.robustness)

    # ------------------------------------------------------------ fault-free
    def _run_fast(self, arrivals: list[tuple[float, Request]]) -> EngineResult:
        result = EngineResult(
            trace=ExecutionTrace() if self.keep_trace else None
        )
        schedule: list[tuple[float, Request]] = sorted(
            arrivals, key=lambda pair: pair[0]
        )

        def emit(req: Request, outcome: str) -> None:
            if outcome == "served":
                result.completed.append(req)
            else:
                result.dropped.append(req)

        self._event_loop(iter(schedule), emit, result)
        return result

    def run_stream(
        self,
        arrivals: Iterable[tuple[float, Request]],
        sink: RecordSink,
    ) -> EngineResult:
        if self.robustness is not None:
            raise SimulationError(
                "run_stream supports fault-free runs only; use run() with a "
                "RobustnessConfig"
            )
        result = EngineResult(
            trace=ExecutionTrace() if self.keep_trace else None
        )

        def validated(
            pairs: Iterable[tuple[float, Request]],
        ) -> Iterator[tuple[float, Request]]:
            last = 0.0
            for t, req in pairs:
                if t < 0:
                    raise SimulationError(f"negative arrival time {t}")
                if t < last:
                    raise SimulationError(
                        f"arrival stream not time-ordered: {t} after {last}"
                    )
                last = t
                yield t, req

        self._event_loop(validated(arrivals), sink, result)
        return result

    def _event_loop(
        self,
        schedule: Iterator[tuple[float, Request]],
        emit: RecordSink,
        result: EngineResult,
    ) -> None:
        queue = self.queue_cls()
        running: Request | None = None
        block_end = 0.0
        block_start = 0.0
        last_executed: Request | None = None
        now = 0.0
        pending: tuple[float, Request] | None = next(schedule, None)

        def dispatch(t: float) -> None:
            nonlocal running, block_end, block_start, last_executed
            if queue.empty:
                running = None
                return
            idx = self.scheduler.select(queue, t)
            if idx != 0:
                queue.move_to_front(idx)
            req = queue.peek()
            switch_cost = 0.0
            if (
                last_executed is not None
                and last_executed is not req
                and not last_executed.done
                and last_executed.started
            ):
                switch_cost = self.scheduler.preemption_overhead_ms
                last_executed.preemptions += 1
                result.preemptions += 1
            if last_executed is not None and last_executed is not req:
                result.context_switches += 1
            if not req.started:
                plan = self.scheduler.plan_for(req, queue, t)
                req.begin(plan, t)
            block_ms = req.pop_block()
            block_start = t + switch_cost
            block_end = block_start + block_ms
            running = req
            last_executed = req

        while pending is not None or running is not None or not queue.empty:
            next_arrival = pending[0] if pending is not None else float("inf")
            next_done = block_end if running is not None else float("inf")
            if running is None and not queue.empty:
                dispatch(now)
                continue
            if next_arrival == float("inf") and next_done == float("inf"):
                break
            if next_arrival <= next_done:
                now = next_arrival
                req = pending[1]  # type: ignore[index]
                pending = next(schedule, None)
                admitted = self.scheduler.on_arrival(queue, req, now)
                if not admitted:
                    result.n_dropped += 1
                    emit(req, "rejected")
            else:
                now = next_done
                req = running
                assert req is not None
                if result.trace is not None:
                    result.trace.record(
                        TraceEntry(
                            request_id=req.request_id,
                            task_type=req.task_type,
                            block_index=req.next_block - 1,
                            start_ms=block_start,
                            end_ms=now,
                        )
                    )
                running = None
                if req.blocks_left == 0:
                    req.finish_ms = now
                    queue.remove(req)
                    result.n_completed += 1
                    emit(req, "served")
                dispatch(now)

        if not queue.empty:
            raise SimulationError(
                f"engine finished with {len(queue)} requests still queued"
            )

    # --------------------------------------------------------------- faulty
    def _run_robust(
        self, arrivals: list[tuple[float, Request]], cfg: RobustnessConfig
    ) -> EngineResult:
        result = EngineResult(
            trace=ExecutionTrace() if self.keep_trace else None
        )
        injector = cfg.make_injector()
        shedder = cfg.make_shedder()
        retry = cfg.retry
        schedule: list[tuple[float, Request]] = sorted(
            arrivals, key=lambda pair: pair[0]
        )
        n_arrivals = len(schedule)
        next_idx = 0

        queue = self.queue_cls()
        retry_heap: list[tuple[float, int, Request]] = []
        retry_seq = itertools.count()
        running: Request | None = None
        pending_fail = False
        block_end = 0.0
        block_start = 0.0
        last_executed: Request | None = None
        now = 0.0

        def finish_terminal(req: Request, outcome: str, bucket: list[Request]) -> None:
            nonlocal last_executed
            req.outcome = outcome
            bucket.append(req)
            if last_executed is req:
                last_executed = None

        def shed_overload(t: float) -> None:
            if shedder is None:
                return
            for victim in shedder.select_victims(queue, t, exclude=running):
                queue.remove(victim)
                finish_terminal(victim, "shed", result.shed)

        def dispatch(t: float) -> None:
            nonlocal running, pending_fail, block_end, block_start, last_executed
            while not queue.empty:
                idx = self.scheduler.select(queue, t)
                if idx != 0:
                    queue.move_to_front(idx)
                req = queue.peek()
                if t >= cfg.deadline_ms(req):
                    queue.remove(req)
                    finish_terminal(req, "timed_out", result.timed_out)
                    continue
                decision = (
                    injector.decide(
                        req.task_type, req.arrival_ms, req.next_block, req.retries
                    )
                    if injector is not None
                    else None
                )
                if decision is not None and decision.kind is FaultKind.DROP:
                    queue.remove(req)
                    result.fault_drops += 1
                    finish_terminal(req, "failed", result.failed)
                    continue
                switch_cost = 0.0
                if (
                    last_executed is not None
                    and last_executed is not req
                    and not last_executed.done
                    and last_executed.started
                ):
                    switch_cost = self.scheduler.preemption_overhead_ms
                    last_executed.preemptions += 1
                    result.preemptions += 1
                if last_executed is not None and last_executed is not req:
                    result.context_switches += 1
                if not req.started:
                    plan = self.scheduler.plan_for(req, queue, t)
                    req.begin(plan, t)
                block_ms = req.pop_block()
                if decision is not None and decision.kind is FaultKind.STALL:
                    block_ms *= decision.stall_factor
                    result.stalls += 1
                pending_fail = (
                    decision is not None and decision.kind is FaultKind.FAIL
                )
                block_start = t + switch_cost
                block_end = block_start + block_ms
                running = req
                last_executed = req
                return
            running = None

        while (
            next_idx < n_arrivals
            or running is not None
            or not queue.empty
            or retry_heap
        ):
            next_arrival = (
                schedule[next_idx][0] if next_idx < n_arrivals else float("inf")
            )
            next_retry = retry_heap[0][0] if retry_heap else float("inf")
            next_done = block_end if running is not None else float("inf")
            if running is None and not queue.empty:
                dispatch(now)
                continue
            if (
                next_arrival == float("inf")
                and next_retry == float("inf")
                and next_done == float("inf")
            ):
                break
            if next_arrival <= min(next_retry, next_done):
                now = next_arrival
                req = schedule[next_idx][1]
                next_idx += 1
                admitted = self.scheduler.on_arrival(queue, req, now)
                if not admitted:
                    req.outcome = "rejected"
                    result.dropped.append(req)
                else:
                    shed_overload(now)
            elif next_retry <= next_done:
                now = next_retry
                _, _, req = heapq.heappop(retry_heap)
                if now >= cfg.deadline_ms(req):
                    finish_terminal(req, "timed_out", result.timed_out)
                    continue
                if self.scheduler.on_arrival(queue, req, now):
                    shed_overload(now)
                else:
                    req.outcome = "rejected"
                    result.dropped.append(req)
            else:
                now = next_done
                req = running
                assert req is not None
                if result.trace is not None:
                    result.trace.record(
                        TraceEntry(
                            request_id=req.request_id,
                            task_type=req.task_type,
                            block_index=req.next_block - 1,
                            start_ms=block_start,
                            end_ms=now,
                            failed=pending_fail,
                        )
                    )
                running = None
                if pending_fail:
                    pending_fail = False
                    result.fault_fails += 1
                    req.unpop_block()
                    req.retries += 1
                    queue.remove(req)
                    if retry.exhausted(req.retries):
                        finish_terminal(req, "failed", result.failed)
                    else:
                        result.retries += 1
                        if last_executed is req:
                            last_executed = None
                        heapq.heappush(
                            retry_heap,
                            (
                                now + retry.backoff_ms(req.retries - 1),
                                next(retry_seq),
                                req,
                            ),
                        )
                elif req.blocks_left == 0:
                    req.finish_ms = now
                    queue.remove(req)
                    if now > cfg.deadline_ms(req):
                        finish_terminal(req, "timed_out", result.timed_out)
                    else:
                        req.outcome = "served"
                        result.completed.append(req)
                dispatch(now)

        if not queue.empty:
            raise SimulationError(
                f"engine finished with {len(queue)} requests still queued"
            )
        result.n_completed = len(result.completed)
        result.n_dropped = len(result.dropped)
        return result


# --------------------------------------------------------------------- multi

LegacyRouter = Callable[[list["_LegacyProcessor"], Request], int]


def legacy_round_robin(processors, request):
    counter = sum(p.dispatched_arrivals for p in processors)
    return counter % len(processors)


def legacy_least_backlog(processors, request):
    def backlog(p):
        running = p.block_end - p.now if p.running is not None else 0.0
        return p.queue.total_backlog_ms() + max(0.0, running)

    return min(range(len(processors)), key=lambda i: backlog(processors[i]))


def legacy_shortest_queue(processors, request):
    return min(range(len(processors)), key=lambda i: len(processors[i].queue))


def legacy_model_affinity(processors, request):
    digest = zlib.crc32(request.task_type.encode("utf-8"))
    return digest % len(processors)


LEGACY_ROUTERS: dict[str, LegacyRouter] = {
    "round_robin": legacy_round_robin,
    "least_backlog": legacy_least_backlog,
    "shortest_queue": legacy_shortest_queue,
    "model_affinity": legacy_model_affinity,
}


@dataclass
class _LegacyProcessor:
    index: int
    scheduler: Scheduler
    queue: RequestQueue = field(default_factory=RequestQueue)
    running: Request | None = None
    block_end: float = float("inf")
    block_start: float = 0.0
    last_executed: Request | None = None
    now: float = 0.0
    dispatched_arrivals: int = 0
    trace: ExecutionTrace | None = None

    def dispatch(self, t: float, result: EngineResult) -> None:
        self.now = t
        if self.queue.empty:
            self.running = None
            self.block_end = float("inf")
            return
        idx = self.scheduler.select(self.queue, t)
        if idx != 0:
            self.queue.move_to_front(idx)
        req = self.queue.peek()
        switch_cost = 0.0
        last = self.last_executed
        if last is not None and last is not req and not last.done and last.started:
            switch_cost = self.scheduler.preemption_overhead_ms
            last.preemptions += 1
            result.preemptions += 1
        if last is not None and last is not req:
            result.context_switches += 1
        if not req.started:
            plan = self.scheduler.plan_for(req, self.queue, t)
            req.begin(plan, t)
        block_ms = req.pop_block()
        self.block_start = t + switch_cost
        self.block_end = self.block_start + block_ms
        self.running = req
        self.last_executed = req

    def finish_block(self, t: float, result: EngineResult) -> None:
        req = self.running
        assert req is not None
        if self.trace is not None:
            self.trace.record(
                TraceEntry(
                    request_id=req.request_id,
                    task_type=req.task_type,
                    block_index=req.next_block - 1,
                    start_ms=self.block_start,
                    end_ms=t,
                )
            )
        self.running = None
        self.block_end = float("inf")
        if req.blocks_left == 0:
            req.finish_ms = t
            self.queue.remove(req)
            result.completed.append(req)
        self.dispatch(t, result)


class LegacyMultiProcessorEngine:
    """The pre-kernel MultiProcessorEngine (fault-free, batch only)."""

    def __init__(
        self,
        schedulers: list[Scheduler],
        router: str | LegacyRouter = "least_backlog",
        keep_trace: bool = False,
    ):
        if not schedulers:
            raise SimulationError("need at least one processor")
        self.schedulers = schedulers
        if isinstance(router, str):
            if router not in LEGACY_ROUTERS:
                raise SimulationError(
                    f"unknown router {router!r}; one of {sorted(LEGACY_ROUTERS)}"
                )
            self.router: LegacyRouter = LEGACY_ROUTERS[router]
            self.router_name = router
        else:
            self.router = router
            self.router_name = getattr(router, "__name__", "custom")
        self.keep_trace = keep_trace

    def run(self, arrivals: list[tuple[float, Request]]) -> MultiEngineResult:
        result = EngineResult()
        processors = [
            _LegacyProcessor(
                index=i,
                scheduler=s,
                trace=ExecutionTrace() if self.keep_trace else None,
            )
            for i, s in enumerate(self.schedulers)
        ]
        placements = {i: 0 for i in range(len(processors))}
        heap: list[tuple[float, int, Request]] = []
        for i, (t, req) in enumerate(arrivals):
            if t < 0:
                raise SimulationError(f"negative arrival time {t}")
            heapq.heappush(heap, (t, i, req))

        while True:
            next_arrival = heap[0][0] if heap else float("inf")
            busy_end = min(
                (p.block_end for p in processors if p.running is not None),
                default=float("inf"),
            )
            idle_pending = next(
                (
                    p
                    for p in processors
                    if p.running is None and not p.queue.empty
                ),
                None,
            )
            if idle_pending is not None:
                idle_pending.dispatch(idle_pending.now, result)
                continue
            if next_arrival == float("inf") and busy_end == float("inf"):
                break
            if next_arrival <= busy_end:
                t, _, req = heapq.heappop(heap)
                target = self.router(processors, req)
                if not 0 <= target < len(processors):
                    raise SimulationError(
                        f"router returned invalid processor {target}"
                    )
                proc = processors[target]
                proc.now = max(proc.now, t)
                placements[target] += 1
                proc.dispatched_arrivals += 1
                admitted = proc.scheduler.on_arrival(proc.queue, req, t)
                if not admitted:
                    result.dropped.append(req)
            else:
                proc = min(
                    (p for p in processors if p.running is not None),
                    key=lambda p: p.block_end,
                )
                proc.now = proc.block_end
                proc.finish_block(proc.block_end, result)

        leftovers = sum(len(p.queue) for p in processors)
        if leftovers:
            raise SimulationError(
                f"multi-engine finished with {leftovers} requests queued"
            )
        traces = {
            p.index: p.trace for p in processors if p.trace is not None
        }
        return MultiEngineResult(
            engine_result=result, placements=placements, traces=traces
        )


class LegacyConcurrentEngine:
    """The pre-rewrite ConcurrentEngine (RT-A), revision ffde652, verbatim."""

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

        window: dict[int, tuple[Request, float]] = {}  # rid -> (req, work left)
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
        max_streams = self.contention.device.max_streams
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
                if self.alignment_barrier:
                    mentors[req.request_id] = set(window.keys()) | set(held)
                window[req.request_id] = (req, work)

        def advance(to: float) -> None:
            nonlocal now
            span = to - now
            if span < -1e-9:
                raise SimulationError("time went backwards")
            if span > 0 and window:
                done = span * self._rate(len(window))
                for rid, (req, left) in list(window.items()):
                    window[rid] = (req, left - done)
            now = to

        def next_completion() -> float:
            if not window:
                return float("inf")
            rate = self._rate(len(window))
            min_left = min(left for _, left in window.values())
            return now + max(0.0, min_left) / rate

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
            t_arr = heap[0][0] if heap else float("inf")
            t_retry = retry_heap[0][0] if retry_heap else float("inf")
            t_done = next_completion()
            if t_arr <= min(t_done, t_retry):
                if t_arr == float("inf"):
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
                    rid for rid, (_, left) in window.items() if left <= 1e-9
                ]
                if not finished:
                    raise SimulationError("completion event with nothing done")
                for rid in finished:
                    req, _ = window.pop(rid)
                    if rid in doomed:
                        doomed.discard(rid)
                        fail_or_retry(req, now)
                        continue
                    unfinished_mentors = mentors.get(rid, set()) & (
                        set(window) | set(held)
                    )
                    if self.alignment_barrier and unfinished_mentors:
                        held[rid] = req  # work done, waiting for alignment
                    else:
                        complete(req, now)
                release_held(now)
                admit(now)
        return result
