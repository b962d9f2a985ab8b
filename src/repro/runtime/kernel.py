"""The discrete-event kernel every execution path runs on.

Before this module existed, the paper's online contribution — greedy
preemption at block boundaries (Algorithm 1, Eq. 3) — was re-implemented
four times: the SequentialEngine fast path, its robustness fork, the
MultiProcessorEngine per-GPU loops, and the live server's token loop.
Each copy had to independently preserve the dispatch contract the
run-length queue optimisation relies on (see ``docs/kernel.md``), and
features landed unevenly: streaming rejected robustness, the multi
engine had neither. Clockwork and PREMA both structure their simulators
around one event core with pluggable policy/telemetry surfaces; this is
that core.

One :class:`EventKernel` owns virtual time, the pending-arrival stream,
the block dispatch/finish cycle, retry parking, deadline eviction, load
shedding, and terminal emission. It is parameterized by:

* a **queue adapter** — how arrivals map to processor queues.
  :class:`SingleQueue` (one processor, one queue) serves the sequential
  engine; :class:`RoutedQueues` (per-processor queues behind an
  arrival-time router) serves the multi engine. The live server's
  token-gated queue reuses the kernel's dispatch/settlement primitives
  (:func:`select_head`, :func:`fault_decision`, :func:`is_preemption`,
  :func:`fix_plan`, :func:`settle_failure`) from real threads instead of
  the virtual-time loop.
* an optional :class:`~repro.robustness.RobustnessConfig` — the retry
  heap, deadline eviction and load shedding are kernel features, not a
  forked loop. ``robustness=None`` follows the exact float operations of
  the original fault-free loop, in the same order (results are
  byte-identical; the differential suite pins this against a frozen
  pre-kernel copy).
* a :class:`KernelHooks` observer with no-op defaults — the substrate
  that trace capture, streaming QoS sinks and future observability plug
  into instead of being hand-wired per loop. Hooks are notification-only:
  they see every lifecycle edge but cannot perturb scheduling.

Terminal requests leave through a sink callback (``sink(request,
outcome)`` with outcome in ``served / rejected / shed / failed /
timed_out``), so batch adapters collect lists while streaming adapters
retain nothing — which is what closes the old feature matrix:
``run_stream`` with robustness and the multi engine with fault injection
both fall out of the same loop.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Protocol

from repro.errors import SimulationError
from repro.robustness.config import RobustnessConfig
from repro.robustness.faults import FaultDecision, FaultInjector, FaultKind
from repro.robustness.retry import RetryPolicy
from repro.runtime.trace import ExecutionTrace, TraceEntry
from repro.scheduling.policies.base import Scheduler
from repro.scheduling.queue import ListBackedRequestQueue, RequestQueue
from repro.scheduling.request import Request

if TYPE_CHECKING:
    from repro.hardware.node import NodeProfile

_INF = float("inf")

#: Terminal sink: called exactly once per request with its outcome label
#: ("served", "rejected", "shed", "failed" or "timed_out").
RecordSink = Callable[[Request, str], None]

#: How many arrivals the fast lane pulls from a plain iterator per refill,
#: and how many terminals it buffers before flushing to the sink.
_FAST_CHUNK = 4096


class ChunkSource(Protocol):
    """An arrival source that can hand out whole time-ordered chunks.

    The kernel's fast lane recognises such sources by the presence of
    :meth:`next_chunk` and consumes arrivals chunk-wise; the reference
    lane (and any other consumer) iterates the same source element-wise.
    ``pool`` is an optional :class:`~repro.scheduling.request.RequestPool`
    the source draws requests from — when present, the fast lane recycles
    terminal requests back into it after the sink has seen them, so the
    sink must not retain references.
    """

    pool: Any

    def next_chunk(self) -> tuple[list[float], list[Request]] | None:
        """The next time-ordered ``(times, requests)`` chunk, or None."""
        ...

    def __iter__(self) -> Iterator[tuple[float, Request]]: ...


@dataclass
class EngineResult:
    """Aggregate outcome of one kernel run.

    Batch adapters fill the per-request lists through their sink;
    streaming adapters leave the lists empty and only the counters
    record how many requests reached each outcome.
    """

    completed: list[Request] = field(default_factory=list)
    dropped: list[Request] = field(default_factory=list)
    trace: ExecutionTrace | None = None
    context_switches: int = 0
    preemptions: int = 0
    #: Robustness outcomes (empty/zero on fault-free runs).
    failed: list[Request] = field(default_factory=list)
    timed_out: list[Request] = field(default_factory=list)
    shed: list[Request] = field(default_factory=list)
    retries: int = 0
    stalls: int = 0
    fault_fails: int = 0
    fault_drops: int = 0
    #: Terminal counts. On batch runs these equal the list lengths; on
    #: streaming runs the lists stay empty (requests go to the sink) and
    #: only the counters record how many requests reached each outcome.
    n_completed: int = 0
    n_dropped: int = 0


# ------------------------------------------------------------------ arrivals
def validate_batch_arrivals(arrivals: Iterable[tuple[float, Request]]) -> None:
    """Reject negative arrival times (batch entry points, any order)."""
    for t, _ in arrivals:
        if t < 0:
            raise SimulationError(f"negative arrival time {t}")


def validated_stream(
    pairs: Iterable[tuple[float, Request]],
) -> Iterator[tuple[float, Request]]:
    """Lazily validate a time-ordered arrival stream.

    The single validator shared by every streaming entry point: negative
    times and ordering violations raise :class:`SimulationError` with one
    canonical message format.
    """
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


# --------------------------------------------------------------------- hooks
class KernelHooks(Protocol):
    """Lifecycle observer protocol (structural; all methods required).

    Subclass :class:`Hooks` for no-op defaults and override only the
    edges you observe. Hooks fire *after* the kernel has applied the
    corresponding state change and must not mutate requests or queues —
    they are a telemetry surface, not a policy surface.
    """

    def on_admit(
        self, request: Request, now_ms: float, admitted: bool, proc_index: int
    ) -> None:
        """An arrival (or retry re-admission) went through ``on_arrival``."""

    def on_dispatch(
        self, request: Request, now_ms: float, block_ms: float, proc_index: int
    ) -> None:
        """The processor granted ``request`` its next block."""

    def on_block_finish(
        self,
        request: Request,
        block_index: int,
        start_ms: float,
        end_ms: float,
        failed: bool,
        proc_index: int,
    ) -> None:
        """One block's processor time was spent (``failed`` = result lost)."""

    def on_preempt(
        self, preempted: Request, by: Request, now_ms: float, proc_index: int
    ) -> None:
        """An unfinished started request lost the processor to another."""

    def on_retry(
        self, request: Request, ready_ms: float, proc_index: int
    ) -> None:
        """A failed request was parked until ``ready_ms`` for retry."""

    def on_terminal(self, request: Request, outcome: str, now_ms: float) -> None:
        """``request`` left the system with ``outcome``."""


class Hooks:
    """No-op :class:`KernelHooks` implementation to subclass."""

    def on_admit(
        self, request: Request, now_ms: float, admitted: bool, proc_index: int
    ) -> None:
        pass

    def on_dispatch(
        self, request: Request, now_ms: float, block_ms: float, proc_index: int
    ) -> None:
        pass

    def on_block_finish(
        self,
        request: Request,
        block_index: int,
        start_ms: float,
        end_ms: float,
        failed: bool,
        proc_index: int,
    ) -> None:
        pass

    def on_preempt(
        self, preempted: Request, by: Request, now_ms: float, proc_index: int
    ) -> None:
        pass

    def on_retry(
        self, request: Request, ready_ms: float, proc_index: int
    ) -> None:
        pass

    def on_terminal(self, request: Request, outcome: str, now_ms: float) -> None:
        pass


# ---------------------------------------------------- dispatch-contract core
# The primitives below are the dispatch contract written once. The kernel
# inlines the same operations on its hot path; the live server's token
# scheduler calls them from real threads. Any change here (or in the
# kernel's inlined copies) must keep docs/kernel.md's contract intact —
# the run-length queue summary is only sound because scheduling state is
# mutated exclusively on peeked heads.


def select_head(scheduler: Scheduler, queue: RequestQueue, now_ms: float) -> Request:
    """Ask the policy for the next request and rotate it to the head.

    This is the *only* sanctioned way to pick work: ``select`` →
    ``move_to_front`` → ``peek``. ``peek`` taints the head out of any
    compressed run, which is what licenses the caller to mutate the
    request's scheduling state afterwards.
    """
    idx = scheduler.select(queue, now_ms)
    if idx != 0:
        queue.move_to_front(idx)
    return queue.peek()


def fault_decision(
    injector: FaultInjector | None, request: Request
) -> FaultDecision | None:
    """The injector's verdict for the request's next block attempt."""
    if injector is None:
        return None
    return injector.decide(
        request.task_type, request.arrival_ms, request.next_block, request.retries
    )


def is_preemption(last: Request | None, request: Request) -> bool:
    """Did granting ``request`` preempt ``last``?

    True when the previously-executed request is a different one that has
    started but not finished — switching away defers all of its remaining
    blocks (full preemption, Fig. 3).
    """
    return (
        last is not None
        and last is not request
        and not last.done
        and last.started
    )


def fix_plan(
    scheduler: Scheduler, request: Request, queue: RequestQueue, now_ms: float
) -> None:
    """Fix the execution plan at first dispatch (idempotent afterwards)."""
    if not request.started:
        plan = scheduler.plan_for(request, queue, now_ms)
        request.begin(plan, now_ms)


def settle_failure(
    request: Request, now_ms: float, retry: RetryPolicy
) -> float | None:
    """Rewind a failed block and account the attempt.

    Returns the absolute time the retry becomes ready, or None when the
    retry budget is exhausted (the request fails terminally). The caller
    removes the request from its queue and parks or buries it.
    """
    request.unpop_block()
    request.retries += 1
    if retry.exhausted(request.retries):
        return None
    return now_ms + retry.backoff_ms(request.retries - 1)


# ------------------------------------------------------------ processors
@dataclass(slots=True)
class ProcState:
    """One processor's execution state inside the kernel.

    Routers receive these (the attribute surface is the old
    ``_Processor``'s): ``queue``, ``running``, ``block_end``, ``now`` and
    ``dispatched_arrivals`` are all safe to read from a router.
    """

    index: int
    scheduler: Scheduler
    queue: RequestQueue
    running: Request | None = None
    pending_fail: bool = False
    block_end: float = _INF
    block_start: float = 0.0
    last_executed: Request | None = None
    now: float = 0.0
    dispatched_arrivals: int = 0
    #: Per-processor trace (execution on *one* processor never overlaps;
    #: across processors it legitimately does, so traces are not shared).
    trace: ExecutionTrace | None = None
    #: The owning node's hardware identity, or None for the homogeneous
    #: default. When set, arriving requests are rebound onto the node's
    #: task catalogue (node-local block plans and ext times), and routers
    #: may read capacity / capability facets.
    profile: "NodeProfile | None" = None


# ------------------------------------------------------------ queue adapters
class QueueAdapter(Protocol):
    """Maps each arrival onto a processor queue."""

    def route(self, processors: list[ProcState], request: Request) -> int:
        """Index of the processor that owns ``request`` (no migration)."""


class SingleQueue:
    """Everything on processor 0 — the sequential engine's shape."""

    def route(self, processors: list[ProcState], request: Request) -> int:
        return 0


#: Arrival-time placement policy for :class:`RoutedQueues`.
Router = Callable[[list[ProcState], Request], int]


class RoutedQueues:
    """Per-processor queues behind an arrival-time router (multi engine)."""

    def __init__(self, router: Router):
        self.router = router

    def route(self, processors: list[ProcState], request: Request) -> int:
        target = self.router(processors, request)
        if not 0 <= target < len(processors):
            raise SimulationError(
                f"router returned invalid processor {target}"
            )
        return target


# --------------------------------------------------------------------- kernel
class EventKernel:
    """One discrete-event loop for every engine-shaped execution path.

    The loop's event order is load-bearing and pinned by the differential
    suite: (1) an idle processor with pending work dispatches immediately
    at its own local time; (2) otherwise the earliest of next-arrival /
    next-retry / next-block-finish fires, with ties broken in exactly
    that order; (3) a running block is never interrupted — preemption
    happens only because the queue head changed by the time the next
    block is granted.
    """

    def __init__(
        self,
        schedulers: list[Scheduler],
        adapter: QueueAdapter | None = None,
        robustness: RobustnessConfig | None = None,
        keep_trace: bool = False,
        hooks: KernelHooks | None = None,
        queue_cls: type = RequestQueue,
        fast_lane: bool | None = None,
        profiles: "list[NodeProfile | None] | None" = None,
    ):
        if not schedulers:
            raise SimulationError("need at least one processor")
        if profiles is not None and len(profiles) != len(schedulers):
            raise SimulationError(
                f"got {len(profiles)} node profiles for "
                f"{len(schedulers)} processors"
            )
        self.procs: list[ProcState] = [
            ProcState(
                index=i,
                scheduler=s,
                queue=queue_cls(),
                trace=ExecutionTrace() if keep_trace else None,
                profile=profiles[i] if profiles is not None else None,
            )
            for i, s in enumerate(schedulers)
        ]
        for proc in self.procs:
            prof = proc.profile
            if prof is not None and prof.preemption_overhead_ms is not None:
                # Checkpoint cost is a property of the node's hardware, so
                # a profile overrides the policy constant — on this
                # processor's (engine-owned, never shared) scheduler
                # instance, which _grant reads each preemption.
                proc.scheduler.preemption_overhead_ms = (
                    prof.preemption_overhead_ms
                )
        self.adapter: QueueAdapter = adapter if adapter is not None else SingleQueue()
        self.robustness = robustness
        self.hooks = hooks
        #: ``None`` selects the fault-free fast lane automatically when
        #: eligible; ``False`` forces the reference loop (differential
        #: tests pin the lanes against each other through this switch).
        self.fast_lane = fast_lane
        #: Which lane the last :meth:`run` call took ("fast"/"reference").
        self.lane_used: str | None = None
        self._injector: FaultInjector | None = None
        self._shedder = None
        if robustness is not None:
            self._injector = robustness.make_injector()
            self._shedder = robustness.make_shedder()

    # ----------------------------------------------------------- fast lane
    def _fast_eligible(self) -> bool:
        """Whether :meth:`run` may take the fault-free fast lane.

        The fast lane replays the reference loop's float operations in the
        same order but batches arrival admission and terminal settlement;
        that is only sound when nothing can observe the intermediate
        states it skips: no robustness machinery (retries, deadlines,
        shedding, fault injection), no observer hooks beyond the no-op
        defaults, a single processor behind the trivial adapter, and one
        of the two known queue backends (whose batched insert is pinned
        against per-request inserts by the equivalence suite).
        """
        if self.fast_lane is False:
            return False
        if self.robustness is not None:
            return False
        hooks = self.hooks
        if hooks is not None and type(hooks) is not Hooks:
            return False
        if len(self.procs) != 1:
            return False
        if self.procs[0].profile is not None:
            # Per-node profiles rebind arriving tasks on the reference
            # lane; the fast lane's bulk admission has no rebind point.
            # (Fleet runs pre-bind node-local specs instead, precisely to
            # keep this lane.)
            return False
        if type(self.adapter) is not SingleQueue:
            return False
        queue_type = type(self.procs[0].queue)
        return queue_type is RequestQueue or queue_type is ListBackedRequestQueue

    @staticmethod
    def _batch_observer(
        emit: RecordSink,
    ) -> Callable[[list[Request], list[str]], None] | None:
        """Resolve a sink's batched variant, if it offers one.

        A bound method ``obj.observe`` opts into batched settlement by
        defining ``obj.observe_batch(requests, outcomes)`` (same naming
        convention for any sink name). The batched variant must be
        observably identical to calling the scalar sink once per request
        in order; ``StreamingQoS.observe_batch`` is the canonical case.
        """
        func = getattr(emit, "__func__", None)
        owner = getattr(emit, "__self__", None)
        if func is None or owner is None:
            return None
        batch = getattr(owner, func.__name__ + "_batch", None)
        if not callable(batch):
            return None
        return batch  # type: ignore[no-any-return]

    # ----------------------------------------------------------- lifecycle
    def _terminal(
        self,
        proc: ProcState,
        req: Request,
        outcome: str,
        now: float,
        result: EngineResult,
        emit: RecordSink,
    ) -> None:
        """Emit a terminal request and update kernel accounting.

        A request evicted mid-flight (shed / failed / timed_out) leaves
        the processor's memory of it: selecting another request afterwards
        is not a preemption.
        """
        if self.robustness is not None:
            req.outcome = outcome
        if outcome == "served":
            result.n_completed += 1
        elif outcome == "rejected":
            result.n_dropped += 1
        elif proc.last_executed is req:
            proc.last_executed = None
        hooks = self.hooks
        if hooks is not None:
            hooks.on_terminal(req, outcome, now)
        emit(req, outcome)

    def _shed_overload(
        self, proc: ProcState, t: float, result: EngineResult, emit: RecordSink
    ) -> None:
        if self._shedder is None:
            return
        for victim in self._shedder.select_victims(
            proc.queue, t, exclude=proc.running
        ):
            proc.queue.remove(victim)
            self._terminal(proc, victim, "shed", t, result, emit)

    def _grant(
        self, proc: ProcState, t: float, result: EngineResult, emit: RecordSink
    ) -> None:
        """Give the next block of the policy's pick to the processor.

        Mirrors the dispatch-contract primitives (:func:`select_head`,
        :func:`fault_decision`, :func:`is_preemption`, :func:`fix_plan`)
        inlined — this runs once per executed block and is the hottest
        code in the repository.
        """
        scheduler = proc.scheduler
        queue = proc.queue
        cfg = self.robustness
        injector = self._injector
        hooks = self.hooks
        while not queue.empty:
            idx = scheduler.select(queue, t)
            if idx != 0:
                queue.move_to_front(idx)
            req = queue.peek()
            if cfg is not None and t >= cfg.deadline_ms(req):
                queue.remove(req)
                self._terminal(proc, req, "timed_out", t, result, emit)
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
                self._terminal(proc, req, "failed", t, result, emit)
                continue
            switch_cost = 0.0
            last = proc.last_executed
            if (
                last is not None
                and last is not req
                and not last.done
                and last.started
            ):
                switch_cost = scheduler.preemption_overhead_ms
                last.preemptions += 1
                result.preemptions += 1
                if hooks is not None:
                    hooks.on_preempt(last, req, t, proc.index)
            if last is not None and last is not req:
                result.context_switches += 1
            if not req.started:
                plan = scheduler.plan_for(req, queue, t)
                req.begin(plan, t)
            block_ms = req.pop_block()
            if decision is not None and decision.kind is FaultKind.STALL:
                block_ms *= decision.stall_factor
                result.stalls += 1
            proc.pending_fail = (
                decision is not None and decision.kind is FaultKind.FAIL
            )
            proc.block_start = t + switch_cost
            proc.block_end = proc.block_start + block_ms
            proc.running = req
            proc.last_executed = req
            if hooks is not None:
                hooks.on_dispatch(req, t, block_ms, proc.index)
            return
        proc.running = None
        proc.block_end = _INF

    # ---------------------------------------------------------------- run
    def run(
        self,
        schedule: Iterable[tuple[float, Request]],
        emit: RecordSink,
        result: EngineResult,
    ) -> EngineResult:
        """Consume a time-ordered arrival stream until the system drains.

        ``schedule`` yields ``(time_ms, request)`` in nondecreasing time
        order (callers validate via :func:`validate_batch_arrivals` +
        sort, or :func:`validated_stream`; :class:`ChunkSource` objects
        validate their own chunks); ``emit`` receives every terminal
        request exactly once. Counters and traces accumulate on
        ``result``, which is returned for convenience.

        Fault-free default-configuration runs take the batched fast lane
        (see :meth:`_fast_eligible`); everything else runs the reference
        loop below. Both produce byte-identical traces and float-identical
        results — the differential suite pins it.
        """
        if self._fast_eligible():
            self.lane_used = "fast"
            return self._run_fast(schedule, emit, result)
        self.lane_used = "reference"
        stream = iter(schedule)
        procs = self.procs
        single = len(procs) == 1
        p0 = procs[0]
        adapter = self.adapter
        cfg = self.robustness
        hooks = self.hooks
        retry: RetryPolicy | None = cfg.retry if cfg is not None else None
        shedding = self._shedder is not None
        retry_heap: list[tuple[float, int, int, Request]] = []
        retry_seq = itertools.count()
        pending: tuple[float, Request] | None = next(stream, None)

        while True:
            # An idle processor with pending work dispatches immediately,
            # at its own local time.
            if single:
                idle = p0 if (p0.running is None and not p0.queue.empty) else None
            else:
                idle = next(
                    (
                        p
                        for p in procs
                        if p.running is None and not p.queue.empty
                    ),
                    None,
                )
            if idle is not None:
                self._grant(idle, idle.now, result, emit)
                continue
            next_arrival = pending[0] if pending is not None else _INF
            next_retry = retry_heap[0][0] if retry_heap else _INF
            if single:
                next_done = p0.block_end if p0.running is not None else _INF
            else:
                next_done = min(
                    (p.block_end for p in procs if p.running is not None),
                    default=_INF,
                )
            if next_arrival == _INF and next_retry == _INF and next_done == _INF:
                break  # nothing left anywhere
            if next_arrival <= next_retry and next_arrival <= next_done:
                now = next_arrival
                req = pending[1]  # type: ignore[index]
                pending = next(stream, None)
                proc = p0 if single else procs[adapter.route(procs, req)]
                prof = proc.profile
                if prof is not None:
                    # Serve under the owning node's calibrated model: swap
                    # the request's task for the node-local spec before any
                    # admission/planning decision reads it. Legal only
                    # because the request has not begun (begin() freezes
                    # the plan); retries keep the already-rebound task.
                    req.task = prof.resolve(req.task)
                proc.now = max(proc.now, now)
                proc.dispatched_arrivals += 1
                admitted = proc.scheduler.on_arrival(proc.queue, req, now)
                if hooks is not None:
                    hooks.on_admit(req, now, admitted, proc.index)
                if not admitted:
                    self._terminal(proc, req, "rejected", now, result, emit)
                elif shedding:
                    self._shed_overload(proc, now, result, emit)
                # A running block is never interrupted; if idle, the loop's
                # next iteration dispatches at `now`.
            elif next_retry <= next_done:
                now = next_retry
                _, _, pidx, req = heapq.heappop(retry_heap)
                proc = procs[pidx]
                proc.now = max(proc.now, now)
                assert cfg is not None
                if now >= cfg.deadline_ms(req):
                    self._terminal(proc, req, "timed_out", now, result, emit)
                    continue
                admitted = proc.scheduler.on_arrival(proc.queue, req, now)
                if hooks is not None:
                    hooks.on_admit(req, now, admitted, proc.index)
                if admitted:
                    if shedding:
                        self._shed_overload(proc, now, result, emit)
                else:
                    self._terminal(proc, req, "rejected", now, result, emit)
            else:
                if single:
                    proc = p0
                else:
                    proc = min(
                        (p for p in procs if p.running is not None),
                        key=lambda p: p.block_end,
                    )
                now = proc.block_end
                proc.now = now
                req = proc.running  # type: ignore[assignment]
                assert req is not None
                fail = proc.pending_fail
                if proc.trace is not None:
                    proc.trace.record(
                        TraceEntry(
                            request_id=req.request_id,
                            task_type=req.task_type,
                            block_index=req.next_block - 1,
                            start_ms=proc.block_start,
                            end_ms=now,
                            failed=fail,
                        )
                    )
                if hooks is not None:
                    hooks.on_block_finish(
                        req,
                        req.next_block - 1,
                        proc.block_start,
                        now,
                        fail,
                        proc.index,
                    )
                proc.running = None
                proc.block_end = _INF
                if fail:
                    proc.pending_fail = False
                    result.fault_fails += 1
                    req.unpop_block()
                    req.retries += 1
                    proc.queue.remove(req)
                    assert retry is not None
                    if retry.exhausted(req.retries):
                        self._terminal(proc, req, "failed", now, result, emit)
                    else:
                        result.retries += 1
                        if proc.last_executed is req:
                            proc.last_executed = None
                        ready = now + retry.backoff_ms(req.retries - 1)
                        heapq.heappush(
                            retry_heap,
                            (ready, next(retry_seq), proc.index, req),
                        )
                        if hooks is not None:
                            hooks.on_retry(req, ready, proc.index)
                elif req.blocks_left == 0:
                    req.finish_ms = now
                    proc.queue.remove(req)
                    if cfg is not None and now > cfg.deadline_ms(req):
                        # Finished, but past the client's deadline: the
                        # response is useless — count it as timed out.
                        self._terminal(proc, req, "timed_out", now, result, emit)
                    else:
                        self._terminal(proc, req, "served", now, result, emit)
                self._grant(proc, now, result, emit)

        leftovers = (
            len(p0.queue) if single else sum(len(p.queue) for p in procs)
        )
        if leftovers:
            raise SimulationError(
                f"engine finished with {leftovers} requests still queued"
            )
        return result

    def _run_fast(
        self,
        schedule: Iterable[tuple[float, Request]],
        emit: RecordSink,
        result: EngineResult,
    ) -> EngineResult:
        """The fault-free fast lane: the reference loop with its three
        per-request costs batched away.

        Same event order, same float operations (the differential suite
        pins byte-identical traces and float-identical QoS), reached by
        exploiting three invariants of the fault-free single-processor
        loop: (a) while a block runs, every arrival at or before its end
        is admitted consecutively with no other event in between, so a
        whole run of pending arrivals can be admitted in one
        ``bulk_admit`` call; (b) after a finish drains the queue, the next
        arrival's own time is the grant time, and a bulk-admitting policy
        admits it by appending it to the empty queue; (c) terminal
        settlement is order-sensitive only in the sink-call sequence, so
        terminals are buffered and flushed through the sink's batched
        variant (``observe_batch``) in original order.

        Arrivals come from a :class:`ChunkSource` (structure-of-arrays
        chunks, ~zero allocation with a request pool), a pre-validated
        list, or any iterator (pulled in chunks). ``preemption_overhead_ms``
        is read once per run — it is a policy constant.
        """
        proc = self.procs[0]
        scheduler = proc.scheduler
        queue = proc.queue
        # Eligibility pinned the exact queue type, so reading its backing
        # sequence for the emptiness test is safe (and skips a property
        # call per finished block).
        queue_items = queue._items
        trace = proc.trace

        # -- arrival source normalisation --------------------------------
        times: list[float] = []
        reqs: list[Request] = []
        i = 0
        n = 0
        pool = None
        if hasattr(schedule, "next_chunk"):
            source: ChunkSource = schedule  # type: ignore[assignment]
            pool = source.pool

            def refill() -> bool:
                nonlocal times, reqs, i, n
                while True:
                    nxt = source.next_chunk()
                    if nxt is None:
                        return False
                    if nxt[0]:
                        times, reqs = nxt
                        i, n = 0, len(times)
                        return True
        elif isinstance(schedule, list):
            # Batch entry point: validated and sorted by the caller.
            times = [pair[0] for pair in schedule]
            reqs = [pair[1] for pair in schedule]
            n = len(times)

            def refill() -> bool:
                return False
        else:
            stream = iter(schedule)

            def refill() -> bool:
                nonlocal times, reqs, i, n
                pairs = list(itertools.islice(stream, _FAST_CHUNK))
                if not pairs:
                    return False
                times = [pair[0] for pair in pairs]
                reqs = [pair[1] for pair in pairs]
                i, n = 0, len(times)
                return True

        # -- per-run constants and buffered settlement -------------------
        bulk = getattr(scheduler, "bulk_admit", None)
        default_select = type(scheduler).select is Scheduler.select
        overhead = scheduler.preemption_overhead_ms
        batch_observer = self._batch_observer(emit)
        out_reqs: list[Request] = []
        out_outcomes: list[str] = []

        def flush() -> None:
            if not out_reqs:
                return
            if batch_observer is not None:
                batch_observer(out_reqs, out_outcomes)
            else:
                for done_req, outcome in zip(out_reqs, out_outcomes):
                    emit(done_req, outcome)
            if pool is not None:
                pool.recycle(out_reqs)
            out_reqs.clear()
            out_outcomes.clear()

        # -- the loop, over locals ---------------------------------------
        proc_now = proc.now
        dispatched = 0
        n_completed = 0
        n_dropped = 0
        context_switches = 0
        preemptions = 0
        running: Request | None = None
        last_executed: Request | None = proc.last_executed
        block_start = proc.block_start
        block_end = _INF

        while True:
            if running is None:
                # Idle processor == empty queue (fault-free invariant):
                # the next arrival opens service at its own time.
                if i >= n and not refill():
                    break
                t = times[i]
                req = reqs[i]
                i += 1
                proc_now = t
                dispatched += 1
                if bulk is not None:
                    # A bulk-admitting policy never rejects, and its
                    # admission into the empty queue is the sole entry at
                    # position 0 with no other effect (the contract on
                    # ``Scheduler.bulk_admit``).
                    queue.append(req)
                elif not scheduler.on_arrival(queue, req, t):
                    n_dropped += 1
                    out_reqs.append(req)
                    out_outcomes.append("rejected")
                    if len(out_reqs) >= _FAST_CHUNK:
                        flush()
                    continue
                now = t
            else:
                # Admit every arrival at or before the running block's end
                # (arrival fires before finish on exact ties). Nothing else
                # can happen in between, so whole runs settle at once.
                while True:
                    if i < n:
                        j = bisect_right(times, block_end, i)
                        if j > i:
                            dispatched += j - i
                            proc_now = times[j - 1]
                            batch = reqs[i:j]
                            if bulk is not None:
                                i = j
                                bulk(queue, batch)
                            else:
                                batch_ts = times[i:j]
                                i = j
                                for bi, breq in enumerate(batch):
                                    if not scheduler.on_arrival(
                                        queue, breq, batch_ts[bi]
                                    ):
                                        n_dropped += 1
                                        out_reqs.append(breq)
                                        out_outcomes.append("rejected")
                                if len(out_reqs) >= _FAST_CHUNK:
                                    flush()
                        if i < n:
                            break  # next arrival is past this block
                    if not refill():
                        break
                # Finish the running block.
                now = block_end
                proc_now = now
                req = running
                if trace is not None:
                    trace.record(
                        TraceEntry(
                            request_id=req.request_id,
                            task_type=req.task_type,
                            block_index=req.next_block - 1,
                            start_ms=block_start,
                            end_ms=now,
                            failed=False,
                        )
                    )
                plan = req.plan_ms
                assert plan is not None
                if req.next_block == len(plan):
                    req.finish_ms = now
                    queue.remove(req)
                    n_completed += 1
                    out_reqs.append(req)
                    out_outcomes.append("served")
                    if len(out_reqs) >= _FAST_CHUNK:
                        flush()
                if not queue_items:
                    running = None
                    block_end = _INF
                    continue
            # ---- grant (the reference _grant, fault-free, inlined) ----
            if default_select:
                head = queue.peek()
            else:
                idx = scheduler.select(queue, now)
                if idx != 0:
                    queue.move_to_front(idx)
                head = queue.peek()
            switch_cost = 0.0
            last = last_executed
            if (
                last is not None
                and last is not head
                and last.finish_ms is None
                and last.first_start_ms is not None
            ):
                switch_cost = overhead
                last.preemptions += 1
                preemptions += 1
            if last is not None and last is not head:
                context_switches += 1
            if head.first_start_ms is None:
                head.begin(scheduler.plan_for(head, queue, now), now)
            head_plan = head.plan_ms
            assert head_plan is not None
            nb = head.next_block
            head.next_block = nb + 1
            block_start = now + switch_cost
            block_end = block_start + head_plan[nb]
            running = head
            last_executed = head

        flush()
        proc.now = proc_now
        proc.dispatched_arrivals += dispatched
        proc.running = None
        proc.block_end = _INF
        proc.block_start = block_start
        proc.last_executed = last_executed
        result.n_completed += n_completed
        result.n_dropped += n_dropped
        result.context_switches += context_switches
        result.preemptions += preemptions
        if len(queue):
            raise SimulationError(
                f"engine finished with {len(queue)} requests still queued"
            )
        return result


def batch_sink(result: EngineResult) -> RecordSink:
    """A sink that files every terminal request into its result bucket."""
    buckets: dict[str, list[Request]] = {
        "served": result.completed,
        "rejected": result.dropped,
        "failed": result.failed,
        "timed_out": result.timed_out,
        "shed": result.shed,
    }

    def emit(request: Request, outcome: str) -> None:
        buckets[outcome].append(request)

    return emit
