"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: :func:`install`
replaces the attribute each caller actually looks up (a class method, or
a name imported into a caller's module) with a timing wrapper, and
:meth:`Instrumentation.remove` puts the originals back. Nothing in
``src/`` changes, and a wrapper only times and counts: it calls the
original with the same arguments and returns its result untouched, so
the traced run takes the same code paths as the untraced one (the
benchmark checks this through ``qos_digest`` and the kernel lane share).

Every span records ``(id, name, start_ns, end_ns, parent_id, group)``;
``group`` is the cell, node or replay the span belongs to, so the spans
of one unit of work share an id. Spans nest per thread (the wire server
runs its engine on a thread of its own). A span's self time is its
duration minus the time its child spans cover, accumulated as the span
closes. Spans stay in memory (up to :data:`MAX_SPANS`; aggregates keep
counting past the cap) and are written out by :meth:`Tracer.write` when
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Any, Callable

#: Spans kept for the trace file; the per-layer aggregates are exact
#: regardless (a fleet unit alone opens several hundred thousand spans).
MAX_SPANS = 300_000

SETUP = "setup"
RUN = "run"


class Aggregate:
    """Count, total and self nanoseconds of one span name."""

    __slots__ = ("count", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0

    def as_list(self) -> list[int]:
        return [self.count, self.total_ns, self.self_ns]


class Tracer:
    """In-memory span store with per-phase aggregates and counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        # The wire server traces from its event loop and its engine
        # thread; aggregates must not lose updates between them.
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.phase = SETUP
        self.group = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        self.aggregates: dict[str, dict[str, Aggregate]] = {
            SETUP: defaultdict(Aggregate),
            RUN: defaultdict(Aggregate),
        }
        self.counters: dict[str, Counter] = {SETUP: Counter(), RUN: Counter()}
        #: Queue depth seen by each admission call (run phase).
        self.queue_depths: Counter = Counter()

    def _stack(self) -> list[list[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[self.phase][key] += n

    def span_count(self, name: str) -> int:
        return self.aggregates[self.phase][name].count

    def timed(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """A wrapper that records one span per call of ``fn``.

        ``after(args, result)`` runs once the span has closed, to count
        what the call did (batch sizes, bytes, lanes).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [next(tracer._ids), 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer._close(name, frame, start, end, stack)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def timed_async(
        self, name: str, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        """Span over an awaited call. Other tasks run while it is
        suspended, so it never becomes a parent: it is a leaf span."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack = tracer._stack()
                tracer._close(name, [next(tracer._ids), 0], start, end, stack)

        return wrapper

    def timed_generator(
        self, name: str, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        """One span per item drawn from the generator ``fn`` returns."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                stack = tracer._stack()
                frame = [next(tracer._ids), 0]
                stack.append(frame)
                start = perf_counter_ns()
                try:
                    item = next(gen)
                except StopIteration:
                    stack.pop()  # exhausted: no item, no span
                    return
                except BaseException:
                    stack.pop()
                    raise
                end = perf_counter_ns()
                stack.pop()
                tracer._close(name, frame, start, end, stack)
                yield item

        return wrapper

    def _close(
        self,
        name: str,
        frame: list[int],
        start: int,
        end: int,
        stack: list[list[int]],
    ) -> None:
        duration = end - start
        parent = 0
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        with self._lock:
            agg = self.aggregates[self.phase][name]
            agg.count += 1
            agg.total_ns += duration
            agg.self_ns += duration - frame[1]
            if len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (frame[0], name, start, end, parent, self.group)
                )
            else:
                self.dropped += 1

    def snapshot(self) -> dict[str, Any]:
        """Aggregates and counters as plain JSON-ready data."""
        return {
            "aggregates": {
                phase: {name: agg.as_list() for name, agg in aggs.items()}
                for phase, aggs in self.aggregates.items()
            },
            "counters": {
                phase: dict(c) for phase, c in self.counters.items()
            },
            "queue_depths": {str(k): v for k, v in self.queue_depths.items()},
        }

    def write(self, path) -> None:
        """Write every kept span as CSV (times in ns since an arbitrary
        origin, shared by all spans of the process)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,group\n")
            for sid, name, start, end, parent, group in self.spans:
                fh.write(f"{sid},{name},{start},{end},{parent},{group}\n")
            if self.dropped:
                fh.write(f"# {self.dropped} spans past the cap not kept\n")


class Instrumentation:
    """Installed wrappers, removable so untraced units run the originals."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _mod(name: str):
    # Program modules load when wrappers are installed, not when this
    # module is imported: an untraced wire server loads only what it
    # serves, so its set-up time is the plain server's.
    return importlib.import_module(name)


def _method(owner: type, attr: str) -> tuple[Callable[..., Any], Callable[[Any], Any]]:
    """The function behind ``owner.attr`` and how to re-wrap it
    (classmethods and staticmethods keep their descriptor)."""
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        return raw.__func__, classmethod
    if isinstance(raw, staticmethod):
        return raw.__func__, staticmethod
    return raw, lambda f: f


class LaneCounter:
    """Counts kernel runs by lane; installed on traced and untraced runs
    alike (one wrapped call per kernel run), so both report the lane
    share the traced-run check compares."""

    def __init__(self) -> None:
        self.lanes: Counter = Counter()

    def install(self, inst: Instrumentation) -> None:
        kernel_cls = _mod("repro.runtime.kernel").EventKernel
        original = kernel_cls.__dict__["run"]
        lanes = self.lanes

        @functools.wraps(original)
        def run(kernel, schedule, emit, result):
            try:
                return original(kernel, schedule, emit, result)
            finally:
                lanes[kernel.lane_used] += 1

        inst.patch(kernel_cls, "run", run)


def install(tracer: Tracer, inst: Instrumentation) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    Install a :class:`LaneCounter` first: the kernel span then wraps the
    lane counter, so the traced kernel still reports its lane.
    """
    t = tracer
    kernel = _mod("repro.runtime.kernel")
    executor = _mod("repro.runtime.executor")
    simulator = _mod("repro.runtime.simulator")
    workload = _mod("repro.runtime.workload")
    metrics = _mod("repro.runtime.metrics")
    policies = _mod("repro.scheduling.policies")
    genetic = _mod("repro.splitting.genetic")
    store = _mod("repro.profiling.store")
    profiler = _mod("repro.profiling.profiler")
    fleet = _mod("repro.cluster.fleet")
    node_faults = _mod("repro.robustness.node_faults")

    # -- kernel: one span per run, preemptions as a simulated count ----
    run_fn = kernel.EventKernel.__dict__["run"]

    def kernel_run(k, schedule, emit, result):
        before = result.preemptions
        try:
            return run_fn(k, schedule, emit, result)
        finally:
            t.count("kernel.preemptions", result.preemptions - before)

    inst.patch(
        kernel.EventKernel, "run", t.timed("kernel.run", functools.wraps(run_fn)(kernel_run))
    )
    inst.patch(
        executor.ConcurrentEngine,
        "run",
        t.timed("engine.concurrent_run", executor.ConcurrentEngine.__dict__["run"]),
    )

    # -- simulator cells, split by policy ------------------------------
    sim_items = simulator.simulate_items

    def cell(policy, items, *args, **kwargs):
        start = perf_counter_ns()
        try:
            return sim_items(policy, items, *args, **kwargs)
        finally:
            t.count(f"policies.{policy}_ns", perf_counter_ns() - start)

    inst.patch(
        simulator, "simulate_items", t.timed("simulator.cell", functools.wraps(sim_items)(cell))
    )
    inst.patch(
        simulator,
        "collect_records",
        t.timed(
            "metrics.settle",
            simulator.collect_records,
            after=lambda a, r: t.count("metrics.settled", len(r)),
        ),
    )

    # -- workload generation ------------------------------------------
    gen_cls = workload.WorkloadGenerator
    inst.patch(gen_cls, "generate", t.timed("workload.gen", gen_cls.__dict__["generate"]))
    inst.patch(
        gen_cls,
        "iter_arrival_chunks",
        t.timed_generator("workload.gen", gen_cls.__dict__["iter_arrival_chunks"]),
    )

    # -- scheduling admission -----------------------------------------
    depths = t.queue_depths

    def admission(name: str, fn: Callable[..., Any], batched: bool):
        timed = t.timed(name, fn)

        @functools.wraps(fn)
        def wrapper(sched, queue, arg, *rest):
            with t._lock:
                depths[len(queue)] += 1
            t.count("scheduling.admitted", len(arg) if batched else 1)
            return timed(sched, queue, arg, *rest)

        return wrapper

    for cls_name in ("SplitScheduler", "ClockWorkScheduler", "PremaScheduler"):
        cls = getattr(policies, cls_name)
        inst.patch(
            cls,
            "on_arrival",
            admission("scheduling.admit", cls.__dict__["on_arrival"], False),
        )
    split_cls = policies.SplitScheduler
    inst.patch(
        split_cls,
        "bulk_admit",
        admission("scheduling.admit", split_cls.__dict__["bulk_admit"], True),
    )

    # -- metrics settlement and merge ---------------------------------
    qos_cls = metrics.StreamingQoS
    inst.patch(
        qos_cls,
        "observe_batch",
        t.timed(
            "metrics.settle",
            qos_cls.__dict__["observe_batch"],
            after=lambda a, r: t.count("metrics.settled", len(a[1])),
        ),
    )
    inst.patch(
        qos_cls,
        "observe",
        t.timed(
            "metrics.settle",
            qos_cls.__dict__["observe"],
            after=lambda a, r: t.count("metrics.settled"),
        ),
    )
    inst.patch(qos_cls, "merge", t.timed("metrics.merge", qos_cls.__dict__["merge"]))

    # -- cluster ------------------------------------------------------
    orch = fleet.FleetOrchestrator
    inst.patch(orch, "shard", t.timed("cluster.shard", orch.__dict__["shard"]))
    inst.patch(orch, "replay", t.timed("cluster.replay", orch.__dict__["replay"]))
    serve_node = fleet._serve_node
    node_ids = itertools.count(1)

    def node_cell(*args):
        t.group = next(node_ids)
        return serve_node(*args)

    # Module-level lookup at call time in ``replay``; jobs=1 runs inline.
    inst.patch(fleet, "_serve_node", t.timed("cluster.node_run", functools.wraps(serve_node)(node_cell)))
    inst.patch(
        fleet._ShardSource,
        "next_chunk",
        t.timed("cluster.source", fleet._ShardSource.__dict__["next_chunk"]),
    )

    # -- node faults (failover re-deal probes and timelines) ----------
    for cls, attr in (
        (node_faults.NodeTimeline, "is_up"),
        (node_faults.NodeTimeline, "up_windows"),
        (node_faults.NodeFaultPlan, "timeline_for"),
    ):
        inst.patch(cls, attr, t.timed("node_faults.call", cls.__dict__[attr]))

    # -- offline pipeline: GA and the persistent stores ---------------
    inst.patch(
        genetic.GeneticSplitter,
        "search",
        t.timed(
            "splitting.ga",
            genetic.GeneticSplitter.__dict__["search"],
            after=lambda a, r: t.count("splitting.ga_evaluations", r.evaluations),
        ),
    )
    inst.patch(
        store.PlanStore,
        "load",
        t.timed(
            "profiling.plan_load",
            store.PlanStore.__dict__["load"],
            after=lambda a, r: t.count(
                "profiling.store_hits" if r is not None else "profiling.store_misses"
            ),
        ),
    )
    inst.patch(
        profiler.Profiler,
        "profile",
        t.timed("profiling.profile", profiler.Profiler.__dict__["profile"]),
    )
    get_or_profile = store.ProfileStore.__dict__["get_or_profile"]

    def profile_lookup(*args, **kwargs):
        before = t.span_count("profiling.profile")
        result = get_or_profile(*args, **kwargs)
        missed = t.span_count("profiling.profile") > before
        t.count("profiling.store_misses" if missed else "profiling.store_hits")
        return result

    inst.patch(
        store.ProfileStore,
        "get_or_profile",
        t.timed("profiling.store_lookup", functools.wraps(get_or_profile)(profile_lookup)),
    )


def install_wire_server(tracer: Tracer, inst: Instrumentation) -> None:
    """Server-side wire boundaries: frame decode/encode and intake."""
    t = tracer
    protocol = _mod("repro.server.protocol")
    net = _mod("repro.server.net")

    def feed_counts(args, frames):
        t.count("protocol.bytes_in", len(args[1]))
        t.count("protocol.frames_in", len(frames))

    inst.patch(
        protocol.FrameDecoder,
        "feed",
        t.timed("protocol.decode", protocol.FrameDecoder.__dict__["feed"], after=feed_counts),
    )

    def encoded(args, frame):
        t.count("protocol.bytes_out", len(frame))
        t.count("protocol.frames_out")

    for cls, attr in (
        (protocol.BinaryCodecV2, "encode_result_batch"),
        (protocol.BinaryCodecV2, "encode_result"),
        (protocol.BinaryCodecV2, "encode"),
        (protocol.JsonCodec, "encode"),
    ):
        fn, rewrap = _method(cls, attr)
        inst.patch(cls, attr, rewrap(t.timed("protocol.encode", fn, after=encoded)))
    # ``net`` imported ``encode_frame`` by name: wrap the name it looks up.
    inst.patch(net, "encode_frame", t.timed("protocol.encode", net.encode_frame, after=encoded))

    for attr, name in (
        ("_handle_infer_records", "net.intake"),
        ("_settle_lockstep", "net.settle"),
    ):
        inst.patch(net.NetServer, attr, t.timed(name, net.NetServer.__dict__[attr]))
    # The engine thread blocks here for the next arrival chunk; a span of
    # its own keeps that wait out of the kernel's self time.
    inst.patch(
        net._IntakeSource,
        "next_chunk",
        t.timed("net.intake_wait", net._IntakeSource.__dict__["next_chunk"]),
    )


def install_wire_client(tracer: Tracer, inst: Instrumentation) -> None:
    """Client-side wire boundaries: generating the trace, sending
    batches, waiting for results."""
    gen_cls = _mod("repro.runtime.workload").WorkloadGenerator
    inst.patch(gen_cls, "generate", tracer.timed("workload.gen", gen_cls.__dict__["generate"]))
    client = _mod("repro.server.client").AsyncNetClient
    for attr, name in (
        ("submit_batch", "client.send"),
        ("flush", "client.send"),
        ("drain", "client.wait"),
        ("wait_received", "client.wait"),
    ):
        inst.patch(client, attr, tracer.timed_async(name, client.__dict__[attr]))
