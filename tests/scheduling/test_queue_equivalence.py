"""Property suite: RequestQueue vs the list-backed reference oracle.

Random mutation programs — appends, positional inserts, greedy/EDF/SJF
bubbles, head pops, peeks with engine-contract state mutations, moves,
removes, PREMA selections — are applied to both queue backends with the
*same* Request objects, and every step asserts identical ordering,
identical greedy insert positions, identical selections, and that the
deque backend's run-length summary stays consistent with its elements.

The programs respect the engine's dispatch discipline (a request's
scheduling state is only mutated after ``peek`` returned it), which is
the contract the run-length compression's soundness rests on.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.greedy import greedy_insert
from repro.scheduling.policies.edf import EDFScheduler
from repro.scheduling.policies.prema import PremaScheduler, _select_scan
from repro.scheduling.policies.sjf import SJFScheduler
from repro.scheduling.queue import ListBackedRequestQueue, RequestQueue
from repro.scheduling.request import Request, TaskSpec
from repro.types import RequestClass

#: A small task pool engineered for adversarial cases: split and unsplit
#: plans, a strict (alpha < 1) and a lenient (alpha > 1) task, and the
#: tie pair — identical ext/target/remaining-time constants under two
#: names, so greedy swap gains hit exactly 0.0 and FIFO tie-breaks must
#: agree between backends.
TASKS = (
    TaskSpec("t-short", 10.0, (10.0,), RequestClass.SHORT),
    TaskSpec("t-split", 10.0, (5.0, 5.5), RequestClass.SHORT),
    TaskSpec("t-tie-a", 20.0, (20.0,), RequestClass.SHORT),
    TaskSpec("t-tie-b", 20.0, (10.0, 10.0), RequestClass.SHORT),
    TaskSpec("t-long", 80.0, (30.0, 30.0, 30.0), RequestClass.LONG, alpha=2.0),
    TaskSpec("t-strict", 40.0, (20.0, 21.0), RequestClass.LONG, alpha=0.5),
)

#: Coarse arrival grid so per-type minimum-arrival ties actually occur.
ARRIVALS = (0.0, 1.0, 2.0, 5.0, 10.0)

OPS = (
    "append", "insert", "greedy", "edf", "sjf", "pop", "peek",
    "move", "remove", "prema", "candidates", "greedy_batch",
)

_op = st.tuples(
    st.sampled_from(OPS),
    st.integers(0, len(TASKS) - 1),
    st.integers(0, len(ARRIVALS) - 1),
    st.integers(0, 2**16),
)


def _check_step(fast: RequestQueue, slow: ListBackedRequestQueue) -> None:
    assert [r.request_id for r in fast] == [r.request_id for r in slow]
    assert fast._runs_consistent()


def _run_program(ops) -> tuple[RequestQueue, ListBackedRequestQueue]:
    fast, slow = RequestQueue(), ListBackedRequestQueue()
    edf, sjf, prema = EDFScheduler(), SJFScheduler(), PremaScheduler()
    live: list[Request] = []
    now = 0.0
    for name, ti, ai, k in ops:
        now += 1.0
        if name in ("append", "insert", "greedy", "edf", "sjf"):
            req = Request(task=TASKS[ti], arrival_ms=ARRIVALS[ai])
            if name == "append":
                fast.append(req)
                slow.append(req)
            elif name == "insert":
                idx = k % (len(fast) + 1)
                fast.insert(idx, req)
                slow.insert(idx, req)
            elif name == "greedy":
                assert greedy_insert(fast, req) == greedy_insert(slow, req)
            elif name == "edf":
                edf.on_arrival(fast, req, now)
                edf.on_arrival(slow, req, now)
            else:
                sjf.on_arrival(fast, req, now)
                sjf.on_arrival(slow, req, now)
            live.append(req)
        elif name == "pop":
            if fast.empty:
                continue
            a, b = fast.pop_head(), slow.pop_head()
            assert a is b
            live.remove(a)
        elif name == "peek":
            # The engine contract: peek, then (and only then) mutate the
            # head's scheduling state; remove it when its plan runs dry.
            if fast.empty:
                continue
            a, b = fast.peek(), slow.peek()
            assert a is b
            if not a.started:
                a.begin(a.task.blocks_ms, now)
            a.pop_block()
            if a.blocks_left == 0:
                fast.remove(a)
                slow.remove(a)
                live.remove(a)
        elif name == "move":
            if fast.empty:
                continue
            idx = k % len(fast)
            fast.move_to_front(idx)
            slow.move_to_front(idx)
        elif name == "remove":
            if not live:
                continue
            req = live.pop(k % len(live))
            fast.remove(req)
            slow.remove(req)
        elif name == "greedy_batch":
            # The fast lane's batched admission: same objects into both
            # backends, positions must match the per-request bubble's.
            batch = [
                Request(
                    task=TASKS[(ti + j) % len(TASKS)],
                    arrival_ms=ARRIVALS[(ai + j) % len(ARRIVALS)],
                )
                for j in range(k % 3 + 1)
            ]
            assert fast.bulk_greedy_insert(batch) == slow.bulk_greedy_insert(
                batch
            )
            live.extend(batch)
        elif name == "prema":
            assert prema.select(fast, now) == _select_scan(slow, now)
        else:  # candidates — exercises the lazy arrival heaps mid-program
            got = {r.request_id for r in fast.min_arrival_candidates()}
            want = {r.request_id for r in slow.min_arrival_candidates()}
            assert got == want
        _check_step(fast, slow)
    return fast, slow


@settings(deadline=None, max_examples=150)
@given(st.lists(_op, max_size=80))
def test_random_programs_order_identically(ops):
    fast, slow = _run_program(ops)
    assert fast.task_types() == slow.task_types()
    assert fast.type_counts() == slow.type_counts()
    assert fast.total_backlog_ms() == slow.total_backlog_ms()
    for i in range(len(fast) + 1):
        assert fast.waiting_ahead_ms(i) == slow.waiting_ahead_ms(i)


class TestRunSummaryEdges:
    """Deterministic probes of the run-maintenance corner cases."""

    def _fill(self, queue, task, n, arrival=0.0):
        reqs = [Request(task=task, arrival_ms=arrival) for _ in range(n)]
        for r in reqs:
            queue.append(r)
        return reqs

    def test_interior_split_of_compressed_run(self):
        q = RequestQueue()
        self._fill(q, TASKS[0], 5)
        intruder = Request(task=TASKS[4], arrival_ms=0.0)
        q.insert(2, intruder)
        assert q._runs_consistent()
        assert q.task_types() == (
            ["t-short"] * 2 + ["t-long"] + ["t-short"] * 3
        )
        # One compressed run was split into [2, intruder, 3].
        assert [run[1] for run in q._runs] == [2, 1, 3]

    def test_peek_taints_head_into_exact_singleton(self):
        q = RequestQueue()
        reqs = self._fill(q, TASKS[1], 3)
        head = q.peek()
        assert head is reqs[0]
        runs = list(q._runs)
        assert runs[0][2] is head and runs[0][1] == 1
        assert runs[1][2] is None and runs[1][1] == 2
        # The engine may now mutate the peeked head; the summary stays
        # sound because only the exact singleton changed state.
        head.begin(head.task.blocks_ms, 0.0)
        head.pop_block()
        assert q._runs_consistent()

    def test_started_request_reinserted_as_exact_run(self):
        q = RequestQueue()
        self._fill(q, TASKS[0], 2)
        started = q.peek()
        started.begin(started.task.blocks_ms, 0.0)
        # A greedy arrival passing position 0 demotes the started head.
        q.move_to_front(1)
        assert q._runs_consistent()
        assert q._runs[1][2] is started

    def test_greedy_tie_pair_keeps_fifo_order(self):
        """swap_gain is exactly 0.0 between the tie tasks: the bubble must
        keep walking (strict < 0 stop), identically on both backends."""
        for cls in (RequestQueue, ListBackedRequestQueue):
            q = cls()
            first = Request(task=TASKS[2], arrival_ms=0.0)
            q.append(first)
            pos = greedy_insert(q, Request(task=TASKS[3], arrival_ms=1.0))
            assert pos == 0, cls.__name__

    def test_peek_taint_then_move_to_front(self):
        """Tainting the head of a compressed run and then moving another
        element to the front must leave the summary consistent: the exact
        singleton stays exact, the remainder stays compressed."""
        q = RequestQueue()
        reqs = self._fill(q, TASKS[0], 4)
        head = q.peek()  # splits [4] into [1 exact, 3 compressed]
        head.begin(head.task.blocks_ms, 0.0)
        q.move_to_front(3)
        assert q._runs_consistent()
        assert q[0] is reqs[3] and q[1] is head
        # The moved element rejoined at the front as its own run; the
        # started head is still certified by an exact run.
        runs = list(q._runs)
        assert runs[1][2] is head

    def test_remove_from_middle_of_compressed_run(self):
        q = RequestQueue()
        reqs = self._fill(q, TASKS[1], 5)
        q.remove(reqs[2])
        assert q._runs_consistent()
        assert len(q) == 4 and all(r is not reqs[2] for r in q)
        # Same-task neighbours: the run just shrinks, no split.
        assert [run[1] for run in q._runs] == [4]
        q.remove(reqs[0])  # head removal exercises the fast path
        assert q._runs_consistent()
        assert [run[1] for run in q._runs] == [3]

    def test_bulk_insert_matches_per_request_positions(self):
        """Batched admission lands every request where the one-at-a-time
        bubble would, including compressed-run merges."""
        batch_tasks = [TASKS[0], TASKS[0], TASKS[4], TASKS[0], TASKS[5]]
        lhs, rhs = RequestQueue(), RequestQueue()
        for r in self._fill(lhs, TASKS[1], 3):
            rhs.append(r)
        batch = [
            Request(task=t, arrival_ms=float(i))
            for i, t in enumerate(batch_tasks)
        ]
        import copy

        mirror = []
        for r in batch:
            twin = copy.deepcopy(r)
            twin.request_id = r.request_id
            mirror.append(twin)
        bulk_pos = lhs.bulk_greedy_insert(batch)
        one_pos = [greedy_insert(rhs, r) for r in mirror]
        assert bulk_pos == one_pos
        assert [r.request_id for r in lhs] == [r.request_id for r in rhs]
        assert lhs._runs_consistent() and rhs._runs_consistent()

    def test_bulk_insert_after_peek_taint(self):
        """A tainted (exact) head must be re-evaluated per element by the
        batched bubble, exactly like the per-request walk."""
        lhs, rhs = RequestQueue(), RequestQueue()
        for r in self._fill(lhs, TASKS[4], 2):
            rhs.append(r)
        head = lhs.peek()
        assert rhs.peek() is head  # shared objects, shared taint
        head.begin(head.task.blocks_ms, 0.0)
        head.pop_block()  # shrink remaining time: exact-run state
        batch = [Request(task=TASKS[0], arrival_ms=1.0) for _ in range(2)]
        import copy

        mirror = []
        for r in batch:
            twin = copy.deepcopy(r)
            twin.request_id = r.request_id
            mirror.append(twin)
        assert lhs.bulk_greedy_insert(batch) == [
            greedy_insert(rhs, r) for r in mirror
        ]
        assert [r.request_id for r in lhs] == [r.request_id for r in rhs]
        assert lhs._runs_consistent() and rhs._runs_consistent()


class TestPremaShortcut:
    """Deterministic probes of PREMA's candidate shortcut: the in-place
    heap-root read, the tie path, the zero-wait plateau fallback and the
    per-task priority cache, each against the list-backed oracle and the
    full-scan selection."""

    @staticmethod
    def _counting_heapq(monkeypatch):
        import heapq

        from repro.scheduling import queue as queue_mod

        pops = []

        class CountingHeapq:
            heappush = staticmethod(heapq.heappush)

            @staticmethod
            def heappop(heap):
                pops.append(1)
                return heapq.heappop(heap)

        monkeypatch.setattr(queue_mod, "heapq", CountingHeapq)
        return pops

    @staticmethod
    def _both(*reqs):
        fast, slow = RequestQueue(), ListBackedRequestQueue()
        for r in reqs:
            fast.append(r)
            slow.append(r)
        return fast, slow

    @staticmethod
    def _agree(fast, slow, prema, now):
        got = fast.min_arrival_candidates()
        want = slow.min_arrival_candidates()
        assert sorted(r.request_id for r in got) == sorted(
            r.request_id for r in want
        )
        assert prema.select(fast, now) == _select_scan(slow, now)
        return got

    def test_ties_with_stale_children_then_in_place_root(self, monkeypatch):
        short, long_ = TASKS[0], TASKS[4]
        a1, a2, a3 = (Request(task=short, arrival_ms=0.0) for _ in range(3))
        a4 = Request(task=short, arrival_ms=1.0)
        b1 = Request(task=long_, arrival_ms=0.5)
        fast, slow = self._both(a1, a2, a3, a4, b1)
        prema = PremaScheduler()
        pops = self._counting_heapq(monkeypatch)

        # Three live requests share the minimum: the tie path returns all.
        got = self._agree(fast, slow, prema, 3.0)
        assert {r.request_id for r in got} >= {a1.request_id, a2.request_id}
        assert pops, "tie path pops the tied entries"

        # The tied children go stale: the root is live but its children
        # still carry its arrival time, so the tie path runs and drops them.
        for r in (a2, a3):
            fast.remove(r)
            slow.remove(r)
        heap = fast._arrival_index[short.name]
        assert heap[1][0] == heap[0][0] == 0.0
        pops.clear()
        got = self._agree(fast, slow, prema, 3.0)
        assert [r for r in got if r.task is short] == [a1]
        assert len(pops) == 3  # a1 and both stale twins
        assert [entry[2] for entry in heap] == [a1, a4]

        # Now the root is the unique minimum: read in place, no pops.
        pops.clear()
        before = list(heap)
        self._agree(fast, slow, prema, 3.0)
        assert not pops and heap == before

        # A stale root is dropped, then the new root is read in place.
        fast.remove(a1)
        slow.remove(a1)
        pops.clear()
        got = self._agree(fast, slow, prema, 3.0)
        assert a4 in got and len(pops) == 1

    def test_tie_in_right_child_only(self):
        """Pushes at 0.0, 1.0, 0.0 leave the tie in ``heap[2]`` with
        ``heap[1]`` later: the root is not unique and both ties come back."""
        reqs = [Request(task=TASKS[1], arrival_ms=t) for t in (0.0, 1.0, 0.0)]
        fast, slow = self._both(*reqs)
        got = self._agree(fast, slow, PremaScheduler(), 4.0)
        heap = fast._arrival_index[TASKS[1].name]
        assert [entry[0] for entry in heap] == [0.0, 1.0, 0.0]
        assert got == [reqs[0], reqs[2]]

    def test_plateau_winner_falls_back_to_scan(self):
        """Zero-wait winners sit on the token plateau, where the within-type
        order is no longer strict: the first queued request wins the scan
        even though it is not the type's minimal arrival."""
        late = Request(task=TASKS[0], arrival_ms=7.0)
        early = Request(task=TASKS[0], arrival_ms=6.0)
        other = Request(task=TASKS[4], arrival_ms=6.0)
        fast, slow = self._both(other, late, early)
        prema = PremaScheduler()
        assert early in fast.min_arrival_candidates()
        assert prema.token(early, 5.0) == 9.0  # PRIORITY_BY_CLASS[SHORT]
        self._agree(fast, slow, prema, 5.0)
        assert prema.select(fast, 5.0) == 1  # ``late``, first of the tie

    def test_same_type_name_new_task_spec_re_resolves_priority(self):
        """One scheduler and queue see type ``x`` first as a SHORT task,
        then (after those requests leave) as a LONG one: a cached SHORT
        priority would pick ``x`` over ``y``; the fresh LONG one must not."""
        x_short = TaskSpec("x", 10.0, (10.0,), RequestClass.SHORT)
        x_long = TaskSpec("x", 10.0, (10.0,), RequestClass.LONG)
        y = TaskSpec("y", 20.0, (20.0,), RequestClass.SHORT)
        prema = PremaScheduler()
        first = Request(task=x_short, arrival_ms=0.0)
        fast, slow = self._both(first)
        assert self._agree(fast, slow, prema, 10.0) == [first]
        fast.remove(first)
        slow.remove(first)

        later_y = Request(task=y, arrival_ms=0.0)
        later_x = Request(task=x_long, arrival_ms=0.0)
        for r in (later_x, later_y):
            fast.append(r)
            slow.append(r)
        # y: 9 * (1 + 10/20) = 13.5; x as LONG: 3 * 2 = 6 (as SHORT: 18).
        self._agree(fast, slow, prema, 10.0)
        assert prema.select(fast, 10.0) == 1
