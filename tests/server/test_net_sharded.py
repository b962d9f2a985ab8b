"""Sharded front-end: N connection loops, one protocol, one truth.

Realtime sharding is pure throughput plumbing — one acceptor deals
connections over the shard loops round-robin, every counter still adds
up, every request still resolves. Lockstep sharding must additionally
keep the determinism contract: per-connection intake lanes are merged
by ``(arrival_ms, task_type)`` before the kernel sees them, so a trace
split across two sockets settles float-identically to :func:`simulate`
on the whole trace — order *within* each connection's result stream
included.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.runtime.capture import summarize_engine_result
from repro.runtime.simulator import simulate
from repro.runtime.workload import Scenario, WorkloadGenerator
from repro.server.client import AsyncNetClient
from repro.server.net import NetServer
from repro.server.protocol import CODEC_BINARY, ERR_BAD_STATE

pytestmark = pytest.mark.net

MODELS = ("yolov2", "vgg19")
SEED = 7
SCENARIO = Scenario("sharded", 35.0, "high", 200)


def _items():
    return WorkloadGenerator(MODELS, seed=SEED).generate(SCENARIO)


# ---------------------------------------------------------------- realtime
def test_realtime_shards_handoff_fallback():
    """The hand-off acceptor — once the fallback, now the only accept
    path — deals connections over both shard loops and loses nothing."""
    n_conns = 8
    per_conn = 20

    async def run():
        server = NetServer(models=MODELS, mode="realtime", shards=2)
        async with server:
            clients = [
                await AsyncNetClient.connect("127.0.0.1", server.port)
                for _ in range(n_conns)
            ]
            try:
                futs = []
                for client in clients:
                    for i in range(per_conn):
                        futs.append(
                            await client.submit(MODELS[i % len(MODELS)])
                        )
                results = await asyncio.gather(*futs)
                assert len(results) == n_conns * per_conn
                stats = await clients[0].stats()
            finally:
                for client in clients:
                    await client.close()
            assert stats["net"]["shards"] == 2
            assert server.connections_total == n_conns
            assert server.results_dropped == 0
            # Conservation across shards: every request came back.
            received = sum(len(c.received) for c in clients)
            assert received == n_conns * per_conn
            # The round-robin deal provably uses both shard loops.
            assert all(s.connections_total > 0 for s in server._shards)
        assert server.split.responder.in_flight() == 0

    asyncio.run(run())


@pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"), reason="no SO_REUSEPORT"
)
def test_realtime_shards_reuseport():
    """Sharding no longer opens per-shard ``SO_REUSEPORT`` listeners:
    the one listener does not share its port, so a reuse-port socket
    cannot bind beside it, and the server keeps serving on both shards."""

    async def run():
        server = NetServer(models=MODELS, mode="realtime", shards=2)
        async with server:
            probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
                with pytest.raises(OSError):
                    probe.bind(("127.0.0.1", server.port))
            finally:
                probe.close()
            clients = [
                await AsyncNetClient.connect("127.0.0.1", server.port)
                for _ in range(2)
            ]
            try:
                results = await asyncio.gather(
                    *(client.infer(MODELS[0]) for client in clients)
                )
                stats = await clients[0].stats()
            finally:
                for client in clients:
                    await client.close()
            assert [r.outcome for r in results] == ["served", "served"]
            assert stats["net"]["shards"] == 2
            assert all(s.connections_total > 0 for s in server._shards)
        assert server.split.responder.in_flight() == 0

    asyncio.run(run())


def _ipv6_loopback() -> bool:
    if not socket.has_ipv6:
        return False
    try:
        with socket.socket(socket.AF_INET6, socket.SOCK_STREAM) as sock:
            sock.bind(("::1", 0))
    except OSError:
        return False
    return True


@pytest.mark.parametrize(
    "host",
    [
        "127.0.0.1",
        pytest.param(
            "::1",
            marks=pytest.mark.skipif(
                not _ipv6_loopback(), reason="no IPv6 loopback"
            ),
        ),
    ],
)
@pytest.mark.parametrize("shards", [1, 2])
def test_serves_on_host_family(host, shards):
    """The listener binds in the host's own address family, whatever
    the shard count."""

    async def run():
        server = NetServer(models=MODELS, host=host, shards=shards)
        async with server:
            client = await AsyncNetClient.connect(host, server.port)
            try:
                result = await client.infer(MODELS[0])
            finally:
                await client.close()
        return result

    assert asyncio.run(run()).outcome == "served"


# ---------------------------------------------------------------- lockstep
def test_sharded_lockstep_two_lanes_match_simulate():
    """A trace interleaved over two lockstep connections (one per codec)
    merges back into the simulator's exact event order: identical
    outcome sets, float-identical finish times and plans, and each
    connection's result stream is a subsequence of the global terminal
    order."""
    items = _items()
    lane_a = items[0::2]
    lane_b = items[1::2]

    async def run():
        server = NetServer(
            models=MODELS, mode="lockstep", shards=2, lockstep_lanes=2
        )
        async with server:
            a = await AsyncNetClient.connect("127.0.0.1", server.port)
            b = await AsyncNetClient.connect(
                "127.0.0.1", server.port, codec=CODEC_BINARY
            )
            try:
                futs = [
                    await a.submit(lane_a[0].model_name, lane_a[0].arrival_ms)
                ]
                # Pin which connection owns which intake lane before the
                # second connection's frames can race across shard loops
                # (fence() = processed-everything-so-far barrier).
                await a.fence()
                for item in lane_a[1:]:
                    futs.append(
                        await a.submit(item.model_name, item.arrival_ms)
                    )
                futs.extend(
                    await b.submit_batch(
                        [(i.model_name, i.arrival_ms) for i in lane_b]
                    )
                )
                # Both lanes must close for the merge to run dry; the
                # drains block until then, so they go out together.
                await asyncio.gather(a.drain(), b.drain())
                await asyncio.gather(*futs)
                return list(a.received), list(b.received)
            finally:
                await a.close()
                await b.close()

    rec_a, rec_b = asyncio.run(run())
    sim = simulate("split", SCENARIO, models=MODELS, seed=SEED)
    ref = summarize_engine_result(sim.engine_result)

    observations = rec_a + rec_b
    assert len(observations) == len(items)
    assert all(r.outcome == "served" for r in observations)

    # Float-identical settlement per request (global emission order is
    # split across two sockets, so compare keyed, not sequenced).
    ref_finish = dict(zip(ref.order, ref.finishes))
    ref_plans = dict(ref.plans)
    for r in observations:
        key = (r.model, r.arrival_ms)
        assert key in ref_finish, key
        assert r.finish_ms == ref_finish[key]
        assert r.plan_ms == ref_plans[key]

    # Each connection still observes its own results in global terminal
    # order: its stream must be a subsequence of the simulator's order.
    for received in (rec_a, rec_b):
        keys = [(r.model, r.arrival_ms) for r in received]
        it = iter(ref.order)
        assert all(key in it for key in keys), "per-connection order broken"


def test_lockstep_extra_lane_refused():
    """Once the expected lane count is reached, a third submitting
    connection gets ``bad_state`` instead of silently stalling the
    merge."""
    items = _items()[:20]

    async def run():
        server = NetServer(
            models=MODELS, mode="lockstep", shards=2, lockstep_lanes=2
        )
        async with server:
            a = await AsyncNetClient.connect("127.0.0.1", server.port)
            b = await AsyncNetClient.connect("127.0.0.1", server.port)
            c = await AsyncNetClient.connect("127.0.0.1", server.port)
            try:
                fut_a = await a.submit(items[0].model_name, items[0].arrival_ms)
                fut_b = await b.submit(items[1].model_name, items[1].arrival_ms)
                # Lane claims happen when the server processes each
                # connection's first INFER, and frames from different
                # sockets race across shard loops; fence() orders the
                # claims, so c is deterministically third.
                await asyncio.gather(a.fence(), b.fence())
                refused = await c.infer(
                    items[2].model_name, items[2].arrival_ms
                )
                assert not refused.ok
                assert refused.outcome == ERR_BAD_STATE
                await asyncio.gather(a.drain(), b.drain())
                await asyncio.gather(fut_a, fut_b)
            finally:
                await a.close()
                await b.close()
                await c.close()

    asyncio.run(run())
