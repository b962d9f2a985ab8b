"""Wire replies and refusals, pinned below the socket.

Two pins on :class:`~repro.server.net.NetServer`'s per-request paths,
driven directly on real connection objects whose event loop runs
callbacks inline (no socket, no threads):

* **Reply bytes.** Lockstep settlement and realtime delivery must emit
  exactly the frames the frozen per-mode builders in
  ``_legacy_replies.py`` emitted: every mode x codec x outcome, with and
  without an echo, with and without a plan, and for a task name missing
  from the connection's HELLO-time model table.
* **Refusal precedence.** An infer that breaks two admission rules at
  once is refused for the rule checked first, per serving mode and
  codec (binary lockstep checks the model index before the arrival
  stamp; JSON lockstep checks ordering before the model name).
"""

from __future__ import annotations

import itertools
import math

import pytest

from repro.scheduling.request import Request, TaskSpec
from repro.server.net import NetServer, _Connection, _Shard
from repro.server.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    CODECS,
    ERR_BACKPRESSURE,
    ERR_OUT_OF_ORDER,
    ERR_PROTOCOL,
    ERR_UNKNOWN_MODEL,
    TAG_BY_OUTCOME,
    FrameDecoder,
    FrameType,
)
from repro.server.responder import Responder

from tests.server import _legacy_replies as legacy

OUTCOMES = ("served", "rejected", "shed", "failed", "timed_out")
ECHOES = (None, {"trace": [1, "x"], "pad": "é"})
SPEC = TaskSpec("pinned", 10.75, (4.25, 6.5))
PLAN = (4.25, 6.5)


class _InlineLoop:
    """Stands in for a shard loop: thread-safe callbacks run at once."""

    def call_soon_threadsafe(self, fn, *args):
        fn(*args)


def _connection(server: NetServer, codec: str, known: bool = True) -> _Connection:
    conn = _Connection(_Shard(0, _InlineLoop()), server, None)
    conn.decoder.set_codec(CODECS[codec])
    conn.binary = codec == CODEC_BINARY
    names = ["other", SPEC.name] if known else ["other"]
    conn.model_names = names
    conn.model_idx = {name: i for i, name in enumerate(names)}
    return conn


def _sent(conn: _Connection) -> list[bytes]:
    frames = []
    while not conn.out.empty():
        frames.append(conn.out.get_nowait())
    return frames


def _request(outcome: str, planned: bool, arrival_ms: float) -> Request:
    request = Request(task=SPEC, arrival_ms=arrival_ms)
    request.retries = 1
    request.preemptions = 2
    if planned:
        request.plan_ms = PLAN
    if outcome == "served":
        request.finish_ms = arrival_ms + 31.125
    return request


CASES = list(itertools.product(OUTCOMES, range(len(ECHOES)), (False, True)))


# ------------------------------------------------------------ reply bytes
@pytest.mark.parametrize("codec", [CODEC_JSON, CODEC_BINARY])
def test_lockstep_replies_match_frozen_builder(codec):
    server = NetServer(mode="lockstep")
    conns = [_connection(server, codec, known) for known in (True, False)]
    requests, outcomes = [], []
    for conn in conns:
        for cid, (outcome, echo_i, planned) in enumerate(CASES):
            request = _request(outcome, planned, 2.5 * cid)
            server._pending[request.request_id] = (conn, cid, ECHOES[echo_i])
            conn.inflight += 1
            requests.append(request)
            outcomes.append(outcome)
    results = Responder().settle_batch(requests, outcomes)
    expected = legacy.settle_lockstep(
        dict(server._pending), requests, outcomes, results
    )

    server._settle_lockstep(requests, outcomes)

    for conn in conns:
        assert _sent(conn) == expected[conn]
        assert conn.inflight == 0
    assert server._pending == {}


@pytest.mark.parametrize("codec", [CODEC_JSON, CODEC_BINARY])
@pytest.mark.parametrize("known", [True, False], ids=["known", "unknown_idx"])
def test_realtime_replies_match_frozen_builder(codec, known):
    server = NetServer(mode="realtime")
    conn = _connection(server, codec, known)
    responder = server.split.responder
    for cid, (outcome, echo_i, planned) in enumerate(CASES):
        request = _request(outcome, planned, 2.5 * cid)
        handle = responder.register(request)
        responder.settle_batch([request], [outcome])
        echo = ECHOES[echo_i]
        conn.inflight += 1
        conn.note_echo(cid, echo)

        server._deliver(conn, cid, handle)

        assert _sent(conn) == [legacy.deliver(conn, cid, handle, echo)]
    assert conn.inflight == 0


# ------------------------------------------------------ refusal precedence
def _server(mode: str, max_inflight: int = 256) -> NetServer:
    return NetServer(models=("yolov2",), mode=mode, max_inflight=max_inflight)


def _binary_conn(server: NetServer) -> _Connection:
    conn = _connection(server, CODEC_JSON)
    server._handle_hello(conn, {"id": 0, "codec": CODEC_BINARY})
    _sent(conn)  # the ACK
    return conn


def _replies(conn: _Connection) -> list[tuple[str, int, object]]:
    """Every queued reply as ``(kind, cid, code-or-tag)``."""
    decoder = FrameDecoder()
    decoder.set_codec(conn.decoder.codec)
    out = []
    for ftype, payload in decoder.feed(b"".join(_sent(conn))):
        if ftype is FrameType.RESULT_BATCH:
            out.extend(("record", r[0], r[1]) for r in payload)
        else:
            assert ftype is FrameType.ERROR
            out.append(("error", payload["id"], payload["code"]))
    return out


def test_binary_lockstep_backpressure_before_unknown_index():
    server = _server("lockstep", max_inflight=1)
    conn = _binary_conn(server)
    server._handle_infer_records(conn, [(1, 0, 10.0), (2, 7, 11.0)])
    assert _replies(conn) == [
        ("record", 2, TAG_BY_OUTCOME[ERR_BACKPRESSURE])
    ]


def test_binary_lockstep_unknown_index_before_out_of_order():
    server = _server("lockstep")
    conn = _binary_conn(server)
    server._handle_infer_records(conn, [(1, 0, 10.0), (2, 7, 5.0)])
    assert _replies(conn) == [
        ("record", 2, TAG_BY_OUTCOME[ERR_UNKNOWN_MODEL])
    ]


def test_binary_lockstep_bad_stamp_before_out_of_order():
    server = _server("lockstep")
    conn = _binary_conn(server)
    server._handle_infer_records(
        conn, [(1, 0, 10.0), (2, 0, math.nan), (3, 0, -1.0), (4, 0, 5.0)]
    )
    assert _replies(conn) == [
        ("error", 2, ERR_PROTOCOL),
        ("error", 3, ERR_PROTOCOL),
        ("record", 4, TAG_BY_OUTCOME[ERR_OUT_OF_ORDER]),
    ]


def test_binary_realtime_backpressure_before_unknown_index():
    server = _server("realtime", max_inflight=1)
    conn = _binary_conn(server)
    conn.inflight = 1
    server._handle_infer_records(conn, [(1, 7, math.nan), (2, 0, math.nan)])
    tag = TAG_BY_OUTCOME[ERR_BACKPRESSURE]
    assert _replies(conn) == [("record", 1, tag), ("record", 2, tag)]
    assert conn.shard.backpressure_rejections == 2


def test_json_lockstep_out_of_order_before_unknown_model():
    server = _server("lockstep")
    conn = _connection(server, CODEC_JSON)
    server._handle_infer(conn, {"id": 1, "model": "yolov2", "arrival_ms": 10.0})
    server._handle_infer(conn, {"id": 2, "model": "nope", "arrival_ms": 5.0})
    server._handle_infer(conn, {"id": 3, "model": "nope", "arrival_ms": 12.0})
    assert _replies(conn) == [
        ("error", 2, ERR_OUT_OF_ORDER),
        ("error", 3, ERR_UNKNOWN_MODEL),
    ]


def test_json_lockstep_backpressure_before_bad_stamp():
    server = _server("lockstep", max_inflight=1)
    conn = _connection(server, CODEC_JSON)
    server._handle_infer(conn, {"id": 1, "model": "yolov2", "arrival_ms": 10.0})
    server._handle_infer(conn, {"id": 2, "model": "yolov2", "arrival_ms": -1.0})
    assert _replies(conn) == [("error", 2, ERR_BACKPRESSURE)]
