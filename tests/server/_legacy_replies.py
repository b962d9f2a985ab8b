"""Frozen wire-reply builders (revision 89b1ec1), verbatim.

Before the wire server shared one reply builder between its two serving
modes, each mode built its replies inline: lockstep settlement in
``NetServer._settle_lockstep`` and realtime delivery in
``NetServer._deliver``. Their reply-building bodies are kept here —
unmodified except that they return the encoded frames instead of
queueing them on a connection — as the *old* side of the reply-byte
oracle (``test_net_replies.py``).

Do not fix, extend, or "clean up" this module: its only value is being
exactly what shipped before the builders were folded.
"""

from __future__ import annotations

from typing import Any

from repro.server.protocol import (
    ERR_BAD_STATE,
    OUTCOME_CODES,
    RESULT_HEAD,
    TAG_BY_OUTCOME,
    BinaryCodecV2,
    FrameType,
    encode_frame,
)

_NAN = float("nan")
_BATCH_FRAME_BYTES = 256 * 1024
MODEL_IDX_UNKNOWN = 0xFFFF
_TAG_BAD_STATE = TAG_BY_OUTCOME[ERR_BAD_STATE]


def _packed_result_frames(records: list[tuple]) -> list[bytes]:
    """Pack result records into RESULT_BATCH frames under a size budget."""
    frames: list[bytes] = []
    batch: list[tuple] = []
    size = 4
    for record in records:
        plan = record[9]
        record_size = RESULT_HEAD.size + (8 * len(plan) if plan else 0)
        if batch and size + record_size > _BATCH_FRAME_BYTES:
            frames.append(BinaryCodecV2.encode_result_batch(batch))
            batch, size = [], 4
        batch.append(record)
        size += record_size
    if batch:
        frames.append(BinaryCodecV2.encode_result_batch(batch))
    return frames


def settle_lockstep(pending, requests, outcomes, results) -> dict[Any, list[bytes]]:
    """``_settle_lockstep``'s reply building: connection -> frames."""
    # conn -> (json frame list) or (binary record list), in terminal
    # order; per-connection frame order is the determinism contract.
    json_frames: dict[Any, list[bytes]] = {}
    bin_records: dict[Any, list[tuple]] = {}
    counts: dict[Any, int] = {}
    for request, outcome, result in zip(requests, outcomes, results):
        entry = pending.pop(request.request_id, None)
        if entry is None:
            continue
        conn, cid, echo = entry
        counts[conn] = counts.get(conn, 0) + 1
        plan = request.plan_ms
        if conn.binary:
            midx = conn.model_idx.get(
                request.task_type, MODEL_IDX_UNKNOWN
            )
            if result is not None:
                record = (
                    cid, 0, midx,
                    result.arrival_ms, result.finish_ms,
                    result.e2e_ms, result.response_ratio,
                    result.preemptions, result.retries, plan,
                )
            else:
                record = (
                    cid, TAG_BY_OUTCOME[outcome], midx,
                    request.arrival_ms, _NAN, _NAN, _NAN,
                    0, request.retries, plan,
                )
            bin_records.setdefault(conn, []).append(record)
        else:
            if result is not None:
                payload: dict[str, Any] = {
                    "id": cid,
                    "model": result.model,
                    "arrival_ms": result.arrival_ms,
                    "finish_ms": result.finish_ms,
                    "e2e_ms": result.e2e_ms,
                    "response_ratio": result.response_ratio,
                    "preemptions": result.preemptions,
                    "retries": result.retries,
                    "plan_ms": list(plan) if plan is not None else None,
                }
                if echo is not None:
                    payload["echo"] = echo
                frame = encode_frame(FrameType.RESULT, payload)
            else:
                payload = {
                    "id": cid,
                    "code": OUTCOME_CODES.get(outcome, outcome),
                    "model": request.task_type,
                    "arrival_ms": request.arrival_ms,
                    "retries": request.retries,
                    "plan_ms": list(plan) if plan is not None else None,
                }
                if echo is not None:
                    payload["echo"] = echo
                frame = encode_frame(FrameType.ERROR, payload)
            json_frames.setdefault(conn, []).append(frame)
    out: dict[Any, list[bytes]] = {}
    for conn in counts:
        frames = json_frames.get(conn)
        if frames is None:
            frames = _packed_result_frames(bin_records[conn])
        out[conn] = frames
    return out


def deliver(conn, cid: int, handle, echo) -> bytes:
    """``_deliver``'s reply building: the one frame it queues."""
    plan = handle.plan_ms
    if conn.binary:
        req = handle._request
        res = handle.result_or_none
        midx = conn.model_idx.get(req.task_type, MODEL_IDX_UNKNOWN)
        if res is not None:
            record = (
                cid, 0, midx, res.arrival_ms, res.finish_ms,
                res.e2e_ms, res.response_ratio,
                res.preemptions, res.retries, plan,
            )
        else:
            record = (
                cid, TAG_BY_OUTCOME.get(handle.outcome, _TAG_BAD_STATE),
                midx, req.arrival_ms, _NAN, _NAN, _NAN,
                0, req.retries, plan,
            )
        return BinaryCodecV2.encode_result(record)
    if handle.outcome == "served":
        res = handle.result_or_none
        assert res is not None
        payload: dict[str, Any] = {
            "id": cid,
            "model": res.model,
            "arrival_ms": res.arrival_ms,
            "finish_ms": res.finish_ms,
            "e2e_ms": res.e2e_ms,
            "response_ratio": res.response_ratio,
            "preemptions": res.preemptions,
            "retries": res.retries,
            "plan_ms": list(plan) if plan is not None else None,
        }
        if echo is not None:
            payload["echo"] = echo
        return conn.decoder.codec.encode(FrameType.RESULT, payload)
    req = handle._request
    payload = {
        "id": cid,
        "code": OUTCOME_CODES.get(handle.outcome, handle.outcome),
        "model": req.task_type,
        "arrival_ms": req.arrival_ms,
        "retries": req.retries,
        "plan_ms": list(plan) if plan is not None else None,
    }
    if echo is not None:
        payload["echo"] = echo
    return conn.decoder.codec.encode(FrameType.ERROR, payload)
