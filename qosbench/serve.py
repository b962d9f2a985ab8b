"""Launch the wire server under the benchmark's instruments.

Usage (from the checkout root)::

    python3 qosbench/serve.py --report PATH [--trace] -- <repro.server.net args>

Installs the kernel lane counter (always) and, with ``--trace``, every
span wrapper of :mod:`tracer`, then runs ``repro.server.net.main`` with
the arguments after ``--``. On SIGINT the server stops as usual; the
launcher then writes one JSON report to ``PATH``: peak RSS, the
``NetServer.stats()`` counters read as the server stops, kernel lanes,
and (traced) the span aggregates, with the spans themselves written
next to it as CSV.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402
import tracer as tr  # noqa: E402
from repro.server import net  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="qosbench/serve.py")
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    server_args = args.server_args
    if server_args[:1] == ["--"]:
        server_args = server_args[1:]

    # Stopping the server is a SIGINT; a shell that starts the benchmark
    # in the background may have left SIGINT ignored for its children.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    tracer = tr.Tracer()
    inst = tr.Instrumentation()
    lanes = tr.LaneCounter()
    lanes.install(inst)
    if args.trace:
        tr.install(tracer, inst)
        tr.install_wire_server(tracer, inst)

    stats: dict = {}
    # The machine's speed on this process's core, just before the server
    # takes traffic and just after it was drained.
    kernel_s: list[float] = []
    cls = net.NetServer
    start, stop = cls.__dict__["start"], cls.__dict__["stop"]

    @functools.wraps(start)
    async def start_then_run(server):
        try:
            return await start(server)
        finally:
            kernel_s.append(calibration.probe())
            # Everything before the listener is up is set-up.
            tracer.phase = tr.RUN

    @functools.wraps(stop)
    async def stats_stop(server):
        kernel_s.append(calibration.probe())
        stats.update(server.stats())
        return await stop(server)

    inst.patch(cls, "start", start_then_run)
    inst.patch(cls, "stop", stats_stop)

    code = net.main(server_args)

    report = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stats": stats,
        "lanes": dict(lanes.lanes),
        "kernel_s": kernel_s,
    }
    if args.trace:
        report["trace"] = tracer.snapshot()
        spans = args.report.with_suffix(".spans.csv")
        tracer.write(spans)
        report["spans"] = str(spans)
    args.report.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
