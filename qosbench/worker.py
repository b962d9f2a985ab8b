"""One benchmark process: set up a workload, run timed units, check.

Started by ``run.py`` (never by hand) with a fresh, empty plan store in
``SPLIT_CACHE_DIR``::

    python3 qosbench/worker.py --workload W --seed N --seconds S
        --trace 0|1 --workdir DIR [--setup-only]

The process that runs the workload is this one (the wire server is its
child). It prints one JSON object as its last stdout line: the
monotonic time it became ready to send, then (unless ``--setup-only``)
every unit's host time and simulated figures, the checks that ran, peak
RSS and, when traced, the span aggregates.

``--trace 1`` installs the span wrappers before set-up, then alternates
traced and untraced units (wrappers removed), so the per-layer metrics
come from traced units and the tracing overhead from the difference.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="qosbench/worker.py")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    cls = wl.WORKLOADS[args.workload]
    workload = (
        cls(args.seed, workdir=args.workdir)
        if cls is wl.WireReplay
        else cls(args.seed)
    )
    out = run_workload(
        workload, args.seconds, bool(args.trace), args.workdir, args.setup_only
    )
    print(json.dumps(out), flush=True)
    return 1 if "check_failed" in out else 0


def run_workload(
    workload, seconds: float, traced: bool, workdir: Path, setup_only: bool = False
) -> dict:
    """Set up, then run units until ``seconds`` are spent (at least one,
    two when traced); check the first unit. Returns the JSON report."""
    tracer = tr.Tracer()
    inst = tr.Instrumentation()
    lanes = tr.LaneCounter()

    def arm(trace_on: bool) -> None:
        inst.remove()
        lanes.install(inst)
        if trace_on:
            if isinstance(workload, wl.WireReplay):
                tr.install_wire_client(tracer, inst)
            else:
                tr.install(tracer, inst)

    out: dict = {}
    try:
        arm(traced)
        workload.setup(traced)
        out["ready_mono"] = time.monotonic()
        # The machine's speed right after this set-up, to scale it by.
        out["setup_kernel_s"] = calibration.probe()
        if not setup_only:
            tracer.phase = tr.RUN
            _run_units(workload, seconds, traced, tracer, lanes, arm, out)
            if traced:
                spans = workdir / f"trace-{workload.name}-{workload.seed}.csv"
                out["trace"] = tracer.snapshot()
                out["spans"] = str(spans)
                tracer.write(spans)
    except wl.CheckFailed as exc:
        out["check_failed"] = str(exc)
    finally:
        inst.remove()
        workload.close()
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if isinstance(workload, wl.WireReplay):
        out["servers"] = workload.reports
        if workload.reports and "setup_kernel_s" in out:
            # Most of the wire's set-up is the server's, on the other core:
            # its probe right after start counts as much as the client's.
            server_probe = workload.reports[0]["kernel_s"][0]
            out["setup_kernel_s"] = (out["setup_kernel_s"] + server_probe) / 2
    return out


def _run_units(workload, seconds, traced, tracer, lanes, arm, out) -> None:
    units: list[dict] = []
    t_end = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        trace_this = traced and len(units) % 2 == 0
        arm(trace_this)
        lanes.lanes.clear()
        unit = workload.unit(tracer if trace_this else None)
        if not units:
            arm(False)
            out["checks"] = workload.checks(unit)
        units.append(_unit_record(unit, trace_this, workload, lanes))
        out["units"] = units
        # Stop before a unit that would overrun the run's time.
        now = time.monotonic()
        if len(units) >= (2 if traced else 1) and now + (now - started) > t_end:
            return


def _unit_record(unit, traced: bool, workload, lanes) -> dict:
    rec = {
        "traced": traced,
        "blocks": unit.blocks,
        "submitted": unit.submitted,
        "lost": unit.lost,
        "digest": unit.digest,
        "qos": wl.qos_metrics(unit),
        "extra": unit.extra,
        "lanes": dict(lanes.lanes),
    }
    if isinstance(workload, wl.WireReplay):
        rec["lanes"] = workload.reports[-1]["lanes"]
    return rec


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
