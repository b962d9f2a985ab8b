"""SPLIT reproduction benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 qosbench/run.py --workload paper_grid|fleet_failover|wire_replay
        --seed N --seconds S --trace 0|1

Prints every metric by name with its unit and sample count, the checks
that ran, the workload's ``qos_digest`` and a machine fingerprint, then
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (see ``qosbench/README.md``). Exits 1 when a check
fails and 2 when the program under test is missing.

Set-up time is measured from process start to ready-to-send, each time
against a fresh, empty plan store, in :data:`SETUP_SAMPLES` processes:
the one that then runs the workload and, in untraced runs,
``SETUP_SAMPLES - 1`` set-up-only ones before it. Host-time end-to-end
metrics are reported at the reference speed of :mod:`calibration`.
Everything the benchmark writes stays in ``.qosbench-work/`` under the
checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".qosbench-work"
WORKLOADS = ("paper_grid", "fleet_failover", "wire_replay")
SETUP_SAMPLES = 5
#: Every run must end within this many seconds.
DEADLINE_S = 170.0

#: Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


# ------------------------------------------------------------ fingerprint
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    """Where these numbers were measured, and how fast that machine ran
    the fixed calibration kernels (pure Python, then numpy; best of 5).
    Results whose fingerprints differ are not comparable."""
    import numpy as np

    a = np.arange(200_000, dtype=np.float64)

    def numpy_kernel() -> float:
        start = time.perf_counter()
        np.sort(np.sin(a) * a).sum()
        return time.perf_counter() - start

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_s": min(calibration.samples()),
        "calibration_numpy_s": min(numpy_kernel() for _ in range(5)),
    }


# ---------------------------------------------------------------- workers
def run_worker(args, extra: list[str], deadline: float) -> tuple[dict, float]:
    """Start one worker against a fresh plan store; return its report and
    its set-up time (spawn to ready-to-send) at reference speed."""
    cache = WORKDIR / f"cache-{os.getpid()}"
    shutil.rmtree(cache, ignore_errors=True)
    env = dict(os.environ, SPLIT_CACHE_DIR=str(cache), SPLIT_JOBS="1")
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(WORKDIR),
        *extra,
    ]
    spawned = time.monotonic()
    # Its own session, so a timeout takes the wire server down with it.
    proc = subprocess.Popen(
        cmd,
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stdout, stderr = "", "worker timed out\n"
    finally:
        _stop_group(proc)
        shutil.rmtree(cache, ignore_errors=True)
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(stderr)
        raise SystemExit(f"worker failed (exit {proc.returncode})")
    if "ready_mono" not in report:
        sys.stderr.write(stderr)
        raise SystemExit(f"worker did not get ready (exit {proc.returncode})")
    setup_s = report["ready_mono"] - spawned
    return report, calibration.at_reference(setup_s, report["setup_kernel_s"])


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the worker's session and wait it out."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


# ---------------------------------------------------------------- metrics
def throughput(units: list[dict], at_reference: bool = True) -> float:
    """Requests per host second of one unit, from the median unit time;
    at reference speed, each block's time is first scaled by the
    calibration kernel time measured next to it."""

    def seconds(unit: dict) -> float:
        return sum(
            calibration.at_reference(t, k) if at_reference else t
            for t, k in unit["blocks"]
        )

    return units[0]["submitted"] / statistics.median(seconds(u) for u in units)


def end_to_end(report: dict, setup: list[float], workload: str) -> tuple[dict, list[str]]:
    units = report["units"]
    first = units[0]
    q = first["qos"]
    if workload == "wire_replay":
        rss_kb = statistics.median(s["peak_rss_kb"] for s in report["servers"])
    else:
        rss_kb = report["peak_rss_kb"]
    n = q["submitted"]
    metrics = {
        "throughput_rps": throughput(units),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024.0,
        "violation_rate_a4": q["violation_rate_a4"],
        "mean_response_ratio": q["mean_response_ratio"],
        "latency_p50_ms": q["latency_p50_ms"],
        "latency_p99_ms": q["latency_p99_ms"],
    }
    counts = {
        "throughput_rps": (
            f"median of {len(units)} units, {sum(u['submitted'] for u in units)} "
            f"requests; {throughput(units, False):.1f} as measured"
        ),
        "setup_s": f"median of {len(setup)} cold set-ups",
        "peak_rss_mb": "median of the server processes" if workload == "wire_replay" else "workload process",
        "violation_rate_a4": f"of {n} submitted",
        "mean_response_ratio": f"over {q['served']} served",
        "latency_p50_ms": f"over {q['served']} served, {q['beyond_p99']} beyond p99",
        "latency_p99_ms": f"over {q['served']} served, {q['beyond_p99']} beyond p99",
    }
    lines = [
        f"  {name:<22} {value:>16.6f} {END_TO_END_UNITS[name]:<6} ({counts[name]})"
        for name, value in metrics.items()
    ]
    lines.append(
        f"  {'failed_share':<22} {q['failed_share']:>16.6f} {'share':<6} "
        f"({n - q['served']} of {n} submitted not served)"
    )
    if "split_gain_a4" in first["extra"]:
        lines.append(
            f"  {'split_gain_a4':<22} {first['extra']['split_gain_a4']:>16.6f} {'share':<6} "
            "(mean over the six scenarios: lowest baseline violation rate minus SPLIT's)"
        )
    return metrics, lines


def per_layer(report: dict) -> tuple[dict, list[str]]:
    units = report["units"]
    traced = [u for u in units if u["traced"]]
    plain = [u for u in units if not u["traced"]]
    n = len(traced)
    sources = [report["trace"]]
    setup_sources = [report["trace"]]
    servers: list[dict] = []
    if "servers" in report:
        servers = [s for s, u in zip(report["servers"], units) if u["traced"]]
        sources += [s["trace"] for s in servers]
        setup_sources = [report["servers"][0]["trace"]]

    def agg(name: str, phase: str = "run", srcs=None) -> list[int]:
        out = [0, 0, 0]
        for src in srcs or sources:
            row = src["aggregates"][phase].get(name)
            if row:
                out = [a + b for a, b in zip(out, row)]
        return out

    def counter(name: str, phase: str = "run", srcs=None) -> float:
        return sum(src["counters"][phase].get(name, 0) for src in srcs or sources)

    def count(name: str) -> float:
        return agg(name)[0] / n

    def total_s(name: str) -> float:
        return agg(name)[1] / n / 1e9

    depths: dict[int, int] = {}
    for src in sources:
        for k, v in src["queue_depths"].items():
            depths[int(k)] = depths.get(int(k), 0) + v

    def depth_pct(qv: float) -> float:
        if not depths:
            return 0.0
        keys = sorted(depths)
        total = sum(depths.values())
        rank = math.ceil(qv / 100.0 * total)
        seen = 0
        for k in keys:
            seen += depths[k]
            if seen >= rank:
                return float(k)
        return float(keys[-1])

    lanes: dict[str, int] = {}
    for u in traced:
        for lane, c in u["lanes"].items():
            lanes[lane] = lanes.get(lane, 0) + c
    runs = sum(lanes.values())
    extra = traced[0]["extra"]
    cells = count("simulator.cell")
    admits = agg("scheduling.admit")[0]
    hits = counter("profiling.store_hits", "setup", setup_sources)
    misses = counter("profiling.store_misses", "setup", setup_sources)
    stats = [s["stats"]["net"] for s in servers]

    def net_stat(key: str) -> float:
        return statistics.mean(s[key] for s in stats) if stats else 0.0

    metrics = {
        "workload.gen_s": total_s("workload.gen"),
        "workload.chunks": count("workload.gen"),
        "simulator.cells": cells,
        "simulator.cell_overhead_s": (
            total_s("simulator.cell") - total_s("kernel.run") - total_s("engine.concurrent_run")
            if cells
            else 0.0
        ),
        **{
            f"policies.{p}_s": counter(f"policies.{p}_ns") / n / 1e9
            for p in ("split", "clockwork", "prema", "rta")
        },
        "kernel.runs": count("kernel.run"),
        "kernel.self_s": agg("kernel.run")[2] / n / 1e9,
        "kernel.fast_lane_share": lanes.get("fast", 0) / runs if runs else 0.0,
        "kernel.preemptions": counter("kernel.preemptions") / n,
        "scheduling.admit_calls": admits / n,
        "scheduling.admit_batch_mean": counter("scheduling.admitted") / admits if admits else 0.0,
        "scheduling.admit_s": total_s("scheduling.admit"),
        "scheduling.queue_depth_p50": depth_pct(50),
        "scheduling.queue_depth_p99": depth_pct(99),
        "metrics.settle_calls": count("metrics.settle"),
        "metrics.settle_s": total_s("metrics.settle"),
        "metrics.merge_s": total_s("metrics.merge"),
        "cluster.shard_s": total_s("cluster.shard"),
        "cluster.replay_s": total_s("cluster.replay") - total_s("cluster.shard"),
        "cluster.node_runs": count("cluster.node_run"),
        "cluster.transfer_hops": extra.get("cluster.transfer_hops", 0),
        "cluster.node_load_max_over_mean": extra.get("cluster.node_load_max_over_mean", 0.0),
        "node_faults.re_routed": extra.get("node_faults.re_routed", 0),
        "node_faults.failed_in_flight": extra.get("node_faults.failed_in_flight", 0),
        "node_faults.failover_s": total_s("node_faults.call"),
        "protocol.frames_in": counter("protocol.frames_in") / n,
        "protocol.frames_out": counter("protocol.frames_out") / n,
        "protocol.bytes_in": counter("protocol.bytes_in") / n,
        "protocol.bytes_out": counter("protocol.bytes_out") / n,
        "protocol.encode_s": total_s("protocol.encode"),
        "protocol.decode_s": total_s("protocol.decode"),
        "net.intake_s": total_s("net.intake"),
        "net.backpressure_rejections": net_stat("backpressure_rejections"),
        "net.results_dropped": net_stat("results_dropped"),
        "net.protocol_errors": net_stat("protocol_errors"),
        "client.send_s": total_s("client.send"),
        "client.wait_s": total_s("client.wait"),
        "splitting.ga_runs": agg("splitting.ga", "setup", setup_sources)[0],
        "splitting.ga_evaluations": counter("splitting.ga_evaluations", "setup", setup_sources),
        "splitting.ga_s": agg("splitting.ga", "setup", setup_sources)[1] / 1e9,
        "profiling.store_hits": hits,
        "profiling.store_misses": misses,
        "profiling.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "profiling.profile_s": agg("profiling.profile", "setup", setup_sources)[1] / 1e9,
        "tracing.overhead_rps": throughput(traced) - throughput(plain),
    }
    lines = [
        f"  {name:<32} {value:>16.6f} {PER_LAYER_UNITS[name]}"
        for name, value in metrics.items()
    ]
    lines.append(
        f"  (per traced unit, mean of {n}; set-up layers from one cold set-up; "
        f"overhead = traced minus untraced throughput_rps, "
        f"{n} traced / {len(plain)} untraced units; spans in {report['spans']})"
    )
    return metrics, lines


def traced_run_checks(report: dict) -> list[str]:
    """The traced run must take the same paths as the untraced one."""
    units = report["units"]
    traced = [u for u in units if u["traced"]]
    plain = [u for u in units if not u["traced"]]

    def share(u: dict) -> float:
        runs = sum(u["lanes"].values())
        return u["lanes"].get("fast", 0) / runs if runs else 0.0

    failures = []
    if {u["digest"] for u in traced} != {u["digest"] for u in plain}:
        failures.append("traced qos_digest differs from the untraced run's")
    if {share(u) for u in traced} != {share(u) for u in plain}:
        failures.append("traced kernel.fast_lane_share differs from the untraced run's")
    return failures


# ------------------------------------------------------------------- main
def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="qosbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    WORKDIR.mkdir(exist_ok=True)

    fp = fingerprint()
    setup = []
    # setup_s is an end-to-end metric; the traced run does not report it.
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        _, sample = run_worker(args, ["--setup-only"], deadline)
        setup.append(sample)
    report, sample = run_worker(args, [], deadline)
    setup.append(sample)

    print(f"machine: {json.dumps(fp)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    failures = []
    if "check_failed" in report:
        failures.append(report["check_failed"])
    else:
        units = report["units"]
        digests = {u["digest"] for u in units}
        if len(digests) != 1:
            failures.append(f"units of one run disagree: qos_digest {sorted(digests)}")
        if args.trace:
            failures += traced_run_checks(report)
            metrics, lines = per_layer(report)
            units_by_name = PER_LAYER_UNITS
        else:
            metrics, lines = end_to_end(report, setup, args.workload)
            units_by_name = END_TO_END_UNITS
        if set(metrics) != set(units_by_name):
            failures.append(
                f"metrics {sorted(set(metrics) ^ set(units_by_name))} "
                "differ from BENCHMARK.json"
            )
        print("\n".join(lines))
        print(f"qos_digest: {units[0]['digest']}")
        for check in report["checks"]:
            print(f"check ok: {check}")
        if len(digests) == 1:
            print("check ok: every unit of the run has the same qos_digest")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    correct = not failures
    if not correct:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    attempted = sum(u["submitted"] for u in units)
    failed = sum(u["lost"] for u in units)
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units_by_name[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
