"""The benchmark's three workloads: set-up, one timed unit, checks.

Each workload draws its inputs from the benchmark seed alone and hands
the program generated items (``paper_grid``, ``wire_replay``) or a seed
for its own seeded trace (``fleet_failover``, whose orchestrator deals
the trace it draws). A *unit* is a fixed amount of simulated work, so
every simulated figure of a unit is exact at a fixed seed; a run repeats
units until its time is up. Each unit reports its timed blocks, each
paired with the calibration kernel's time next to it (see
:mod:`calibration`).

Program functions are always looked up through their module
(``simulator.simulate_items``, not a local alias), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean
from typing import Any

import numpy as np

import calibration
from repro.cluster import DEFAULT_INVENTORY, FleetOrchestrator
from repro.cluster import fleet as fleet_module
from repro.experiments.fleet import derived_lambda_ms
from repro.experiments.fleet_chaos import scripted_kill_schedule
from repro.runtime import capture, simulator
from repro.runtime.metrics import RequestRecord, StreamingQoS
from repro.runtime.workload import SCENARIOS, Scenario, WorkloadGenerator
from repro.server import client as net_client
from repro.server.protocol import CODEC_BINARY
from repro.zoo.registry import EVALUATED_MODELS

HERE = Path(__file__).resolve().parent
ALPHA = 4.0
OUTCOMES = ("served", "rejected", "shed", "failed", "timed_out")


class CheckFailed(Exception):
    """A correctness check of the benchmark did not hold."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def qos_digest(*accumulators: StreamingQoS) -> str:
    """Hash of violation counts, outcome totals and latency histograms.

    Only integer state goes in, so the digest is exact and independent of
    the order in which terminals were folded.
    """
    h = hashlib.blake2b(digest_size=12)
    for qos in accumulators:
        h.update(qos.violation_counts().tobytes())
        h.update(json.dumps(qos.totals(), sort_keys=True).encode())
        # StreamingQoS keeps its 1 ms latency histogram private; it is the
        # only exact form of the latency distribution.
        h.update(qos._hist.tobytes())
    return h.hexdigest()


def check_conservation(qos: StreamingQoS, submitted: int, label: str) -> None:
    totals = qos.totals()
    accounted = sum(totals[o] for o in OUTCOMES)
    require(
        totals["submitted"] == submitted and accounted == submitted,
        f"{label}: conservation broken ({submitted} submitted, "
        f"{totals['submitted']} terminal records, {accounted} in outcome buckets)",
    )


@dataclass
class Unit:
    """One timed unit of simulated work."""

    #: Timed blocks: ``(host seconds, calibration kernel seconds measured
    #: next to the block)``. The timed region is the sum of the blocks.
    blocks: list[tuple[float, float]]
    #: Simulated requests submitted (each reaches exactly one terminal).
    submitted: int
    #: The accumulator the end-to-end QoS metrics read.
    qos: StreamingQoS
    digest: str
    #: Simulated values only some workloads have (exact at a fixed seed).
    extra: dict[str, float] = field(default_factory=dict)
    #: Requests the harness could not get a terminal outcome for.
    lost: int = 0


def latency_percentile(qos: StreamingQoS, q: float) -> tuple[float, int]:
    """Percentile of served latency from StreamingQoS's 1 ms histogram,
    linear within the bin that holds it, and the samples in the bins
    beyond that one. (``StreamingQoS.latency_percentile`` returns the
    bin's upper edge, which repeats across seeds at this resolution.)"""
    counts = qos._hist
    cum = np.cumsum(counts)
    total = int(cum[-1])
    rank = q / 100.0 * total
    i = int(np.searchsorted(cum, rank))
    if i >= counts.size - 1:  # the last bucket is the overflow
        return math.inf, 0
    before = int(cum[i] - counts[i])
    value = (i + (rank - before) / int(counts[i])) * qos._hist_bin_ms
    return value, total - int(cum[i])


def qos_metrics(unit: Unit) -> dict[str, float]:
    """The simulated end-to-end metrics of a unit. A request without a
    terminal outcome counts as submitted, failed and violating."""
    qos = unit.qos
    totals = qos.totals()
    submitted = totals["submitted"] + unit.lost
    served = totals["served"]
    violations = int(qos.violation_counts()[int(np.searchsorted(qos.alphas, ALPHA))])
    p50, _ = latency_percentile(qos, 50)
    p99, beyond = latency_percentile(qos, 99)
    return {
        "violation_rate_a4": (violations + unit.lost) / submitted,
        "mean_response_ratio": qos.mean_response_ratio(),
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "failed_share": (submitted - served) / submitted,
        "submitted": submitted,
        "served": served,
        "beyond_p99": beyond,
    }


# --------------------------------------------------------------------------
class PaperGrid:
    """Table-2 scenarios x four policies x consecutive seeds, 1000 each."""

    name = "paper_grid"
    policies = ("split", "clockwork", "prema", "rta")

    def __init__(self, seed: int, seeds: int = 12, n_requests: int = 1000):
        self.seed = seed
        self.seeds = seeds
        self.scenarios = tuple(
            Scenario(s.name, s.lambda_ms, s.load, n_requests) for s in SCENARIOS
        )

    def setup(self, traced: bool = False) -> None:
        simulator.warm_caches(EVALUATED_MODELS)

    def unit(self, tracer=None) -> Unit:
        by_policy = {p: StreamingQoS() for p in self.policies}
        violations = {
            (sc.name, p): 0 for sc in self.scenarios for p in self.policies
        }
        blocks = []
        submitted = 0
        cell = 0
        for seed in range(self.seed, self.seed + self.seeds):
            for sc in self.scenarios:
                # Blocks are short, so one kernel run before each is close
                # enough in time to share its speed.
                kernel_s = calibration.kernel()
                t0 = time.perf_counter()
                items = WorkloadGenerator(EVALUATED_MODELS, seed=seed).generate(sc)
                host_s = time.perf_counter() - t0
                submitted += len(items)
                for policy in self.policies:
                    cell += 1
                    if tracer is not None:
                        tracer.group = cell
                    t0 = time.perf_counter()
                    result = simulator.simulate_items(policy, items)
                    host_s += time.perf_counter() - t0
                    records = result.report.records
                    require(
                        len(records) == len(items),
                        f"paper_grid {policy}/{sc.name}/seed {seed}: "
                        f"{len(records)} records for {len(items)} requests",
                    )
                    qos = by_policy[policy]
                    for rec in records:
                        qos.add_record(rec)
                        if rec.violates(ALPHA):
                            violations[(sc.name, policy)] += 1
                blocks.append((host_s, kernel_s))
        # Every policy sees every generated item.
        for policy, qos in by_policy.items():
            check_conservation(qos, submitted, f"paper_grid {policy}")
        per_cell = submitted // len(self.scenarios)
        gains = []
        for sc in self.scenarios:
            split = violations[(sc.name, "split")] / per_cell
            best = min(
                violations[(sc.name, p)] / per_cell
                for p in self.policies
                if p != "split"
            )
            gains.append(best - split)
        return Unit(
            blocks=blocks,
            submitted=submitted * len(self.policies),
            qos=by_policy["split"],
            digest=qos_digest(*by_policy.values()),
            extra={"split_gain_a4": mean(gains)},
        )

    def checks(self, unit: Unit) -> list[str]:
        return ["conservation (every cell and policy)"]

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
class FleetFailover:
    """One trace over the 100-node default inventory at rho=0.8, with the
    scripted kill schedule (5 fail-stop, 5 fail-recover nodes)."""

    name = "fleet_failover"
    rho = 0.8
    #: 1 ms bins up to 4.096 s; at rho=0.8 the p99 sits far below it.
    hist_bins = 4096

    def __init__(self, seed: int, n_requests: int = 200_000):
        self.seed = seed
        self.n_requests = n_requests

    def setup(self, traced: bool = False) -> None:
        orch = FleetOrchestrator(DEFAULT_INVENTORY, seed=self.seed)
        lambda_ms = derived_lambda_ms(orch, self.rho)  # deploys the fleet
        self.scenario = Scenario(
            "fleet_failover", lambda_ms, "high", n_requests=self.n_requests
        )
        self.plan = scripted_kill_schedule(
            len(orch.nodes), orch.fault_horizon_ms(self.scenario)
        )
        orch.node_faults = self.plan
        self.orch = orch

    def unit(self, tracer=None) -> Unit:
        # An untraced unit runs the calibration kernel before every node
        # replay, so each node's time is scaled by a speed measured next to
        # it; the kernel runs themselves are cut out of the timed blocks.
        marks: list[tuple[float, float, float]] = []
        serve_node = fleet_module._serve_node

        def probed(*args):
            start = time.perf_counter()
            kernel_s = calibration.kernel()
            marks.append((start, time.perf_counter(), kernel_s))
            return serve_node(*args)

        if tracer is None:
            fleet_module._serve_node = probed  # looked up at call time
        try:
            before = calibration.probe()
            t0 = time.perf_counter()
            result = self.orch.replay(self.scenario, jobs=1, hist_bins=self.hist_bins)
            t1 = time.perf_counter()
            after = calibration.probe()
        finally:
            fleet_module._serve_node = serve_node
        blocks = []
        edge, kernel_s = t0, before
        for start, end, probe_s in marks:
            blocks.append((start - edge, kernel_s))
            edge, kernel_s = end, probe_s
        blocks.append((t1 - edge, (kernel_s + after) / 2))
        self.last = result
        n = self.n_requests
        check_conservation(result.qos, n, "fleet_failover")
        per_node = sum(sum(t[o] for o in OUTCOMES) for t in result.node_outcomes)
        require(per_node == n, f"fleet_failover: {per_node} per-node outcomes for {n}")
        loads = list(result.placements.values())
        totals = result.qos.totals()
        return Unit(
            blocks=blocks,
            submitted=n,
            qos=result.qos,
            digest=qos_digest(result.qos),
            extra={
                "cluster.transfer_hops": result.transfer_hops,
                "cluster.node_load_max_over_mean": max(loads) / mean(loads),
                "node_faults.re_routed": result.re_routed,
                "node_faults.failed_in_flight": totals["failed"],
            },
        )

    def checks(self, unit: Unit) -> list[str]:
        result = self.last
        reshard = {s.node: s.digest() for s in self.orch.shard(self.scenario)}
        require(reshard == result.digests, "fleet_failover: re-shard digests differ")
        nodes = self.orch.nodes
        victims = {nodes[e.node_index].name for e in self.plan.scripted}
        hit = {
            name
            for name, windows in result.availability.items()
            if windows != ((0.0, math.inf),)
        }
        require(
            len(victims) == 10 and hit == victims,
            f"fleet_failover: availability names {sorted(hit)}, "
            f"schedule names {sorted(victims)}",
        )
        return [
            "conservation (fleet and per node)",
            "shard digests equal a re-shard",
            "availability lists exactly the 10 scheduled victims",
        ]

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
class ServerProcess:
    """``python -m repro.server.net --mode lockstep`` under the benchmark's
    launcher, in a process of its own."""

    def __init__(self, max_inflight: int, report: Path, traced: bool):
        self.report_path = report
        cmd = [
            sys.executable,
            str(HERE / "serve.py"),
            "--report",
            str(report),
        ]
        if traced:
            cmd.append("--trace")
        cmd += [
            "--",
            "--mode",
            "lockstep",
            "--port",
            "0",
            "--models",
            ",".join(WireReplay.models),
            "--max-inflight",
            str(max_inflight),
        ]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("serving "):
            self.proc.kill()
            self.proc.wait()
            raise CheckFailed(f"wire server did not start: {line!r}")
        self.port = int(line.split(" on ")[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> dict[str, Any]:
        """Interrupt the server, wait for it, return its exit report."""
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise CheckFailed("wire server did not stop on SIGINT")
        self.proc.stdout.close()
        require(self.proc.returncode == 0, f"wire server exited {self.proc.returncode}")
        return json.loads(self.report_path.read_text())


class WireReplay:
    """Lockstep replay of yolov2+vgg19 at lambda=110 ms over one loopback
    connection, binary-v2 codec, INFER_BATCH of 512."""

    name = "wire_replay"
    models = ("yolov2", "vgg19")
    lambda_ms = 110.0
    batch = 512

    def __init__(self, seed: int, n_requests: int = 50_000, workdir: Path | None = None):
        self.seed = seed
        self.n_requests = n_requests
        self.workdir = workdir or Path.cwd()
        self.scenario = Scenario("wire_replay", self.lambda_ms, "high", n_requests=n_requests)
        self.server: ServerProcess | None = None
        self.reports: list[dict[str, Any]] = []
        self._servers = 0
        self._ext: dict[str, float] | None = None
        self._idle_kernel_s: float | None = None

    def start_server(self, traced: bool) -> None:
        self._servers += 1
        report = self.workdir / f"server-{os.getpid()}-{self._servers}.json"
        self.server = ServerProcess(self.n_requests + 16, report, traced)

    def setup(self, traced: bool = False) -> None:
        self.start_server(traced)

    def unit(self, tracer=None) -> Unit:
        # A lockstep server serves one replay (DRAIN closes its arrival
        # stream), so every unit after the first starts a fresh one,
        # traced exactly when the unit is.
        if self.server is None:
            self.start_server(tracer is not None)
        items = WorkloadGenerator(self.models, seed=self.seed).generate(self.scenario)
        report = asyncio.run(
            net_client.replay_items_async(
                "127.0.0.1",
                self.server.port,
                items,
                mode="lockstep",
                codec=CODEC_BINARY,
                batch_size=self.batch,
            )
        )
        server, self.server = self.server, None
        server_report = server.stop()
        self.reports.append(server_report)
        # The replay keeps both cores busy, so each side probes its own
        # core while idle: the server just before and after it served, the
        # client after this replay and after the previous one.
        after = calibration.probe()
        before = self._idle_kernel_s or after
        self._idle_kernel_s = after
        kernel_s = ((before + after) / 2 + mean(server_report["kernel_s"])) / 2
        self.items, self.results = items, report.results
        sent = report.sent
        require(sent == len(items), f"wire_replay: sent {sent} of {len(items)}")
        if self._ext is None:
            self._ext = self._reference_ext(items)
        qos = StreamingQoS()
        for r in report.results:
            qos.add_record(
                RequestRecord(
                    request_id=r.id,
                    model=r.model,
                    arrival_ms=r.arrival_ms,
                    finish_ms=r.finish_ms,
                    ext_ms=self._ext[r.model],
                    preemptions=r.preemptions,
                    outcome=r.outcome,
                    retries=r.retries,
                )
            )
        lost = sent - len(report.results)
        check_conservation(qos, len(report.results), "wire_replay")
        return Unit(
            # The replay's own clock: connected to last result received.
            blocks=[(report.wall_s, kernel_s)],
            submitted=sent,
            qos=qos,
            digest=qos_digest(qos),
            lost=lost,
        )

    def _reference_ext(self, items) -> dict[str, float]:
        """Isolated execution time per model, from the simulator's own
        catalogue (the denominator of the response ratio)."""
        self.reference = simulator.simulate_items("split", items, models=self.models)
        return {rec.model: rec.ext_ms for rec in self.reference.report.records}

    def checks(self, unit: Unit) -> list[str]:
        require(unit.lost == 0, f"wire_replay: {unit.lost} requests without a terminal frame")
        try:
            capture.assert_bits_identical(
                capture.summarize_observations(self.results),
                capture.summarize_engine_result(self.reference.engine_result),
            )
        except AssertionError as exc:
            raise CheckFailed(f"wire_replay: {exc}") from None
        stream = simulator.simulate_stream(
            "split", self.scenario, models=self.models, seed=self.seed
        )
        require(
            qos_digest(stream.qos) == unit.digest,
            "wire_replay: qos_digest differs from simulate_stream on the same items",
        )
        return [
            "conservation (one terminal frame per request)",
            "results bit-identical to the simulator (repro.runtime.capture)",
            "qos_digest equal to simulate_stream",
        ]

    def close(self) -> None:
        if self.server is not None:
            server, self.server = self.server, None
            self.reports.append(server.stop())


WORKLOADS = {w.name: w for w in (PaperGrid, FleetFailover, WireReplay)}
