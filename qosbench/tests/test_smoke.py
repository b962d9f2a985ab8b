"""Small-size smoke runs of every workload, untraced and traced.

Each runs the worker's own loop in-process on a shrunken workload and
feeds its report through the command's metric and check code, so every
named metric must come out finite with its unit and every check must
run. Run from the checkout root::

    python3 -m pytest qosbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

CHECKS = {
    "paper_grid": {"conservation (every cell and policy)"},
    "fleet_failover": {
        "conservation (fleet and per node)",
        "shard digests equal a re-shard",
        "availability lists exactly the 10 scheduled victims",
    },
    "wire_replay": {
        "conservation (one terminal frame per request)",
        "results bit-identical to the simulator (repro.runtime.capture)",
        "qos_digest equal to simulate_stream",
    },
}


def small(name: str, workdir: Path):
    if name == "paper_grid":
        return wl.PaperGrid(3, seeds=1, n_requests=100)
    if name == "fleet_failover":
        return wl.FleetFailover(3, n_requests=5000)
    return wl.WireReplay(3, n_requests=2000, workdir=workdir)


@pytest.fixture(autouse=True)
def fresh_store(tmp_path, monkeypatch):
    """Every test starts like a fresh benchmark process: an empty plan
    store and empty in-process plan and profile memos."""
    monkeypatch.setenv("SPLIT_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("SPLIT_JOBS", "1")
    wl.simulator.default_split_plans.cache_clear()
    wl.simulator._profiles_for.cache_clear()


def _report(name: str, traced: bool, tmp_path: Path) -> dict:
    report = worker.run_workload(small(name, tmp_path), 0.0, traced, tmp_path)
    assert "check_failed" not in report, report.get("check_failed")
    assert set(report["checks"]) == CHECKS[name]
    assert len({u["digest"] for u in report["units"]}) == 1
    return report


def _assert_emitted(metrics: dict, declared: list[dict], units: dict) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        value = metrics[m["name"]]
        assert math.isfinite(value), m["name"]
        assert units[m["name"]] == m["unit"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    report = _report(name, False, tmp_path)
    metrics, lines = run.end_to_end(report, [1.0], name)
    _assert_emitted(metrics, BENCHMARK["end_to_end"], run.END_TO_END_UNITS)
    assert metrics["throughput_rps"] > 0 and metrics["peak_rss_mb"] > 0
    assert any("failed_share" in line for line in lines)
    assert any("split_gain_a4" in line for line in lines) == (name == "paper_grid")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    report = _report(name, True, tmp_path)
    units = report["units"]
    assert [u["traced"] for u in units[:2]] == [True, False]
    assert run.traced_run_checks(report) == []
    metrics, _ = run.per_layer(report)
    _assert_emitted(metrics, BENCHMARK["per_layer"], run.PER_LAYER_UNITS)
    # The layers each workload is chosen to exercise did work.
    assert metrics["kernel.runs"] > 0
    assert metrics["kernel.fast_lane_share"] == 1.0
    assert metrics["splitting.ga_runs"] > 0
    exercised = {
        "paper_grid": ("simulator.cells", "policies.prema_s", "metrics.settle_calls"),
        "fleet_failover": ("cluster.node_runs", "node_faults.re_routed", "metrics.merge_s"),
        "wire_replay": ("protocol.frames_in", "net.intake_s", "client.wait_s"),
    }[name]
    for key in exercised:
        assert metrics[key] > 0, key
    assert Path(report["spans"]).read_text().startswith("id,name,start_ns")


def test_traced_run_check_catches_a_changed_digest(tmp_path):
    report = _report("paper_grid", True, tmp_path)
    report["units"][1]["digest"] = "0" * 24
    assert run.traced_run_checks(report) == [
        "traced qos_digest differs from the untraced run's"
    ]


def test_failed_check_is_reported(tmp_path, monkeypatch):
    def broken(self, unit):
        raise wl.CheckFailed("fleet_failover: re-shard digests differ")

    monkeypatch.setattr(wl.FleetFailover, "checks", broken)
    report = worker.run_workload(small("fleet_failover", tmp_path), 0.0, False, tmp_path)
    assert report["check_failed"] == "fleet_failover: re-shard digests differ"
