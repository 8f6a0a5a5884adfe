"""Tests of the benchmark itself, at the smallest workload size.

Run from the root of the repository: python -m pytest bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def _smoke(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=180, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    lines, result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads(BENCHMARK_JSON.read_text())["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith("error_rate = 0/") for line in lines)
    assert any(line.startswith("digest ") for line in lines)


def test_benchmark_json_matches_the_code():
    doc = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        layers.PER_LAYER
    )


def test_missing_wrapped_name_is_reported_absent(tmp_path):
    cli = run.import_program()
    gone = layers.Layer("bank.retrieve", ("faultharness.bank.retrieve_renamed",
                                          "faultharness.no_such_module.retrieve"))
    kept = [layer for layer in layers.LAYERS if layer.metric != "bank.retrieve"]
    tracer = layers.Tracer(layers=(gone, *kept))
    workload = workloads.corpus(0, workloads.SCALES["smoke"])
    tracer.install()
    try:
        run.run_pass(cli, workload, tmp_path / "pass", run.Tally(), tracer=tracer)
    finally:
        tracer.uninstall()
    assert tracer.absent() == ["bank.retrieve"]
    metrics = layers.pass_metrics(*tracer.passes[0])
    assert metrics["bank.retrieve.calls"] == 0
    assert metrics["simulator.run_episode.calls"] > 0
    # uninstalling restored every original function
    assert not hasattr(cli.run_episode, "__wrapped__")


def test_self_time_subtracts_child_spans():
    spans = [[-1, "a", 0, 100, False], [0, "b", 10, 40, False], [0, "b", 50, 60, False],
             [1, "c", 15, 20, False]]
    self_ns, calls = layers.self_and_calls(spans)
    assert self_ns == {"a": 60, "b": 35, "c": 5}
    assert calls == {"a": 1, "b": 2, "c": 1}


def _desk_smoke(tmp_path, after_command):
    cli = run.import_program()
    workload = workloads.desk(0, workloads.SCALES["smoke"])
    tally, *_ = run.measure(cli, workload, 0, False, tmp_path, after_command=after_command)
    return workload, tally


def _report_path(command, pass_dir: Path) -> Path:
    return command.artifact_paths(pass_dir)["report.json"]


def test_tampered_artifact_counts_in_error_rate(tmp_path):
    def tamper(command, pass_dir):
        if command.label == "paladin" and pass_dir.name == "pass-1":
            with open(_report_path(command, pass_dir), "a") as fh:
                fh.write(" ")

    workload, tally = _desk_smoke(tmp_path, tamper)
    assert tally.attempted == 2 * len(workload.commands)
    assert tally.failed == 1
    assert "paladin" in tally.failures[0] and "digest" in tally.failures[0]


def test_broken_rr_ordering_counts_in_error_rate(tmp_path):
    def critic_beats_paladin(command, pass_dir):
        if command.label == "critic":
            path = _report_path(command, pass_dir)
            doc = json.loads(path.read_text())
            doc["rr"] = 0.99
            path.write_text(json.dumps(doc))

    workload, tally = _desk_smoke(tmp_path, critic_beats_paladin)
    # each pass fails RR(paladin) > RR(critic), which reads both reports
    assert tally.failed == 4
    assert all("desk claim fails" in failure for failure in tally.failures)


def test_desk_claims():
    good = {"paladin": {"rr": 0.85, "csr": 1.0}, "critic": {"rr": 0.7},
            "reflect": {"rr": 0.36}, "vanilla": {"rr": 0.0},
            "paladin_no_retrieval": {"rr": 0.2}}
    assert workloads.desk_result_failures(good) == []
    bad = dict(good, paladin={"rr": 0.85, "csr": 0.9}, paladin_no_retrieval={"rr": 0.9})
    assert [labels for _, labels in workloads.desk_result_failures(bad)] == [
        ("paladin",), ("paladin_no_retrieval", "paladin")
    ]
