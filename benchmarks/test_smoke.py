"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest benchmarks/test_smoke.py -q

Runs every workload untraced and traced, checks that every metric is
reported with its unit, that traced self times add up to the untraced
operation time up to the cost of tracing, that an operation that raises
counts as failed, that the gate fails on a wrong expected count, and that
the benchmark refuses to report without the library's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
WORKLOADS = ("roundtrip", "large_modulus", "subset_sum", "scene")

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "accuracy": "ratio",
    "peak_rss_mb": "MiB",
}
PER_LAYER_NAMES = {
    "phasor.sample_base_s", "phasor.to_dense_s",
    "residue.make_system_s", "residue.encode_s", "residue.multiply_s", "residue.crt_s",
    "resonator.build_codebooks_s", "resonator.factorize_s", "resonator.calls",
    "resonator.sweeps", "resonator.evaluations", "resonator.attempts", "resonator.unconverged",
    "resonator.ms_per_sweep", "resonator.bytes_per_sweep_computed", "resonator.useful_ratio",
    "subsetsum.build_factors_s", "subsetsum.solve_self_s", "subsetsum.attempts",
    "subsetsum.attempt_success_ratio",
    "scene.build_object_codebook_s", "scene.encode_scene_s",
    "scene.factorize_self_s.residue", "scene.factorize_self_s.standard",
    "trace.op_s", "trace.unattributed_s", "trace.untraced_op_s", "trace.overhead_ratio",
}


def _run(*args, cwd=ROOT, script=RUN):
    cmd = [sys.executable, str(script), "--seconds", "0.2", "--size", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _per_workload(stdout: str) -> dict:
    """{workload: (record, result)} from the output of ``--workload all``."""
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    return {rec["workload"]: (rec, res) for rec, res in zip(lines[0:-1:2], lines[1:-1:2])}


@pytest.fixture(scope="module")
def untraced():
    return _run("--workload", "all", "--seed", "3", "--trace", "0")


@pytest.fixture(scope="module")
def traced():
    return _run("--workload", "all", "--seed", "3", "--trace", "1")


def test_declared_metrics_match_the_benchmark_file():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert PER_LAYER_NAMES <= {m["name"] for m in declared["per_layer"]}
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_every_workload_reports_every_end_to_end_metric(untraced):
    assert untraced.returncode == 0, untraced.stderr
    runs = _per_workload(untraced.stdout)
    assert set(runs) == set(WORKLOADS)
    for name, (rec, res) in runs.items():
        assert res["correct"] is True
        assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == END_TO_END
        m = {k: v["value"] for k, v in res["metrics"].items()}
        assert m["latency_tail_ms"] >= m["latency_p50_ms"] > 0
        assert m["accuracy"] == pytest.approx(1 - res["failed"] / res["attempted"])
        assert rec["samples_beyond_tail"] >= 10
        assert rec["provenance"]["blas"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert rec["provenance"]["seed"] == 3


def test_every_workload_reports_every_layer_metric(traced):
    assert traced.returncode == 0, traced.stderr
    declared = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    runs = _per_workload(traced.stdout)
    assert set(runs) == set(WORKLOADS)
    for name, (rec, res) in runs.items():
        assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
        m = {k: v["value"] for k, v in res["metrics"].items()}
        assert m["resonator.calls"] > 0 and m["resonator.sweeps"] >= m["resonator.attempts"] > 0
        # the traced counts agree with what the library returned untraced
        assert m["resonator.evaluations"] == rec["round_counts"]["evaluations"]
    m = {k: v["value"] for k, v in runs["roundtrip"][1]["metrics"].items()}
    layers = ("phasor.to_dense_s", "residue.encode_s", "residue.multiply_s", "residue.crt_s",
              "resonator.factorize_s", "trace.unattributed_s")
    assert min(m[k] for k in layers) > 0
    # the reported layers cover the traced operation time once, with nothing left out
    assert sum(m[k] for k in layers) == pytest.approx(m["trace.op_s"], rel=1e-9)
    # and that time is the untraced operation time plus the cost of tracing
    untraced = m["trace.untraced_op_s"]
    assert m["trace.op_s"] * (1 - m["trace.overhead_ratio"]) == pytest.approx(untraced, rel=0.1)


def test_an_operation_that_raises_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness

    monkeypatch.setattr(harness, "LEDGER_DIR", tmp_path)

    def good():
        return True, {"attempts": 1}

    def bad():
        raise ValueError("no answer")

    workload = SimpleNamespace(name="raising", build=lambda seed, n: [good, bad] * (n // 2),
                               n_ops=20, tiny_ops=20, tail_percentile=90)
    record, result = harness.run(workload, seed=1, seconds=0.05, trace=False, tiny=True)
    assert result["correct"] is True, record["gate_errors"]
    assert result["failed"] == result["attempted"] // 2
    assert result["metrics"]["accuracy"]["value"] == 0.5
    assert record["round_counts"] == {"correct": 10, "attempts": 10, "raised": 10}


def test_gate_fails_on_a_wrong_expected_count(tmp_path):
    seed = 987_654_321
    first = _run("--workload", "roundtrip", "--seed", str(seed))
    (ledger,) = (ROOT / ".bench_build" / "counts").glob(f"roundtrip-*-{seed}.json")
    try:
        assert first.returncode == 0, first.stderr
        entry = json.loads(ledger.read_text())
        entry["round_counts"]["correct"] += 1
        ledger.write_text(json.dumps(entry))
        second = _run("--workload", "roundtrip", "--seed", str(seed))
        assert second.returncode != 0
        assert json.loads(second.stdout.splitlines()[-1])["correct"] is False
        assert "differ from an earlier run" in second.stderr
    finally:
        ledger.unlink(missing_ok=True)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "roundtrip", "--seed", "1", cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
