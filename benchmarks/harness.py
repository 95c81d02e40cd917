"""Timing loop, correctness gate and result record for one workload.

One process runs one workload with one client in a closed loop: the next
operation starts when the previous one returns. The caller pins BLAS to one
thread before numpy is imported (see ``run.py``).

Phases of a run:

1. set-up, built from scratch once;
2. a warm-up pass over the start of the operation list, discarded;
3. timed rounds, each replaying the whole operation list, with
   ``gc.collect()`` between rounds, until ``seconds`` are used and the tail
   percentile has at least ``TAIL_MIN_BEYOND`` samples beyond it. The
   set-up is built again from scratch at even steps through the rounds
   (see :class:`SetUp`); ``setup_s`` is the median of all builds.

With tracing on, each operation of a round runs twice, untraced and then
traced, so ``trace.overhead_ratio`` compares identical work.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER_DIR = ROOT / ".bench_build" / "counts"

SETUP_SHARE = 0.1  # of --seconds, spent on set-up builds spread over the run
SETUP_MIN_BUILDS = 7
SETUP_MAX_BUILDS = 60
TAIL_MIN_BEYOND = 10
WARMUP_SHARE = 0.05  # of --seconds, capped at one pass over the list
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "accuracy": "ratio",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "phasor.sample_base_s": "s",
    "phasor.to_dense_s": "s",
    "residue.make_system_s": "s",
    "residue.encode_s": "s",
    "residue.multiply_s": "s",
    "residue.crt_s": "s",
    "resonator.build_codebooks_s": "s",
    "resonator.factorize_s": "s",
    "resonator.calls": "count",
    "resonator.sweeps": "count",
    "resonator.evaluations": "count",
    "resonator.attempts": "count",
    "resonator.unconverged": "count",
    "resonator.ms_per_sweep": "ms",
    "resonator.bytes_per_sweep_computed": "B",
    "resonator.useful_ratio": "ratio",
    "subsetsum.build_factors_s": "s",
    "subsetsum.solve_self_s": "s",
    "subsetsum.attempts": "count",
    "subsetsum.attempt_success_ratio": "ratio",
    "scene.build_object_codebook_s": "s",
    "scene.encode_scene_s": "s",
    "scene.factorize_self_s.residue": "s",
    "scene.factorize_self_s.standard": "s",
    "trace.op_s": "s",
    "trace.unattributed_s": "s",
    "trace.untraced_op_s": "s",
    "trace.overhead_ratio": "ratio",
}


def import_library():
    """Import residuehd from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import residuehd

    if Path(residuehd.__file__).resolve().parent != src / "residuehd":
        raise SystemExit(f"residuehd imported from {residuehd.__file__}, not from {src}")
    return residuehd


def source_digest() -> str:
    """Digest of what fixes a run's answers: the library and the workload definitions."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "residuehd").glob("*.py")) + [Path(__file__).with_name("workloads.py")]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        },
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256_16": source_digest(),  # library and workload definitions
    }


def nearest_rank(sorted_values: list, q: float):
    return sorted_values[max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1)]


def samples_needed(q: float) -> int:
    """Fewest samples that leave TAIL_MIN_BEYOND beyond the q-th percentile."""
    n = 1
    while n - math.ceil(q / 100.0 * n) < TAIL_MIN_BEYOND:
        n += 1
    return n


class Gate:
    """Every execution of an operation must give the same answer and counts."""

    def __init__(self, n_ops: int):
        self.first = [None] * n_ops
        self.errors = []

    def check(self, i: int, outcome) -> None:
        if self.first[i] is None:
            self.first[i] = outcome
        elif outcome != self.first[i]:
            self.errors.append(f"operation {i}: {outcome} differs from its first run {self.first[i]}")

    def round_counts(self) -> dict:
        totals = {"correct": 0}
        for correct, counts in self.first:
            totals["correct"] += int(correct)
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def check_ledger(self, key: str, digest: str) -> None:
        """Compare per-round counts with earlier runs of the same program and inputs."""
        path = LEDGER_DIR / f"{key}.json"
        counts = self.round_counts()
        if path.exists():
            prior = json.loads(path.read_text())
            if prior["source"] == digest:
                if prior["round_counts"] != counts:
                    self.errors.append(f"round counts {counts} differ from an earlier run {prior['round_counts']}")
                return
        LEDGER_DIR.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({"source": digest, "round_counts": counts}, sort_keys=True))
        os.replace(tmp, path)


def _execute(op):
    try:
        return op()
    except Exception:  # an operation that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        return False, {"raised": 1}


def _traced(tracer, op, i, gate) -> float:
    """Run operation i under the tracer; return its time."""
    with tracer.installed():
        t0 = time.perf_counter()
        with tracer.root("op", i):
            outcome = _execute(op)
        dt = time.perf_counter() - t0
    gate.check(i, outcome)
    return dt


class SetUp:
    """Builds the set-up from scratch, again and again, spread over the run.

    The first build happens before the warm-up. Later builds replace the
    operation list between two operations, once every ``interval`` seconds
    of timed operations, so the median build time samples the host over the
    same stretch of time as the operations do. A rebuild gives the same
    operations, which the gate checks.
    """

    def __init__(self, workload, seed, n_ops, seconds, tracer):
        self.workload, self.seed, self.n_ops, self.tracer = workload, seed, n_ops, tracer
        self.times = []
        self.ops = None
        self.build()
        wanted = round(SETUP_SHARE * seconds / max(self.times[0], 1e-6))
        self.wanted = min(SETUP_MAX_BUILDS, max(SETUP_MIN_BUILDS, wanted))
        self.interval = seconds / self.wanted
        self.since = 0.0  # seconds of timed operations since the last build

    def build(self) -> float:
        self.ops = None  # free the previous build first, so two never coexist
        gc.collect()
        t0 = time.perf_counter()
        if self.tracer is None:
            self.ops = self.workload.build(self.seed, self.n_ops)
        else:
            with self.tracer.installed(), self.tracer.root("setup", len(self.times)):
                self.ops = self.workload.build(self.seed, self.n_ops)
        dt = time.perf_counter() - t0
        self.times.append(dt)
        return dt

    def between_ops(self, op_time: float) -> float:
        """Rebuild when due; return the time it took."""
        self.since += op_time
        if self.since < self.interval or len(self.times) >= self.wanted:
            return 0.0
        self.since = 0.0
        return self.build()


def run(workload, seed: int, seconds: float, trace: bool, tiny: bool):
    """Run one workload; return (record, final result line).

    ``import_library`` must have run first.
    """
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()

    n_ops = workload.tiny_ops if tiny else workload.n_ops
    q = workload.tail_percentile
    needed = samples_needed(q)
    gate = Gate(n_ops)
    setup = SetUp(workload, seed, n_ops, seconds, tracer)

    t_warm = time.perf_counter()
    for i in range(n_ops):
        if i and time.perf_counter() - t_warm >= WARMUP_SHARE * seconds:
            break
        gate.check(i, _execute(setup.ops[i]))

    latencies, rates, traced_rates = [], [], []
    executed = correct = 0
    measured = plain_total = 0.0
    while not rates or (measured + measured / len(rates) <= seconds) or len(latencies) < needed:
        gc.collect()
        plain_time = traced_time = build_time = 0.0
        t_round = time.perf_counter()
        for i in range(n_ops):
            op = setup.ops[i]
            # with tracing, every other operation runs traced first, so neither
            # side always finds the caches warmed by the other
            if trace and i % 2:
                traced_time += _traced(tracer, op, i, gate)
            t0 = time.perf_counter()
            outcome = _execute(op)
            dt = time.perf_counter() - t0
            latencies.append(dt)
            plain_time += dt
            gate.check(i, outcome)
            executed += 1
            correct += int(outcome[0])
            if trace and not i % 2:
                traced_time += _traced(tracer, op, i, gate)
            op = None  # so a rebuild frees the old build before it makes the new one
            build_time += setup.between_ops(dt)
        measured += time.perf_counter() - t_round - build_time
        plain_total += plain_time
        rates.append(n_ops / plain_time)
        if trace:
            traced_rates.append(n_ops / traced_time)
    while len(setup.times) < SETUP_MIN_BUILDS:
        setup.build()

    digest = source_digest()
    gate.check_ledger(f"{workload.name}-{n_ops}-{seed}", digest)
    latencies.sort()
    p50_ms = statistics.median(latencies) * 1e3
    tail_ms = nearest_rank(latencies, q) * 1e3
    if tail_ms < p50_ms:
        gate.errors.append(f"latency tail {tail_ms} ms is below the median {p50_ms} ms")
    rounds = len(rates)
    builds = len(setup.times)

    if trace:
        metrics = layer_metrics(
            tracer.summarize(), builds, rounds, n_ops, gate.round_counts()["correct"],
            plain_total / executed, 1.0 - statistics.median(traced_rates) / statistics.median(rates),
        )
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup.times),
            "throughput_per_s": statistics.median(rates),
            "latency_p50_ms": p50_ms,
            "latency_tail_ms": tail_ms,
            "accuracy": correct / executed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": not gate.errors,
        "attempted": executed,
        "failed": executed - correct,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload.name,
        "size": "tiny" if tiny else "full",
        "trace": trace,
        "provenance": provenance(seed),
        "setup_builds": builds,
        "ops_per_round": n_ops,
        "rounds": rounds,
        "measured_s": measured,
        "latency_samples": len(latencies),
        "tail_percentile": q,
        "samples_beyond_tail": len(latencies) - math.ceil(q / 100.0 * len(latencies)),
        "round_counts": gate.round_counts(),
        "gate_errors": gate.errors[:20],
    }
    return record, result


def layer_metrics(spans, builds, rounds, n_ops, correct_per_round, untraced_op_s, overhead):
    setup = spans.get("setup", {})
    op = spans.get("op", {})
    traced_ops = rounds * n_ops

    def per_build(name):
        return setup[name]["outer_incl"] / builds if name in setup else 0.0

    def per_op(name):
        return op[name]["self"] / traced_ops if name in op else 0.0

    def per_call(name):
        return op[name]["self"] / op[name]["calls"] if name in op else 0.0

    def per_round(name, key):
        return round(op[name][key] / rounds) if name in op else 0

    fact = op.get("resonator.factorize", {})
    sweeps = fact.get("sweeps", 0)
    attempts = per_round("resonator.factorize", "attempts")
    solve_attempts = per_round("subsetsum.solve", "attempts")
    return {
        "phasor.sample_base_s": per_build("phasor.sample_base"),
        "phasor.to_dense_s": per_op("phasor.to_dense"),
        "residue.make_system_s": per_build("residue.make_system"),
        "residue.encode_s": per_op("residue.encode"),
        "residue.multiply_s": per_op("residue.multiply"),
        "residue.crt_s": per_op("residue.crt"),
        "resonator.build_codebooks_s": per_build("resonator.build_codebooks"),
        "resonator.factorize_s": per_op("resonator.factorize"),
        "resonator.calls": per_round("resonator.factorize", "calls"),
        "resonator.sweeps": per_round("resonator.factorize", "sweeps"),
        "resonator.evaluations": per_round("resonator.factorize", "evaluations"),
        "resonator.attempts": attempts,
        "resonator.unconverged": per_round("resonator.factorize", "unconverged"),
        "resonator.ms_per_sweep": 1e3 * fact.get("self", 0.0) / sweeps if sweeps else 0.0,
        "resonator.bytes_per_sweep_computed": fact.get("bytes", 0) / sweeps if sweeps else 0.0,
        "resonator.useful_ratio": correct_per_round / attempts if attempts else 0.0,
        "subsetsum.build_factors_s": per_op("subsetsum.build_factors"),
        "subsetsum.solve_self_s": per_op("subsetsum.solve"),
        "subsetsum.attempts": solve_attempts,
        "subsetsum.attempt_success_ratio": (
            per_round("subsetsum.solve", "attempt_successes") / solve_attempts if solve_attempts else 0.0
        ),
        "scene.build_object_codebook_s": per_build("scene.build_object_codebook"),
        "scene.encode_scene_s": per_op("scene.encode_scene"),
        "scene.factorize_self_s.residue": per_call("scene.factorize.residue"),
        "scene.factorize_self_s.standard": per_call("scene.factorize.standard"),
        "trace.op_s": op["op"]["incl"] / traced_ops,
        "trace.unattributed_s": per_op("op"),
        "trace.untraced_op_s": untraced_op_s,
        "trace.overhead_ratio": overhead,
    }
