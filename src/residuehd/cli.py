"""Command-line experiment harness.

Every subcommand wires library pieces into a seeded, reproducible run
that writes CSV / JSON-lines data files and, on success, a manifest of
the resolved configuration, its hash, the seed, and library versions.
Rerunning with an identical configuration produces byte-identical
outputs (no timestamps, sorted keys, repr floats).

Configuration precedence: built-in defaults, then values from an
optional JSON config file, then explicit command-line flags. Unknown
config keys are rejected.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .baselines import (
    fit_kernel_shapes,
    float_encode,
    float_kernel,
    scatter_expected_similarity,
    scatter_similarity_curve,
    thermometer_encode,
    thermometer_kernel,
    cosine,
)
from .hexgrid import (
    HexSystem,
    code_entropy,
    hex_state_count,
    square_state_count,
    write_hex_heatmap_csv,
)
from .kernels import empirical_kernel, product_kernel, write_curve_csv
from .phasor import sample_base
from .residue import ResidueSystem, make_residue_system
from .resonator import (
    ResonatorConfig,
    capacity_experiment,
    bits_per_vector,
    decode_accuracy,
    subinteger_experiment,
    subinteger_overlay,
)
from .scene import scene_experiment
from .subsetsum import benchmark as subsetsum_benchmark

_CONFIG_VERSION = 1

DEFAULTS = {
    "kernel": {"m": 5, "D": 50000, "lo": -8.0, "hi": 8.0, "step": 0.1, "seed": 0},
    "capacity": {
        "D": 512,
        "K": 2,
        "kappa": math.inf,
        "trials": 100,
        "threshold": 0.95,
        "stop_threshold": None,
        "growth": 1.5,
        "max_M": None,
        "seed": 0,
        "max_iters": 30,
    },
    "noise": {
        "D": 512,
        "moduli": [31, 37],
        "kappa": 1.0,
        "trials": 200,
        "seed": 0,
        "max_iters": 100,
    },
    "hex": {
        "moduli": [3, 5],
        "D": 4096,
        "extent": 6.0,
        "step": 0.25,
        "max_m": 12,
        "seed": 0,
    },
    "subint": {
        "D": 512,
        "moduli": [31, 37],
        "kappa": 16.0,
        "r": 4,
        "trials": 100,
        "seed": 0,
        "max_iters": 50,
    },
    "subset-sum": {
        "sizes": [6, 8, 10],
        "D_values": [2048],
        "m": 200,
        "trials": 50,
        "restarts": 19,
        "max_iters": 30,
        "seed": 0,
    },
    "scene": {
        "scenes": 50,
        "D": 10000,
        "objects": 10,
        "features": 8,
        "grid": [105, 105],
        "moduli": [3, 5, 7],
        "restarts": 9,
        "seed": 0,
    },
    "baselines": {
        "thermo_D": 50,
        "float_D": 60,
        "float_w": 10,
        "scatter_D": 1000,
        "scatter_p": 0.05,
        "scatter_levels": 31,
        "scatter_seeds": 50,
        "seed": 0,
    },
}


def _json_ready(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _dump_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            fh.write(json.dumps(_json_ready(rec), sort_keys=True))
            fh.write("\n")


def _write_manifest(outdir: Path, command: str, config: dict) -> None:
    ready = _json_ready(config)
    blob = json.dumps(ready, sort_keys=True)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "command": command,
        "config": ready,
        "config_sha256": hashlib.sha256(blob.encode("ascii")).hexdigest(),
        "config_version": _CONFIG_VERSION,
        "seed": config.get("seed"),
        "versions": {
            "residuehd": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
        },
    }
    with open(outdir / "manifest.json", "w", encoding="ascii") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _check_file_value(key: str, default, value) -> None:
    """ValueError unless a config-file value has the type of its key's default.

    An int key takes an int (not a bool), a float key an int or a float, a list
    key a list of ints, and a key whose default is None also takes null; kappa
    also takes the string "inf".
    """
    if value is None and default is None:
        return
    typ = _NONE_DEFAULT_TYPES[key] if default is None else type(default)
    if typ is list:
        ok, want = type(value) is list and all(type(v) is int for v in value), "a list of integers"
    elif typ is float:
        ok, want = type(value) in (int, float) or (key == "kappa" and value == "inf"), "a number"
    else:
        ok, want = type(value) is typ, "an integer"
    if not ok:
        raise ValueError(f"config key {key!r} must be {want}, got {value!r}")


def _resolve_config(command: str, file_cfg: dict, flag_cfg: dict) -> dict:
    cfg = dict(DEFAULTS[command])
    if file_cfg:
        version = file_cfg.pop("version", _CONFIG_VERSION)
        if version != _CONFIG_VERSION:
            raise ValueError(f"unsupported config version {version!r}")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")
        for key, value in file_cfg.items():
            _check_file_value(key, cfg[key], value)
        cfg.update(file_cfg)
    cfg.update({k: v for k, v in flag_cfg.items() if v is not None})
    if cfg.get("kappa") == "inf":
        cfg["kappa"] = math.inf
    # flags below 1 leave a run nothing to do: rejected by name before any write
    at_least_one = {"capacity": ("K",), "hex": ("max_m",), "subint": ("r",), "scene": ("objects", "features"),
                    "baselines": ("thermo_D", "float_D", "float_w", "scatter_D", "scatter_seeds")}
    for key in at_least_one.get(command, ()):
        if cfg[key] < 1:
            raise ValueError(f"--{key.replace('_', '-')} must be >= 1, got {cfg[key]}")
    if command == "kernel" and cfg["hi"] < cfg["lo"]:
        raise ValueError(f"--hi must be >= --lo, got --lo {cfg['lo']} --hi {cfg['hi']}")
    if command == "baselines" and cfg["float_w"] > cfg["float_D"]:
        raise ValueError(f"--float-w must be <= --float-D, got {cfg['float_w']} > {cfg['float_D']}")
    return cfg


def _parse_int_list(text: str) -> list[int]:
    return [int(t) for t in text.replace(",", " ").split()]


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, ... up to hi (inclusive within half a step)."""
    if not step > 0:
        raise ValueError(f"step must be > 0, got {step}")
    return np.arange(lo, hi + step / 2, step)


# --- subcommands ----------------------------------------------------------


def _cmd_kernel(cfg, outdir):
    sys_ = ResidueSystem([sample_base(cfg["m"], cfg["D"], cfg["seed"])])
    grid = _grid(cfg["lo"], cfg["hi"], cfg["step"])
    worst = write_curve_csv(
        outdir / f"kernel_m{cfg['m']}.csv", grid, empirical_kernel(sys_, grid), product_kernel(sys_.moduli, grid)
    )
    print(f"kernel: m={cfg['m']} D={cfg['D']} max|empirical-analytic|={worst:.4f}")


def _cmd_capacity(cfg, outdir):
    res = capacity_experiment(
        D=cfg["D"],
        K=cfg["K"],
        kappa=cfg["kappa"],
        accuracy_threshold=cfg["threshold"],
        stop_threshold=cfg["stop_threshold"],
        trials=cfg["trials"],
        seed=cfg["seed"],
        config=ResonatorConfig(max_iters=cfg["max_iters"], max_restarts=3),
        growth=cfg["growth"],
        max_M=cfg["max_M"],
    )
    records = [
        {
            **asdict(p),
            "D": res.D,
            "K": res.K,
            "kappa": res.kappa,
            "capacity_flag": p.accuracy >= res.accuracy_threshold,
            "seed": cfg["seed"],
        }
        for p in res.points
    ]
    _dump_jsonl(outdir / "capacity.jsonl", records)
    print(f"capacity: D={cfg['D']} K={cfg['K']} C={res.capacity}")


def _cmd_noise(cfg, outdir):
    sys_ = make_residue_system(cfg["moduli"], cfg["D"], cfg["seed"])
    acc, evals = decode_accuracy(
        sys_,
        trials=cfg["trials"],
        kappa=cfg["kappa"],
        seed=cfg["seed"],
        config=ResonatorConfig(max_iters=cfg["max_iters"]),
    )
    record = {
        "D": cfg["D"],
        "K": len(cfg["moduli"]),
        "moduli": list(cfg["moduli"]),
        "M": sys_.range_M,
        "kappa": cfg["kappa"],
        "trials": cfg["trials"],
        "accuracy": acc,
        "mean_evaluations": evals,
        "chance": 1.0 / sys_.range_M,
        "seed": cfg["seed"],
    }
    _dump_jsonl(outdir / "noise.jsonl", [record])
    print(f"noise: kappa={cfg['kappa']} accuracy={acc:.3f} (chance {1.0 / sys_.range_M:.2e})")


def _cmd_hex(cfg, outdir):
    hexsys = HexSystem(cfg["moduli"], cfg["D"], cfg["seed"])
    xs = _grid(-cfg["extent"], cfg["extent"], cfg["step"])
    write_hex_heatmap_csv(outdir / "hex_kernel.csv", hexsys, xs, xs)
    rows = []
    for m in range(1, cfg["max_m"] + 1):
        rows.append(
            {
                "m": m,
                "hex_states": hex_state_count(m),
                "square_states": square_state_count(m),
                "hex_codebook_vectors": 3 * m,
                "square_codebook_vectors": 2 * m,
                "hex_entropy_bits": code_entropy(hex_state_count(m)),
                "square_entropy_bits": code_entropy(square_state_count(m)),
            }
        )
    _dump_jsonl(outdir / "hex_states.jsonl", rows)
    print(f"hex: moduli={cfg['moduli']} heatmap {len(xs)}x{len(xs)} written")


def _cmd_subint(cfg, outdir):
    sys_ = make_residue_system(cfg["moduli"], cfg["D"], cfg["seed"])
    acc, bits, P = subinteger_experiment(
        sys_,
        r=cfg["r"],
        trials=cfg["trials"],
        kappa=cfg["kappa"],
        seed=cfg["seed"],
        config=ResonatorConfig(max_iters=cfg["max_iters"]),
    )
    record = {
        "D": cfg["D"],
        "moduli": list(cfg["moduli"]),
        "M": sys_.range_M,
        "kappa": cfg["kappa"],
        "r": cfg["r"],
        "trials": cfg["trials"],
        "accuracy": acc,
        "bits_per_vector": bits,
        "search_space": P,
        "seed": cfg["seed"],
    }
    _dump_jsonl(outdir / "subint.jsonl", [record])
    # qualitative overlay: converged-state inner products vs the kernel
    # prediction, for one demonstration value off the integer grid
    q = (sys_.range_M // 3) + 1.0 / max(cfg["r"], 2)
    rows = subinteger_overlay(sys_, q, ResonatorConfig(max_iters=cfg["max_iters"], seed=cfg["seed"]))
    with open(outdir / "subint_overlay.csv", "w", encoding="ascii") as fh:
        fh.write("modulus,entry,measured,predicted\n")
        for m, r_entry, measured, predicted in rows:
            fh.write(f"{m},{r_entry},{measured!r},{predicted!r}\n")
    print(f"subint: r={cfg['r']} kappa={cfg['kappa']} accuracy={acc:.3f} bits={bits:.2f}")


def _cmd_subset_sum(cfg, outdir):
    out = subsetsum_benchmark(
        sizes=cfg["sizes"],
        D_values=cfg["D_values"],
        m=cfg["m"],
        trials=cfg["trials"],
        seed=cfg["seed"],
        config=ResonatorConfig(max_iters=cfg["max_iters"], max_restarts=cfg["restarts"]),
    )
    # wall clock is hardware-dependent: print it, keep it out of the files
    persisted = [{k: v for k, v in rec.items() if k != "mean_solve_seconds"} for rec in out["summary"]]
    _dump_jsonl(outdir / "subset_sum.jsonl", persisted)
    _dump_jsonl(outdir / "subset_sum_results.jsonl", out["results"])
    for rec in out["summary"]:
        print(
            f"subset-sum: |S|={rec['n']} D={rec['D']} "
            f"p1={rec['first_attempt_success']:.2f} solved={rec['success_within_budget']:.2f} "
            f"({rec['mean_solve_seconds'] * 1e3:.1f} ms/instance)"
        )


def _cmd_scene(cfg, outdir):
    out = scene_experiment(
        n_scenes=cfg["scenes"],
        D=cfg["D"],
        n_objects=cfg["objects"],
        n_features=cfg["features"],
        grid=tuple(cfg["grid"]),
        moduli=cfg["moduli"],
        seed=cfg["seed"],
        config=ResonatorConfig(max_iters=15, max_restarts=cfg["restarts"]),
    )
    records = [
        {"mode": mode, "D": out["D"], "grid": out["grid"], "moduli": out["moduli"], "seed": cfg["seed"], **stats}
        for mode, stats in sorted(out["modes"].items())
    ]
    _dump_jsonl(outdir / "scene.jsonl", records)
    for rec in records:
        print(
            f"scene: mode={rec['mode']} vectors={rec['codebook_vectors']} "
            f"accuracy={rec['accuracy']:.2f} evals={rec['mean_evaluations']:.1f}"
        )


def _cmd_baselines(cfg, outdir):
    D = cfg["thermo_D"]
    deltas = np.arange(0, D + 1)
    thermo_emp = np.array([cosine(thermometer_encode(0, D), thermometer_encode(int(d), D)) for d in deltas])
    write_curve_csv(outdir / "thermometer.csv", deltas, thermo_emp, thermometer_kernel(D, deltas))
    Df, w = cfg["float_D"], cfg["float_w"]
    fdeltas = np.arange(0, Df - w + 1)
    femp = np.array(
        [np.dot(float_encode(0, Df, w), float_encode(int(d), Df, w)) / w for d in fdeltas]
    )
    write_curve_csv(outdir / "float.csv", fdeltas, femp, float_kernel(w, fdeltas))
    levels = cfg["scatter_levels"]
    seeds = [cfg["seed"] + i for i in range(cfg["scatter_seeds"])]
    scatter_emp = scatter_similarity_curve(levels, cfg["scatter_D"], cfg["scatter_p"], seeds)
    sdeltas = np.arange(levels)
    scatter_ana = scatter_expected_similarity(cfg["scatter_p"], sdeltas)
    write_curve_csv(outdir / "scatter.csv", sdeltas, scatter_emp, scatter_ana)
    fits = fit_kernel_shapes(sdeltas, scatter_emp)
    with open(outdir / "scatter_fits.json", "w", encoding="ascii") as fh:
        json.dump(_json_ready(fits), fh, sort_keys=True, indent=2)
        fh.write("\n")
    print("baselines: thermometer/float/scatter curves written")


_COMMANDS = {
    "kernel": _cmd_kernel,
    "capacity": _cmd_capacity,
    "noise": _cmd_noise,
    "hex": _cmd_hex,
    "subint": _cmd_subint,
    "subset-sum": _cmd_subset_sum,
    "scene": _cmd_scene,
    "baselines": _cmd_baselines,
}


# flag types for the defaults that are None
_NONE_DEFAULT_TYPES = {"stop_threshold": float, "max_M": int}


def _build_parser() -> argparse.ArgumentParser:
    """One subcommand per DEFAULTS entry, one flag per config key.

    A key's flag is "--" + key with dashes for underscores; its type is
    that of its default, and a list default takes a comma list of ints.
    """
    p = argparse.ArgumentParser(prog="residuehd", description="Residue phasor-code experiments")
    sub = p.add_subparsers(dest="command", required=True)
    for name, defaults in DEFAULTS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        sp.add_argument("--out", type=str, default=None, help="output directory")
        for key, default in defaults.items():
            if isinstance(default, list):
                typ = _parse_int_list
            else:
                typ = _NONE_DEFAULT_TYPES[key] if default is None else type(default)
            sp.add_argument("--" + key.replace("_", "-"), type=typ, default=None)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    file_cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="ascii") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(file_cfg, dict):
            print(f"error: config {args.config} must hold a JSON object", file=sys.stderr)
            return 2
    # argparse dest names (dashes to underscores) match the config keys
    flag_cfg = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config", "out") and v is not None
    }
    try:
        cfg = _resolve_config(command, dict(file_cfg), flag_cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.out) if args.out else Path("runs") / command
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {outdir}: {exc}", file=sys.stderr)
        return 2
    # the manifest is written last, and an earlier run's must not outlive a failed one
    (outdir / "manifest.json").unlink(missing_ok=True)
    try:
        _COMMANDS[command](cfg, outdir)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_manifest(outdir, command, cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
