"""Command-line harness: manifests, determinism, config precedence."""

import json
import platform

import numpy as np
import pytest
import scipy

import residuehd

from residuehd.cli import main


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestKernelCommand:
    def test_writes_curve_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "k"
        rc = main(["kernel", "--m", "5", "--D", "4000", "--out", str(out), "--seed", "3"])
        assert rc == 0
        assert (out / "kernel_m5.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "kernel"
        assert manifest["config"]["m"] == 5
        assert manifest["config"]["D"] == 4000
        assert manifest["seed"] == 3
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["versions"] == {
            "residuehd": residuehd.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
            "blas": {"name": blas["name"], "version": blas["version"]},
        }

    def test_reruns_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["kernel", "--m", "5", "--D", "2000", "--out", str(out1)])
        main(["kernel", "--m", "5", "--D", "2000", "--out", str(out2)])
        assert read(out1 / "kernel_m5.csv") == read(out2 / "kernel_m5.csv")
        assert read(out1 / "manifest.json") == read(out2 / "manifest.json")


class TestConfigHandling:
    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "m": 6, "D": 2000}))
        out = tmp_path / "k"
        rc = main(["kernel", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert (out / "kernel_m6.csv").exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 6, "D": 2000}))
        out = tmp_path / "k"
        main(["kernel", "--config", str(cfg), "--m", "3", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["m"] == 3
        assert manifest["config"]["D"] == 2000

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        rc = main(["kernel", "--config", str(cfg), "--out", str(tmp_path / "k")])
        assert rc == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", ["null", "3", "[1, 2]", '"x"', "true"])
    def test_config_not_an_object_rejected(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc)
        out = tmp_path / "k"
        rc = main(["kernel", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert f"error: config {cfg} must hold a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["kernel", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "k")])
        assert rc == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestExperimentCommands:
    def test_capacity_schema(self, tmp_path):
        out = tmp_path / "cap"
        rc = main(
            ["capacity", "--D", "128", "--K", "2", "--trials", "10",
             "--growth", "2.0", "--max-M", "500", "--out", str(out)]
        )
        assert rc == 0
        lines = (out / "capacity.jsonl").read_text().strip().splitlines()
        assert lines
        rec = json.loads(lines[0])
        for key in ("D", "K", "moduli", "M", "kappa", "trials", "accuracy", "mean_evaluations", "capacity_flag", "seed"):
            assert key in rec

    def test_noise_command(self, tmp_path):
        out = tmp_path / "n"
        rc = main(["noise", "--D", "128", "--moduli", "11,13", "--kappa", "8.0",
                   "--trials", "20", "--max-iters", "30", "--out", str(out)])
        assert rc == 0
        rec = json.loads((out / "noise.jsonl").read_text().strip())
        assert rec["M"] == 143
        assert 0.0 <= rec["accuracy"] <= 1.0

    def test_hex_command(self, tmp_path):
        out = tmp_path / "h"
        rc = main(["hex", "--moduli", "3", "--D", "512", "--extent", "2.0",
                   "--step", "1.0", "--max-m", "5", "--out", str(out)])
        assert rc == 0
        assert (out / "hex_kernel.csv").exists()
        lines = (out / "hex_states.jsonl").read_text().strip().splitlines()
        assert len(lines) == 5
        rec = json.loads(lines[4])
        assert rec["hex_states"] == 61

    def test_subint_command(self, tmp_path):
        out = tmp_path / "s"
        rc = main(["subint", "--D", "256", "--moduli", "11,13", "--kappa", "16", "--r", "2",
                   "--trials", "10", "--out", str(out)])
        assert rc == 0
        rec = json.loads((out / "subint.jsonl").read_text().strip())
        assert rec["r"] == 2 and rec["search_space"] == 143 * 2
        overlay = (out / "subint_overlay.csv").read_text().splitlines()
        assert overlay[0] == "modulus,entry,measured,predicted"
        assert len(overlay) == 1 + 11 + 13

    def test_subset_sum_command(self, tmp_path):
        out = tmp_path / "ss"
        rc = main(["subset-sum", "--sizes", "4", "--D-values", "512", "--m", "30",
                   "--trials", "5", "--restarts", "9", "--out", str(out)])
        assert rc == 0
        rec = json.loads((out / "subset_sum.jsonl").read_text().strip())
        assert rec["n"] == 4 and rec["D"] == 512
        assert "mean_solve_seconds" not in rec  # wall clock stays out of the files
        results = (out / "subset_sum_results.jsonl").read_text().strip().splitlines()
        assert len(results) == 5

    def test_scene_command(self, tmp_path):
        out = tmp_path / "sc"
        rc = main(["scene", "--scenes", "2", "--D", "1024", "--objects", "3",
                   "--features", "4", "--out", str(out)])
        assert rc == 0
        lines = (out / "scene.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        modes = {json.loads(l)["mode"] for l in lines}
        assert modes == {"residue", "standard"}

    def test_baselines_command(self, tmp_path):
        out = tmp_path / "b"
        rc = main(["baselines", "--scatter-seeds", "5", "--scatter-levels", "11", "--out", str(out)])
        assert rc == 0
        for name in ("thermometer.csv", "float.csv", "scatter.csv", "scatter_fits.json"):
            assert (out / name).exists()

    def test_experiment_rerun_identical(self, tmp_path):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            main(["capacity", "--D", "128", "--K", "2", "--trials", "5",
                  "--growth", "2.0", "--max-M", "200", "--out", str(out)])
            outs.append(read(out / "capacity.jsonl"))
        assert outs[0] == outs[1]


class TestInvalidCounts:
    """A count below 1 or a grid step of 0 is an error, not NaN, a traceback or a sweep that never ends."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["noise", "--D", "128", "--moduli", "11,13", "--trials", "0"], "trials must be >= 1"),
            # --max-M bounds the sweep, which otherwise never ends on NaN accuracy
            (["capacity", "--D", "128", "--trials", "0", "--max-M", "500"], "trials must be >= 1"),
            (["subint", "--D", "128", "--moduli", "11,13", "--trials", "0"], "trials must be >= 1"),
            (["subset-sum", "--sizes", "4", "--D-values", "512", "--m", "30", "--trials", "0"], "trials must be >= 1"),
            (["scene", "--scenes", "0", "--D", "1024", "--objects", "3", "--features", "4"], "scenes must be >= 1"),
            (["kernel", "--D", "64", "--step", "0"], "step must be > 0"),
            (["hex", "--moduli", "3", "--D", "64", "--step", "0"], "step must be > 0"),
        ],
        ids=["noise", "capacity", "subint", "subset-sum", "scene", "kernel-step", "hex-step"],
    )
    def test_rejected_with_error(self, tmp_path, capsys, argv, message):
        rc = main(argv + ["--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err


class TestFailedRuns:
    def test_failed_run_leaves_no_manifest(self, tmp_path):
        out = tmp_path / "d"
        noise = ["noise", "--D", "64", "--moduli", "11,13", "--out", str(out)]
        assert main(noise + ["--trials", "1"]) == 0
        assert (out / "manifest.json").exists()
        assert main(noise + ["--trials", "0"]) == 1
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["subint", "--D", "64", "--moduli", "11,13", "--r", "0"], "--r"),
            (["scene", "--D", "64", "--objects", "0"], "--objects"),
            (["kernel", "--D", "64", "--lo", "1", "--hi", "-1"], "--hi"),
            (["hex", "--moduli", "3", "--D", "64", "--max-m", "0"], "--max-m"),
            (["capacity", "--D", "64", "--K", "0"], "--K"),
            (["baselines", "--thermo-D", "0"], "--thermo-D"),
            (["baselines", "--float-D", "0"], "--float-D"),
            (["baselines", "--scatter-D", "0"], "--scatter-D"),
            (["baselines", "--scatter-seeds", "0"], "--scatter-seeds"),
            (["baselines", "--float-w", "0"], "--float-w"),
            (["baselines", "--float-D", "8", "--float-w", "9"], "--float-w"),
        ],
        ids=["subint-r", "scene-objects", "kernel-range", "hex-max-m", "capacity-K", "baselines-thermo-D",
             "baselines-float-D", "baselines-scatter-D", "baselines-scatter-seeds", "baselines-float-w",
             "baselines-float-w-above-D"],
    )
    def test_invalid_flag_named_before_any_file(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) != 0
        assert f"error: {flag} must be" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestConfigFileTypes:
    """A config-file value of another type than its default is named and rejected before any write."""

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("noise", "max_iters", 2.5),
            ("noise", "trials", 2.5),
            ("noise", "trials", True),
            ("noise", "seed", "0"),
            ("noise", "moduli", [11, 13.0]),
            ("noise", "moduli", "11,13"),
            ("noise", "kappa", "8"),
            ("noise", "kappa", False),
            ("scene", "restarts", 1.5),
            ("capacity", "max_M", 500.0),
            ("capacity", "stop_threshold", "0.5"),
            ("kernel", "lo", None),
        ],
        ids=["int-float", "trials-float", "int-bool", "int-str", "list-float", "list-str", "kappa-str",
             "float-bool", "scene-restarts", "none-int", "none-float", "float-null"],
    )
    def test_mistyped_value_rejected(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: config key '{key}' must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, want",
        [("kappa", "inf", "inf"), ("kappa", 8, 8), ("stop_threshold", 1, 1), ("max_M", None, None),
         ("max_M", 200, 200)],
        ids=["kappa-inf", "float-int", "none-float-int", "none-null", "none-int"],
    )
    def test_typed_value_accepted(self, tmp_path, key, value, want):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"D": 64, "trials": 2, "max_M": 30, key: value}))
        out = tmp_path / "o"
        assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"][key] == want
