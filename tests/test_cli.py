import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dflkit
from dflkit.cli import main
from dflkit.datagen import load_dataset
from dflkit.bench import default_sweep_config
from dflkit.targets import policy_from_dict, policy_to_dict


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    rc = main(["datagen", "--problem", "grid", "--grid", "2x3", "--features", "3",
               "--deg", "2", "--noise", "0.5", "--train", "12", "--val", "6",
               "--test", "8", "--seed", "7", "--out", str(out)])
    assert rc == 0
    return out


class TestDatagenCommand:
    def test_splits_written(self, small_data):
        for split, t in (("train", 12), ("val", 6), ("test", 8)):
            ds = load_dataset(small_data / split)
            assert ds.meta.t == t and ds.meta.instance == "grid:2x3"

    def test_tsp_descriptor_roundtrips(self, tmp_path):
        out = tmp_path / "tspds"
        rc = main(["datagen", "--problem", "tsp", "--nodes", "5", "--features", "2",
                   "--deg", "2", "--noise", "0", "--train", "4", "--val", "3",
                   "--test", "3", "--seed", "1", "--out", str(out)])
        assert rc == 0
        ds = load_dataset(out / "train")
        assert ds.meta.instance.startswith("tsp:5,coords=")
        assert ds.meta.n == 10

    def test_determinism(self, tmp_path):
        args = ["datagen", "--problem", "grid", "--grid", "2x2", "--features", "2",
                "--deg", "2", "--noise", "0.3", "--train", "5", "--val", "3",
                "--test", "3", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for split in ("train", "val", "test"):
            for name in ("features.csv", "costs.csv", "clean_costs.csv", "meta.json"):
                assert (a / split / name).read_bytes() == (b / split / name).read_bytes()


class TestTrainEval:
    def test_train_writes_model(self, small_data, tmp_path):
        model = tmp_path / "model.json"
        rc = main(["train", "--data", str(small_data), "--method", "spo+",
                   "--loss", "knn", "--k", "3", "--w", "0.5", "--epochs", "3",
                   "--batch", "8", "--seed", "0", "--out", str(model)])
        assert rc == 0
        payload = json.loads(model.read_text())
        assert payload["config"]["policy"]["kind"] == "knn"
        assert len(payload["history"]) == 3
        assert np.array(payload["theta"]).shape == (7, 3)

    def test_train_byte_identical(self, small_data, tmp_path):
        args = ["train", "--data", str(small_data), "--method", "pfyl",
                "--loss", "emp", "--epochs", "2", "--seed", "4"]
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(args + ["--out", str(m1)]) == 0
        assert main(args + ["--out", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_pfl_baseline(self, small_data, tmp_path):
        model = tmp_path / "pfl.json"
        rc = main(["train", "--data", str(small_data), "--method", "pfl",
                   "--epochs", "2", "--out", str(model)])
        assert rc == 0
        payload = json.loads(model.read_text())
        assert payload["config"]["method"] == "mse"
        assert payload["audit"]["gradient"] == 0

    def test_eval_report(self, small_data, tmp_path):
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(small_data), "--method", "spo+",
                     "--loss", "emp", "--epochs", "2", "--out", str(model)]) == 0
        report = tmp_path / "report.json"
        rc = main(["eval", "--data", str(small_data), "--model", str(model),
                   "--split", "test", "--report", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["split"] == "test"
        assert len(payload["per_sample_regret"]) == 8
        assert payload["normalized_regret_pct"] >= 0.0
        assert payload["expected_normalized_regret_pct"] is not None


class TestTrainEvalErrors:
    @pytest.mark.parametrize("flags", [["--pfyl-sigma", "-1"], ["--pfyl-m", "0"],
                                       ["--pfyl-sigma", "inf"]])
    def test_bad_pfyl_settings_exit_1(self, small_data, tmp_path, capsys, flags):
        model = tmp_path / "model.json"
        rc = main(["train", "--data", str(small_data), "--method", "pfyl",
                   "--epochs", "2", "--out", str(model)] + flags)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pfyl_") and err.count("\n") == 1
        assert not model.exists()

    def test_negative_seed_exits_1(self, small_data, tmp_path, capsys):
        model = tmp_path / "model.json"
        rc = main(["train", "--data", str(small_data), "--method", "spo+",
                   "--epochs", "2", "--seed", "-1", "--out", str(model)])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not model.exists()

    def test_ro_flags_match_policy_parser(self, small_data, tmp_path):
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(small_data), "--method", "spo+",
                     "--loss", "ro", "--rho", "0.5", "--gamma-frac", "0.125",
                     "--epochs", "1", "--out", str(model)]) == 0
        policy = json.loads(model.read_text())["config"]["policy"]
        entry = {"kind": "ro", "rho": 0.5, "gamma_frac": 0.125}
        assert policy_from_dict(policy) == policy_from_dict(entry, n=7)

    @pytest.mark.parametrize("index", range(4))
    def test_policy_flag_defaults_match_default_sweep(self, small_data, tmp_path, index):
        entry = default_sweep_config()["policies"][index]
        model = tmp_path / "model.json"
        loss = "emp" if entry["kind"] == "empirical" else entry["kind"]
        assert main(["train", "--data", str(small_data), "--method", "spo+", "--loss", loss,
                     "--epochs", "1", "--out", str(model)]) == 0
        policy = json.loads(model.read_text())["config"]["policy"]
        assert policy == policy_to_dict(policy_from_dict(entry, n=7))

    def test_eval_rejects_feature_count_mismatch(self, small_data, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(small_data), "--method", "spo+",
                     "--epochs", "1", "--out", str(model)]) == 0
        other = tmp_path / "m5"
        assert main(["datagen", "--problem", "grid", "--grid", "2x3", "--features", "5",
                     "--deg", "2", "--train", "4", "--val", "3", "--test", "3",
                     "--out", str(other)]) == 0
        capsys.readouterr()
        report = tmp_path / "report.json"
        rc = main(["eval", "--data", str(other), "--model", str(model),
                   "--split", "test", "--report", str(report)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "(7, 3)" in err and "(7, 5)" in err and err.count("\n") == 1
        assert not report.exists()

    def test_eval_rejects_ragged_theta(self, small_data, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"theta": [[1.0, 2.0, 3.0], [1.0]], "bias": None}))
        rc = main(["eval", "--data", str(small_data), "--model", str(model),
                   "--split", "test", "--report", str(tmp_path / "report.json")])
        assert rc == 1
        assert "theta is not a numeric array" in capsys.readouterr().err


class TestSweepCommand:
    def test_tiny_sweep(self, tmp_path):
        cfg = {
            "problems": [{"kind": "grid", "v": 2, "h": 2}],
            "t_values": [6],
            "noise_values": [0.5],
            "methods": ["spo+", "mse"],
            "policies": [{"kind": "empirical"}, {"kind": "topk", "k": 2}],
            "seeds": [0, 1],
            "epochs_by_t": {"6": 2},
            "features": 2,
            "degree": 2,
            "val_size": 3,
            "test_size": 4,
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "results.csv"
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        # header + 3 groups x 2 seeds detail + 3 aggregates
        assert len(lines) == 1 + 6 + 3


class TestBiasDemoCommand:
    def test_output(self, tmp_path, capsys):
        out = tmp_path / "bias.json"
        rc = main(["bias-demo", "--nh", "2", "--nl", "2", "--sigma-h", "1.0",
                   "--sigma-l", "1e-6", "--trials", "2000", "--seed", "0",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert sum(payload["counts"]) == 2000
        assert payload["high_mean_freq"] > payload["low_mean_freq"]

    @pytest.mark.parametrize("flag, value, message", [
        ("--nh", "0", "need at least one decision per group and two total"),
        ("--sigma-h", "-1", "standard deviations must be non-negative"),
        ("--trials", "0", "need at least one trial"),
        ("--sigma-h", "nan", "standard deviations must be finite"),
        ("--sigma-l", "inf", "standard deviations must be finite"),
        ("--seed", "-1", "seed must be non-negative, got -1"),
    ], ids=["nh", "sigma_h", "trials", "sigma_h_nan", "sigma_l_inf", "seed_negative"])
    def test_bad_config_exits_1(self, capsys, flag, value, message):
        flags = {"--nh": "2", "--nl": "2", "--sigma-h": "1.0", "--sigma-l": "0.5",
                 "--trials": "10", flag: value}
        rc = main(["bias-demo", *[part for item in flags.items() for part in item]])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestModuleEntryPoint:
    @staticmethod
    def _run(*args):
        # the child imports the same dflkit as this process
        src = str(Path(dflkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        return subprocess.run([sys.executable, "-m", "dflkit", *args], capture_output=True,
                              text=True, env=env)

    def test_bias_demo(self):
        run = self._run("bias-demo", "--nh", "2", "--nl", "1", "--sigma-h", "1.0",
                        "--sigma-l", "0.1", "--trials", "50")
        assert run.returncode == 0
        assert sum(json.loads(run.stdout)["counts"]) == 50

    def test_error_exits_1(self, tmp_path):
        run = self._run("eval", "--data", str(tmp_path / "nope"), "--model",
                        str(tmp_path / "m.json"), "--split", "test",
                        "--report", str(tmp_path / "r.json"))
        assert run.returncode == 1
        assert run.stderr == f"error: no meta.json under {tmp_path / 'nope' / 'test'}\n"


class TestErrorHandling:
    def test_missing_data_dir(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope"), "--method", "spo+",
                   "--epochs", "1", "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def _train(data, tmp_path, capsys):
        rc = main(["train", "--data", str(data), "--method", "spo+", "--epochs", "1",
                   "--out", str(tmp_path / "m.json")])
        return rc, capsys.readouterr().err

    def test_empty_costs_file(self, small_data, tmp_path, capsys):
        data = shutil.copytree(small_data, tmp_path / "ds")
        (data / "train" / "costs.csv").write_text("")
        rc, err = self._train(data, tmp_path, capsys)
        assert rc == 1
        assert "costs.csv: empty file, no header row" in err

    def test_meta_missing_field(self, small_data, tmp_path, capsys):
        data = shutil.copytree(small_data, tmp_path / "ds")
        meta_path = data / "train" / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["m"]
        meta_path.write_text(json.dumps(meta))
        rc, err = self._train(data, tmp_path, capsys)
        assert rc == 1
        assert "meta.json: missing field 'm'" in err

    def test_val_split_of_another_instance(self, small_data, tmp_path, capsys):
        data = shutil.copytree(small_data, tmp_path / "ds")
        meta_path = data / "val" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["instance"] = "grid:3x2"
        meta_path.write_text(json.dumps(meta))
        rc, err = self._train(data, tmp_path, capsys)
        assert rc == 1
        assert err == ("error: val split instance 'grid:3x2' differs from "
                       "train split instance 'grid:2x3'\n")

    @pytest.mark.parametrize("problem", ["grid", "tsp"])
    def test_negative_seed(self, tmp_path, capsys, problem):
        out = tmp_path / "ds"
        rc = main(["datagen", "--problem", problem, "--seed", "-1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["5", "5x5x5", "ax5"])
    def test_bad_grid_size(self, tmp_path, capsys, grid):
        out = tmp_path / "ds"
        rc = main(["datagen", "--problem", "grid", "--grid", grid, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: bad grid descriptor: 'grid:{grid}'\n"
        assert not out.exists()

    def test_sweep_config_missing_field(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({"t_values": [6]}))
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "sweep config: missing field 'problems'" in capsys.readouterr().err

    def test_sweep_config_checked_before_cells(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({
            "problems": [{"kind": "grid", "v": 2, "h": 2}], "t_values": [6],
            "noise_values": [0.5], "methods": ["mse"], "policies": [], "seeds": [0],
            "epochs_by_t": {"8": 1}}))
        out = tmp_path / "r.csv"
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: sweep config: epochs_by_t has no entry for t=6\n")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["theta", "bias"])
    def test_model_missing_field(self, small_data, tmp_path, capsys, field):
        model = tmp_path / "model.json"
        payload = {"theta": [[0.0] * 3] * 7, "bias": None}
        del payload[field]
        model.write_text(json.dumps(payload))
        rc = main(["eval", "--data", str(small_data), "--model", str(model),
                   "--split", "test", "--report", str(tmp_path / "report.json")])
        assert rc == 1
        assert f"model.json: missing field '{field}'" in capsys.readouterr().err

    def test_bad_flags(self):
        with pytest.raises(SystemExit):
            main(["train", "--method", "nonsense"])


class TestReadmeLayout:
    """The README's "Library layout" table names only what its modules hold."""

    def test_every_named_object_is_an_attribute(self):
        import importlib
        import re

        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = text.split("\n## Library layout\n", 1)[1].strip().split("\n\n", 1)[0]
        rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
        assert len(rows) == 7
        for module_cell, contents in rows:
            module = importlib.import_module(module_cell.strip().strip("`"))
            names = [name for name in re.findall(r"`([^`]+)`", contents)
                     if name.isidentifier()]
            missing = [name for name in names if not hasattr(module, name)]
            assert missing == [], f"{module.__name__} has no {missing}"


class TestReadmeSweepConfig:
    """The README's "Sweep config" section names every field of the one
    declaration of each config object."""

    def test_every_field_and_policy_kind_is_named(self):
        import re
        from dataclasses import fields

        from dflkit.bench import SweepConfig
        from dflkit.targets import POLICY_KINDS

        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("\n## Sweep config\n", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"`([^`]+)`", section))
        missing = [name for name in [f.name for f in fields(SweepConfig)] + list(POLICY_KINDS)
                   if name not in named]
        assert missing == []
