"""End-to-end CLI tests: reproducibility, file layout, error handling."""

import csv
import os
import re
import shutil
import threading

import numpy as np
import pytest

from meshpass import dataset, nn
from meshpass import solver as S
from meshpass import training as T
from meshpass.cli import CONFIG_DEFAULTS, ConfigError, load_config, main
from meshpass.processor import ModelParams

DESK = ["--set", "edge_min_lo=7e-3", "--set", "edge_min_hi=1e-2",
        "--set", "n_steps=6"]
SMALL_MODEL = ["--set", "latent_size=16", "--set", "hidden_size=16",
               "--set", "normalizer_steps=3"]


def use_cores(monkeypatch, cores):
    """``cores`` usable cores and one BLAS thread: ``cores`` workers for
    ``training.run_in_order``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def read_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


class TestConfig:
    def test_defaults_complete(self):
        cfg = load_config()
        assert set(cfg) == set(CONFIG_DEFAULTS)

    def test_file_and_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nseed=9\nviscosity=0.002\n")
        cfg = load_config(str(path), ["seed=11"])
        assert cfg["seed"] == 11
        assert cfg["viscosity"] == 0.002

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("not_a_key=1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["seed=abc"])

    @pytest.mark.parametrize("argv,bad", [
        (["eval", "--solver", "--set", "eval_resolutions=abc"], "eval_resolutions: 'abc'"),
        (["eval", "--solver", "--set", "eval_resolutions=0,1e-2"], "eval_resolutions: '0'"),
        (["bench", "--resolutions", "1e-2,abc"], "--resolutions: 'abc'"),
        (["bench", "--resolutions=-5e-3"], "--resolutions: '-5e-3'"),
    ])
    def test_bad_resolution_list_names_key_and_entry(self, tmp_path, capsys, argv, bad):
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad} is not a positive number\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,key,value", [
        (["gen", "--scenarios", "-1"], "scenarios", -1),
        (["gen", "--set", "n_steps=0"], "n_steps", 0),
        (["eval", "--solver", "--set", "eval_steps=0"], "eval_steps", 0),
        (["eval", "--solver", "--set", "max_rollout=0"], "max_rollout", 0),
        (["eval", "--solver", "--set", "n_resolutions=0"], "n_resolutions", 0),
        (["train", "--dataset", "none", "--set", "latent_size=0"], "latent_size", 0),
        (["bench", "--set", "hidden_size=-3"], "hidden_size", -3),
        # A seed is not a count: it may be 0.
        (["gen", "--seed", "-1"], "seed", -1),
        (["train", "--dataset", "none", "--seed", "-1"], "seed", -1),
        (["eval", "--solver", "--seed", "-1"], "seed", -1),
    ])
    def test_count_below_one_rejected(self, tmp_path, capsys, argv, key, value):
        out = tmp_path / "x"
        least = 0 if key == "seed" else 1
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {key} must be >= {least}, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags,seed", [
        (["--seed", "4", "--set", "seed=5"], 4),
        (["--set", "seed=5"], 5),
        ([], 6),
    ])
    def test_gen_flag_beats_set_beats_file(self, tmp_path, flags, seed):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=6\n")
        out = tmp_path / "ds"
        assert main(["gen", "--out", str(out), "--scenarios", "1", "--config", str(cfg),
                     "--set", "edge_min_lo=1e-2", "--set", "edge_min_hi=1e-2",
                     "--set", "n_steps=2"] + flags) == 0
        assert f"seed={seed}" in (out / "dataset_meta").read_text().splitlines()


class TestGen:
    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["gen", "--scenarios", "2", "--seed", "7"] + DESK
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        ta, tb = read_tree(a), read_tree(b)
        assert set(ta) == set(tb)
        for name in ta:
            assert ta[name] == tb[name], name

    def test_high_accuracy_adds_label_files(self, tmp_path):
        out = str(tmp_path / "ha")
        rc = main(["gen", "--out", out, "--scenarios", "1", "--seed", "3",
                   "--labels", "high-accuracy", "--refine", "2"] + DESK)
        assert rc == 0
        files = os.listdir(os.path.join(out, "scenario_0000"))
        assert "labels_ha.bin" in files

    def test_meta_records_scenario_parameters(self, tmp_path):
        out = str(tmp_path / "meta")
        main(["gen", "--out", out, "--scenarios", "1", "--seed", "5"] + DESK)
        with open(os.path.join(out, "scenario_0000", "meta")) as fh:
            meta = fh.read()
        for key in ("radius=", "center_x=", "center_y=", "inflow_mean=",
                    "edge_min=", "seed=", "viscosity=", "dt=", "n_steps="):
            assert key in meta

    def test_equal_edge_min_bounds_kept_exactly(self, tmp_path):
        out = str(tmp_path / "eq")
        rc = main(["gen", "--out", out, "--scenarios", "1", "--seed", "5",
                   "--set", "edge_min_lo=1e-2", "--set", "edge_min_hi=1e-2",
                   "--set", "n_steps=2"])
        assert rc == 0
        with open(os.path.join(out, "scenario_0000", "meta")) as fh:
            meta = fh.read().splitlines()
        assert "edge_min=0.01" in meta

    @pytest.mark.parametrize("lo,hi", [("1.2e-2", "8e-3"), ("0", "1e-2"), ("-1e-3", "1e-2")])
    def test_bad_edge_min_bounds_rejected(self, tmp_path, capsys, lo, hi):
        rc = main(["gen", "--out", str(tmp_path / "bad"), "--scenarios", "1",
                   "--set", f"edge_min_lo={lo}", "--set", f"edge_min_hi={hi}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "edge_min_lo" in err and "edge_min_hi" in err

    @pytest.mark.parametrize("cores", [1, 2])
    def test_one_progress_line_per_scenario(self, tmp_path, capsys, monkeypatch, cores):
        # At 2 workers the lines come in the order the scenarios finish.
        use_cores(monkeypatch, cores)
        out = str(tmp_path / "gen")
        assert main(["gen", "--out", out, "--scenarios", "3", "--seed", "7"] + DESK) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4 and lines[-1] == f"wrote 3 scenarios to {out}"
        progress = sorted(lines[:3])
        if cores == 1:
            assert progress == lines[:3]
        for index, line in enumerate(progress):
            nodes = dataset.read_scenario_dir(
                os.path.join(out, f"scenario_{index:04d}"))[1].n_nodes
            assert re.fullmatch(rf"scenario {index}: {nodes} nodes, \d+\.\d\d s", line), line

    def test_one_and_two_cores_write_same_bytes(self, tmp_path, monkeypatch):
        # Per scenario: mesh, meta, trajectory (and labels); then dataset_meta.
        files = {"native": 7, "high-accuracy": 9}
        for labels in (["--labels", "native"], ["--labels", "high-accuracy", "--refine", "2"]):
            trees = []
            for cores in (1, 2):
                use_cores(monkeypatch, cores)
                out = str(tmp_path / f"{labels[1]}{cores}")
                assert main(["gen", "--out", out, "--scenarios", "2", "--seed", "7",
                             "--set", "edge_min_lo=9e-3", "--set", "edge_min_hi=1.2e-2",
                             "--set", "n_steps=2"] + labels) == 0
                trees.append(read_tree(out))
            one, two = trees
            assert set(one) == set(two) and len(one) == files[labels[1]]
            for name in one:
                assert one[name] == two[name], name

    @pytest.mark.parametrize("cores", [1, 2])
    def test_failed_scenario_writes_no_dataset(self, tmp_path, capsys, monkeypatch, cores):
        use_cores(monkeypatch, cores)
        seeds = [s.seed for s in dataset.sample_scenarios(3, 7)]
        started = []
        real = dataset.simulate_scenario

        def failing(scenario, **kwargs):
            started.append(scenario.seed)
            if scenario.seed == seeds[1]:
                raise ValueError("scenario 1 failed")
            return real(scenario, **kwargs)

        monkeypatch.setattr(dataset, "simulate_scenario", failing)
        threads = threading.active_count()
        out = tmp_path / "gen"
        assert main(["gen", "--out", str(out), "--scenarios", "3", "--seed", "7"] + DESK) == 1
        assert capsys.readouterr().err == "error: scenario 1 failed\n"
        assert threading.active_count() == threads
        assert os.listdir(out) == []
        if cores == 1:
            assert started == seeds[:2]

    def test_infeasible_sizing_rejected_before_any_work(self, tmp_path, capsys, monkeypatch):
        # Scenario 0's sizing is fine; scenario 1's edge_min exceeds its
        # obstacle's clearance to the walls.
        started = []
        monkeypatch.setattr(dataset, "simulate_scenario", lambda *a, **k: started.append(a))
        scenarios = dataset.sample_scenarios(2, 9)
        clearance = [s.domain().obstacle_clearance() for s in scenarios]
        assert clearance[1] < 0.05 < clearance[0]
        out = tmp_path / "gen"
        rc = main(["gen", "--out", str(out), "--scenarios", "2", "--seed", "9",
                   "--set", "edge_min_lo=0.05", "--set", "edge_min_hi=0.05",
                   "--set", "n_steps=2"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: scenario 1: edge_min 0.05 exceeds obstacle clearance {clearance[1]:g}; "
            "refine the sizing or move the obstacle\n")
        assert not out.exists()
        assert started == []

    def test_workers_key_rejected(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert main(["gen", "--out", str(out), "--scenarios", "1", "--set", "workers=2"]) == 1
        assert capsys.readouterr().err == "error: unknown config key 'workers' in --set\n"
        assert not out.exists()


@pytest.fixture
def mesh_calls(monkeypatch):
    """Records the (edge_min, seed) of every generate_mesh call the dataset
    module makes."""
    calls = []
    real = dataset.generate_mesh

    def counting(domain, edge_min, seed=0):
        calls.append((edge_min, seed))
        return real(domain, edge_min, seed=seed)

    monkeypatch.setattr(dataset, "generate_mesh", counting)
    return calls


class TestMeshGeneratedOnce:
    GEN = ["--seed", "4", "--set", "edge_min_lo=1e-2", "--set", "edge_min_hi=1e-2",
           "--set", "n_steps=2"]

    def test_high_accuracy_gen_one_call(self, tmp_path, mesh_calls):
        # The label mesh is subdivided from the scenario mesh, not generated.
        out = str(tmp_path / "ha")
        assert main(["gen", "--out", out, "--scenarios", "1", "--labels", "high-accuracy",
                     "--refine", "2"] + self.GEN) == 0
        seed = dataset.read_scenario_dir(os.path.join(out, "scenario_0000"))[0].seed
        assert mesh_calls == [(1e-2, seed)]

    def test_native_gen_and_load_one_call_per_scenario(self, tmp_path, mesh_calls):
        out = str(tmp_path / "native")
        assert main(["gen", "--out", out, "--scenarios", "3"] + self.GEN) == 0
        seeds = [dataset.read_scenario_dir(os.path.join(out, f"scenario_{i:04d}"))[0].seed
                 for i in range(3)]
        assert mesh_calls == [(1e-2, s) for s in seeds]
        del mesh_calls[:]
        dataset.load_dataset(out, coarse_edge_min=2e-2)
        assert mesh_calls == [(2e-2, s + 1) for s in seeds]

    @pytest.mark.parametrize("processor,coarse_calls", [
        ("p=3H (U=0,D=0)", 0),
        ("p=1H 1L 1H (U=1,D=1)", 3),  # one per training scenario, one in eval
    ])
    def test_coarse_mesh_only_for_two_level_schedule(self, generated, tmp_path, mesh_calls,
                                                    processor, coarse_calls):
        run = str(tmp_path / "run")
        assert main(["train", "--dataset", generated, "--out", run, "--steps", "1",
                     "--processor", processor] + SMALL_MODEL) == 0
        assert main(["eval", "--out", str(tmp_path / "ev"),
                     "--checkpoint", os.path.join(run, "checkpoint.bin"),
                     "--set", "eval_resolutions=2e-2,1.4e-2", "--set", "eval_steps=2",
                     "--set", "max_rollout=2"]) == 0
        coarse_edge_min = CONFIG_DEFAULTS["coarse_edge_min"][0]
        assert [e for e, _ in mesh_calls].count(coarse_edge_min) == coarse_calls
        assert len(mesh_calls) > coarse_calls  # the test meshes

    @pytest.mark.parametrize("command", [["gen", "--scenarios", "1"], ["eval", "--solver"]])
    @pytest.mark.parametrize("key,raw", [("dt", "inf"), ("dt", "nan"), ("viscosity", "nan"),
                                         ("viscosity", "-inf")])
    def test_non_finite_pde_key_rejected_before_any_mesh(self, tmp_path, capsys, mesh_calls,
                                                        command, key, raw):
        out = tmp_path / "x"
        rc = main(command + ["--out", str(out), "--set", f"{key}={raw}"] + self.GEN)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {key} must be finite, got {float(raw)!r}\n"
        assert mesh_calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command", [["gen", "--scenarios", "1"], ["eval", "--solver"]])
    @pytest.mark.parametrize("raw", ["0", "-0.01"])
    def test_non_positive_dt_rejected_before_any_mesh(self, tmp_path, capsys, mesh_calls,
                                                     command, raw):
        out = tmp_path / "x"
        rc = main(command + ["--out", str(out), "--set", f"dt={raw}"] + self.GEN)
        assert rc == 1
        assert capsys.readouterr().err == f"error: dt must be positive, got {float(raw)!r}\n"
        assert mesh_calls == []
        assert not out.exists()

    def test_refine_below_two_rejected_before_any_mesh(self, tmp_path, capsys, mesh_calls):
        rc = main(["gen", "--out", str(tmp_path / "r1"), "--scenarios", "1",
                   "--labels", "high-accuracy", "--refine", "1"] + self.GEN)
        assert rc == 1
        assert "refine" in capsys.readouterr().err
        assert mesh_calls == []


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("data") / "ds")
    rc = main(["gen", "--out", out, "--scenarios", "2", "--seed", "7"] + DESK)
    assert rc == 0
    return out


class TestTrain:
    def test_processor_flag_and_outputs(self, generated, tmp_path):
        out = str(tmp_path / "run")
        rc = main(["train", "--dataset", generated, "--out", out,
                   "--processor", "p=1H 5L 1H (U=1,D=1)", "--steps", "4",
                   "--seed", "1"] + SMALL_MODEL)
        assert rc == 0
        assert os.path.exists(os.path.join(out, "checkpoint.bin"))
        assert os.path.exists(os.path.join(out, "history.csv"))

    def test_progress_line_about_every_tenth_of_the_run(self, generated, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["train", "--dataset", generated, "--out", out, "--steps", "12",
                     "--processor", "p=2H (U=0,D=0)"] + SMALL_MODEL) == 0
        lines = capsys.readouterr().out.splitlines()
        ckpt = os.path.join(out, "checkpoint.bin")
        assert lines[-1] == f"trained 12 steps; checkpoint at {ckpt}"
        with open(os.path.join(out, "history.csv")) as fh:
            losses = [float(row["loss"]) for row in csv.DictReader(fh)]
        # Every second step of 12, with that step's loss from history.csv.
        assert len(lines) == 7
        for k, line in zip(range(2, 13, 2), lines):
            loss = f"{losses[k - 1]:.4g}"
            assert re.fullmatch(rf"step {k}/12: loss {re.escape(loss)}, \d+\.\d{{3}} s/step",
                                line), line

    def test_missing_dataset_clear_error(self, tmp_path, capsys):
        rc = main(["train", "--dataset", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "run")])
        assert rc != 0
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("learning_rate", "nan"), ("learning_rate", "inf"), ("lr_decay", "-0.1"),
        ("lr_decay", "0"), ("lr_decay", "nan"), ("noise_std", "nan"), ("noise_std", "inf"),
        ("normalizer_steps", "-5"),
    ])
    def test_bad_optimiser_setting_rejected_before_any_work(self, generated, tmp_path,
                                                             capsys, key, value):
        out = tmp_path / "run"
        rc = main(["train", "--dataset", generated, "--out", str(out), "--steps", "2"]
                  + SMALL_MODEL + ["--set", f"{key}={value}"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be")
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["nan", "inf", "0", "-1e-2"])
    def test_bad_coarse_edge_min_names_key(self, generated, tmp_path, capsys, raw):
        out = tmp_path / "run"
        rc = main(["train", "--dataset", generated, "--out", str(out),
                   "--steps", "1", "--set", f"coarse_edge_min={raw}"] + SMALL_MODEL)
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: coarse_edge_min must be positive and finite, got {float(raw)!r}\n"
        assert not out.exists()

    def test_malformed_processor_nonzero_exit(self, generated, tmp_path, capsys):
        rc = main(["train", "--dataset", generated, "--out", str(tmp_path / "r"),
                   "--processor", "p=1H 2L (U=0,D=1)", "--steps", "2"] + SMALL_MODEL)
        assert rc != 0

    @pytest.mark.parametrize("damage", ["short_by_5", "cut_to_50", "nan_frame"])
    def test_bad_trajectory_file_exits_1(self, generated, tmp_path, capsys, damage):
        data = str(tmp_path / "ds")
        shutil.copytree(generated, data)
        traj = os.path.join(data, "scenario_0001", "trajectory.bin")
        with open(traj, "rb") as fh:
            raw = bytearray(fh.read())
        if damage == "short_by_5":
            raw = raw[:-5]
        elif damage == "cut_to_50":
            raw = raw[:50]
        else:
            raw[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        with open(traj, "wb") as fh:
            fh.write(bytes(raw))
        rc = main(["train", "--dataset", data, "--out", str(tmp_path / "run"),
                   "--steps", "2"] + SMALL_MODEL)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and traj in err

    def test_non_finite_forward_exits_1(self, generated, tmp_path, capsys, monkeypatch):
        from meshpass.nn import autodiff as ad

        # Every matmul of the forward pass sees a NaN operand.
        real_matmul = ad.matmul
        monkeypatch.setattr(
            ad, "matmul",
            lambda a, b, bias=None: real_matmul(
                ad.Tensor(np.full_like(ad.value(a), np.nan)), b, bias),
        )
        rc = main(["train", "--dataset", generated, "--out", str(tmp_path / "run"),
                   "--steps", "2"] + SMALL_MODEL)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "operation 'matmul'" in err

    def test_eval_prints_one_line_per_resolution(self, tmp_path, capsys, monkeypatch):
        # At 1 and 2 workers: one progress line per resolution as its mesh
        # finishes, and the same CSV bytes but the wall-time column.
        outputs = []
        for cores in (1, 2):
            use_cores(monkeypatch, cores)
            out = tmp_path / f"ev{cores}"
            assert main(["eval", "--out", str(out), "--solver", "--seed", "3",
                         "--set", "eval_resolutions=2e-2,1.4e-2", "--set", "eval_steps=3",
                         "--set", "max_rollout=3"]) == 0
            lines = capsys.readouterr().out.splitlines()
            progress = sorted(line for line in lines if line.startswith("resolution "))
            assert len(progress) == 2 and len(lines) == 3
            assert [line.split(":")[0] for line in progress] == [
                "resolution 0.014", "resolution 0.02"]
            assert all(re.fullmatch(r"resolution [0-9.e-]+: \d+ nodes, next-step mse \S+, "
                                    r"[0-9.]+ s", line) for line in progress)
            with open(out / "eval.csv") as fh:
                rows = list(csv.DictReader(fh))
            for row in rows:
                row["sec_per_step"] = ""
            outputs.append((rows, (out / "rollout.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_non_finite_forward_in_worker_exits_1(self, generated, tmp_path, capsys,
                                                   monkeypatch):
        from meshpass.nn import autodiff as ad

        real_matmul = ad.matmul
        monkeypatch.setattr(
            ad, "matmul",
            lambda a, b, bias=None: real_matmul(
                ad.Tensor(np.full_like(ad.value(a), np.nan)), b, bias),
        )
        threads = threading.active_count()
        errors = []
        for batch_size in (1, 2):
            out = tmp_path / f"run{batch_size}"
            rc = main(["train", "--dataset", generated, "--out", str(out), "--steps", "2",
                       "--set", f"batch_size={batch_size}"] + SMALL_MODEL)
            assert rc == 1
            assert not (out / "checkpoint.bin").exists()
            assert threading.active_count() == threads
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("error: ") and "operation 'matmul'" in errors[0]
        assert errors[1] == errors[0]

    @pytest.mark.parametrize("damage,named", [
        ("no_radius", "has no 'radius' entry"),
        ("garbage", "is not key=value: 'garbage'"),
        ("bad_seed", "bad value for 'seed'"),
        # A NaN radius used to drop the obstacle silently.
        ("radius=nan", "obstacle_radius must be finite, got nan"),
        ("radius=inf", "obstacle_radius must be finite, got inf"),
        ("center_x=nan", "obstacle_center must be finite, got (nan, "),
    ])
    def test_bad_scenario_meta_exits_1(self, generated, tmp_path, capsys, damage, named):
        data = str(tmp_path / "ds")
        shutil.copytree(generated, data)
        meta = os.path.join(data, "scenario_0001", "meta")
        with open(meta) as fh:
            lines = fh.read().splitlines()
        if damage == "no_radius":
            lines = [line for line in lines if not line.startswith("radius=")]
        elif damage == "garbage":
            lines.append("garbage")
        else:
            entry = "seed=abc" if damage == "bad_seed" else damage
            key = entry.split("=")[0] + "="
            lines = [entry if line.startswith(key) else line for line in lines]
        with open(meta, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        out = tmp_path / "run"
        rc = main(["train", "--dataset", data, "--out", str(out), "--steps", "2"] + SMALL_MODEL)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and meta in err and named in err
        assert not out.exists()

    def test_meta_that_disagrees_with_mesh_exits_1(self, tmp_path, capsys):
        # A meta radius edited from 0.0251 to 0.0151 once trained on a fine
        # mesh around a 0.0251 disk and a coarse mesh around a 0.0151 disk.
        data = str(tmp_path / "ds")
        assert main(["gen", "--out", data, "--scenarios", "1", "--seed", "3"] + DESK) == 0
        scenario = os.path.join(data, "scenario_0000")
        meta = os.path.join(scenario, "meta")
        with open(meta) as fh:
            text = fh.read()
        assert text.startswith("radius=0.0251")
        with open(meta, "w") as fh:
            fh.write(text.replace("radius=0.0251", "radius=0.0151", 1))
        out = tmp_path / "run"
        rc = main(["train", "--dataset", data, "--out", str(out), "--steps", "2"] + SMALL_MODEL)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {meta} disagrees with {scenario}/mesh.msh: ")
        assert "off its radius 0.0151" in err
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["stray", "missing"])
    def test_labels_file_that_disagrees_with_provenance_exits_1(self, generated, tmp_path,
                                                                capsys, damage):
        # A stray labels_ha.bin once made train use it as labels of a native
        # dataset; a high_accuracy meta without one fell back to native labels.
        data = str(tmp_path / "ds")
        shutil.copytree(generated, data)
        scenario = os.path.join(data, "scenario_0001")
        meta = os.path.join(scenario, "meta")
        if damage == "stray":
            shutil.copy(os.path.join(scenario, "trajectory.bin"),
                        os.path.join(scenario, "labels_ha.bin"))
        else:
            with open(meta) as fh:
                text = fh.read()
            with open(meta, "w") as fh:
                fh.write(text.replace("provenance=native", "provenance=high_accuracy"))
        out = tmp_path / "run"
        rc = main(["train", "--dataset", data, "--out", str(out), "--steps", "2"] + SMALL_MODEL)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {meta} disagrees with {scenario}/labels_ha.bin: ")
        assert not out.exists()

    @pytest.mark.parametrize("flags,steps", [
        (["--steps", "2", "--set", "train_steps=3"], 2),
        (["--set", "train_steps=3"], 3),
        ([], 4),
    ])
    def test_steps_flag_beats_set_beats_file(self, generated, tmp_path, flags, steps):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train_steps=4\n")
        out = tmp_path / "run"
        assert main(["train", "--dataset", generated, "--out", str(out),
                     "--processor", "p=1H (U=0,D=0)", "--config", str(cfg)]
                    + SMALL_MODEL + flags) == 0
        history = (out / "history.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in history[1:]] == [str(s) for s in range(steps)]

    def test_resume_reproduces_run(self, generated, tmp_path):
        one = str(tmp_path / "one")
        args = ["--dataset", generated, "--processor", "p=1H 1L 1H (U=1,D=1)",
                "--seed", "2"] + SMALL_MODEL
        rc = main(["train", "--out", one, "--steps", "6"] + args)
        assert rc == 0
        # split run: 3 steps, then resume to 6 with the same total budget
        first = str(tmp_path / "first")
        rc = main(["train", "--out", first, "--steps", "3"] + args)
        assert rc == 0
        # Resuming continues the (seed, step)-derived stream, but the split
        # run used steps=3 as its LR horizon, so reproduce with a fresh
        # 6-step run resumed at the library level instead.
        from meshpass import dataset as D, nn, training as T
        from meshpass.processor import ModelParams

        samples = D.load_dataset(generated)
        cfg = T.TrainConfig(steps=6, learning_rate=1e-4, seed=2,
                            schedule="p=1H 1L 1H (U=1,D=1)", normalizer_steps=3,
                            latent_size=16, hidden_size=16)
        split = ModelParams(cfg.schedule, 1, 16, 16, seed=2)
        opt = nn.Adam(split.parameters(), lr=cfg.learning_rate)
        T.train(split, samples, cfg, opt, stop_step=3)
        ck = str(tmp_path / "half.bin")
        T.save_checkpoint(ck, split, opt, 3)
        resumed, opt2, step = T.load_checkpoint(ck)
        T.train(resumed, samples, cfg, opt2, start_step=step)
        whole = ModelParams(cfg.schedule, 1, 16, 16, seed=2)
        T.train(whole, samples, cfg)
        for a, b in zip(whole.parameters(), resumed.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_resume_at_batch_2_reproduces_checkpoint_bytes(self, generated, tmp_path):
        # A constant learning rate, so the 3-step run's horizon does not
        # change the steps it takes.
        args = ["--dataset", generated, "--processor", "p=1H 1L 1H (U=1,D=1)",
                "--seed", "2", "--set", "batch_size=2", "--set", "lr_decay=1"] + SMALL_MODEL
        one, first, second = (str(tmp_path / name) for name in ("one", "first", "second"))
        assert main(["train", "--out", one, "--steps", "6"] + args) == 0
        assert main(["train", "--out", first, "--steps", "3"] + args) == 0
        assert main(["train", "--out", second, "--steps", "6", "--resume",
                     os.path.join(first, "checkpoint.bin")] + args) == 0
        whole = (tmp_path / "one" / "checkpoint.bin").read_bytes()
        assert (tmp_path / "second" / "checkpoint.bin").read_bytes() == whole

    @pytest.mark.parametrize("key, flags, held, wanted", [
        ("processor", ["--processor", "p=3H (U=0,D=0)"],
         "'p=1H 1L 1H (U=1,D=1)'", "'p=3H (U=0,D=0)'"),
        ("latent_size", ["--set", "latent_size=8"], "16", "8"),
        ("hidden_size", ["--set", "hidden_size=8"], "16", "8"),
    ])
    def test_resume_rejects_other_model(self, generated, tmp_path, capsys, monkeypatch,
                                        key, flags, held, wanted):
        first = str(tmp_path / "first")
        args = ["--dataset", generated, "--steps", "3"] + SMALL_MODEL
        assert main(["train", "--out", first, "--processor", "p=1H 1L 1H (U=1,D=1)"]
                    + args) == 0
        capsys.readouterr()
        ckpt = os.path.join(first, "checkpoint.bin")

        def no_training(*a, **k):
            raise AssertionError("training started on a mismatched checkpoint")

        monkeypatch.setattr(T, "train", no_training)
        second = tmp_path / "second"
        rc = main(["train", "--out", str(second), "--resume", ckpt,
                   "--processor", "p=1H 1L 1H (U=1,D=1)"] + args + flags)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ckpt in err
        assert f"{key}={held}" in err and f"{key}={wanted}" in err
        assert not second.exists()


class TestEval:
    def test_model_eval_writes_step_time_and_next_step_mse(self, generated, tmp_path):
        run = str(tmp_path / "run")
        assert main(["train", "--dataset", generated, "--out", run, "--steps", "2",
                     "--processor", "p=1H 1L 1H (U=1,D=1)"] + SMALL_MODEL) == 0
        out = str(tmp_path / "ev")
        ckpt = os.path.join(run, "checkpoint.bin")
        rc = main(["eval", "--out", out, "--checkpoint", ckpt, "--seed", "3",
                   "--set", "eval_resolutions=2e-2,1.4e-2", "--set", "eval_steps=3",
                   "--set", "max_rollout=3"])
        assert rc == 0
        with open(os.path.join(out, "eval.csv")) as fh:
            rows = list(csv.DictReader(fh))
        secs = [float(r["sec_per_step"]) for r in rows]
        assert all(np.isfinite(s) and s > 0 for s in secs)
        # The library-level evaluation of the same checkpoint and test set
        # gives the next-step errors the CSV holds.
        params = T.load_checkpoint(ckpt)[0]
        meshes, ref_traj, pde_cfg = dataset.fixed_obstacle_testset(
            resolutions=[2e-2, 1.4e-2], seed=3, n_steps=3
        )
        coarse = dataset.coarse_mesh(pde_cfg.domain, 3, CONFIG_DEFAULTS["coarse_edge_min"][0])
        report = T.evaluate(lambda m: T.ModelStepper(params, coarse).bind(m), meshes,
                            ref_traj, max_rollout=3)
        assert [float(r["next_step_mse"]) for r in rows] == [
            row.next_step_mse for row in report.rows
        ]

    def test_solver_eval_matches_one_step_errors(self, tmp_path):
        out = str(tmp_path / "ev")
        resolutions = [2e-2, 1.4e-2, 1e-2]
        rc = main(["eval", "--out", out, "--solver", "--seed", "3",
                   "--set", "eval_resolutions=2e-2,1.4e-2,1e-2",
                   "--set", "eval_steps=4"])
        assert rc == 0
        import csv

        from meshpass import dataset as D

        with open(os.path.join(out, "eval.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["edge_min"]) for r in rows] == resolutions
        # library-level replay of the same protocol must agree
        meshes, ref_traj, pde_cfg = D.fixed_obstacle_testset(
            resolutions=resolutions, seed=3, n_steps=4
        )
        errs = [
            S.one_step_errors(S.FrameStepper(m, pde_cfg), ref_traj.interpolate_to(m)).mean()
            for m in meshes
        ]
        assert errs[-1] == 0.0  # finest is the reference itself
        assert [float(r["next_step_mse"]) for r in rows] == errs
        # The solver's eval.csv is a valid curve baseline; its next-step
        # errors carry into curve.csv.
        curve = str(tmp_path / "curve")
        evcsv = os.path.join(out, "eval.csv")
        assert main(["analyze", "--mode", "curve", "--out", curve,
                     "--eval", evcsv, "--baseline", evcsv]) == 0
        with open(os.path.join(curve, "curve.csv")) as fh:
            base = [r for r in csv.DictReader(fh) if r["source"] == "solver_baseline"]
        assert {float(r["edge_min"]): float(r["next_step_mse"]) for r in base} == {
            float(r["edge_min"]): float(r["next_step_mse"]) for r in rows
        }

    def test_non_finite_forward_in_worker_exits_1(self, generated, tmp_path, capsys,
                                                   monkeypatch):
        # A checkpoint whose fine node encoder holds a NaN: binding a stepper
        # (edge and coarse encoders) succeeds, every step's forward fails in
        # the worker that evaluates its mesh.
        run = str(tmp_path / "run")
        assert main(["train", "--dataset", generated, "--out", run, "--steps", "1",
                     "--processor", "p=1H 1L 1H (U=1,D=1)"] + SMALL_MODEL) == 0
        params, optimizer, step = T.load_checkpoint(os.path.join(run, "checkpoint.bin"))
        params.named_parameters()["enc_fine_node/w0"].data[0, 0] = np.nan
        ckpt = str(tmp_path / "nan.bin")
        T.save_checkpoint(ckpt, params, optimizer, step)
        threads = threading.active_count()
        errors = []
        for cores in (1, 2):
            use_cores(monkeypatch, cores)
            out = tmp_path / f"ev{cores}"
            rc = main(["eval", "--out", str(out), "--checkpoint", ckpt, "--seed", "3",
                       "--set", "eval_resolutions=2e-2,1.4e-2", "--set", "eval_steps=3",
                       "--set", "max_rollout=3"])
            assert rc == 1
            assert not (out / "eval.csv").exists()
            assert threading.active_count() == threads
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("error: ") and "operation 'matmul'" in errors[0]
        assert errors[1] == errors[0]

    def test_coarse_mesh_failure_creates_no_out(self, generated, tmp_path, capsys):
        # The coarse level is built before --out: a coarse edge size the
        # test domain cannot hold fails with no directory left behind.
        run = str(tmp_path / "run")
        assert main(["train", "--dataset", generated, "--out", run, "--steps", "1",
                     "--processor", "p=1H 1L 1H (U=1,D=1)"] + SMALL_MODEL) == 0
        out = tmp_path / "evbad"
        rc = main(["eval", "--out", str(out), "--checkpoint", os.path.join(run, "checkpoint.bin"),
                   "--set", "eval_resolutions=1.2e-2", "--set", "eval_steps=2",
                   "--set", "coarse_edge_min=0.3"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_eval_requires_model_or_solver(self, tmp_path, capsys):
        rc = main(["eval", "--out", str(tmp_path / "x")])
        assert rc != 0

    @pytest.mark.parametrize("block,value", [
        ("meta/config", None), ("param/decoder/w2", None), ("param/decoder/b1", np.zeros(1)),
        ("opt/v3", None), ("opt/m0", np.zeros((2, 2))),
        ("meta/config", [1, 8, 8, np.inf]), ("meta/schedule", [1e30]),
        ("meta/config", [1, -8, 8, 0]), ("meta/coarse_kind", "grid"),
    ])
    def test_checkpoint_block_missing_or_misshapen_exits_1(self, generated, tmp_path, capsys,
                                                           block, value):
        # A well-formed checkpoint file that lacks a block (value None), or
        # holds one of the wrong shape or an invalid meta value (a text as
        # its character codes), names the file and the block for both
        # commands that read a checkpoint, before either creates --out.
        params = ModelParams("p=1H 1L 1H (U=1,D=1)", 1, 16, 16)
        good = str(tmp_path / "good.bin")
        T.save_checkpoint(good, params, nn.Adam(params.parameters()), 1)
        blocks = nn.load_blocks(good)
        if value is None:
            del blocks[block]
        elif isinstance(value, str):
            blocks[block] = np.array([ord(c) for c in value], dtype=np.float64)
        else:
            blocks[block] = np.asarray(value, dtype=np.float64)
        ckpt = str(tmp_path / "bad.bin")
        nn.save_blocks(ckpt, blocks)
        for out, argv in ((tmp_path / "ev", ["eval", "--checkpoint", ckpt]),
                          (tmp_path / "run", ["train", "--dataset", generated,
                                              "--resume", ckpt, "--steps", "2"])):
            assert main(argv + ["--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: checkpoint {ckpt}") and repr(block) in err
            assert not out.exists()

    @pytest.mark.parametrize("content", [b"NOTACKPT" + b"\0" * 16, b"MPCKPT01\x05\0"])
    def test_corrupt_checkpoint_fails_before_test_set(self, tmp_path, capsys, monkeypatch,
                                                       content):
        def no_testset(*args, **kwargs):
            raise AssertionError("test set built before the checkpoint was read")

        monkeypatch.setattr(dataset, "fixed_obstacle_testset", no_testset)
        ckpt = tmp_path / "bad.bin"
        ckpt.write_bytes(content)
        rc = main(["eval", "--out", str(tmp_path / "x"), "--checkpoint", str(ckpt)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ckpt) in err


class TestAnalyze:
    def test_identical_trajectories_zero_spectrum(self, generated, tmp_path):
        out = str(tmp_path / "an")
        s0 = os.path.join(generated, "scenario_0000")
        rc = main(["analyze", "--mode", "spectrum", "--out", out,
                   "--mesh", os.path.join(s0, "mesh.msh"),
                   "--traj", os.path.join(s0, "trajectory.bin"),
                   "--ref", os.path.join(s0, "trajectory.bin")])
        assert rc == 0
        with open(os.path.join(out, "spectrum.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        powers = [float(r.split(",")[2]) for r in rows]
        assert all(p == 0.0 for p in powers)

    def test_curve_merge(self, tmp_path):
        ev = tmp_path / "eval.csv"
        ev.write_text(
            "edge_min,model,mps,schedule,mse1,mse10,mse50,sec_per_step,next_step_mse\n"
            '0.05,model,9,"p=9H (U=0,D=0)",0.5,0.6,0.7,0.1,0.25\n'
        )
        base = tmp_path / "base.csv"
        base.write_text(
            "edge_min,model,mps,schedule,mse1,mse10,mse50,sec_per_step,next_step_mse\n"
            "0.05,solver,0,,0.9,1.0,1.1,0.01,0.3\n"
            "0.1,solver,0,,2.0,2.1,2.2,0.01,0.8\n"
        )
        out = str(tmp_path / "curve")
        rc = main(["analyze", "--mode", "curve", "--out", out,
                   "--eval", str(ev), "--baseline", str(base)])
        assert rc == 0
        with open(os.path.join(out, "curve.csv")) as fh:
            rows = list(csv.DictReader(fh))
        model = [r for r in rows if r["source"] == "model"]
        assert [float(r["next_step_mse"]) for r in model] == [0.25]
        solver = [r for r in rows if r["source"] == "solver_baseline"]
        assert [(float(r["edge_min"]), float(r["mse1"]), float(r["next_step_mse"]))
                for r in solver] == [(0.05, 0.9, 0.3), (0.1, 2.0, 0.8)]

    def test_curve_eval_without_next_step_column(self, tmp_path, capsys):
        ev = tmp_path / "eval.csv"
        ev.write_text(
            "edge_min,model,mps,schedule,mse1,mse10,mse50,sec_per_step\n"
            '0.05,model,9,"p=9H (U=0,D=0)",0.5,0.6,0.7,0.1\n'
        )
        base = tmp_path / "base.csv"
        base.write_text("edge_min,mse1\n0.05,0.9\n")
        rc = main(["analyze", "--mode", "curve", "--out", str(tmp_path / "curve"),
                   "--eval", str(ev), "--baseline", str(base)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ev) in err and "'next_step_mse'" in err
        assert not (tmp_path / "curve").exists()

    def test_curve_baseline_without_next_step_column(self, tmp_path, capsys):
        ev = tmp_path / "eval.csv"
        ev.write_text(
            "edge_min,model,mps,schedule,mse1,mse10,mse50,sec_per_step,next_step_mse\n"
            '0.05,model,9,"p=9H (U=0,D=0)",0.5,0.6,0.7,0.1,0.25\n'
        )
        base = tmp_path / "base.csv"
        base.write_text(
            "edge_min,model,mps,schedule,mse1,mse10,mse50,sec_per_step\n"
            "0.05,solver,0,,0.9,1.0,1.1,0.01\n"
        )
        rc = main(["analyze", "--mode", "curve", "--out", str(tmp_path / "curve"),
                   "--eval", str(ev), "--baseline", str(base)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {base} has no 'next_step_mse' column\n"
        assert not (tmp_path / "curve").exists()

    @pytest.mark.parametrize("row,named", [
        ('0.05,model,9,"p=9H (U=0,D=0)",0.5', "line 2: no 'mse10' value"),
        ('0.05,model,9,"p=9H (U=0,D=0)",abc,0.6,0.7,0.1,0.25', "line 2: bad 'mse1' value 'abc'"),
    ])
    def test_curve_malformed_row_named(self, tmp_path, capsys, row, named):
        ev = tmp_path / "eval.csv"
        ev.write_text(
            "edge_min,model,mps,schedule,mse1,mse10,mse50,sec_per_step,next_step_mse\n"
            + row + "\n"
        )
        rc = main(["analyze", "--mode", "curve", "--out", str(tmp_path / "curve"),
                   "--eval", str(ev), "--baseline", str(ev)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {ev} {named}\n"
        assert not (tmp_path / "curve").exists()

    @pytest.mark.parametrize("mode,flags", [
        ("spectrum", ("mesh", "traj", "ref")),
        ("curve", ("eval", "baseline")),
    ])
    def test_unreadable_input_creates_no_out(self, tmp_path, capsys, mode, flags):
        out = tmp_path / "an"
        argv = ["analyze", "--mode", mode, "--out", str(out)]
        for flag in flags:
            argv += [f"--{flag}", str(tmp_path / f"nope.{flag}")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope." in err
        assert not out.exists()

    @pytest.mark.parametrize("frame", ["-1", "-100"])
    def test_negative_frame_rejected(self, generated, tmp_path, capsys, frame):
        out = tmp_path / "an"
        s0 = os.path.join(generated, "scenario_0000")
        rc = main(["analyze", "--mode", "spectrum", "--out", str(out), "--frame", frame,
                   "--mesh", os.path.join(s0, "mesh.msh"),
                   "--traj", os.path.join(s0, "trajectory.bin"),
                   "--ref", os.path.join(s0, "trajectory.bin")])
        assert rc == 1
        assert capsys.readouterr().err == "error: --frame must be >= 0\n"
        assert not out.exists()

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["analyze", "--mode", "bogus", "--out", str(tmp_path)])

    @pytest.mark.parametrize("mode,given,missing", [
        ("spectrum", ("traj", "ref"), "mesh"),
        ("spectrum", ("mesh", "ref"), "traj"),
        ("spectrum", ("mesh", "traj"), "ref"),
        ("curve", ("baseline",), "eval"),
        ("curve", ("eval",), "baseline"),
    ])
    def test_missing_input_flag_named(self, tmp_path, capsys, mode, given, missing):
        out = tmp_path / "an"
        argv = ["analyze", "--mode", mode, "--out", str(out)]
        for flag in given:
            argv += [f"--{flag}", str(tmp_path / flag)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: --mode {mode} needs --{missing}\n"
        assert not out.exists()


class TestBench:
    def test_bench_writes_timing(self, tmp_path):
        out = str(tmp_path / "bench")
        rc = main(["bench", "--out", out, "--processor", "p=1H 1L 1H (U=1,D=1)",
                   "--resolutions", "1.2e-2,9e-3",
                   "--set", "latent_size=16", "--set", "hidden_size=16"])
        assert rc == 0
        with open(os.path.join(out, "timing.csv")) as fh:
            text = fh.read()
        assert "edge_min" in text.splitlines()[0]
        assert len(text.splitlines()) == 3

    def test_bad_processor_creates_no_out(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["bench", "--out", str(out), "--processor", "p=bad"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_single_level_schedule_builds_no_coarse_mesh(self, tmp_path, monkeypatch):
        # A coarse_edge_min the test domain cannot mesh is never read.
        calls = []
        real = dataset.coarse_mesh
        monkeypatch.setattr(dataset, "coarse_mesh", lambda *a: calls.append(a) or real(*a))
        out = str(tmp_path / "bench")
        rc = main(["bench", "--out", out, "--processor", "p=2H (U=0,D=0)",
                   "--resolutions", "1.2e-2", "--set", "coarse_edge_min=0.3"]
                  + SMALL_MODEL)
        assert rc == 0
        assert calls == []
        with open(os.path.join(out, "timing.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert "step" in header and "coarse_nodes" not in header

    def test_failed_fine_mesh_creates_no_out(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["bench", "--out", str(out), "--resolutions", "0.2"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
