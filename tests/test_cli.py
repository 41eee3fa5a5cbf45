import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pinnctl
from pinnctl import cli
from pinnctl.cli import main
from pinnctl.fileio import read_pulse_csv
from pinnctl.network import init_params, save_params


@pytest.fixture
def defm_params(tmp_path):
    path = tmp_path / "defm_params.json"
    save_params(init_params((1, 8, 4), 2 * np.pi * 1000, 0.02, seed=4), path)
    return str(path)


@pytest.fixture
def tcp_params(tmp_path):
    path = tmp_path / "tcp_params.json"
    save_params(init_params((1, 8, 2), 2 * np.pi * 200, 0.05, seed=4), path)
    return str(path)


class TestSample:
    def test_csv(self, defm_params, tmp_path):
        out = tmp_path / "pulse.csv"
        assert main(["sample", defm_params, "--segments", "8", "--out", str(out)]) == 0
        table = read_pulse_csv(out)
        assert table.n_segments == 8
        assert table.duration == pytest.approx(0.02)

    def test_shaped(self, defm_params, tmp_path):
        out = tmp_path / "pulse.shp"
        rc = main(["sample", defm_params, "--segments", "4", "--format", "shaped", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 5

    @pytest.mark.parametrize("group", ["weights", "biases"])
    def test_non_finite_parameter_is_one_line_error(self, tmp_path, capsys, group):
        params = tmp_path / "params.json"
        save_params(init_params((1, 8, 4), 2 * np.pi * 1000, 0.02, seed=4), params)
        doc = json.loads(params.read_text())
        doc[group][0][0] = float("nan")
        params.write_text(json.dumps(doc))
        out = tmp_path / "pulse.csv"
        assert main(["sample", str(params), "--segments", "8", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: malformed parameter document: non-finite weight or bias\n"
        assert not out.exists()

    def test_missing_file_is_error(self, tmp_path):
        rc = main(["sample", str(tmp_path / "nope.json"), "--segments", "4",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestSweep:
    def test_discretization(self, defm_params, tmp_path):
        out = tmp_path / "disc.csv"
        rc = main(["sweep", "discretization", "--params", defm_params,
                   "--segments", "4..64", "--log2", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert [int(float(r[0])) for r in rows[1:]] == [4, 8, 16, 32, 64]

    def test_noise_with_override(self, tcp_params, tmp_path):
        out = tmp_path / "noise.csv"
        rc = main(["sweep", "noise", "--params", tcp_params, "--system", "tcp",
                   "--target", "lls", "--gammas", "0.0,0.05", "--noise", "local",
                   "--params-for-gamma", f"0.05={tcp_params}", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "gamma"
        assert len(rows) == 3

    def test_amperr(self, defm_params, tmp_path):
        out = tmp_path / "amperr.csv"
        rc = main(["sweep", "amperr", "--params", defm_params,
                   "--deviations=-0.1,0.0,0.1", "--out", str(out)])
        assert rc == 0

    def test_channel_mismatch_is_config_error(self, tcp_params, tmp_path, capsys):
        # tcp params drive one channel pair; defm expects two
        rc = main(["sweep", "discretization", "--params", tcp_params,
                   "--segments", "4,8", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "output width" in capsys.readouterr().err

    @pytest.mark.parametrize("args, named", [
        pytest.param(["discretization", "--segments=0..8", "--log2"], "segment range", id="0..8"),
        pytest.param(["discretization", "--segments=-4..8", "--log2"], "segment range", id="-4..8"),
        pytest.param(["discretization", "--segments=16..8", "--log2"], "segment range", id="16..8"),
        pytest.param(["noise", "--gammas=-0.05"], "gamma", id="noise-gamma-negative"),
        pytest.param(["noise", "--gammas=nan"], "gamma", id="noise-gamma-nan"),
        pytest.param(["noise", "--gammas=0.02", "--params-for-gamma", "0.04=PARAMS"], "gamma",
                     id="override-not-swept"),
        pytest.param(["noise", "--gammas=inf"], "finite", id="noise-gamma-inf"),
        pytest.param(["noise", "--gammas=0.02", "--params-for-gamma", "0.02"], "GAMMA=PATH",
                     id="override-without-equals"),
        pytest.param(["noise", "--gammas=0.02", "--params-for-gamma", "high=PARAMS"], "GAMMA=PATH",
                     id="override-non-numeric"),
        pytest.param(["amperr", "--gamma=-0.05"], "gamma", id="amperr-gamma-negative"),
        pytest.param(["amperr", "--gamma=inf"], "finite", id="amperr-gamma-inf"),
        pytest.param(["amperr", "--deviations=nan"], "deviations", id="amperr-deviation-nan"),
        pytest.param(["noise", "--gammas=0.0,abc"], "--gammas", id="noise-gamma-not-a-number"),
        pytest.param(["amperr", "--deviations=0.1,abc"], "--deviations",
                     id="amperr-deviation-not-a-number"),
        pytest.param(["discretization", "--segments=1,x"], "--segments", id="segments-list-x"),
        pytest.param(["discretization", "--segments=1..x"], "--segments", id="segments-range-x"),
    ])
    def test_bad_input_is_one_line_error(self, tcp_params, tmp_path, capsys, args, named):
        out = tmp_path / "x.csv"
        args = [a.replace("PARAMS", tcp_params) for a in args]
        rc = main(["sweep", *args, "--params", tcp_params, "--system", "tcp", "--target", "lls",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and named in err
        assert not out.exists()

    def test_lindblad_step_underflow_is_one_line_error(self, tcp_params, tmp_path, capsys):
        rc = main(["sweep", "noise", "--params", tcp_params, "--system", "tcp",
                   "--target", "lls", "--gammas", "1e12", "--noise", "local",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "underflow" in err and err.count("\n") == 1


class TestFft:
    def test_spectrum_and_sidecar(self, defm_params, tmp_path):
        pulse = tmp_path / "pulse.csv"
        main(["sample", defm_params, "--segments", "64", "--out", str(pulse)])
        out = tmp_path / "spec.csv"
        assert main(["fft", str(pulse), "--out", str(out)]) == 0
        assert out.exists()
        assert (tmp_path / "spec.csv.meta.json").exists()

    def test_empty_pulse_csv_is_one_line_error(self, tmp_path, capsys):
        pulse, out = tmp_path / "empty.csv", tmp_path / "spec.csv"
        pulse.write_text("")
        assert main(["fft", str(pulse), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: not a pulse CSV") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("body, line, fields", [
        ("0.5,1.0,2.0\n\n1.5,3.0,4.0\n", 3, 0),
        ("0.5,1.0,2.0\n1.5,3.0\n", 3, 2),
    ], ids=["blank-line", "short-row"])
    def test_malformed_row_is_one_line_error(self, tmp_path, capsys, body, line, fields):
        pulse, out = tmp_path / "pulse.csv", tmp_path / "spec.csv"
        pulse.write_text("t_s,u1x_rad_s,u1y_rad_s\n" + body)
        assert main(["fft", str(pulse), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: pulse CSV line {line} has {fields} fields, expected 3\n"
        assert not out.exists()

    @pytest.mark.parametrize("times, line", [
        ((0.0005, 0.01, 0.03), 3),
        ((0.0, 0.001, 0.002), 2),
        ((-0.0005, -0.0015, -0.0025), 2),
        ((0.0005, 0.0015, 0.0015), 4),
        ((0.0005, 0.0015, float("nan")), 4),
    ], ids=["uneven", "starts-at-zero", "negative", "repeated", "nan"])
    def test_time_off_the_midpoint_grid_is_one_line_error(self, tmp_path, capsys, times, line):
        pulse, out = tmp_path / "pulse.csv", tmp_path / "spec.csv"
        pulse.write_text("t_s,u1x_rad_s,u1y_rad_s\n"
                         + "".join(f"{t!r},1.0,2.0\n" for t in times))
        assert main(["fft", str(pulse), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: pulse CSV line {line}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("row", ["x,1.0,2.0", "0.0005,1.0,two"], ids=["time", "amplitude"])
    def test_non_numeric_field_is_one_line_error(self, tmp_path, capsys, row):
        pulse, out = tmp_path / "pulse.csv", tmp_path / "spec.csv"
        pulse.write_text(f"t_s,u1x_rad_s,u1y_rad_s\n{row}\n")
        assert main(["fft", str(pulse), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pulse CSV line 2: could not convert") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_amplitude_is_one_line_error(self, tmp_path, capsys, value):
        pulse, out = tmp_path / "pulse.csv", tmp_path / "spec.csv"
        pulse.write_text(f"t_s,u1x_rad_s,u1y_rad_s\n0.0005,1.0,2.0\n0.0015,{value},2.0\n")
        assert main(["fft", str(pulse), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: pulse CSV line 3: non-finite amplitude")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_hand_written_midpoints_are_read(self, tmp_path, capsys):
        # 1 ms segments written as short decimals, one ms-long cosine period
        pulse, out = tmp_path / "pulse.csv", tmp_path / "spec.csv"
        pulse.write_text("t_s,u1x_rad_s,u1y_rad_s\n0.0005,1,0\n0.0015,0,1\n"
                         "0.0025,-1,0\n0.0035,0,-1\n")
        assert main(["fft", str(pulse), "--out", str(out)]) == 0
        assert capsys.readouterr().out == "99% energy bandwidth per channel: 500.0 Hz\n"


class TestTrajectory:
    def test_singlet_triplet(self, tcp_params, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["trajectory", "--params", tcp_params, "--system", "tcp",
                   "--samples", "16", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t_s", "T_plus", "T_zero", "S_zero", "T_minus"]
        assert len(rows) == 17

    @pytest.mark.parametrize("args, named", [
        (["--gamma=-0.05"], "gamma"),
        (["--gamma=nan"], "gamma"),
        (["--samples=0"], "samples"),
    ], ids=["gamma-negative", "gamma-nan", "no-samples"])
    def test_bad_input_is_one_line_error(self, tcp_params, tmp_path, capsys, args, named):
        out = tmp_path / "x.csv"
        rc = main(["trajectory", *args, "--params", tcp_params, "--system", "tcp", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and named in err
        assert not out.exists()

    def test_unknown_basis(self, tcp_params, tmp_path):
        rc = main(["trajectory", "--params", tcp_params, "--system", "tcp",
                   "--basis", "pauli", "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestSynthesize:
    def test_short_run_exits_2_and_writes_artifacts(self, tmp_path):
        cfg = {
            "system": "defm",
            "objective": {"target": "cnot:0,1"},
            "network": {"layer_sizes": [1, 8, 4], "duration_s": 0.02},
            "optimizer": {"max_iters": 3, "n_fine": 64, "seed": 0},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        rc = main(["synthesize", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        for name in ("run_record.json", "params.json", "fidelity_trace.csv"):
            assert (out / name).exists()
        record = json.loads((out / "run_record.json").read_text())
        assert record["converged"] is False

    def test_preset_run_exits_0_and_writes_artifacts(self, tmp_path, monkeypatch):
        # exercise the preset plumbing end to end; relax the threshold so the
        # run converges in a handful of iterations (the full-strength preset
        # is covered by the acceptance suite)
        from pinnctl import cli

        preset = json.loads(json.dumps(cli.RUN_PRESETS["defm-cnot"]))
        preset["optimizer"].update({"f_threshold": 0.3, "max_iters": 200})
        monkeypatch.setitem(cli.RUN_PRESETS, "defm-cnot", preset)
        out = tmp_path / "preset_run"
        rc = main(["synthesize", "--preset", "defm-cnot", "--out", str(out)])
        assert rc == 0
        for name in ("run_record.json", "params.json", "fidelity_trace.csv"):
            assert (out / name).exists()
        record = json.loads((out / "run_record.json").read_text())
        assert record["converged"] is True
        assert record["context"]["config"]["system"] == "defm"

    def test_divergence_is_one_line_error(self, tmp_path, capsys, monkeypatch):
        from pinnctl import cli
        from pinnctl.optimizer import DivergenceError

        def diverge(*args, **kwargs):
            raise DivergenceError("fidelity collapsed at iteration 7")

        monkeypatch.setattr(cli, "train", diverge)
        cfg = {
            "system": "defm",
            "objective": {"target": "cnot:0,1"},
            "network": {"layer_sizes": [1, 8, 4], "duration_s": 0.02},
            "optimizer": {"max_iters": 3, "n_fine": 64, "seed": 0},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["synthesize", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == "error: fidelity collapsed at iteration 7\n"

    def test_config_validation(self, tmp_path, capsys):
        cfg = {
            "system": "defm",
            "objective": {"target": "cnot:0,1"},
            "network": {"layer_sizes": [1, 8, 2], "duration_s": 0.02},
        }
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["synthesize", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "output width" in capsys.readouterr().err

    @pytest.mark.parametrize("section, bad", [
        ("optimizer", {"log_every": 0}),
        ("optimizer", {"n_fine": 0}),
        ("optimizer", {"n_fine": 2.5}),
        ("optimizer", {"substep_tol": -1}),
        ("warm_start", {"learning_rate": -5}),
        ("warm_start", {"f_threshold": 2}),
        ("optimizer", {"max_iters": 2.5}),
        ("warm_start", {"n_segments": 4.7}),
        ("warm_start", {"max_iters": 2.9}),
        (None, {"n_starts": 0}),
        (None, {"n_starts": -3}),
        (None, {"n_starts": 2.5}),
        # settings the warm-start run would drop, and its GRAPE headroom
        (None, {"n_starts": 2}),
        ("network", {"input_gain": 8}),
        ("warm_start", {"amp_limit_rad_s": 2 * np.pi * 1000}),
        # a gate target takes no trajectory shaping
        ("objective", {"shape_weight": 1.0}),
    ])
    def test_bad_loop_setting_is_one_line_error(self, tmp_path, capsys, section, bad):
        cfg = {
            "system": "defm",
            "objective": {"target": "cnot:0,1"},
            "network": {"layer_sizes": [1, 8, 4], "duration_s": 0.02},
            "optimizer": {"max_iters": 1, "n_fine": 16, "seed": 0},
            "warm_start": {"n_segments": 4, "max_iters": 2},
        }
        (cfg if section is None else cfg[section]).update(bad)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["synthesize", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert next(iter(bad)) in err

    @pytest.mark.parametrize("noise", [
        pytest.param({"kind": "local", "gamma": None}, id="gamma-null"),
        pytest.param([1], id="not-a-mapping"),
        pytest.param({"kind": "local"}, id="gamma-missing"),
    ])
    def test_bad_noise_block_is_one_line_error(self, tmp_path, capsys, noise):
        cfg = {
            "system": "tcp",
            "objective": {"target": "lls"},
            "network": {"layer_sizes": [1, 8, 2], "duration_s": 0.05},
            "optimizer": {"max_iters": 1, "n_fine": 16, "seed": 0},
            "noise": noise,
        }
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        rc = main(["synthesize", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid noise configuration: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("cfg", [
        pytest.param([1, 2], id="list"),
        pytest.param({"system": "defm", "optimizer": [1]}, id="optimizer-list"),
        pytest.param({"system": "defm", "optimizer": "fast"}, id="optimizer-string"),
    ])
    def test_malformed_config_with_seed_is_one_line_error(self, tmp_path, capsys, cfg):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        rc = main(["synthesize", "--config", str(cfg_path), "--seed", "3", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid run configuration: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("section, bad", [
        ("network", {"input_gain": 0}),
        ("network", {"duration_s": -1}),
        (None, {"n_starts": 2}),
        ("warm_start", {"amp_limit_rad_s": 1e5}),
        # misspelt keys
        ("warm_start", {"n_segment": 8}),
        ("network", {"amp_scale": 100.0}),
        ("objective", {"shape_wieght": 1.0}),
        (None, {"n_start": 1}),
        ("noise", {"gama": 0.02}),
        ("optimizer", {"learning_rte": 0.1}),
        # the objective value is always the normalized fidelity
        ("objective", {"normalization": "raw"}),
        # one RK4 substep per segment diverges; (0, 1] keeps it stable
        ("optimizer", {"substep_tol": 30}),
        # non-finite settings
        ("network", {"input_gain": float("nan")}),
        ("network", {"input_gain": float("inf")}),
        ("network", {"duration_s": float("inf")}),
        ("optimizer", {"learning_rate": float("inf")}),
        ("objective", {"shape_weight": float("nan"), "target": "lls"}),
        # without a warm start, whose amp_limit check would catch it first
        (None, {"network": {"layer_sizes": [1, 8, 4], "duration_s": 0.02,
                            "amp_scale_rad_s": float("inf")}, "warm_start": {}}),
    ])
    def test_config_error_trains_nothing_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, section, bad
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("training ran before the configuration error")

        for stage in ("train", "multi_start", "grape_train", "fit_network_to_table"):
            monkeypatch.setattr(cli, stage, no_training)
        cfg = {
            "system": "defm",
            "objective": {"target": "cnot:0,1"},
            "network": {"layer_sizes": [1, 8, 4], "duration_s": 0.02},
            "optimizer": {"max_iters": 1, "n_fine": 16, "seed": 0},
            "warm_start": {"n_segments": 4, "max_iters": 2},
        }
        (cfg if section is None else cfg.setdefault(section, {})).update(bad)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        rc = main(["synthesize", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        key = next(iter(bad))
        if key not in cli.RUN_CONFIG_KEYS[section]:
            block = section or "top-level"
            assert err == f"error: invalid run configuration: unknown {block} key {key!r}\n"
        assert not out.exists()

    def test_out_that_cannot_be_made_fails_before_training(self, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("training ran before --out was made")

        monkeypatch.setattr(cli, "train", no_training)
        cfg = {
            "system": "defm",
            "objective": {"target": "cnot:0,1"},
            "network": {"layer_sizes": [1, 8, 4], "duration_s": 0.02},
            "optimizer": {"max_iters": 1, "n_fine": 16, "seed": 0},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(["synthesize", "--config", str(cfg_path), "--out", str(blocker / "sub")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_warm_start_run_matches_the_library_call(self, tmp_path, capsys):
        # GRAPE stops at its 2-iteration cap, so the CLI warns and goes on
        cfg = {
            "system": "defm",
            "objective": {"target": "cnot:0,1"},
            "network": {"layer_sizes": [1, 4, 4], "duration_s": 0.02},
            "optimizer": {"max_iters": 2, "n_fine": 16, "seed": 0},
            "warm_start": {"n_segments": 4, "max_iters": 2},
        }
        record, grape_record = cli.synthesize(cfg)
        assert grape_record is not None and grape_record.iterations[-1][0] == 2
        assert not grape_record.converged
        save_params(record.final_params, tmp_path / "expected.json")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        rc = main(["synthesize", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        assert (out / "params.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
        assert "warm start did not converge" in capsys.readouterr().err

    def test_warm_start_verdict_comes_before_the_fine_tune(self, tmp_path, capsys, monkeypatch):
        err_at_train = []
        real_train = cli.train

        def train(*args, **kwargs):
            err_at_train.append(capsys.readouterr().err)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", train)
        cfg = {
            "system": "defm",
            "objective": {"target": "cnot:0,1"},
            "network": {"layer_sizes": [1, 4, 4], "duration_s": 0.02},
            "optimizer": {"max_iters": 2, "n_fine": 16, "seed": 0},
            "warm_start": {"n_segments": 4, "max_iters": 2},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["synthesize", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert err_at_train == ["warm start did not converge; continuing anyway\n"]
        assert capsys.readouterr().err == ""

    def test_library_call_on_a_non_object_is_a_config_error(self):
        with pytest.raises(cli.ConfigError, match="invalid run configuration"):
            cli.synthesize([1, 2])

    @pytest.mark.parametrize("name", sorted(cli.RUN_PRESETS))
    def test_preset_validates_without_training(self, name):
        assert callable(cli._build_run(cli.RUN_PRESETS[name]))

    def test_requires_config_or_preset(self, capsys):
        assert main(["synthesize"]) == 1
        assert "config" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        cfg = {
            "system": "defm",
            "objective": {"target": "cnot:0,1"},
            "network": {"layer_sizes": [1, 8, 4], "duration_s": 0.02},
            "optimizer": {"max_iters": 1, "n_fine": 64},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for seed in (0, 1):
            out = tmp_path / f"run{seed}"
            main(["synthesize", "--config", str(cfg_path), "--out", str(out), "--seed", str(seed)])
            outs.append(json.loads((out / "params.json").read_text()))
        assert outs[0] != outs[1]


@pytest.mark.parametrize("argv", [
    pytest.param(["frobnicate"], id="frobnicate"),
    # each sweep kind rejects the flags of the other kinds before any propagation
    pytest.param(["sweep", "noise", "--gamma", "0.05"], id="noise-gamma"),
    pytest.param(["sweep", "noise", "--deviations=0.1"], id="noise-deviations"),
    pytest.param(["sweep", "noise", "--segments", "4,8"], id="noise-segments"),
    pytest.param(["sweep", "amperr", "--gammas", "0.02"], id="amperr-gammas"),
    pytest.param(["sweep", "amperr", "--segments", "4,8"], id="amperr-segments"),
    pytest.param(["sweep", "amperr", "--params-for-gamma", "0.02=PARAMS"], id="amperr-override"),
    pytest.param(["sweep", "discretization", "--deviations=0.3"], id="discretization-deviations"),
    pytest.param(["sweep", "discretization", "--gamma", "0.05"], id="discretization-gamma"),
    pytest.param(["sweep", "discretization", "--noise", "global"], id="discretization-noise"),
])
def test_unknown_command_exits_via_argparse(argv, tcp_params, tmp_path, capsys):
    out = tmp_path / "x.csv"
    if argv[0] == "sweep":
        argv = [a.replace("PARAMS", tcp_params) for a in argv]
        argv += ["--params", tcp_params, "--system", "tcp", "--target", "lls", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err.splitlines()[-1]
    assert not out.exists()


class TestModuleEntryPoint:
    @pytest.mark.parametrize("args, code", [
        pytest.param(["sample", "PARAMS", "--segments", "4", "--out", "OUT"], 0, id="ok"),
        pytest.param(["sample", "MISSING", "--segments", "4", "--out", "OUT"], 1, id="error"),
        pytest.param(["sample", "PARAMS"], 2, id="usage"),
    ])
    def test_python_dash_m_passes_the_exit_code(self, defm_params, tmp_path, args, code):
        subs = {"PARAMS": defm_params, "MISSING": str(tmp_path / "nope.json"),
                "OUT": str(tmp_path / "pulse.csv")}
        src = str(Path(pinnctl.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "pinnctl", *(subs.get(a, a) for a in args)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
