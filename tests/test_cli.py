import csv
import json

import numpy as np
import pytest

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

    @pytest.mark.parametrize("segments", ["0..8", "-4..8", "16..8"])
    def test_bad_segment_range_is_one_line_error(self, defm_params, tmp_path, capsys, segments):
        rc = main(["sweep", "discretization", "--params", defm_params,
                   f"--segments={segments}", "--log2", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

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
    ])
    def test_bad_loop_setting_is_one_line_error(self, tmp_path, capsys, section, bad):
        cfg = {
            "system": "defm",
            "objective": {"target": "cnot:0,1"},
            "network": {"layer_sizes": [1, 8, 4], "duration_s": 0.02},
            "optimizer": {"max_iters": 1, "n_fine": 16, "seed": 0},
            "warm_start": {"n_segments": 4, "max_iters": 2},
        }
        cfg[section].update(bad)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["synthesize", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert next(iter(bad)) in err

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


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
