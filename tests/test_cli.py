import contextlib
import copy
import csv
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pinnctl
from pinnctl import cli
from pinnctl.cli import main
from pinnctl.fileio import read_pulse_csv
from pinnctl.grape import GrapeConfig
from pinnctl.network import init_params, load_params, save_params
from pinnctl.optimizer import OptimizerConfig, train
from pinnctl.propagation import EvolutionResult
from pinnctl.spins import PRESETS, noise_operators
from pinnctl.targets import lls_objective


def key_paths(doc: dict, prefix=()):
    """The path of every key of a nested configuration, blocks and their entries alike."""
    for key, value in doc.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from key_paths(value, (*prefix, key))


PRESET_KEYS = [(name, path) for name in sorted(cli.RUN_PRESETS)
               for path in key_paths(cli.RUN_PRESETS[name])]
# bounded: no drawn count or width can ask for a large array
SCALARS = st.one_of(st.booleans(), st.none(), st.text(max_size=4), st.integers(-2, 64),
                    st.floats(-1e3, 1e3), st.sampled_from([np.nan, np.inf, -np.inf]))
OUTSIDE_VALUES = SCALARS | st.lists(SCALARS, max_size=4)
# a value that removes its key from a test's base run configuration
OMITTED = object()


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


@pytest.fixture(scope="module")
def lls_run_dir(tmp_path_factory):
    """A working directory holding runs/lls/params.json, where the README's
    `synthesize --preset tcp-lls --out runs/lls` writes: a small saved tcp network."""
    root = tmp_path_factory.mktemp("lls_run")
    (root / "runs" / "lls").mkdir(parents=True)
    save_params(init_params((1, 8, 2), 2 * np.pi * 60, 0.15, seed=4), root / "runs/lls/params.json")
    return root


@pytest.fixture
def three_spin_system(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(json.dumps({"spins": 3, "channels": [[0, 1, 2]],
                                "couplings": [{"i": 0, "j": 1, "J_hz": 8.75}]}))
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

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 745. GiB for an array with shape (100000000000,) and data type "
         "float64", "error: Unable to allocate 745. GiB for an array with shape "
         "(100000000000,) and data type float64\n"),
        ("", "error: MemoryError\n"),
    ], ids=["numpy", "bare"])
    def test_memory_error_is_one_line_error(self, defm_params, tmp_path, capsys, monkeypatch,
                                            message, line):
        # the allocation fails as numpy's (or Python's) would, without asking for the memory
        def too_large(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "sample_pulse", too_large)
        out = tmp_path / "pulse.csv"
        rc = main(["sample", defm_params, "--segments", "100000000000", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == line
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

    def test_discretization_default_is_the_doubling_grid(self, defm_params, tmp_path):
        out = tmp_path / "disc.csv"
        assert main(["sweep", "discretization", "--params", defm_params, "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert [int(float(r[0])) for r in rows[1:]] == [2**k for k in range(16)]

    @pytest.mark.parametrize("system, named", [
        ('{"spins": 2, "channels": [[0, 1]], "couplings": [{"i": 0, "j": 1, "J_hz": NaN}]}',
         "coupling J_hz must be finite"),
        ('{"spins": 2, "channels": [[0, 1]], "offsets_hz": [Infinity, 0]}',
         "offsets_hz must be finite"),
    ], ids=["J-nan", "offset-inf"])
    def test_non_finite_system_value_is_one_line_error(self, tcp_params, tmp_path, capsys,
                                                       system, named):
        (tmp_path / "system.json").write_text(system)
        out = tmp_path / "x.csv"
        rc = main(["sweep", "discretization", "--params", tcp_params, "--target", "lls",
                   "--system", str(tmp_path / "system.json"), "--segments", "4,8",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and err.count("\n") == 1
        assert not out.exists()

    def test_system_without_channels_is_one_line_error(self, tcp_params, tmp_path, capsys):
        (tmp_path / "system.json").write_text('{"spins": 2, "channels": []}')
        out = tmp_path / "x.csv"
        rc = main(["sweep", "discretization", "--params", tcp_params, "--target", "lls",
                   "--system", str(tmp_path / "system.json"), "--segments", "4,8",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: a register needs at least one control channel\n"
        assert not out.exists()

    @pytest.mark.parametrize("amp_scale, rc", [(1e6, 0), (1e300, 1), (1.7e308, 1)])
    def test_huge_amplitude_scale_is_finite_or_one_line_error(self, tmp_path, capsys,
                                                               amp_scale, rc):
        # past the squaring limit of the segment exponentials an error names the limit,
        # rather than NaN fidelities and overflow warnings
        params = tmp_path / "huge.json"
        save_params(replace(init_params((1, 8, 4), 2 * np.pi * 1000, 0.02, seed=4),
                            amp_scale=amp_scale), params)
        out = tmp_path / "disc.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "discretization", "--params", str(params),
                         "--segments", "1..4", "--out", str(out)]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err.startswith("error: segment phase bound") and err.count("\n") == 1
            assert "131072" in err and not out.exists()
        else:
            with open(out) as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == 5 and np.all(np.isfinite(np.array(rows[1:], dtype=float)))

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
        pytest.param(["discretization", "--segments=4,8", "--log2"], "--log2", id="log2-list"),
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
        assert err.startswith(f"error: {pulse} is not a pulse CSV") and err.count("\n") == 1
        assert not out.exists()

    def test_header_with_no_amplitude_pair_is_one_line_error(self, tmp_path, capsys):
        pulse, out = tmp_path / "times.csv", tmp_path / "spec.csv"
        pulse.write_text("t_s\n0.5\n1.5\n")
        assert main(["fft", str(pulse), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: {pulse} is not a pulse CSV: "
                                           "unexpected header ['t_s']\n")
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
        assert err == f"error: pulse CSV {pulse} line {line} has {fields} fields, expected 3\n"
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
        assert err.startswith(f"error: pulse CSV {pulse} line {line}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("row", ["x,1.0,2.0", "0.0005,1.0,two"], ids=["time", "amplitude"])
    def test_non_numeric_field_is_one_line_error(self, tmp_path, capsys, row):
        pulse, out = tmp_path / "pulse.csv", tmp_path / "spec.csv"
        pulse.write_text(f"t_s,u1x_rad_s,u1y_rad_s\n{row}\n")
        assert main(["fft", str(pulse), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: pulse CSV {pulse} line 2: could not convert")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_amplitude_is_one_line_error(self, tmp_path, capsys, value):
        pulse, out = tmp_path / "pulse.csv", tmp_path / "spec.csv"
        pulse.write_text(f"t_s,u1x_rad_s,u1y_rad_s\n0.0005,1.0,2.0\n0.0015,{value},2.0\n")
        assert main(["fft", str(pulse), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: pulse CSV {pulse} line 3: non-finite amplitude")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_spectrum_is_one_line_error(self, tmp_path, capsys):
        pulse, out = tmp_path / "pulse.csv", tmp_path / "spec.csv"
        pulse.write_text("t_s,u1x_rad_s,u1y_rad_s\n0.0005,1e308,-1e308\n"
                         "0.0015,1e308,-1e308\n0.0025,-1e308,1e308\n")
        assert main(["fft", str(pulse), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the spectrum of channel 1 overflows: "
                                "amplitudes too large\n")
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

    @pytest.mark.parametrize("args, gamma, kind", [
        ([], 0.0, None),
        (["--gamma", "0.02", "--noise", "local"], 0.02, "local"),
    ], ids=["noiseless", "local-0.02"])
    def test_sidecar_records_noise_and_grid(self, tcp_params, tmp_path, args, gamma, kind):
        # a CSV made under noise must be told apart from a noiseless one
        out = tmp_path / "traj.csv"
        rc = main(["trajectory", *args, "--params", tcp_params, "--system", "tcp",
                   "--samples", "5", "--out", str(out)])
        assert rc == 0
        meta = json.loads((tmp_path / "traj.csv.meta.json").read_text())
        assert meta == {"basis": "singlet-triplet", "samples": 5, "segments": 4096,
                        "gamma": gamma, "noise_kind": kind}

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

    def test_non_real_expectation_is_one_line_error(self, tcp_params, tmp_path, capsys,
                                                     monkeypatch):
        def skew(system, table, rho0, *, sample_times):
            return EvolutionResult(1j * np.eye(4), [(t, 1j * np.eye(4)) for t in sample_times])

        monkeypatch.setattr(pinnctl.analysis, "propagate_density", skew)
        out = tmp_path / "traj.csv"
        rc = main(["trajectory", "--params", tcp_params, "--system", "tcp", "--samples", "4",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: expectation value is not real\n"
        assert list(tmp_path.iterdir()) == [Path(tcp_params)]  # no CSV, no sidecar

    def test_unknown_basis(self, tcp_params, tmp_path):
        rc = main(["trajectory", "--params", tcp_params, "--system", "tcp",
                   "--basis", "pauli", "--out", str(tmp_path / "x.csv")])
        assert rc == 1


@pytest.mark.parametrize("command", [
    ["sweep", "discretization", "--target", "lls", "--segments", "4,8"],
    ["sweep", "amperr", "--target", "lls"],
    ["trajectory", "--samples", "4"],
], ids=["discretization", "amperr", "trajectory"])
def test_dimension_mismatch_is_one_line_error(command, tcp_params, three_spin_system, tmp_path,
                                              capsys):
    out = tmp_path / "x.csv"
    rc = main([*command, "--params", tcp_params, "--system", three_spin_system, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "(4, 4)" in err and "(8, 8)" in err
    assert not out.exists()


BAD_JSON, NOT_UTF8 = b'{"spins": 2, ', b'{"spins": \xff}'


# each input file, by where it is named, and the kind of file its error names
INPUT_FILES = {"config": "run configuration", "config-system": "system",
               "config-network": "parameter", "system": "system", "params": "parameter"}


@pytest.mark.parametrize("source, kind, body", [
    *(pytest.param(source, kind, body, id=f"{source}-{name}") for source, kind in INPUT_FILES.items()
      for name, body in [("bad-json", BAD_JSON), ("not-utf-8", NOT_UTF8)]),
    pytest.param("pulse", "pulse CSV", NOT_UTF8, id="pulse-not-utf-8"),
])
def test_unreadable_input_file_is_one_line_error_naming_it(source, kind, body, tcp_params,
                                                           tmp_path, capsys):
    bad, out = tmp_path / "input", tmp_path / "out"
    bad.write_bytes(body)
    cfg = {"system": "tcp", "objective": {"target": "lls"},
           "network": {"layer_sizes": [1, 8, 2], "duration_s": 0.05},
           "optimizer": {"max_iters": 1, "n_fine": 16}}
    if source.startswith("config-"):
        cfg[source.split("-")[1]] = str(bad)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = {
        "config": ["synthesize", "--config", str(bad), "--out", str(out)],
        "config-system": ["synthesize", "--config", str(cfg_path), "--out", str(out)],
        "config-network": ["synthesize", "--config", str(cfg_path), "--out", str(out)],
        "system": ["trajectory", "--params", tcp_params, "--system", str(bad), "--out", str(out)],
        "params": ["sample", str(bad), "--segments", "4", "--out", str(out)],
        "pulse": ["fft", str(bad), "--out", str(out)],
    }[source]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"cannot parse {kind} file {bad}: " in err
    assert not out.exists()


# every output of this one-channel network sits at tanh(20) = 1, so each amplitude is 1.7e308
SATURATING_PARAMS = {"layer_sizes": [1, 2], "weights": [[0, 0]], "biases": [[20, 20]],
                     "amp_scale": 1.7e308, "time_scale": 0.15}
SATURATING_CNOT = {"system": "defm", "objective": {"target": "cnot:0,1"},
                   "network": {"layer_sizes": [1, 4, 4], "amp_scale_rad_s": 1.7e308,
                               "duration_s": 0.02},
                   "optimizer": {"max_iters": 2, "n_fine": 8}}
SWEEP_TCP = ["--params", "PARAMS", "--system", "tcp", "--target", "lls"]


@pytest.mark.parametrize("command", [
    ["sweep", "amperr", *SWEEP_TCP, "--deviations=0.5"],
    ["sweep", "amperr", *SWEEP_TCP, "--deviations=0.5", "--gamma", "0.02"],
    ["sweep", "noise", *SWEEP_TCP, "--gammas", "0.02"],
    ["trajectory", "--params", "PARAMS", "--gamma", "0.02"],
    ["synthesize", "--config", "CONFIG"],
    ["sample", "PARAMS", "--segments", "4", "--format", "shaped"],
], ids=["amperr", "amperr-gamma", "noise", "trajectory", "synthesize", "sample-shaped"])
def test_floating_point_fault_is_one_line_error(command, tmp_path, capsys):
    # a numpy overflow is one error line and exit 1, never a RuntimeWarning and a half-written file
    files = {"PARAMS": tmp_path / "params.json", "CONFIG": tmp_path / "config.json"}
    files["PARAMS"].write_text(json.dumps(SATURATING_PARAMS))
    files["CONFIG"].write_text(json.dumps(SATURATING_CNOT))
    out = tmp_path / "out.csv"
    argv = [str(files.get(a, a)) for a in command]
    argv += ["--out", str(tmp_path / "run" if command[0] == "synthesize" else out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    err = capsys.readouterr().err
    if command[0] == "sample":  # each amplitude is sqrt(2) amp_scale: 141.421356 %
        assert rc == 0 and err == ""
        with open(out) as fh:
            pct = np.array([row[0] for row in list(csv.reader(fh))[1:]], dtype=float)
        assert len(pct) == 4 and np.all(np.isfinite(pct))
        return
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists() and not (tmp_path / "run" / "fidelity_trace.csv").exists()


@pytest.mark.parametrize("gamma", [[], ["--gamma", "0.02"]], ids=["unitary", "lindblad"])
def test_amperr_overflow_names_the_factor(gamma, tmp_path, capsys):
    params, out = tmp_path / "params.json", tmp_path / "out.csv"
    params.write_text(json.dumps(SATURATING_PARAMS))
    argv = ["sweep", "amperr", *SWEEP_TCP, "--deviations=0.5", *gamma, "--out", str(out)]
    assert main([str(params) if a == "PARAMS" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: amplitude factor 1.5 ") and err.count("\n") == 1
    assert "largest amplitude 1.7e+308" in err and not out.exists()


def test_overflowing_gradient_norm_names_the_gradient_and_iteration(tmp_path, capsys):
    # the gradient's components are finite, their squares are not
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "system": "defm", "objective": {"target": "cnot"},
        "network": {"layer_sizes": [1, 4, 4], "amp_scale_rad_s": 1e200, "duration_s": 0.02},
        "optimizer": {"max_iters": 2, "n_fine": 8}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["synthesize", "--config", str(config), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: gradient 2-norm is inf at iteration 0 ") and err.count("\n") == 1
    assert not (tmp_path / "run" / "fidelity_trace.csv").exists()


def test_lindblad_step_underflow_names_gamma(tcp_params, tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = ["sweep", "noise", "--params", str(tcp_params), "--system", "tcp", "--target", "lls",
            "--gammas", "1e308", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Lindblad step-size underflow") and err.count("\n") == 1
    assert "collapse rate gamma*||H0|| inf" in err and "a smaller gamma" in err
    assert not out.exists()


@pytest.mark.parametrize("target", ["cnots", "cnotfoo", "cnot:0,1,2", "cnot:a,b", "CNOT"])
@pytest.mark.parametrize("command", ["synthesize", "sweep"])
def test_misspelt_target_is_one_line_error(command, target, defm_params, tmp_path, capsys):
    # a target name is read exactly: a name that merely starts with cnot is no CNOT
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "system": "defm", "objective": {"target": target},
        "network": {"layer_sizes": [1, 8, 4], "duration_s": 0.02},
        "optimizer": {"max_iters": 1, "n_fine": 16}}))
    out = tmp_path / "out"
    if command == "synthesize":
        argv = ["synthesize", "--config", str(config)]
    else:
        argv = ["sweep", "discretization", "--params", defm_params, "--target", target,
                "--segments", "4,8"]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert err.endswith(f"unknown target {target!r}\n")
    assert not out.exists()


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
        from pinnctl import optimizer
        from pinnctl.optimizer import DivergenceError

        def diverge(*args, **kwargs):
            raise DivergenceError("fidelity collapsed at iteration 7")

        monkeypatch.setattr(optimizer, "train", diverge)
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
        pytest.param({"kind": "local", "gamma": True}, id="gamma-bool"),
        # a block that is present is read: an empty one or a null is no noiseless run
        pytest.param({}, id="empty"),
        pytest.param(None, id="null"),
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
                            "amp_scale_rad_s": float("inf")}, "warm_start": OMITTED}),
        ("warm_start", {"amp_limit_rad_s": float("inf")}),
        # a bool or a string is not a number, and an integer field holds an integer
        ("optimizer", {"learning_rate": True}),
        ("optimizer", {"f_threshold": True}),
        ("optimizer", {"substep_tol": True}),
        ("optimizer", {"seed": True}),
        ("network", {"duration_s": True}),
        ("network", {"duration_s": "0.02"}),
        ("network", {"input_gain": True}),
        ("network", {"amp_scale_rad_s": True}),
        ("network", {"layer_sizes": [1, 40.2, 40, 4]}),
        ("objective", {"target": "lls", "shape_weight": True}),
        (None, {"objective": {"target": "lls"},
                "warm_start": {"n_segments": 4, "max_iters": 2, "shape_weight": True}}),
        ("warm_start", {"amp_limit_rad_s": True}),
        ("warm_start", {"learning_rate": True}),
        ("warm_start", {"f_threshold": True}),
        ("objective", {"target": 5}),
        # blocks of the wrong shape, and a gain applied before the layer sizes are checked
        (None, {"warm_start": "fast"}),
        ("network", {"layer_sizes": [4], "input_gain": 8}),
        # trajectory shaping under dissipation
        (None, {"system": "tcp", "objective": {"target": "lls", "shape_weight": 1.0},
                "network": {"layer_sizes": [1, 8, 2], "duration_s": 0.05},
                "noise": {"kind": "local", "gamma": 0.02}, "warm_start": OMITTED}),
        # a given network (a path relative to the working directory) is the one start
        (None, {"network": "defm.json"}),
        (None, {"network": "defm.json", "warm_start": OMITTED, "n_starts": 2}),
        (None, {"network": "missing.json", "warm_start": OMITTED}),
        (None, {"network": "garbled.json", "warm_start": OMITTED}),
        (None, {"network": "tcp.json", "warm_start": OMITTED}),
        # grids that training would reject: a shape window with no checkpoint in the
        # fine-tune or in the warm start, and too many Lindblad substeps per segment
        (None, {**cli.RUN_PRESETS["tcp-lls"],
                "optimizer": {**cli.RUN_PRESETS["tcp-lls"]["optimizer"], "n_fine": 1}}),
        (None, {"system": "tcp", "objective": {"target": "lls", "shape_weight": 1.0},
                "network": {"layer_sizes": [1, 8, 2], "duration_s": 0.05},
                "warm_start": {"n_segments": 1, "max_iters": 2}}),
        (None, {"system": "tcp", "objective": {"target": "lls"},
                "network": {"layer_sizes": [1, 8, 2], "duration_s": 0.15, "amp_scale_rad_s": 1e9},
                "noise": {"kind": "local", "gamma": 0.02}, "optimizer": {"n_fine": 4},
                "warm_start": OMITTED}),
        # a block that is present is read, so one that is not an object is an error
        (None, {"warm_start": []}),
        (None, {"warm_start": None}),
    ])
    def test_config_error_trains_nothing_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, section, bad
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("training ran before the configuration error")

        for stage in ("multi_start", "grape_train", "fit_network_to_table"):
            monkeypatch.setattr(cli, stage, no_training)
        monkeypatch.chdir(tmp_path)
        save_params(init_params((1, 8, 4), 2 * np.pi * 1000, 0.02, seed=4), "defm.json")
        save_params(init_params((1, 8, 2), 2 * np.pi * 1000, 0.02, seed=4), "tcp.json")
        Path("garbled.json").write_text('{"layer_sizes": [1, 8, 4], "weights": [')
        cfg = {
            "system": "defm",
            "objective": {"target": "cnot:0,1"},
            "network": {"layer_sizes": [1, 8, 4], "duration_s": 0.02},
            "optimizer": {"max_iters": 1, "n_fine": 16, "seed": 0},
            "warm_start": {"n_segments": 4, "max_iters": 2},
        }
        (cfg if section is None else cfg.setdefault(section, {})).update(bad)
        cfg = {key: value for key, value in cfg.items() if value is not OMITTED}
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

    @pytest.mark.parametrize("system, named", [
        ('{"spins": 2, "channels": [[0, 1]], "couplings": [{"i": 0, "j": 1, "J_hz": NaN}]}',
         "J_hz must be finite"),
        ('{"spins": 2, "channels": [[0, 1]], "offsets_hz": [Infinity, 0]}',
         "offsets_hz must be finite"),
        ('{"spins": 3, "channels": [[0, 1, 2]]}', "(4, 4); the system's is (8, 8)"),
        ('{"spins": 2.9, "channels": [[0, 1]]}',
         "invalid system configuration: spins must be an integer, got 2.9"),
        ('{"spins": 2, "channels": [[0.7, 1]]}',
         "invalid system configuration: channel spin index must be an integer, got 0.7"),
        ('{"spins": 2, "channels": [[0, 1]], "couplings": [{"i": 0, "j": 1, "J_hz": true}]}',
         "coupling J_hz must be finite, got True"),
        ('{"spins": 2, "channels": [[0, 1]], "offsets_hz": ["-63.75", 63.75]}',
         "offsets_hz must be finite, got '-63.75'"),
        # no per-spin default is built before the count is checked
        ('{"spins": 10000000000000000000, "channels": [[0, 1]]}', "n_spins must be in [1, 4]"),
    ], ids=["J-nan", "offset-inf", "three-spins", "spins-float", "channel-float", "J-bool",
            "offset-string", "spins-huge"])
    def test_bad_system_file_fails_before_out_exists(self, tmp_path, capsys, monkeypatch,
                                                     system, named):
        def no_training(*args, **kwargs):
            raise AssertionError("training ran before the configuration error")

        monkeypatch.setattr(cli, "multi_start", no_training)
        (tmp_path / "system.json").write_text(system)
        cfg = {
            "system": str(tmp_path / "system.json"),
            "objective": {"target": "lls"},
            "network": {"layer_sizes": [1, 8, 2], "duration_s": 0.05},
            "optimizer": {"max_iters": 1, "n_fine": 16, "seed": 0},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        rc = main(["synthesize", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid run configuration: ") and err.count("\n") == 1
        assert named in err
        assert not out.exists()

    def test_single_start_record_names_its_seed(self, tmp_path):
        cfg = {
            "system": "defm",
            "objective": {"target": "cnot:0,1"},
            "network": {"layer_sizes": [1, 4, 4], "duration_s": 0.02},
            "optimizer": {"max_iters": 2, "n_fine": 16, "seed": 5},
        }
        record, grape_record = cli.synthesize(cfg)
        assert grape_record is None
        assert record.context == {"seed": 5, "config": cfg}
        assert record.final_params.metadata["seed"] == 5

    @pytest.mark.parametrize("n_starts", [1, 3])
    def test_each_seed_draws_one_network(self, monkeypatch, n_starts):
        draws = []
        real_init_params = cli.init_params

        def init_params(layer_sizes, amp_scale, time_scale, seed, **kwargs):
            draws.append(seed)
            return real_init_params(layer_sizes, amp_scale, time_scale, seed, **kwargs)

        monkeypatch.setattr(cli, "init_params", init_params)
        cfg = {
            "system": "defm",
            "objective": {"target": "cnot:0,1"},
            "network": {"layer_sizes": [1, 4, 4], "duration_s": 0.02},
            "optimizer": {"max_iters": 1, "n_fine": 16, "seed": 2},
            "n_starts": n_starts,
        }
        record, _ = cli.synthesize(cfg)
        assert not record.converged  # so every start trained
        assert draws == list(range(2, 2 + n_starts))

    def test_empty_warm_start_block_runs_grape_at_its_defaults(self, monkeypatch):
        solved = []

        class Solved(Exception):
            pass

        def grape_train(system, objective, duration, config):
            solved.append(config)
            raise Solved

        monkeypatch.setattr(cli, "grape_train", grape_train)
        cfg = {
            "system": "defm",
            "objective": {"target": "cnot:0,1"},
            "network": {"layer_sizes": [1, 4, 4], "duration_s": 0.02, "amp_scale_rad_s": 1000.0},
            "optimizer": {"max_iters": 2, "n_fine": 16, "seed": 1},
            "warm_start": {},
        }
        with pytest.raises(Solved):
            cli.synthesize(cfg)
        assert solved == [GrapeConfig(n_segments=64, amp_limit=900.0, learning_rate=10.0,
                                      f_threshold=0.99, max_iters=8000, seed=1, log_every=500)]

    def test_out_that_cannot_be_made_fails_before_training(self, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("training ran before --out was made")

        monkeypatch.setattr(cli, "multi_start", no_training)
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

    def test_network_too_large_to_allocate_is_one_line_error(self, tmp_path, capsys,
                                                              monkeypatch):
        # the allocation fails as numpy's would, without asking for the memory
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                              "(1000000, 1000000) and data type float64")

        monkeypatch.setattr(cli, "init_params", too_large)
        cfg = {
            "system": "defm",
            "objective": {"target": "cnot:0,1"},
            "network": {"layer_sizes": [1, 1000000, 1000000, 4], "duration_s": 0.02},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        rc = main(["synthesize", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("error: invalid run configuration: network too large to allocate: "
                       "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) "
                       "and data type float64\n")
        assert not out.exists()

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
        assert record.context == {"seed": 0, "config": cfg}
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
        real_multi_start = cli.multi_start

        def multi_start(*args, **kwargs):
            err_at_train.append(capsys.readouterr().err)
            return real_multi_start(*args, **kwargs)

        monkeypatch.setattr(cli, "multi_start", multi_start)
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

    @staticmethod
    def given_network_run(tmp_path) -> dict:
        """The tcp-lls-noisy preset, capped at 2 steps, from a small saved tcp network."""
        path = tmp_path / "start.json"
        save_params(init_params((1, 8, 2), 2 * np.pi * 60, 0.15, seed=4), path)
        cfg = copy.deepcopy(cli.RUN_PRESETS["tcp-lls-noisy"])
        cfg["network"] = str(path)
        cfg["optimizer"]["max_iters"] = 2
        return cfg

    def test_given_network_trains_as_train_on_the_loaded_network(self, tmp_path):
        cfg = self.given_network_run(tmp_path)
        record, grape_record = cli.synthesize(cfg)
        tcp = PRESETS["tcp"]
        objective = replace(lls_objective(), noise=noise_operators(tcp, "local", 0.02))
        expected = train(load_params(cfg["network"]), tcp, objective,
                         OptimizerConfig(**cfg["optimizer"]))
        assert grape_record is None
        assert record.context == {"seed": 0, "config": cfg}
        assert record.iterations == expected.iterations
        assert record.final_params.vector().tobytes() == expected.final_params.vector().tobytes()

    def test_given_network_command_writes_the_library_result_and_exits_2(self, tmp_path):
        cfg = self.given_network_run(tmp_path)
        record, _ = cli.synthesize(cfg)
        save_params(record.final_params, tmp_path / "expected.json")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        # f_threshold 1.0 is a fixed budget, never a convergence
        assert main(["synthesize", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert (out / "params.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
        saved = json.loads((out / "run_record.json").read_text())
        assert saved["context"]["config"]["network"] == cfg["network"]

    def test_gate_objective_takes_a_noise_model_only_at_gamma_zero(self):
        """gamma 0 is the noiseless run for a gate objective as for a state one:
        the same record, bit for bit; a positive gamma is a configuration error."""
        cfg = {"system": "defm", "objective": {"target": "cnot:0,1"},
               "network": {"layer_sizes": [1, 8, 4], "duration_s": 0.02},
               "optimizer": {"max_iters": 2, "n_fine": 16, "seed": 0}}
        noiseless, _ = cli._build_run(cfg)()
        for kind in ("local", "global"):
            record, _ = cli._build_run({**cfg, "noise": {"kind": kind, "gamma": 0}})()
            assert record.iterations == noiseless.iterations
            assert (record.final_params.vector().tobytes()
                    == noiseless.final_params.vector().tobytes())
            with pytest.raises(cli.ConfigError, match="do not support dissipative evolution"):
                cli._build_run({**cfg, "noise": {"kind": kind, "gamma": 0.02}})

    def test_library_call_on_a_non_object_is_a_config_error(self):
        with pytest.raises(cli.ConfigError, match="invalid run configuration"):
            cli.synthesize([1, 2])

    @pytest.mark.parametrize("name", sorted(cli.RUN_PRESETS))
    def test_preset_validates_without_training(self, name, lls_run_dir):
        with contextlib.chdir(lls_run_dir):
            assert callable(cli._build_run(cli.RUN_PRESETS[name]))

    def test_noisy_preset_without_its_start_network_is_one_line_error(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        rc = main(["synthesize", "--preset", "tcp-lls-noisy", "--out", "out"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid run configuration: ") and err.count("\n") == 1
        assert "runs/lls/params.json" in err
        assert not (tmp_path / "out").exists()

    @given(st.sampled_from(PRESET_KEYS), OUTSIDE_VALUES)
    @settings(max_examples=400)
    @example(("tcp-lls", ("noise",)), {"kind": "local", "gamma": 0.02})
    @example(("tcp-lls-noisy", ("network",)), "no-such-params.json")
    def test_any_one_value_builds_a_run_or_is_a_config_error(self, lls_run_dir, key, value):
        """The run is never called: nothing trains, and no drawn value reaches
        an allocation larger than a 64-wide layer."""
        name, path = key
        cfg = copy.deepcopy(cli.RUN_PRESETS[name])
        block = cfg
        for part in path[:-1]:
            block = block[part]
        block[path[-1]] = value
        try:
            with contextlib.chdir(lls_run_dir):
                run = cli._build_run(cfg)
        except cli.ConfigError:
            return
        assert callable(run)

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
