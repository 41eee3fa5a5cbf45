import csv
import json

import numpy as np
import pytest

from pinnctl.analysis import SweepResult, pulse_spectrum
from pinnctl.fileio import (
    read_pulse_csv,
    write_fidelity_trace_csv,
    write_pulse_csv,
    write_shaped_pulse,
    write_spectrum_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from pinnctl.network import PulseTable, segment_times


@pytest.fixture
def table():
    rng = np.random.default_rng(7)
    return PulseTable(0.02, rng.normal(0, 800, size=(16, 2, 2)))


class TestPulseCsv:
    def test_roundtrip_exact(self, table, tmp_path):
        path = tmp_path / "pulse.csv"
        write_pulse_csv(table, path)
        back = read_pulse_csv(path)
        assert back.duration == table.duration
        assert np.array_equal(back.samples, table.samples)

    @pytest.mark.parametrize("duration, n", [(0.02, 16), (0.005, 1), (0.15, 7), (0.3, 1000),
                                             (0.15, 4096)])
    def test_time_column_is_the_sampling_grid(self, duration, n, tmp_path):
        # the t_s column is the grid sample_pulse samples a network on, to the last bit
        path = tmp_path / "pulse.csv"
        write_pulse_csv(PulseTable(duration, np.zeros((n, 1, 2))), path)
        with open(path) as fh:
            times = [float(row[0]) for row in list(csv.reader(fh))[1:]]
        assert np.array_equal(times, segment_times(duration, n))

    def test_header(self, table, tmp_path):
        path = tmp_path / "pulse.csv"
        write_pulse_csv(table, path)
        with open(path) as fh:
            header = next(csv.reader(fh))
        assert header == ["t_s", "u1x_rad_s", "u1y_rad_s", "u2x_rad_s", "u2y_rad_s"]

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_pulse_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t_s,u1x_rad_s,u1y_rad_s\n")
        with pytest.raises(ValueError, match="no data"):
            read_pulse_csv(path)


class TestShapedPulse:
    def test_amplitude_and_phase(self, tmp_path):
        amp_scale = 1000.0
        # segment 0: pure +x at half scale; segment 1: pure -y at full scale
        samples = np.array([[[500.0, 0.0]], [[0.0, -1000.0]]])
        path = tmp_path / "pulse.shp"
        write_shaped_pulse(PulseTable(0.01, samples), amp_scale, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["amp1_pct", "phase1_deg"]
        assert [float(x) for x in rows[1]] == [50.0, 0.0]
        assert [float(x) for x in rows[2]] == [100.0, 270.0]

    def test_phase_in_range(self, table, tmp_path):
        path = tmp_path / "pulse.shp"
        write_shaped_pulse(table, 2 * np.pi * 1000, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))[1:]
        phases = [float(r[i]) for r in rows for i in (1, 3)]
        assert all(0.0 <= p < 360.0 for p in phases)

    def test_three_channels_are_the_per_element_formula_byte_for_byte(self, tmp_path):
        amp_scale = 1000.0
        # +-0 amplitudes, then the four axis phases at half scale, each channel one row apart
        axis = [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0],
                [500.0, 0.0], [0.0, 500.0], [-500.0, 0.0], [0.0, -500.0]]
        samples = np.array([[axis[(s + c) % 8] for c in range(3)] for s in range(8)])
        samples = np.concatenate([samples, np.random.default_rng(3).normal(0, 400, (9, 3, 2))])
        path = tmp_path / "pulse.shp"
        write_shaped_pulse(PulseTable(0.01, samples), amp_scale, path)
        lines = ["amp1_pct,phase1_deg,amp2_pct,phase2_deg,amp3_pct,phase3_deg"]
        for segment in samples:
            fields = []
            for ux, uy in segment:
                amp = np.hypot(ux / amp_scale, uy / amp_scale) * 100.0
                fields += [f"{amp:.6f}", f"{np.degrees(np.arctan2(uy, ux)) % 360.0:.6f}"]
            lines.append(",".join(fields))
        assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()
        # channel 1: a zero's phase follows the signs (atan2(+-0, -0) is +-180 degrees), then the axes
        assert [line.split(",")[:2] for line in lines[1:9]] == [
            [amp, f"{phase}.000000"] for amp, phase in
            [("0.000000", 0), ("0.000000", 180), ("0.000000", 0), ("0.000000", 180),
             ("50.000000", 0), ("50.000000", 90), ("50.000000", 180), ("50.000000", 270)]]


class TestSweepCsv:
    def test_contents_and_sidecar(self, tmp_path):
        sweep = SweepResult("gamma", [0.0, 0.05], [1.0, 0.875], metadata={"noise_kind": "local"})
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["gamma", "fidelity", "infidelity"]
        assert float(rows[2][2]) == pytest.approx(0.125)
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta == {"axis": "gamma", "noise_kind": "local"}


class TestSpectrumCsv:
    def test_sidecar_bandwidth(self, table, tmp_path):
        spec = pulse_spectrum(table)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(spec, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["freq_hz", "mag1", "mag2"]
        assert len(rows) == 1 + len(spec.freqs)
        meta = json.loads((tmp_path / "spec.csv.meta.json").read_text())
        assert meta["energy_bandwidth_99_hz"] == [float(w) for w in spec.energy_bandwidth_99]


class TestTraceCsv:
    def test_trajectory(self, tmp_path):
        times = np.array([0.0, 0.5, 1.0])
        values = np.arange(6.0).reshape(3, 2)
        path = tmp_path / "traj.csv"
        meta = {"basis": "singlet-triplet", "samples": 3, "gamma": 0.0, "noise_kind": None}
        write_trajectory_csv(times, values, ["a", "b"], path, meta)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t_s", "a", "b"]
        assert [float(x) for x in rows[2]] == [0.5, 2.0, 3.0]
        assert json.loads((tmp_path / "traj.csv.meta.json").read_text()) == meta

    def test_fidelity_trace(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_fidelity_trace_csv([(0, 0.25, 1.5), (1, 0.5, 0.75)], path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "fidelity", "grad_norm"]
        assert rows[2][0] == "1"
        assert float(rows[2][1]) == 0.5
