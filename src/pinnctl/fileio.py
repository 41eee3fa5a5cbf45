"""Tabular file formats: pulse CSV, shaped amplitude/phase export, sweep results.

All numeric output uses shortest round-trip decimals (exact on re-parse) except
the shaped-pulse format, which is fixed to 6 decimal places by convention.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .analysis import SpectrumResult, SweepResult
from .network import PulseTable


def _fmt(x: float) -> str:
    return repr(float(x))


def pulse_csv_header(n_channels: int) -> list[str]:
    cols = ["t_s"]
    for c in range(n_channels):
        cols += [f"u{c + 1}x_rad_s", f"u{c + 1}y_rad_s"]
    return cols


def write_pulse_csv(table: PulseTable, path) -> None:
    """One row per segment midpoint: t_s, then x/y amplitude per channel."""
    dt = table.dt
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(pulse_csv_header(table.n_channels))
        for s in range(table.n_segments):
            t = (s + 0.5) * dt
            row = [_fmt(t)]
            for c in range(table.n_channels):
                row += [_fmt(table.samples[s, c, 0]), _fmt(table.samples[s, c, 1])]
            writer.writerow(row)


def read_pulse_csv(path) -> PulseTable:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])  # an empty file fails the header check
        if not header or header[0] != "t_s" or (len(header) - 1) % 2 != 0:
            raise ValueError(f"not a pulse CSV: unexpected header {header!r}")
        n_channels = (len(header) - 1) // 2
        times = []
        rows = []
        for row in reader:
            if len(row) != len(header):  # a blank line reads as no fields
                raise ValueError(f"pulse CSV line {reader.line_num} has {len(row)} fields, "
                                 f"expected {len(header)}")
            times.append(float(row[0]))
            rows.append([float(x) for x in row[1:]])
    if len(rows) < 1:
        raise ValueError("pulse CSV has no data rows")
    n = len(rows)
    dt = times[0] * 2.0  # first midpoint is dt/2
    duration = dt * n
    samples = np.asarray(rows).reshape(n, n_channels, 2)
    return PulseTable(duration=duration, samples=samples)


def write_shaped_pulse(table: PulseTable, amp_scale: float, path) -> None:
    """Amplitude/phase export: per channel, amplitude as percent of amp_scale
    (6 decimals) and phase in degrees wrapped to [0, 360)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = []
        for c in range(table.n_channels):
            header += [f"amp{c + 1}_pct", f"phase{c + 1}_deg"]
        writer.writerow(header)
        for s in range(table.n_segments):
            row = []
            for c in range(table.n_channels):
                ux, uy = table.samples[s, c, 0], table.samples[s, c, 1]
                amp = np.hypot(ux, uy) / amp_scale * 100.0
                phase = np.degrees(np.arctan2(uy, ux)) % 360.0
                row += [f"{amp:.6f}", f"{phase:.6f}"]
            writer.writerow(row)


def write_sweep_csv(sweep: SweepResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([sweep.axis_name, "fidelity", "infidelity"])
        for x, f in zip(sweep.axis_values, sweep.fidelity):
            writer.writerow([_fmt(x), _fmt(f), _fmt(1.0 - f)])
    _write_sidecar(path, {"axis": sweep.axis_name, **sweep.metadata})


def write_spectrum_csv(spec: SpectrumResult, path) -> None:
    n_channels = spec.magnitude.shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz"] + [f"mag{c + 1}" for c in range(n_channels)])
        for i, f in enumerate(spec.freqs):
            writer.writerow([_fmt(f)] + [_fmt(spec.magnitude[c, i]) for c in range(n_channels)])
    _write_sidecar(
        path, {"energy_bandwidth_99_hz": [float(w) for w in spec.energy_bandwidth_99]}
    )


def write_trajectory_csv(times: np.ndarray, values: np.ndarray, labels: list[str], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s"] + labels)
        for i, t in enumerate(times):
            writer.writerow([_fmt(t)] + [_fmt(v) for v in values[i]])


def write_fidelity_trace_csv(iterations, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "fidelity", "grad_norm"])
        for it, fid, gn in iterations:
            writer.writerow([int(it), _fmt(fid), _fmt(gn)])


def _write_sidecar(path, metadata: dict) -> None:
    sidecar = Path(path).with_suffix(Path(path).suffix + ".meta.json")
    with open(sidecar, "w") as fh:
        json.dump(metadata, fh, indent=2)
