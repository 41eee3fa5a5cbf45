"""Tabular file formats: pulse CSV, shaped amplitude/phase export, sweep results.

All numeric output uses shortest round-trip decimals (exact on re-parse) except
the shaped-pulse format, which is fixed to 6 decimal places by convention.  Each
result writer (sweep, spectrum, trajectory) writes its JSON sidecar <csv>.meta.json.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .analysis import SpectrumResult, SweepResult
from .network import PulseTable, segment_times


def _fmt(x: float) -> str:
    return repr(float(x))


def pulse_csv_header(n_channels: int) -> list[str]:
    cols = ["t_s"]
    for c in range(n_channels):
        cols += [f"u{c + 1}x_rad_s", f"u{c + 1}y_rad_s"]
    return cols


def _write_csv(path, header: list[str], rows) -> None:
    """Write the header row, then every row of the iterable rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_pulse_csv(table: PulseTable, path) -> None:
    """One row per segment midpoint (``segment_times``): t_s, then x/y amplitude per channel."""
    times = segment_times(table.duration, table.n_segments)
    _write_csv(path, pulse_csv_header(table.n_channels), (
        [_fmt(t)] + [_fmt(a) for a in amps] for t, amps in zip(times, table.flat_amplitudes())
    ))


def read_pulse_csv(path) -> PulseTable:
    """Read a pulse CSV.  Row k's t_s must be the midpoint (k + 0.5) dt, with
    dt = 2 t_0 > 0, to a relative 1e-6 (room for rounded decimals), and every
    amplitude must be finite; each error names the file, and a content error its line."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh.readlines())  # read whole: the reader would decode past the try
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot parse pulse CSV file {path}: {exc}") from exc
    header = next(reader, [])  # an empty file, or t_s alone, fails the header check
    if len(header) < 3 or header[0] != "t_s" or (len(header) - 1) % 2 != 0:
        raise ValueError(f"{path} is not a pulse CSV: unexpected header {header!r}")
    n_channels = (len(header) - 1) // 2
    rows = []
    for row in reader:
        where = f"pulse CSV {path} line {reader.line_num}"
        if len(row) != len(header):  # a blank line reads as no fields
            raise ValueError(f"{where} has {len(row)} fields, expected {len(header)}")
        try:
            t, *amps = (float(x) for x in row)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if not all(math.isfinite(a) for a in amps):
            raise ValueError(f"{where}: non-finite amplitude in {row!r}")
        if not rows:
            dt = 2.0 * t  # the first midpoint is dt/2
            if not dt > 0:
                raise ValueError(f"{where}: the first t_s must be positive, got {row[0]}")
        mid = (len(rows) + 0.5) * dt
        if not abs(t - mid) <= 1e-6 * mid:
            raise ValueError(f"{where}: t_s {row[0]} is not the segment midpoint "
                             f"{mid!r} (dt = 2 x first t_s = {dt!r})")
        rows.append(amps)
    if len(rows) < 1:
        raise ValueError(f"pulse CSV {path} has no data rows")
    n = len(rows)
    samples = np.asarray(rows).reshape(n, n_channels, 2)
    return PulseTable(duration=dt * n, samples=samples)


def write_shaped_pulse(table: PulseTable, amp_scale: float, path) -> None:
    """Amplitude/phase export: per channel, amplitude as percent of amp_scale
    (6 decimals) and phase in degrees wrapped to [0, 360)."""
    ux, uy = table.samples[..., 0], table.samples[..., 1]
    amp = np.hypot(ux / amp_scale, uy / amp_scale) * 100.0  # finite for |u| <= amp_scale
    phase = np.degrees(np.arctan2(uy, ux)) % 360.0
    header = [h for c in range(1, table.n_channels + 1) for h in (f"amp{c}_pct", f"phase{c}_deg")]
    rows = np.stack([amp, phase], axis=-1).reshape(table.n_segments, -1)  # amp1, phase1, amp2, ...
    _write_csv(path, header, ([f"{x:.6f}" for x in row] for row in rows))


def write_sweep_csv(sweep: SweepResult, path) -> None:
    _write_csv(path, [sweep.axis_name, "fidelity", "infidelity"], (
        [_fmt(x), _fmt(f), _fmt(i)]
        for x, f, i in zip(sweep.axis_values, sweep.fidelity, sweep.infidelity)
    ))
    _write_sidecar(path, {"axis": sweep.axis_name, **sweep.metadata})


def write_spectrum_csv(spec: SpectrumResult, path) -> None:
    n_channels = spec.magnitude.shape[0]
    _write_csv(path, ["freq_hz"] + [f"mag{c + 1}" for c in range(n_channels)], (
        [_fmt(f)] + [_fmt(m) for m in spec.magnitude[:, i]] for i, f in enumerate(spec.freqs)
    ))
    _write_sidecar(
        path, {"energy_bandwidth_99_hz": [float(w) for w in spec.energy_bandwidth_99]}
    )


def write_trajectory_csv(times: np.ndarray, values: np.ndarray, labels: list[str], path,
                         metadata: dict) -> None:
    """One row per sample time: t_s, then one value per label; metadata goes to the sidecar."""
    _write_csv(path, ["t_s"] + labels, (
        [_fmt(t)] + [_fmt(v) for v in values[i]] for i, t in enumerate(times)
    ))
    _write_sidecar(path, metadata)


def write_fidelity_trace_csv(iterations, path) -> None:
    _write_csv(path, ["iteration", "fidelity", "grad_norm"], (
        [int(it), _fmt(fid), _fmt(gn)] for it, fid, gn in iterations
    ))


def _write_sidecar(path, metadata: dict) -> None:
    sidecar = Path(path).with_suffix(Path(path).suffix + ".meta.json")
    with open(sidecar, "w") as fh:
        json.dump(metadata, fh, indent=2)
