"""Numerical studies of synthesized pulses: spectra, discretization, robustness."""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from .checks import real
from .network import NetworkParams, PulseTable
from .objectives import ObjectiveSpec, evaluate_fidelity
from .propagation import _as_pulse, propagate_density, propagate_lindblad
from .spins import NoiseModel, SpinSystem, noise_operators


@dataclass
class SpectrumResult:
    freqs: np.ndarray  # Hz, fftshifted
    magnitude: np.ndarray  # (channels, n) |spectrum|, continuous-time scaling
    energy_bandwidth_99: np.ndarray  # Hz per channel (full symmetric width)


@dataclass
class SweepResult:
    axis_name: str
    axis_values: list
    fidelity: list[float]
    metadata: dict = field(default_factory=dict)

    @property
    def infidelity(self) -> list[float]:
        return [1.0 - f for f in self.fidelity]


def pulse_spectrum(pulse: PulseTable) -> SpectrumResult:
    """DFT of the complex control u_x + i u_y per channel, and the width of
    the band around zero that holds 99 % of its energy.

    The spectrum carries the continuous-time scaling dt * FFT so that
    sum |X|^2 df == sum |u|^2 dt (Parseval) exactly.
    """
    if pulse.n_segments < 2:
        raise ValueError("spectrum needs at least 2 segments")
    freqs = np.fft.fftshift(np.fft.fftfreq(pulse.n_segments, d=pulse.dt))
    u = (pulse.samples[..., 0] + 1j * pulse.samples[..., 1]).T.copy()  # (channels, n), rows contiguous
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        mags = np.abs(np.fft.fftshift(np.fft.fft(u), axes=-1) * pulse.dt)
        energy = mags**2
        total = energy.sum(axis=1)  # each row summed as one vector, as a channel alone would be
    bad = np.flatnonzero(~(total < np.inf))  # NaN-safe; a non-finite entry makes the sum non-finite
    if bad.size:
        raise ValueError(f"the spectrum of channel {bad[0] + 1} overflows: amplitudes too large")
    # each cut counts the cumulative energies (from 0 Hz out) below 99 %: a zero channel counts
    # none and reads the 0 Hz bin, which the stable sort puts first
    order = np.argsort(np.abs(freqs), kind="stable")
    cut = np.count_nonzero(np.cumsum(energy[:, order], axis=1) < 0.99 * total[:, None], axis=1)
    return SpectrumResult(freqs, mags, 2.0 * np.abs(freqs[order[cut]]))


def discretization_sweep(
    params: NetworkParams,
    system: SpinSystem,
    objective: ObjectiveSpec,
    segment_counts,
) -> SweepResult:
    """Fidelity of the sampled pulse as a function of segment count."""
    fids = [evaluate_fidelity(system, params, objective, n_fine=n) for n in segment_counts]
    return SweepResult(
        axis_name="n_segments",
        axis_values=list(segment_counts),
        fidelity=fids,
        metadata={"objective": objective.kind},
    )


def basis_trajectory(
    params,
    system: SpinSystem,
    rho0: np.ndarray,
    basis: list[np.ndarray],
    n_samples: int = 200,
    *,
    noise: NoiseModel | None = None,
    n_fine: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Expectation <psi_b| rho(t) |psi_b> on a uniform time grid.

    Each sample takes the state at the segment boundary nearest to its time,
    so samples finer than the segment grid repeat rows.
    Returns (times (n_samples,), values (n_samples, len(basis))), values real.
    """
    for b in basis:
        if abs(np.linalg.norm(b) - 1.0) > 1e-10:
            raise ValueError("basis vectors must be normalized")
    table = _as_pulse(system, params, n_fine)
    times = np.linspace(0.0, table.duration, n_samples)
    if noise is not None and noise.gamma > 0:
        res = propagate_lindblad(system, table, rho0, noise, sample_times=times)
    else:
        res = propagate_density(system, table, rho0, sample_times=times)
    d = system.dimension  # shapes given, so no samples or an empty basis give empty rows
    rhos = np.array([rho for _, rho in res.trajectory], complex).reshape(n_samples, d, d)
    psis = np.array(basis, complex).reshape(len(basis), d)
    vals = np.einsum("bi,nij,bj->nb", psis.conj(), rhos, psis)
    if np.any(np.abs(vals.imag) > 1e-10 * np.maximum(1.0, np.abs(vals))):
        raise FloatingPointError("expectation value is not real")
    return times, vals.real


def noise_sweep(
    params_by_gamma: dict[float, NetworkParams],
    system: SpinSystem,
    objective: ObjectiveSpec,
    gammas,
    kind: str,
) -> SweepResult:
    """Fidelity under dissipative propagation at each gamma.

    params_by_gamma maps each requested gamma to the pulse evaluated there.
    Retrain-per-gamma mode passes a different trained network per key;
    evaluate-fixed-pulse mode maps every gamma to the same network.  The
    gamma = 0 point uses the unitary path, so it equals the noiseless run
    exactly.  Networks are evaluated on the default grid and substep tolerance.
    """
    gammas = list(gammas)
    for g in gammas:
        if g not in params_by_gamma:
            raise KeyError(f"no parameters supplied for gamma={g}")

    def point(g: float) -> float:
        # every gamma but 0 builds a noise model, whose check rejects bad rates
        noise = None if g == 0 else noise_operators(system, kind, g)
        obj = dc_replace(objective, noise=noise)
        return evaluate_fidelity(system, params_by_gamma[g], obj)

    fids = [point(g) for g in gammas]
    return SweepResult(
        axis_name="gamma",
        axis_values=gammas,
        fidelity=fids,
        metadata={"noise_kind": kind, "objective": objective.kind},
    )


def amplitude_error_sweep(
    params,
    system: SpinSystem,
    objective: ObjectiveSpec,
    deviations,
    *,
    noise: NoiseModel | None = None,
) -> SweepResult:
    """Fidelity with all control amplitudes scaled by (1 + du/u), a network
    sampled onto the default grid, under `noise` if given, else the
    objective's own; the metadata names the noise that was evaluated."""
    deviations = list(deviations)
    if not all(abs(real("deviations", d)) <= 0.5 for d in deviations):
        raise ValueError(f"deviations must lie within [-0.5, +0.5], got {deviations}")
    base = _as_pulse(system, params, None)
    obj = dc_replace(objective, noise=noise) if noise is not None else objective
    fids = [evaluate_fidelity(system, base.scaled(1.0 + dev), obj) for dev in deviations]
    return SweepResult(
        axis_name="du_over_u",
        axis_values=deviations,
        fidelity=fids,
        metadata={
            "objective": obj.kind,
            "gamma": 0.0 if obj.noise is None else obj.noise.gamma,
            "noise_kind": None if obj.noise is None else obj.noise.kind,
        },
    )


def robust_width(sweep: SweepResult) -> float:
    """Width of the contiguous deviation interval (around the peak) with
    fidelity >= 0.95 * peak."""
    devs = np.asarray(sweep.axis_values, dtype=float)
    fids = np.asarray(sweep.fidelity, dtype=float)
    order = np.argsort(devs)
    devs, fids = devs[order], fids[order]
    peak_idx = int(np.argmax(fids))
    thresh = 0.95 * fids[peak_idx]
    lo = peak_idx
    while lo > 0 and fids[lo - 1] >= thresh:
        lo -= 1
    hi = peak_idx
    while hi < len(fids) - 1 and fids[hi + 1] >= thresh:
        hi += 1
    return float(devs[hi] - devs[lo])
