from dataclasses import replace

import numpy as np
import pytest

from pinnctl import analysis
from pinnctl.analysis import (
    SweepResult,
    amplitude_error_sweep,
    basis_trajectory,
    discretization_sweep,
    noise_sweep,
    pulse_spectrum,
    robust_width,
)
from pinnctl.network import PulseTable, init_params, sample_pulse
from pinnctl.objectives import ObjectiveSpec, evaluate_fidelity
from pinnctl.propagation import (
    DEFAULT_N_FINE, EvolutionResult, propagate_density, propagate_lindblad,
)
from pinnctl.spins import PRESETS, noise_operators
from pinnctl.targets import cnot_objective, lls_objective, singlet_triplet_basis


def random_table(n, channels, seed=0, scale=500.0, duration=0.01):
    rng = np.random.default_rng(seed)
    return PulseTable(duration, rng.normal(0, scale, size=(n, channels, 2)))


class TestPulseSpectrum:
    def test_parseval(self):
        table = random_table(128, 2, seed=5)
        spec = pulse_spectrum(table)
        dt = table.dt
        df = 1.0 / (table.n_segments * dt)
        for c in range(2):
            u = table.samples[:, c, 0] + 1j * table.samples[:, c, 1]
            time_energy = np.sum(np.abs(u) ** 2) * dt
            freq_energy = np.sum(spec.magnitude[c] ** 2) * df
            assert abs(freq_energy - time_energy) < 1e-9 * time_energy

    def test_single_tone_bandwidth(self):
        # complex exponential at k cycles over the window occupies one bin
        n, dur = 256, 0.01
        k = 10
        t = (np.arange(n) + 0.5) * (dur / n)
        u = np.exp(2j * np.pi * (k / dur) * t)
        samples = np.stack([u.real, u.imag], axis=-1)[:, None, :]
        spec = pulse_spectrum(PulseTable(dur, samples))
        assert spec.energy_bandwidth_99[0] == pytest.approx(2.0 * k / dur)

    def test_zero_pulse_zero_width(self):
        spec = pulse_spectrum(PulseTable(0.01, np.zeros((16, 1, 2))))
        assert spec.energy_bandwidth_99[0] == 0.0

    def test_rejects_single_segment(self):
        with pytest.raises(ValueError):
            pulse_spectrum(PulseTable(0.01, np.zeros((1, 1, 2))))

    @pytest.mark.parametrize("amp", [1e308, 1e160], ids=["fft-overflows", "energy-overflows"])
    def test_overflowing_spectrum_is_an_error(self, amp):
        # finite amplitudes whose spectrum or energy is not; no RuntimeWarning either
        samples = np.array([[[amp, -amp]], [[amp, -amp]], [[-amp, amp]]])
        with pytest.raises(ValueError, match="spectrum of channel 1 overflows"):
            pulse_spectrum(PulseTable(0.003, samples))


class TestDiscretizationSweep:
    def test_converges_to_fine_grid_fidelity(self):
        params = init_params((1, 8, 4), 2 * np.pi * 500, 0.02, seed=2)
        sys_ = PRESETS["defm"]
        obj = cnot_objective()
        sweep = discretization_sweep(params, sys_, obj, (4, 64, 1024, 4096))
        assert sweep.axis_name == "n_segments"
        ref = evaluate_fidelity(sys_, sample_pulse(params, 8192), obj)
        assert abs(sweep.fidelity[-1] - ref) < 1e-6
        assert abs(sweep.fidelity[-2] - ref) < abs(sweep.fidelity[0] - ref)

    def test_each_point_is_the_fidelity_of_its_sampled_table(self):
        params = init_params((1, 8, 4), 2 * np.pi * 500, 0.02, seed=2)
        sys_, obj, counts = PRESETS["defm"], cnot_objective(), (1, 3, 64, 1000)
        sweep = discretization_sweep(params, sys_, obj, counts)
        assert sweep.fidelity == [evaluate_fidelity(sys_, sample_pulse(params, n), obj)
                                  for n in counts]


class TestBasisTrajectory:
    def test_stationary_population_under_drift(self):
        # zero pulse: drift is diagonal in the computational basis, so the
        # |00> (= T+) population never moves
        sys_ = PRESETS["tcp"]
        table = PulseTable(0.05, np.zeros((64, 1, 2)))
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0
        times, values = basis_trajectory(table, sys_, rho0, singlet_triplet_basis(), n_samples=20)
        assert times[0] == 0.0 and times[-1] == pytest.approx(0.05)
        assert np.allclose(values[:, 0], 1.0, atol=1e-9)
        assert np.allclose(values[:, 3], 0.0, atol=1e-9)

    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    def test_one_row_per_sample_when_samples_outnumber_segments(self, gamma):
        sys_ = PRESETS["tcp"]
        p = init_params((1, 8, 8, 2), 2 * np.pi * 200, 0.05, seed=1)
        noise = noise_operators(sys_, "local", gamma) if gamma else None
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0
        times, values = basis_trajectory(
            p, sys_, rho0, singlet_triplet_basis(), n_samples=200, noise=noise, n_fine=64
        )
        assert values.shape == (200, 4)
        assert np.array_equal(times, np.linspace(0.0, 0.05, 200))
        # the row at each time is the state after the nearest segment boundary
        boundary = np.rint(times / 0.05 * 64).astype(int)
        first = {s: i for i, s in reversed(list(enumerate(boundary)))}
        assert np.array_equal(values, values[[first[s] for s in boundary]])
        assert len(first) == 65

    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    def test_network_equals_its_sampled_table(self, gamma):
        sys_ = PRESETS["tcp"]
        p = init_params((1, 8, 8, 2), 2 * np.pi * 200, 0.05, seed=1)
        noise = noise_operators(sys_, "local", gamma) if gamma else None
        rho0, basis = np.diag([0.5, 0.5, -0.5, -0.5]).astype(complex), singlet_triplet_basis()
        from_network = basis_trajectory(p, sys_, rho0, basis, n_samples=30, noise=noise, n_fine=48)
        from_table = basis_trajectory(sample_pulse(p, 48), sys_, rho0, basis, n_samples=30,
                                      noise=noise)
        for a, b in zip(from_network, from_table):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("gamma", [0.0, 0.02])
    def test_matches_one_vdot_per_sample_and_vector(self, gamma):
        sys_, basis = PRESETS["tcp"], singlet_triplet_basis()
        table = random_table(300, 1, seed=4, scale=300.0, duration=0.05)
        noise = noise_operators(sys_, "local", gamma) if gamma else None
        rho0 = np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex)
        times, values = basis_trajectory(table, sys_, rho0, basis, n_samples=50, noise=noise)
        if noise is None:
            res = propagate_density(sys_, table, rho0, sample_times=times)
        else:
            res = propagate_lindblad(sys_, table, rho0, noise, sample_times=times)
        ref = [[np.vdot(psi, rho @ psi).real for psi in basis] for _, rho in res.trajectory]
        assert np.max(np.abs(values - np.array(ref))) <= 1e-15

    def test_non_real_expectation_is_an_error(self, monkeypatch):
        # a sampled state that is not Hermitian (here i I) gives a complex <psi|rho|psi>
        def skew(system, table, rho0, *, sample_times):
            return EvolutionResult(1j * np.eye(4), [(t, 1j * np.eye(4)) for t in sample_times])

        monkeypatch.setattr(analysis, "propagate_density", skew)
        table = PulseTable(0.01, np.zeros((8, 1, 2)))
        with pytest.raises(FloatingPointError, match="expectation value is not real"):
            basis_trajectory(table, PRESETS["tcp"], np.eye(4) / 4, singlet_triplet_basis(), 5)

    def test_rejects_unnormalized_basis(self):
        sys_ = PRESETS["tcp"]
        table = PulseTable(0.01, np.zeros((8, 1, 2)))
        with pytest.raises(ValueError):
            basis_trajectory(table, sys_, np.eye(4) / 4, [np.ones(4)])


class TestNoiseSweep:
    def test_gamma_zero_equals_noiseless(self):
        sys_ = PRESETS["tcp"]
        obj = lls_objective()
        params = init_params((1, 8, 2), 2 * np.pi * 200, 0.05, seed=1)
        gammas = [0.0, 0.05]
        sweep = noise_sweep({g: params for g in gammas}, sys_, obj, gammas, "local")
        assert sweep.fidelity[0] == evaluate_fidelity(sys_, params, obj)
        assert 0.0 <= sweep.fidelity[1] <= 1.0 + 1e-12

    def test_missing_params_raises(self):
        sys_ = PRESETS["tcp"]
        with pytest.raises(KeyError):
            noise_sweep({}, sys_, lls_objective(), [0.0], "local")


class TestAmplitudeErrorSweep:
    def test_zero_deviation_matches_base(self):
        sys_ = PRESETS["defm"]
        obj = cnot_objective()
        table = random_table(64, 2, seed=3, duration=0.02)
        sweep = amplitude_error_sweep(table, sys_, obj, [-0.1, 0.0, 0.1])
        assert sweep.axis_name == "du_over_u"
        assert sweep.fidelity[1] == evaluate_fidelity(sys_, table, obj)

    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    def test_zero_deviation_of_a_network_is_its_default_grid_fidelity(self, gamma):
        sys_ = PRESETS["tcp"]
        p = init_params((1, 8, 2), 2 * np.pi * 200, 0.05, seed=1)
        noise = noise_operators(sys_, "local", gamma) if gamma else None
        sweep = amplitude_error_sweep(p, sys_, lls_objective(), [-0.1, 0.0], noise=noise)
        unscaled = sample_pulse(p, DEFAULT_N_FINE)
        assert sweep.fidelity[1] == evaluate_fidelity(
            sys_, unscaled, replace(lls_objective(), noise=noise))

    def test_metadata_names_the_noise_inside_the_objective(self):
        sys_ = PRESETS["tcp"]
        table = random_table(16, 1, seed=2, scale=300.0, duration=0.05)
        noisy = replace(lls_objective(), noise=noise_operators(sys_, "local", 0.02))
        sweep = amplitude_error_sweep(table, sys_, noisy, [0.0])
        assert sweep.fidelity == [evaluate_fidelity(sys_, table, noisy)]
        assert sweep.fidelity != [evaluate_fidelity(sys_, table, lls_objective())]
        assert sweep.metadata == {"objective": "state", "gamma": 0.02, "noise_kind": "local"}

    def test_rejects_large_deviation(self):
        table = random_table(8, 2)
        with pytest.raises(ValueError):
            amplitude_error_sweep(table, PRESETS["defm"], cnot_objective(), [0.6])


class TestRobustWidth:
    def test_plateau_width(self):
        devs = [-0.2, -0.1, 0.0, 0.1, 0.2]
        fids = [0.5, 0.97, 1.0, 0.96, 0.5]
        sweep = SweepResult("du_over_u", devs, fids)
        assert robust_width(sweep) == pytest.approx(0.2)

    def test_full_range_when_flat(self):
        sweep = SweepResult("du_over_u", [-0.3, 0.0, 0.3], [0.9, 0.9, 0.9])
        assert robust_width(sweep) == pytest.approx(0.6)

    def test_unsorted_input(self):
        sweep = SweepResult("du_over_u", [0.1, -0.1, 0.0], [0.5, 0.5, 1.0])
        assert robust_width(sweep) == pytest.approx(0.0)
