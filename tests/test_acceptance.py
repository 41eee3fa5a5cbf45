"""End-to-end acceptance suite.

Each criterion is one test; `pytest -v tests/test_acceptance.py` therefore
prints one pass/fail line per criterion.  Trained pulses are cached under
tests/artifacts/ (see conftest) so reruns are fast; a cold run retrains
everything and takes minutes on one core.

Ordering matters: the numerical-foundations test (criterion 7) is listed
first because nothing else is meaningful if it fails.
"""

import copy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pinnctl.analysis import (
    amplitude_error_sweep,
    basis_trajectory,
    discretization_sweep,
    noise_sweep,
    pulse_spectrum,
    robust_width,
)
from pinnctl.cli import RUN_PRESETS, synthesize
from pinnctl.grape import GrapeConfig, grape_train
from pinnctl.network import PulseTable, init_params, sample_pulse
from pinnctl.objectives import (
    evaluate_fidelity,
    loss_and_gradient,
    pulse_table_gradient,
)
from pinnctl.optimizer import OptimizerConfig, train
from pinnctl.propagation import propagate_lindblad, propagate_unitary
from pinnctl.spins import PRESETS, NoiseModel, noise_operators
from pinnctl.targets import (
    cnot_objective,
    lls_objective,
    singlet_triplet_basis,
    thermal_deviation,
)

from oracles import propagate_oracle

DEFM = PRESETS["defm"]
TCP = PRESETS["tcp"]
EVAL_N_FINE = 4096

# the acceptance CNOT is the defm-cnot preset at input_gain 1, the gain its
# committed pulse was trained at; ROADMAP item 4 decides the value
CNOT_RECIPE = copy.deepcopy(RUN_PRESETS["defm-cnot"])
CNOT_RECIPE["network"]["input_gain"] = 1
# the noiseless pulse as the lls_params fixture saves it: the start of every
# dissipative retrain (the tcp-lls-noisy preset: coarser grid and substepping
# for speed; all reported fidelities below are re-evaluated at the tight defaults)
LLS_START = Path(__file__).parent / "artifacts" / "lls_tcp.json"
GAMMAS = [0.0, 0.02, 0.04, 0.06, 0.07]


@pytest.fixture(scope="session")
def cnot_params(artifact_cache):
    def build():
        record, _ = synthesize(CNOT_RECIPE)
        assert record.converged, "CNOT training did not reach threshold in 3 starts"
        return record.final_params

    return artifact_cache("cnot_defm", build)


@pytest.fixture(scope="session")
def lls_params(artifact_cache):
    def build():
        shaped, grape_record = synthesize(RUN_PRESETS["tcp-lls"])
        assert grape_record.converged, "segment-wise warm start did not converge"
        assert shaped.converged, "shaped LLS fine-tune did not reach threshold"
        return shaped.final_params

    return artifact_cache("lls_tcp", build)


@pytest.fixture(scope="session")
def noisy_lls_params(artifact_cache, lls_params):
    """gamma -> params per noise kind, each retrained from the noiseless pulse."""
    out = {}
    for kind in ("local", "global"):
        by_gamma = {0.0: lls_params}
        for gamma in GAMMAS[1:]:
            def build(kind=kind, gamma=gamma):
                record, _ = synthesize({**RUN_PRESETS["tcp-lls-noisy"], "network": str(LLS_START),
                                        "noise": {"kind": kind, "gamma": gamma}})
                return record.final_params

            by_gamma[gamma] = artifact_cache(f"lls_tcp_{kind}_g{gamma}", build)
        out[kind] = by_gamma
    return out


class TestCriterion7NumericalFoundations:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2024)
        worst_unitary = 0.0
        for k in range(14):
            system = DEFM if k % 2 == 0 else TCP
            duration = 0.004 if system is DEFM else 0.03
            objective = cnot_objective() if system is DEFM else lls_objective()
            n = 6
            amps = rng.normal(0, 300, size=(n, system.n_channels, 2))
            table = PulseTable(duration, amps)
            _, grad = pulse_table_gradient(system, table, objective)
            s, c = rng.integers(n), rng.integers(2 * system.n_channels)
            eps = 1e-6
            bump = np.zeros_like(amps)
            bump.reshape(n, -1)[s, c] = eps
            fp, _ = pulse_table_gradient(system, PulseTable(duration, amps + bump), objective)
            fm, _ = pulse_table_gradient(system, PulseTable(duration, amps - bump), objective)
            fd = (fp - fm) / (2 * eps)
            worst_unitary = max(worst_unitary, abs(fd - grad[s, c]) / max(1.0, abs(fd)))
        assert worst_unitary < 1e-5

        worst_lindblad = 0.0
        for k in range(6):
            kind = "local" if k % 2 == 0 else "global"
            objective = replace(
                lls_objective(), noise=noise_operators(TCP, kind, 0.05)
            )
            n = 4
            amps = rng.normal(0, 300, size=(n, 1, 2))
            table = PulseTable(0.02, amps)
            _, grad = pulse_table_gradient(TCP, table, objective, substep_tol=0.05)
            s, c = rng.integers(n), rng.integers(2)
            eps = 1e-5
            bump = np.zeros_like(amps)
            bump.reshape(n, -1)[s, c] = eps
            fp, _ = pulse_table_gradient(
                TCP, PulseTable(0.02, amps + bump), objective, substep_tol=0.05
            )
            fm, _ = pulse_table_gradient(
                TCP, PulseTable(0.02, amps - bump), objective, substep_tol=0.05
            )
            fd = (fp - fm) / (2 * eps)
            worst_lindblad = max(worst_lindblad, abs(fd - grad[s, c]) / max(1.0, abs(fd)))
        assert worst_lindblad < 1e-4

    def test_invariants_and_oracle_agreement(self):
        params = init_params((1, 16, 4), 2 * np.pi * 1000, 0.020, seed=11)
        res = propagate_unitary(DEFM, params, n_fine=2**14)
        u = res.final
        assert np.linalg.norm(u @ u.conj().T - np.eye(4)) < 1e-10  # unitarity
        oracle = propagate_oracle(DEFM, params, mode="unitary")
        assert np.linalg.norm(u - oracle.final) < 1e-6

        noise = noise_operators(TCP, "local", 0.05)
        params_t = init_params((1, 16, 2), 2 * np.pi * 200, 0.05, seed=11)
        rho0 = thermal_deviation()
        res = propagate_lindblad(TCP, params_t, rho0, noise, n_fine=512)
        rho = res.final
        assert abs(np.trace(rho) - np.trace(rho0)) < 1e-12  # trace preserved
        assert np.linalg.norm(rho - rho.conj().T) < 1e-12  # Hermiticity

        # gamma = 0 dissipative propagation reproduces the unitary path
        null_noise = NoiseModel(gamma=0.0, kind="local",
                                collapse_ops=noise.collapse_ops,
                                drift_norm=noise.drift_norm)
        res0 = propagate_lindblad(TCP, params_t, rho0, null_noise, n_fine=512)
        u = propagate_unitary(TCP, params_t, n_fine=512).final
        assert np.linalg.norm(res0.final - u @ rho0 @ u.conj().T) < 1e-8

    def test_parseval(self):
        rng = np.random.default_rng(5)
        table = PulseTable(0.02, rng.normal(0, 1000, size=(256, 2, 2)))
        spec = pulse_spectrum(table)
        df = 1.0 / (256 * table.dt)
        for c in range(2):
            u = table.samples[:, c, 0] + 1j * table.samples[:, c, 1]
            lhs = np.sum(spec.magnitude[c] ** 2) * df
            rhs = np.sum(np.abs(u) ** 2) * table.dt
            assert abs(lhs - rhs) < 1e-6 * rhs

    def test_determinism(self):
        config = OptimizerConfig(learning_rate=1e-2, max_iters=5, n_fine=256, seed=3)
        p0 = init_params((1, 12, 4), 2 * np.pi * 1000, 0.02, seed=3)
        r1 = train(p0, DEFM, cnot_objective(), config)
        r2 = train(p0, DEFM, cnot_objective(), config)
        for w1, w2 in zip(r1.final_params.weights, r2.final_params.weights):
            assert np.array_equal(w1, w2)
        assert r1.iterations == r2.iterations


class TestCriterion1CnotSynthesis:
    def test_fidelity_threshold(self, cnot_params):
        fid = evaluate_fidelity(DEFM, cnot_params, cnot_objective(), n_fine=EVAL_N_FINE)
        assert fid >= 0.99


class TestCriterion2DiscretizationSaturation:
    def test_saturation_profile(self, cnot_params):
        counts = [2**k for k in range(16)]
        sweep = discretization_sweep(cnot_params, DEFM, cnot_objective(), counts)
        infid = np.asarray(sweep.infidelity)
        # non-increasing within +1e-3 per step
        assert np.all(np.diff(infid) <= 1e-3)
        # saturated for n >= 2^12
        plateau = infid[12:]
        assert plateau.max() - plateau.min() < 1e-4
        # coarse grids cannot represent the pulse
        assert np.all(infid[:5] > 10 * plateau.mean())


class TestCriterion3BandwidthComparison:
    def test_network_pulse_is_narrower_than_grape(self, cnot_params, artifact_cache):
        import json
        from pathlib import Path

        from tests.conftest import ARTIFACTS

        grape_path = ARTIFACTS / "grape_cnot_table.json"
        if grape_path.exists():
            doc = json.loads(Path(grape_path).read_text())
            table = PulseTable(doc["duration_s"], np.asarray(doc["samples"]))
        else:
            config = GrapeConfig(
                n_segments=128, amp_limit=2 * np.pi * 1000.0, learning_rate=50.0,
                f_threshold=0.99, max_iters=2000, seed=0,
            )
            table, record = grape_train(DEFM, cnot_objective(), 0.020, config)
            assert record.converged
            ARTIFACTS.mkdir(exist_ok=True)
            grape_path.write_text(json.dumps(
                {"duration_s": table.duration, "samples": table.samples.tolist()}
            ))
        grape_fid = evaluate_fidelity(DEFM, table, cnot_objective())
        assert grape_fid >= 0.99

        net_table = sample_pulse(cnot_params, 128)
        net_fid = evaluate_fidelity(DEFM, net_table, cnot_objective())
        assert net_fid >= 0.99

        net_bw = pulse_spectrum(net_table).energy_bandwidth_99
        grape_bw = pulse_spectrum(table).energy_bandwidth_99
        assert np.all(net_bw < grape_bw)


class TestCriterion4LlsPreparation:
    def test_fidelity_threshold(self, lls_params):
        fid = evaluate_fidelity(TCP, lls_params, lls_objective(), n_fine=EVAL_N_FINE)
        assert fid >= 0.99

    def test_trajectory_shape(self, lls_params):
        times, values = basis_trajectory(
            lls_params, TCP, thermal_deviation(), singlet_triplet_basis(), n_samples=201
        )
        # columns: T+, T0, S0, T-; transfer bound for <S0> - <T0> is 2
        final_order = values[-1, 2] - values[-1, 1]
        assert abs(final_order) >= 0.98 * 2.0
        duration = times[-1]
        mid = (times >= 0.25 * duration) & (times <= 0.75 * duration)
        assert np.max(np.abs(values[mid])) < 0.3


class TestCriterion5NoiseOrdering:
    def test_orderings(self, lls_params, noisy_lls_params):
        sweeps = {}
        for kind in ("local", "global"):
            sweeps[kind] = noise_sweep(
                noisy_lls_params[kind], TCP, lls_objective(), GAMMAS, kind
            )
        noiseless = evaluate_fidelity(TCP, lls_params, lls_objective())
        by_gamma = {k: dict(zip(GAMMAS, s.fidelity)) for k, s in sweeps.items()}
        # (a) gamma = 0 reproduces the noiseless run exactly
        assert by_gamma["local"][0.0] == noiseless
        assert by_gamma["global"][0.0] == noiseless
        # (b) global noise hurts more at the largest rate
        assert by_gamma["local"][0.07] > by_gamma["global"][0.07]
        # (c) global fidelity falls faster between 0.04 and 0.06
        drop_global = by_gamma["global"][0.04] - by_gamma["global"][0.06]
        drop_local = by_gamma["local"][0.04] - by_gamma["local"][0.06]
        assert drop_global > drop_local


class TestCriterion6RobustnessTransfer:
    def test_noise_trained_pulse_is_flatter(self, lls_params, noisy_lls_params):
        devs = [round(d, 4) for d in np.arange(-0.2, 0.2001, 0.02)]
        clean_sweep = amplitude_error_sweep(lls_params, TCP, lls_objective(), devs)
        robust_params = noisy_lls_params["local"][0.02]
        noise = noise_operators(TCP, "local", 0.02)
        robust_sweep = amplitude_error_sweep(
            robust_params, TCP, lls_objective(), devs, noise=noise
        )
        assert robust_width(robust_sweep) > robust_width(clean_sweep)
