"""Registers of 1, 3 and 4 spins (spins.MAX_SPINS is 4; every other test uses
2): the exact unitary gradient against central differences, U(T) unitary,
and at 3 spins the propagator against the adaptive oracle.  Each case is a
fixed random system, pulse table and gate target.  At 1 and 3 spins the
Lindblad path under local Ix/Iy collapse keeps rho(T) a trace-preserved
Hermitian matrix, reduces to the unitary path at gamma = 0, and its exact
gradient matches central differences."""

import numpy as np
import pytest

from pinnctl.network import PulseTable
from pinnctl.objectives import ObjectiveSpec, evaluate_fidelity, pulse_table_gradient
from pinnctl.propagation import propagate_density, propagate_lindblad, propagate_unitary
from pinnctl.spins import MAX_SPINS, NoiseModel, SpinSystem, spin_half_operator, system_operators

from oracles import propagate_oracle

CHANNELS = {1: ((0,),), 3: ((0,), (1, 2)), 4: ((0, 1), (2,), (3,))}
N_SEGMENTS = 40
DURATION = 0.01  # s
N_PROBES = 32  # table entries compared, of 80 to 240


def random_case(n_spins, seed):
    """A system with random offsets and every pair coupled, a random pulse
    table on its channels and a random gate target."""
    rng = np.random.default_rng(seed)
    couplings = tuple((i, j, float(rng.uniform(5.0, 60.0)))
                      for i in range(n_spins) for j in range(i + 1, n_spins))
    system = SpinSystem(n_spins, CHANNELS[n_spins], couplings,
                        tuple(rng.uniform(-100.0, 100.0, n_spins)))
    table = PulseTable(DURATION, rng.normal(0.0, 300.0, size=(N_SEGMENTS, system.n_channels, 2)))
    dim = system.dimension
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    target = q * (np.diag(r) / np.abs(np.diag(r)))
    return system, table, ObjectiveSpec(kind="gate", target=target)


def central_differences(table, probes, value):
    """Central differences of value(table) in the flat table entries probes."""
    amps = table.flat_amplitudes()
    eps = 1e-2  # rad/s, against amplitudes of about 300
    fd = []
    for flat_idx in probes:
        values = []
        for sign in (1.0, -1.0):
            probe = amps.copy()
            probe.flat[flat_idx] += sign * eps
            values.append(value(PulseTable(DURATION, probe.reshape(table.samples.shape))))
        fd.append((values[0] - values[1]) / (2 * eps))
    return np.array(fd)


CASES = [pytest.param(n, seed, id=f"{n}spins-seed{seed}")
         for n in (1, 3, 4) for seed in (0, 1)]


def test_cases_reach_max_spins():
    assert max(CHANNELS) == MAX_SPINS


@pytest.mark.parametrize("n_spins, seed", CASES)
def test_gradient_matches_central_differences(n_spins, seed):
    system, table, objective = random_case(n_spins, seed)
    fid, grad = pulse_table_gradient(system, table, objective)
    assert abs(fid - evaluate_fidelity(system, table, objective)) < 1e-12
    probes = np.random.default_rng(seed).choice(grad.size, size=N_PROBES, replace=False)
    fd = central_differences(table, probes, lambda t: evaluate_fidelity(system, t, objective))
    assert np.max(np.abs(fd - grad.flat[probes])) <= 1e-6 * np.max(np.abs(grad))


@pytest.mark.parametrize("n_spins, seed", CASES)
def test_final_unitary_is_unitary(n_spins, seed):
    system, table, _ = random_case(n_spins, seed)
    u = propagate_unitary(system, table).final
    assert u.shape == (system.dimension,) * 2
    assert np.max(np.abs(u.conj().T @ u - np.eye(system.dimension))) < 1e-12


@pytest.mark.parametrize("seed", [0, 1])
def test_three_spins_match_the_oracle(seed):
    system, table, _ = random_case(3, seed)
    u = propagate_unitary(system, table).final
    oracle = propagate_oracle(system, table, mode="unitary", rtol=1e-10, atol=1e-12).final
    assert np.linalg.norm(u - oracle) < 1e-7


LINDBLAD_CASES = [pytest.param(n, seed, id=f"{n}spins-seed{seed}")
                  for n in (1, 3) for seed in (0, 1)]
GAMMA = 0.05
# a fixed substep count (from a fixed amplitude bound), so the probed
# objective is one smooth function of the table
LINDBLAD_STEPS = dict(substep_tol=0.05, amp_bound=1000.0)
LINDBLAD_FD_TOL = 1e-6  # of the largest gradient entry


def lindblad_case(n_spins, seed, gamma):
    """The random case with local Ix/Iy collapse on every spin, and a
    traceless deviation rho_i = sum_k (k + 1) Iz_k."""
    system, table, _ = random_case(n_spins, seed)
    collapse = tuple(spin_half_operator(n_spins, k, axis)
                     for k in range(n_spins) for axis in ("x", "y"))
    noise = NoiseModel(gamma=gamma, kind="local", collapse_ops=collapse,
                       drift_norm=system_operators(system).drift_norm)
    rho_i = sum((k + 1.0) * spin_half_operator(n_spins, k, "z") for k in range(n_spins))
    return system, table, noise, rho_i


@pytest.mark.parametrize("n_spins, seed", LINDBLAD_CASES)
def test_lindblad_state_keeps_trace_and_hermiticity(n_spins, seed):
    system, table, noise, rho_i = lindblad_case(n_spins, seed, GAMMA)
    rho0 = np.eye(system.dimension) / system.dimension + 0.1 * rho_i
    rho = propagate_lindblad(system, table, rho0, noise).final
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


@pytest.mark.parametrize("n_spins, seed", LINDBLAD_CASES)
def test_lindblad_at_zero_gamma_is_the_unitary_path(n_spins, seed):
    system, table, noise, rho_i = lindblad_case(n_spins, seed, 0.0)
    rho = propagate_lindblad(system, table, rho_i, noise).final
    ref = propagate_density(system, table, rho_i).final
    assert np.max(np.abs(rho - ref)) < 1e-8


@pytest.mark.parametrize("n_spins, seed", LINDBLAD_CASES)
def test_lindblad_gradient_matches_central_differences(n_spins, seed):
    system, table, noise, rho_i = lindblad_case(n_spins, seed, GAMMA)
    # the target is the noiseless image of rho_i under 0.9 times the pulse, so
    # the normalized fidelity is of order 1 but not at its maximum, and the
    # differences measure the gradient, not round-off
    target = propagate_density(system, table.scaled(0.9), rho_i).final
    objective = ObjectiveSpec(kind="state", target=target, initial=rho_i, noise=noise)
    fid, grad = pulse_table_gradient(system, table, objective, **LINDBLAD_STEPS)
    assert 0.5 < fid < 1.0
    probes = np.random.default_rng(seed).choice(grad.size, size=N_PROBES // 2, replace=False)
    fd = central_differences(
        table, probes, lambda t: pulse_table_gradient(system, t, objective, **LINDBLAD_STEPS)[0]
    )

    def mismatch(g):
        return np.max(np.abs(fd - g.flat[probes])) / np.max(np.abs(g))

    assert mismatch(grad) < LINDBLAD_FD_TOL
    # the check sees an error of 1e-5 of every entry
    assert mismatch(grad * (1.0 + 1e-5)) > LINDBLAD_FD_TOL
