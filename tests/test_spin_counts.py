"""Registers of 1, 3 and 4 spins (spins.MAX_SPINS is 4; every other test uses
2): the exact unitary gradient against central differences, U(T) unitary,
and at 3 spins the propagator against the adaptive oracle.  Each case is a
fixed random system, pulse table and gate target."""

import numpy as np
import pytest

from pinnctl.network import PulseTable
from pinnctl.objectives import ObjectiveSpec, evaluate_fidelity, pulse_table_gradient
from pinnctl.propagation import propagate_unitary
from pinnctl.spins import MAX_SPINS, SpinSystem

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


CASES = [pytest.param(n, seed, id=f"{n}spins-seed{seed}")
         for n in (1, 3, 4) for seed in (0, 1)]


def test_cases_reach_max_spins():
    assert max(CHANNELS) == MAX_SPINS


@pytest.mark.parametrize("n_spins, seed", CASES)
def test_gradient_matches_central_differences(n_spins, seed):
    system, table, objective = random_case(n_spins, seed)
    fid, grad = pulse_table_gradient(system, table, objective)
    assert abs(fid - evaluate_fidelity(system, table, objective)) < 1e-12
    amps = table.flat_amplitudes()
    eps = 1e-2  # rad/s, against amplitudes of about 300
    probes = np.random.default_rng(seed).choice(amps.size, size=N_PROBES, replace=False)
    for flat_idx in probes:
        idx = np.unravel_index(flat_idx, amps.shape)
        values = []
        for sign in (1.0, -1.0):
            probe = amps.copy()
            probe[idx] += sign * eps
            shifted = PulseTable(DURATION, probe.reshape(table.samples.shape))
            values.append(evaluate_fidelity(system, shifted, objective))
        fd = (values[0] - values[1]) / (2 * eps)
        assert abs(fd - grad[idx]) <= 1e-6 * np.max(np.abs(grad))


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
