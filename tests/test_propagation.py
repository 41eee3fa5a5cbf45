import tracemalloc
import warnings
from dataclasses import replace
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from pinnctl import propagation, workspace
from pinnctl.analysis import basis_trajectory
from pinnctl.network import PulseTable, init_params, load_params, sample_pulse
from pinnctl.objectives import evaluate_fidelity, pulse_table_gradient
from pinnctl.propagation import (
    _CHUNK,
    DEFAULT_SUBSTEP_TOL,
    _ordered_product,
    _rk4_maps,
    _squarings,
    _squarings_adjoint,
    _sweep_segments,
    _taylor_power,
    lindblad_substeps,
    prefix_products,
    propagate_density,
    propagate_lindblad,
    propagate_unitary,
    segment_hamiltonians,
    segment_lindblad_maps,
    segment_unitaries,
    segment_unitary_maps,
    taylor_plan,
)
from pinnctl.spins import (
    PRESETS,
    SpinSystem,
    control_operator_stack,
    drift_hamiltonian,
    liouvillian,
    noise_operators,
    spin_half_operator,
    system_operators,
)
from pinnctl.targets import cnot_objective, lls_objective, singlet_triplet_basis, thermal_deviation
from pinnctl.workspace import _workspace

from oracles import expm_hermitian, propagate_oracle, segment_liouvillians, shape_penalty


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2


def zero_pulse(duration, n, channels):
    return PulseTable(duration, np.zeros((n, channels, 2)))


class TestExpmHermitian:
    def test_zero_time_is_identity(self):
        h = random_hermitian(np.random.default_rng(0), 4)
        assert np.allclose(expm_hermitian(h, 0.0), np.eye(4))

    def test_defm_drift_phases(self):
        # diagonal drift: phases exp(-i * 2*pi*J * (+-1/4) * dt)
        h0 = drift_hamiltonian(PRESETS["defm"])
        dt = 3.7e-3
        u = expm_hermitian(h0, dt)
        j = 48.2
        expected = np.exp(-1j * 2 * np.pi * j * dt * np.array([0.25, -0.25, -0.25, 0.25]))
        assert np.allclose(np.diag(u), expected)

    def test_matches_pade_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            h = random_hermitian(rng, 4, scale=100.0)
            dt = rng.uniform(0, 1e-2)
            ours = expm_hermitian(h, dt)
            pade = scipy_expm(-1j * h * dt)
            assert np.linalg.norm(ours - pade) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)


class TestPrefixProducts:
    @pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 255, 4096])
    def test_matches_sequential_products(self, n):
        rng = np.random.default_rng(n)
        units = np.stack([expm_hermitian(random_hermitian(rng, 4, 3.0), 1.0) for _ in range(n)])
        ref = np.empty((n + 1, 4, 4), dtype=complex)
        ref[0] = acc = np.eye(4)
        for s in range(n):
            acc = units[s] @ acc
            ref[s + 1] = acc
        assert np.max(np.abs(prefix_products(units) - ref)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 256, 4097])
    def test_real_form_scan_matches_plain_complex_products(self, n):
        # 4097 = 64^2 + 1: full blocks and one segment stepped singly
        rng = np.random.default_rng(n)
        units = np.stack([expm_hermitian(random_hermitian(rng, 4, 3.0), 1.0) for _ in range(n)])
        acc, ref = np.eye(4, dtype=complex), [np.eye(4)]
        for u in units:
            acc = u @ acc
            ref.append(acc)
        pre = prefix_products(units)
        assert pre.dtype == complex and pre.shape == (n + 1, 4, 4)
        assert np.max(np.abs(pre - np.array(ref))) < 1e-13


class TestComplexMatmul:
    """The complex batched product formed as one real matmul."""

    @staticmethod
    def cmat(rng, *shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    @pytest.mark.parametrize("batch", [1, 256])
    @pytest.mark.parametrize("m, k, n", [(4, 4, 4), (3, 5, 2), (1, 4, 6)])
    @pytest.mark.parametrize("b_view", ["contiguous", "transposed"])
    def test_matches_matmul(self, batch, m, k, n, b_view):
        rng = np.random.default_rng(batch * m * k * n)
        a = self.cmat(rng, batch, m, k)
        b = self.cmat(rng, batch, k, n) if b_view == "contiguous" else \
            self.cmat(rng, batch, n, k).transpose(0, 2, 1)
        out = propagation._complex_matmul(a, b, np.empty((batch, m, n), complex))
        bound = 1e-15 * np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(b, axis=(1, 2))
        assert np.all(np.max(np.abs(out - np.matmul(a, b)), axis=(1, 2)) <= bound)

    def test_same_bits_inside_and_outside_a_workspace(self):
        rng = np.random.default_rng(3)
        a, b = self.cmat(rng, 64, 4, 4), self.cmat(rng, 64, 4, 4)
        fresh = propagation._complex_matmul(a, b, np.empty_like(a))
        with _workspace():
            propagation._complex_matmul(b[:5], a[:5], np.empty_like(a[:5]))  # another shape first
            reused = propagation._complex_matmul(a, b, np.empty_like(a))
        assert np.array_equal(fresh, reused)

    @pytest.mark.parametrize("operand", ["a", "out"])
    def test_non_contiguous_rows_are_refused(self, operand):
        # a transposed view read as (re, im) pairs would pair the wrong entries
        rng = np.random.default_rng(4)
        a, b = self.cmat(rng, 8, 4, 4), self.cmat(rng, 8, 4, 4)
        out = np.zeros_like(a)
        args = {"a": (a.transpose(0, 2, 1), b, out), "out": (a, b, out.transpose(0, 2, 1))}
        with pytest.raises(ValueError):
            propagation._complex_matmul(*args[operand])
        assert not np.any(out)


class TestSampleTimes:
    """One trajectory row per requested time, in the order given."""

    def test_rows_on_the_segment_grid(self):
        system = PRESETS["tcp"]
        table = PulseTable(0.05, np.random.default_rng(1).normal(0, 300, size=(16, 1, 2)))
        rho0 = thermal_deviation()
        times = np.linspace(0.0, 0.05, 50)
        res = propagate_density(system, table, rho0, sample_times=times)
        assert [t for t, _ in res.trajectory] == list(times)
        h = drift_hamiltonian(system) + np.einsum(
            "nc,cij->nij", table.flat_amplitudes(), control_operator_stack(system)
        )
        pre = prefix_products(np.stack([expm_hermitian(hs, table.dt) for hs in h]))
        for t, rho in res.trajectory:
            u = pre[int(round(t / 0.05 * 16))]
            assert np.allclose(rho, u @ rho0 @ u.conj().T, atol=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    def test_duplicates_and_order_kept(self, gamma):
        system = PRESETS["tcp"]
        table = PulseTable(0.05, np.random.default_rng(2).normal(0, 300, size=(8, 1, 2)))
        rho0 = thermal_deviation()
        times = [0.05, 0.0, 0.026, 0.025, 0.05]  # 0.026 and 0.025 share boundary 4
        if gamma:
            noise = noise_operators(system, "local", gamma)
            res = propagate_lindblad(system, table, rho0, noise, sample_times=times)
        else:
            res = propagate_density(system, table, rho0, sample_times=times)
        assert [t for t, _ in res.trajectory] == times
        rows = [rho for _, rho in res.trajectory]
        assert np.allclose(rows[0], res.final) and np.allclose(rows[4], res.final)
        assert np.allclose(rows[1], rho0)
        assert np.array_equal(rows[2], rows[3])


def loop_sweep(maps, x, times, duration):
    """One segment at a time: x at every boundary, then the rows at the
    boundaries nearest to the times."""
    states = [x]
    for m in maps:
        x = m @ x
        states.append(x)
    n = len(maps)
    return x, [states[int(round(t / duration * n))] for t in times]


def tcp_lindblad_maps(n, seed=0):
    """Segment maps of a random tcp pulse under local noise, at the default step."""
    table = PulseTable(0.05, np.random.default_rng(seed).normal(0, 300, size=(n, 1, 2)))
    noise = noise_operators(PRESETS["tcp"], "local", 0.05)
    substeps = lindblad_substeps(PRESETS["tcp"], table, noise, 0.005)
    return segment_lindblad_maps(PRESETS["tcp"], noise, table, substeps)


class TestProductTree:
    """The pairwise product tree against a plain loop over the segments."""

    @staticmethod
    def sample_times(n, duration):
        # unsorted, with t=0, t=T, a duplicate and two times that snap to one boundary
        k = max(1, n // 3)
        near = [(k - 0.2) / n * duration, (k + 0.2) / n * duration]
        return [duration, 0.6 * duration, 0.0, *near, 0.6 * duration, 0.1 * duration, duration]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 1000, 4097])
    def test_unitary_maps_match_loop(self, n):
        rng = np.random.default_rng(n)
        hs = [random_hermitian(rng, 4, 3.0) for _ in range(n)]
        units = np.stack([expm_hermitian(h, 1.0) for h in hs])
        times = self.sample_times(n, 0.02)
        res = _sweep_segments(
            zero_pulse(0.02, len(units), 1), units.__getitem__, np.eye(4, dtype=complex), times, np.copy
        )
        final, traj = res.final, res.trajectory
        ref_final, ref_rows = loop_sweep(units, np.eye(4, dtype=complex), times, 0.02)
        assert np.max(np.abs(final - ref_final)) <= 1e-13
        assert [t for t, _ in traj] == times
        for (_, row), ref in zip(traj, ref_rows):
            assert np.max(np.abs(row - ref)) <= 1e-13
        assert np.array_equal(traj[3][1], traj[4][1]) and np.array_equal(traj[1][1], traj[5][1])

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 1000, 4097])
    def test_lindblad_maps_match_loop(self, n):
        maps = tcp_lindblad_maps(n)
        ops = system_operators(PRESETS["tcp"])
        rho0 = np.eye(4) / 4 + 0.1 * thermal_deviation()
        x0 = ops.coordinates(rho0)
        times = self.sample_times(n, 0.05)
        res = _sweep_segments(zero_pulse(0.05, len(maps), 1), maps.__getitem__, x0, times, np.copy)
        final, traj = res.final, res.trajectory
        ref_final, ref_rows = loop_sweep(maps, x0, times, 0.05)
        assert np.max(np.abs(final - ref_final)) <= 1e-13
        for (_, row), ref in zip(traj, ref_rows):
            assert np.max(np.abs(row - ref)) <= 1e-13
        rho = ops.density(final)
        # the RK4 maps themselves move the trace by up to 6e-13 here, the loop alike
        assert abs(np.trace(rho) - np.trace(rho0)) <= 1e-10
        assert np.array_equal(rho, rho.conj().T)

    def test_unitarity_at_32768_segments(self):
        p = init_params((1, 16, 16, 4), 2 * np.pi * 1000, 0.02, seed=8)
        u = propagate_unitary(PRESETS["defm"], p, n_fine=32768).final
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-10

    @pytest.mark.parametrize("call, n, row_bytes", [
        pytest.param(lambda n: propagate_lindblad(
            PRESETS["tcp"], init_params((1, 8, 8, 2), 2 * np.pi * 200, 0.05, seed=2),
            thermal_deviation(), noise_operators(PRESETS["tcp"], "local", 0.02), n_fine=n,
        ), 4096, 16 * 16 * 8, id="lindblad-4096"),
        pytest.param(lambda n: propagate_unitary(
            PRESETS["defm"], init_params((1, 8, 8, 4), 2 * np.pi * 500, 0.02, seed=1), n_fine=n,
        ), 32768, 4 * 4 * 16, id="unitary-32768"),
        pytest.param(lambda n: propagate_unitary(
            PRESETS["defm"], init_params((1, 40, 40, 4), 2 * np.pi * 500, 0.02, seed=1), n_fine=n,
        ), 32768, 4 * 8, id="network-32768"),
    ])
    def test_traced_peak_within_six_batches(self, call, n, row_bytes):
        # the segment-map build peaks at four (Lindblad) or fewer (N, d, d) arrays, and a
        # sampled network at its (N, 2M) table, its layers formed in blocks of rows;
        # a temporary kept alive there too long breaks this
        tracemalloc.start()
        try:
            call(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * n * row_bytes

    @pytest.mark.parametrize("n", [32768, 32767])
    def test_tree_holds_two_levels_at_a_time(self, n):
        # levels of N/2 and N/4 products coexist while the second is formed;
        # keeping every level alive would approach N
        maps = np.broadcast_to(np.eye(4, dtype=complex), (n, 4, 4)).copy()
        tracemalloc.start()
        try:
            product = _ordered_product(maps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(product, np.eye(4))
        assert peak <= 0.8 * maps.nbytes


class TestSegmentLindbladMaps:
    def test_second_call_outside_an_ascent_leaves_the_first_untouched(self):
        system = PRESETS["tcp"]
        noise = noise_operators(system, "local", 0.05)
        rng = np.random.default_rng(6)
        first = segment_lindblad_maps(
            system, noise, PulseTable(0.05, rng.normal(0, 300, size=(64, 1, 2))), 8
        )
        kept = [a.copy() for a in first]
        segment_lindblad_maps(system, noise, PulseTable(0.05, rng.normal(0, 300, size=(64, 1, 2))), 8)
        assert all(np.array_equal(a, b) for a, b in zip(first, kept))

    @pytest.mark.parametrize("kind", ["local", "global"])
    @pytest.mark.parametrize("substeps", [1, 2, 8])
    @pytest.mark.parametrize("name", ["tcp", "defm"])
    def test_matches_literal_horner(self, name, kind, substeps):
        # every squaring is the same bits; R, a GEMM over the monomials of h u, agrees with
        # Horner in h L to rounding (at most 1.02 eps max|R| measured), and the reference's L,
        # built from each segment's Hamiltonian, with L from the generators
        system = PRESETS[name]
        noise = noise_operators(system, kind, 0.05)
        table = PulseTable(0.05, np.random.default_rng(4).normal(0, 300, size=(64, system.n_channels, 2)))
        ops = system_operators(system)
        lv = ops.drift_generator + noise.dissipator + np.tensordot(
            table.flat_amplitudes(), ops.control_generators, axes=1
        )
        hl = (table.dt / substeps) * lv
        eye = np.eye(16)
        r = hl / 24.0 + eye / 6.0  # Horner on the coefficients 1/k!
        for c_k in (1 / 2, 1.0, 1.0):
            r = np.matmul(hl, r) + c_k * eye
        got = _squarings(_rk4_maps(system, noise, table, substeps, slice(None))[0], substeps.bit_length() - 1)
        assert len(got) == 1 + substeps.bit_length() - 1
        assert np.array_equal(segment_lindblad_maps(system, noise, table, substeps), got[-1])
        ref_lv = segment_liouvillians(system, noise, table)
        assert np.max(np.abs(ref_lv - lv)) <= 1e-12 * np.max(np.abs(lv))
        assert np.max(np.abs(got[0] - r)) <= 4 * np.finfo(float).eps * np.max(np.abs(r))
        for level, square in zip(got, got[1:]):
            assert np.array_equal(square, np.matmul(level, level))


class TestTaylorPower:
    @pytest.mark.parametrize("d", [8, 16])
    @pytest.mark.parametrize("degree", range(1, 15))
    def test_polynomial_of_every_degree(self, degree, d):
        # the unitary plans use degrees 5-14 and the Lindblad maps 4; |x| <= 1/2 as planned
        x = np.random.default_rng(degree * d).normal(0, 0.5 / d, size=(32, d, d))
        power, ref = np.broadcast_to(np.eye(d), x.shape), np.zeros_like(x)
        for k in range(degree + 1):
            ref += power / factorial(k)
            power = np.matmul(x, power)
        got = _taylor_power(np.eye(len(x)), x, degree)  # x = I x, exactly
        assert np.max(np.abs(got - ref)) <= 8 * np.finfo(float).eps * np.max(np.abs(ref))

    @pytest.mark.parametrize("squarings", range(1, 6))
    @pytest.mark.parametrize("degree", [1, 2, 4, 7, 13])
    def test_each_level_is_the_square_of_the_one_before(self, degree, squarings):
        x = np.random.default_rng(degree + 10 * squarings).normal(0, 0.05, size=(5, 8, 8))
        levels = _squarings(_taylor_power(np.eye(len(x)), x, degree), squarings)
        assert len(levels) == squarings + 1
        for level, square in zip(levels, levels[1:]):
            assert np.array_equal(square, np.matmul(level, level))
        with _workspace():  # not kept: the levels take turns in two buffers
            last = _squarings(_taylor_power(np.eye(len(x)), x, degree), squarings, keep=False)
        assert len(last) == 1 and np.array_equal(last[0], levels[-1])

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("squarings", range(6))
    @pytest.mark.parametrize("degree", [4, 13])
    def test_reverse_pass_matches_the_dense_sum(self, degree, squarings, rank):
        # Z = sum_j R^j X Yt R^(2^k-1-j): the factors (width 1 or 2) double up to D = 16 and the
        # squarings past that (from 5 or 4 on) run densely.  Z is written over the top level, which
        # is consumed, and each dense step swaps it with the factors' buffer: one dense step (rank 1
        # at 5 squarings, rank 2 at 4) leaves Z there, two (rank 2 at 5) back in the top level
        rng, d, step = np.random.default_rng(10 * degree + squarings), 16, 0.01
        gen = rng.normal(0, 50 / d, size=(3, d, d))
        x, yt = rng.normal(size=(3, d, rank)), rng.normal(size=(3, rank, d))
        levels = _squarings(_taylor_power(np.eye(len(gen)), step * gen, degree), squarings)
        r_pow = [np.broadcast_to(np.eye(d), gen.shape)]
        for _ in range(2**squarings):
            r_pow.append(np.matmul(levels[0], r_pow[-1]))
        z = x @ yt
        ref = sum(r_pow[j] @ z @ r_pow[2**squarings - 1 - j] for j in range(2**squarings))
        below = [level.copy() for level in levels[:-1]]
        got = _squarings_adjoint(x, yt, levels)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert all(np.array_equal(level, kept) for level, kept in zip(levels, below))
        dense = squarings - min(squarings, 5 - rank)
        assert np.shares_memory(got, levels[-1]) == (dense % 2 == 0)


class TestPropagateUnitary:
    def test_zero_everything_is_identity(self):
        sys_ = SpinSystem(2, ((0,), (1,)))
        res = propagate_unitary(sys_, zero_pulse(0.01, 8, 2))
        assert np.allclose(res.final, np.eye(4))

    def test_drift_only_phases(self):
        sys_ = PRESETS["defm"]
        duration = 1.0 / (2 * 48.2)
        res = propagate_unitary(sys_, zero_pulse(duration, 16, 2))
        expected = np.diag(np.exp(-1j * 2 * np.pi * 48.2 * duration * np.array([0.25, -0.25, -0.25, 0.25])))
        assert np.linalg.norm(res.final - expected) < 1e-9

    def test_pi_rotation_on_one_spin(self):
        # constant x pulse of area pi on spin 0, no drift
        sys_ = SpinSystem(2, ((0,), (1,)))
        duration, n = 1e-3, 64
        samples = np.zeros((n, 2, 2))
        samples[:, 0, 0] = np.pi / duration
        res = propagate_unitary(sys_, PulseTable(duration, samples))
        ix = spin_half_operator(2, 0, "x")
        expected = scipy_expm(-1j * np.pi * ix)
        assert np.linalg.norm(res.final - expected) < 1e-9

    def test_unitarity_drift_per_segment(self):
        p = init_params((1, 16, 16, 4), 2 * np.pi * 1000, 0.02, seed=8)
        res = propagate_unitary(PRESETS["defm"], p, n_fine=4096)
        defect = np.linalg.norm(res.final.conj().T @ res.final - np.eye(4))
        assert defect < 1e-13 * 4096

    def test_time_reversal_returns_identity(self):
        # pulse then its time-reversed negation, drift zeroed
        sys_ = SpinSystem(2, ((0,), (1,)))
        rng = np.random.default_rng(5)
        n = 32
        fwd = rng.normal(0, 1000, size=(n, 2, 2))
        both = np.concatenate([fwd, -fwd[::-1]], axis=0)
        res = propagate_unitary(sys_, PulseTable(2e-3, both))
        assert np.linalg.norm(res.final - np.eye(4)) < 1e-8

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            propagate_unitary(PRESETS["defm"], zero_pulse(0.01, 4, 1))

    def test_only_a_table_or_a_network_is_a_pulse(self):
        with pytest.raises(TypeError, match="^cannot interpret ndarray as a pulse$"):
            propagate_unitary(PRESETS["defm"], np.zeros((4, 2, 2)))

    def test_second_order_convergence_midpoint(self):
        p = init_params((1, 10, 10, 4), 2 * np.pi * 500, 0.02, seed=2)
        oracle = propagate_oracle(PRESETS["defm"], p, mode="unitary").final
        errs = {}
        for n in (2**6, 2**7, 2**8, 2**9):
            errs[n] = np.linalg.norm(propagate_unitary(PRESETS["defm"], p, n_fine=n).final - oracle)
        for n in (2**6, 2**7, 2**8):
            ratio = errs[n] / errs[2 * n]
            assert 3.0 < ratio < 5.0


class TestPropagateDensity:
    def test_identity_state_unchanged(self):
        p = init_params((1, 8, 8, 4), 2 * np.pi * 500, 0.02, seed=1)
        rho0 = np.eye(4) / 4
        res = propagate_density(PRESETS["defm"], p, rho0, n_fine=256)
        assert np.linalg.norm(res.final - rho0) < 1e-12

    def test_thermal_state_commutes_with_drift(self):
        rho0 = thermal_deviation()
        res = propagate_density(PRESETS["tcp"], zero_pulse(0.05, 64, 1), rho0)
        assert np.linalg.norm(res.final - rho0) < 1e-10

    def test_purity_preserved(self):
        p = init_params((1, 8, 8, 2), 2 * np.pi * 200, 0.05, seed=6)
        rho0 = thermal_deviation()
        res = propagate_density(PRESETS["tcp"], p, rho0, n_fine=512)
        assert abs(np.trace(res.final @ res.final) - np.trace(rho0 @ rho0)) < 1e-9
        assert np.linalg.norm(res.final - res.final.conj().T) < 1e-9


class TestStateDimension:
    # a 4 x 4 state on a 3-spin system, an 8 x 8 one on a 2-spin system
    def test_density_names_both_sizes(self):
        three = SpinSystem(3, channels=((0, 1, 2),), couplings=((0, 1, 8.75),))
        with pytest.raises(ValueError, match=r"\(4, 4\).*\(8, 8\)"):
            propagate_density(three, zero_pulse(0.05, 8, 1), thermal_deviation())

    def test_lindblad_names_both_sizes(self):
        noise = noise_operators(PRESETS["tcp"], "local", 0.02)
        with pytest.raises(ValueError, match=r"\(8, 8\).*\(4, 4\)"):
            propagate_lindblad(PRESETS["tcp"], zero_pulse(0.05, 8, 1), np.eye(8) / 8, noise)


class TestPropagateLindblad:
    def test_gamma_zero_matches_density(self):
        p = init_params((1, 8, 8, 2), 2 * np.pi * 200, 0.05, seed=2)
        noise = noise_operators(PRESETS["tcp"], "global", 0.0)
        rho0 = thermal_deviation()
        a = propagate_lindblad(PRESETS["tcp"], p, rho0, noise, n_fine=1024)
        b = propagate_density(PRESETS["tcp"], p, rho0, n_fine=1024)
        assert np.linalg.norm(a.final - b.final) < 1e-8

    def test_trace_and_hermiticity_preserved(self):
        p = init_params((1, 8, 8, 2), 2 * np.pi * 200, 0.05, seed=2)
        noise = noise_operators(PRESETS["tcp"], "local", 0.06)
        rho0 = np.eye(4) / 4 + 0.1 * thermal_deviation()
        res = propagate_lindblad(PRESETS["tcp"], p, rho0, noise, n_fine=512)
        assert abs(np.trace(res.final) - np.trace(rho0)) < 1e-7
        assert np.linalg.norm(res.final - res.final.conj().T) < 1e-7

    def test_coherence_decays_under_global_noise(self):
        sysc = PRESETS["tcp"]
        noise = noise_operators(sysc, "global", 0.05)
        rho0 = spin_half_operator(2, 0, "x") + spin_half_operator(2, 1, "x")
        times = np.linspace(0, 0.05, 11)
        res = propagate_lindblad(
            sysc, zero_pulse(0.05, 256, 1), rho0, noise, sample_times=times
        )
        norms = [np.linalg.norm(r) for _, r in res.trajectory]
        # overall decay against the dense adaptive oracle
        oracle = propagate_oracle(
            sysc, zero_pulse(0.05, 256, 1), rho0, mode="lindblad", noise=noise,
            rtol=1e-10, atol=1e-12,
        )
        assert np.linalg.norm(res.final - oracle.final) < 1e-7
        assert norms[-1] < norms[0]

    @pytest.mark.parametrize("tol", [30.0, np.inf, np.nan])
    def test_substep_tolerance_must_lie_in_zero_one(self, tol):
        # above 1 an RK4 substep can leave the method's stability region
        table = zero_pulse(0.05, 16, 1)
        noise = noise_operators(PRESETS["tcp"], "local", 0.02)
        assert lindblad_substeps(PRESETS["tcp"], table, noise, 1.0) >= 1
        with pytest.raises(ValueError, match=r"substep_tol must be in \(0, 1\]"):
            lindblad_substeps(PRESETS["tcp"], table, noise, tol)

    def test_amplitudes_past_the_float_range_are_a_step_underflow(self):
        # the control bound overflows to inf quietly; the count then names the underflow
        table = PulseTable(0.15, np.full((3, 1, 2), 1.7e308))
        noise = noise_operators(PRESETS["tcp"], "local", 0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="step-size underflow"):
                lindblad_substeps(PRESETS["tcp"], table, noise, DEFAULT_SUBSTEP_TOL)

    def test_step_underflow_names_the_count_and_the_remedies(self):
        table = PulseTable(0.15, np.full((3, 1, 2), 1e12))
        noise = noise_operators(PRESETS["tcp"], "local", 0.02)
        with pytest.raises(RuntimeError, match="step-size underflow") as err:
            lindblad_substeps(PRESETS["tcp"], table, noise, DEFAULT_SUBSTEP_TOL)
        needed = float(f"{err.value}".split("= ")[1].split(";")[0])
        assert 2**20 < needed < np.inf
        assert all(w in f"{err.value}" for w in ("more segments", "substep_tol", "smaller amplitudes"))

    def test_maximally_mixed_is_stationary_under_local_noise(self):
        noise = noise_operators(PRESETS["tcp"], "local", 0.07)
        rho0 = np.eye(4) / 4
        res = propagate_lindblad(PRESETS["tcp"], zero_pulse(0.05, 128, 1), rho0, noise)
        assert np.linalg.norm(res.final - rho0) < 1e-10


def reference_lindblad(system, table, noise, rho0, substeps):
    """rho(T) from complex superoperators, one RK4 substep at a time."""
    h0 = drift_hamiltonian(system)
    ops = control_operator_stack(system)
    h = table.dt / substeps
    x = rho0.reshape(-1).astype(complex)
    for u in table.flat_amplitudes():
        hl = h * liouvillian(h0 + np.einsum("c,cij->ij", u, ops), noise)
        r = sum(np.linalg.matrix_power(hl, k) / factorial(k) for k in range(5))
        for _ in range(substeps):
            x = r @ x
    return x.reshape(rho0.shape)


class TestLindbladRealBasis:
    @pytest.mark.parametrize("kind", ["local", "global"])
    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    def test_generators_are_real(self, kind, gamma):
        system = PRESETS["tcp"]
        noise = noise_operators(system, kind, gamma)
        ops = system_operators(system)
        b = ops.hermitian_basis
        # the system part is built once per system, the dissipator once per noise model
        again = system_operators(system)
        assert again.hermitian_basis is b and again.control_generators is ops.control_generators
        assert again.drift_generator is ops.drift_generator
        assert noise.dissipator is noise.dissipator and not noise.dissipator.flags.writeable
        assert np.linalg.norm(b.conj().T @ b - np.eye(16)) < 1e-12
        for k in range(16):
            bk = b[:, k].reshape(4, 4)
            assert np.array_equal(bk, bk.conj().T)
        drift = ops.drift_generator + noise.dissipator
        pairs = [(drift, liouvillian(drift_hamiltonian(system), noise))]
        pairs += zip(ops.control_generators, [liouvillian(o) for o in control_operator_stack(system)])
        for real, lv in pairs:
            full = b.conj().T @ lv @ b
            scale = np.max(np.abs(full))
            assert np.max(np.abs(full.imag)) < 1e-12 * scale
            assert np.max(np.abs(real - full.real)) < 1e-12 * scale

    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_matches_complex_reference(self, kind):
        system = PRESETS["tcp"]
        noise = noise_operators(system, kind, 0.05)
        table = PulseTable(0.02, np.random.default_rng(3).normal(0, 300, size=(16, 1, 2)))
        rho0 = np.eye(4) / 4 + 0.1 * thermal_deviation()
        res = propagate_lindblad(system, table, rho0, noise)
        substeps = lindblad_substeps(system, table, noise, DEFAULT_SUBSTEP_TOL)
        ref = reference_lindblad(system, table, noise, rho0, substeps)
        assert np.linalg.norm(res.final - ref) < 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(res.final, res.final.conj().T)


class TestOracle:
    def test_zero_hamiltonian_identity(self):
        sys_ = SpinSystem(2, ((0,), (1,)))
        res = propagate_oracle(sys_, zero_pulse(0.01, 4, 2), mode="unitary")
        assert np.linalg.norm(res.final - np.eye(4)) < 1e-8

    def test_constant_hamiltonian_matches_expm(self):
        sys_ = PRESETS["defm"]
        duration, n = 5e-3, 8
        samples = np.full((n, 2, 2), 300.0)
        table = PulseTable(duration, samples)
        h = drift_hamiltonian(sys_)
        from pinnctl.spins import control_operator_stack

        h = h + np.einsum("c,cij->ij", table.flat_amplitudes()[0], control_operator_stack(sys_))
        expected = expm_hermitian(h, duration)
        res = propagate_oracle(sys_, table, mode="unitary", rtol=1e-10, atol=1e-12)
        assert np.linalg.norm(res.final - expected) < 1e-7

    def test_network_pulse_agreement_at_fine_grid(self):
        p = init_params((1, 12, 12, 4), 2 * np.pi * 800, 0.02, seed=4)
        oracle = propagate_oracle(PRESETS["defm"], p, mode="unitary").final
        pwc = propagate_unitary(PRESETS["defm"], p, n_fine=2**14).final
        assert np.linalg.norm(pwc - oracle) < 1e-6


def table_rows(table, rows):
    """The segments in rows as a table of their own, at the table's dt up to rounding."""
    samples = table.samples[rows]
    return PulseTable(table.dt * len(samples), samples)


def chunk_edge_times(n, duration):
    """t=0, t=T and the boundaries just before, at and just after every chunk edge."""
    edges = [b + k for b in range(_CHUNK, n, _CHUNK) for k in (-1, 0, 1)]
    return [0.0, *(b / n * duration for b in edges if 0 < b < n), duration]


class TestChunkedWalk:
    """The forward-only propagators build and fold in the segment maps one
    chunk at a time; the result must not depend on where the chunks fall."""

    @staticmethod
    def tcp_table(n):
        return PulseTable(0.05, np.random.default_rng(n).normal(0, 300, size=(n, 1, 2)))

    @pytest.mark.parametrize("n", [255, 256, 257, 513, 4097])
    def test_unitary_matches_loop_over_one_full_build(self, n):
        system = PRESETS["defm"]
        table = PulseTable(0.02, np.random.default_rng(n).normal(0, 3000, size=(n, 2, 2)))
        times = chunk_edge_times(n, table.duration)
        res = propagate_unitary(system, table, sample_times=times)
        units = segment_unitaries(segment_hamiltonians(system, table), table.dt)[2]
        ref_final, ref_rows = loop_sweep(units, np.eye(4, dtype=complex), times, table.duration)
        assert np.max(np.abs(res.final - ref_final)) <= 1e-13
        assert [t for t, _ in res.trajectory] == times
        for (_, row), ref in zip(res.trajectory, ref_rows):
            assert np.max(np.abs(row - ref)) <= 1e-13

    @pytest.mark.parametrize("n", [255, 256, 257, 513, 4097])
    def test_lindblad_matches_loop_over_one_full_build(self, n):
        system, table = PRESETS["tcp"], self.tcp_table(n)
        noise = noise_operators(system, "local", 0.05)
        rho0 = np.eye(4) / 4 + 0.1 * thermal_deviation()
        times = chunk_edge_times(n, table.duration)
        res = propagate_lindblad(system, table, rho0, noise, sample_times=times)
        substeps = lindblad_substeps(system, table, noise, propagation.DEFAULT_SUBSTEP_TOL)
        maps = segment_lindblad_maps(system, noise, table, substeps)
        ops = system_operators(system)
        ref_final, ref_rows = loop_sweep(maps, ops.coordinates(rho0), times, table.duration)
        assert np.max(np.abs(res.final - ops.density(ref_final))) <= 1e-13
        for (_, row), ref in zip(res.trajectory, ref_rows):
            assert np.max(np.abs(row - ops.density(ref))) <= 1e-13

    @pytest.mark.parametrize("n", [257, 4097])
    @pytest.mark.parametrize("name", ["tcp", "defm"])
    def test_chunk_maps_are_the_rows_of_one_full_build(self, name, n):
        system = PRESETS[name]
        table = PulseTable(0.05, np.random.default_rng(n).normal(0, 300, size=(n, system.n_channels, 2)))
        noise = noise_operators(system, "global", 0.05)
        full_maps = _squarings(_rk4_maps(system, noise, table, 8, slice(None))[0], 3)
        full_h, full_lv = segment_hamiltonians(system, table), segment_liouvillians(system, noise, table)
        full_units = segment_unitaries(full_h, table.dt)
        for lo in range(0, n, _CHUNK):  # n 257 ends in a one-row chunk
            rows = slice(lo, min(lo + _CHUNK, n))
            part_table = table_rows(table, rows)
            for part, full in zip(_squarings(_rk4_maps(system, noise, table, 8, rows)[0], 3), full_maps):
                assert np.array_equal(part, full[rows])
            with _workspace():  # as the walk builds them
                last = segment_lindblad_maps(system, noise, table, 8, rows)
                assert np.array_equal(last, full_maps[-1][rows])
            h = segment_hamiltonians(system, part_table)
            assert np.array_equal(h, full_h[rows])
            assert np.array_equal(segment_liouvillians(system, noise, part_table), full_lv[rows])
            for part, full in zip(segment_unitaries(h, table.dt), full_units):
                assert np.array_equal(part, full[rows])

    @pytest.mark.parametrize("n", [255, 256, 257, 4097])
    def test_one_map_build_per_chunk_for_a_sampled_trajectory(self, n, monkeypatch):
        builds = []
        for name in ("segment_unitary_maps", "segment_lindblad_maps"):
            original = getattr(propagation, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                builds.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(propagation, name, counted)
        system, table = PRESETS["tcp"], self.tcp_table(n)
        times = list(np.linspace(0.0, table.duration, 201))
        rho0 = thermal_deviation()
        propagate_density(system, table, rho0, sample_times=times)
        propagate_lindblad(system, table, rho0, noise_operators(system, "local", 0.05),
                           sample_times=times)
        chunks = -(-n // _CHUNK)
        assert builds == ["segment_unitary_maps"] * chunks + ["segment_lindblad_maps"] * chunks

    def test_one_coefficient_build_per_walk(self, monkeypatch):
        # the RK4 coefficient matrix is formed once per system, noise model and substep length,
        # never per chunk; an equal noise model built anew finds it too
        builds = []
        original = propagation.segment_lindblad_maps

        def counted(*args, **kwargs):
            builds.append(args[3])
            return original(*args, **kwargs)

        monkeypatch.setattr(propagation, "segment_lindblad_maps", counted)
        system, table = PRESETS["tcp"], self.tcp_table(4097)
        propagation._rk4_coefficients.cache_clear()
        for _ in range(2):
            propagate_lindblad(system, table, thermal_deviation(), noise_operators(system, "local", 0.05))
        info = propagation._rk4_coefficients.cache_info()
        assert len(builds) == 2 * 17 and len(set(builds)) == 1
        assert (info.misses, info.hits) == (1, 2 * 17 - 1)

    def test_one_rk4_build_per_gradient(self, monkeypatch):
        # the gradient's maps, monomials and derivative index come from one build, for every chunk
        # of its reverse pass; it builds no walk maps besides
        builds = []
        for name in ("_rk4_maps", "segment_lindblad_maps"):
            original = getattr(propagation, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                builds.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(propagation, name, counted)
        system, table = PRESETS["tcp"], self.tcp_table(513)
        propagation.lindblad_table_gradient(system, noise_operators(system, "local", 0.05), table, 8,
                                            thermal_deviation(), thermal_deviation())
        assert builds == ["_rk4_maps"]


THREE_SPINS = SpinSystem(3, ((0,), (1, 2)), couplings=((0, 1, 48.2), (1, 2, 8.75)),
                         offsets_hz=(0.0, 40.0, -25.0))


def real_form(u):
    """[[Re U, -Im U], [Im U, Re U]] of each matrix of an (N, d, d) batch."""
    return np.concatenate([np.concatenate([u.real, -u.imag], axis=2),
                           np.concatenate([u.imag, u.real], axis=2)], axis=1)


class TestSegmentUnitaryMaps:
    """The forward-only segment maps: Taylor and squaring in real form, no eigendecomposition."""

    @pytest.mark.parametrize("system, table, squares", [
        pytest.param(SpinSystem(2, ((0,), (1,))), zero_pulse(0.01, 8, 2), False, id="zero"),
        pytest.param(PRESETS["defm"], zero_pulse(0.02, 16, 2), False, id="drift-only"),
        # one segment at the CNOT recipe's amplitudes: ||H dt|| of about 50
        pytest.param(PRESETS["defm"], PulseTable(0.02, np.full((1, 2, 2), 2500.0)), True,
                     id="one-segment"),
        pytest.param(PRESETS["defm"], PulseTable(
            0.02, np.random.default_rng(5).normal(0, 3000, size=(32768, 2, 2))), False, id="32768"),
        pytest.param(PRESETS["tcp"], PulseTable(
            0.05, np.random.default_rng(6).normal(0, 300, size=(4096, 1, 2))), False, id="tcp"),
        pytest.param(PRESETS["tcp"], PulseTable(
            0.05, np.random.default_rng(6).normal(0, 300, size=(8, 1, 2))), True, id="tcp-squared"),
        pytest.param(THREE_SPINS, PulseTable(
            0.02, np.random.default_rng(7).normal(0, 1000, size=(4096, 2, 2))), False, id="3-spin"),
        pytest.param(THREE_SPINS, PulseTable(
            0.02, np.random.default_rng(7).normal(0, 1000, size=(16, 2, 2))), True, id="3-spin-squared"),
    ])
    def test_each_map_matches_the_eigendecomposition(self, system, table, squares):
        degree, squarings = taylor_plan(system, table)
        assert (squarings > 0) == squares
        h = segment_hamiltonians(system, table)
        units = segment_unitaries(h, table.dt)[2]
        scale = np.maximum(1.0, np.linalg.norm(h * table.dt, ord=2, axis=(1, 2)))
        err = np.max(np.abs(segment_unitary_maps(system, table, (degree, squarings))
                            - real_form(units)), axis=(1, 2))
        assert np.all(err <= 1e-14 * scale)

    @pytest.mark.parametrize("name, n", [("defm", 257), ("defm", 4097), ("tcp", 257)],
                             ids=["257", "4097", "tcp-257"])
    def test_chunk_maps_are_the_rows_of_one_full_build(self, name, n):
        # n 257 ends in a one-row chunk, whose generator product is padded to two rows
        system = PRESETS[name]
        amps = np.random.default_rng(n).normal(0, 3000, size=(n, system.n_channels, 2))
        table = PulseTable(0.02, amps)
        plan = taylor_plan(system, table)
        full = segment_unitary_maps(system, table, plan)
        with _workspace():  # as the walk builds them
            for lo in range(0, n, _CHUNK):
                rows = slice(lo, min(lo + _CHUNK, n))
                assert np.array_equal(segment_unitary_maps(system, table, plan, rows), full[rows])

    def test_agrees_with_the_eigendecomposition_product_at_32768_segments(self):
        system = PRESETS["defm"]
        table = sample_pulse(init_params((1, 16, 16, 4), 2 * np.pi * 1000, 0.02, seed=8), 32768)

        def units(rows):
            return segment_unitaries(segment_hamiltonians(system, table_rows(table, rows)), table.dt)[2]

        ref = _sweep_segments(table, units, np.eye(4, dtype=complex), None, np.copy).final
        u = propagate_unitary(system, table).final
        assert np.max(np.abs(u - ref)) <= 1e-12
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-10

    def test_forward_walk_builds_no_hamiltonian(self, monkeypatch):
        # the generators come from the real-form stack, never from a complex H_s
        def segment_hamiltonians(*args, **kwargs):
            raise AssertionError("segment_hamiltonians called")

        monkeypatch.setattr(propagation, "segment_hamiltonians", segment_hamiltonians)
        defm, tcp = PRESETS["defm"], PRESETS["tcp"]
        table = PulseTable(0.02, np.random.default_rng(2).normal(0, 3000, size=(300, 2, 2)))
        lls = PulseTable(0.05, np.random.default_rng(3).normal(0, 300, size=(300, 1, 2)))
        times = [0.0, 0.01, 0.02]
        assert len(propagate_unitary(defm, table, sample_times=times).trajectory) == 3
        propagate_density(tcp, lls, thermal_deviation(), sample_times=times)
        propagate_lindblad(tcp, lls, thermal_deviation(), noise_operators(tcp, "local", 0.02))
        assert 0.0 <= evaluate_fidelity(defm, table, cnot_objective()) <= 1.0

    def test_forward_propagators_do_not_call_eigh(self, monkeypatch):
        def eigh(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        system = PRESETS["defm"]
        table = PulseTable(0.02, np.random.default_rng(2).normal(0, 3000, size=(300, 2, 2)))
        times = [0.0, 0.01, 0.02]
        assert len(propagate_unitary(system, table, sample_times=times).trajectory) == 3
        propagate_density(system, table, thermal_deviation(), sample_times=times)
        assert 0.0 <= evaluate_fidelity(system, table, cnot_objective()) <= 1.0

    @pytest.mark.parametrize("amp", [2.0**16 * (1 - 1e-6), 2.0**16 * (1 + 1e-6), 1.7e308],
                             ids=["under", "over", "overflowing"])
    def test_phase_bound_past_the_squaring_limit_is_an_error(self, amp):
        # one segment of a channel over two spins (control norms 1, no drift), so the
        # bound is 2 amp: just under or over 2^17 rad, or past the float range
        system = SpinSystem(2, ((0, 1),))
        table = PulseTable(1.0, np.array([[[amp, amp]]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if amp < 2.0**16:
                u = propagate_unitary(system, table).final
                assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-10
            else:
                with pytest.raises(ValueError, match="exceeds 131072 rad"):
                    propagate_unitary(system, table)


@st.composite
def gauge_cases(draw):
    """A system of 1-4 spins (random channel groups, some spins undriven, random couplings and
    offsets) and a table of 1-40 segments whose amplitudes include exact zeros."""
    n = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n).filter(
        lambda ls: max(ls) >= 0))  # -1: undriven
    channels = tuple(tuple(s for s in range(n) if labels[s] == c) for c in sorted({*labels} - {-1}))
    hz = st.sampled_from([0.0, 8.75, -48.2]) | st.floats(-300.0, 300.0)
    couplings = tuple((i, j, draw(hz)) for i in range(n) for j in range(i + 1, n) if draw(st.booleans()))
    system = SpinSystem(n, channels, couplings, tuple(draw(st.lists(hz, min_size=n, max_size=n))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(0.0, draw(st.sampled_from([0.0, 30.0, 3000.0])),
                      size=(draw(st.integers(1, 40)), len(channels), 2))
    amps[rng.random(amps.shape) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
    return system, PulseTable(draw(st.sampled_from([1e-4, 0.02])), amps)


def equal_moduli_table(n, seed):
    """A defm table with |u1| = |u2| on every segment: u2 is u1 turned by 90 degrees, so the odd
    parity block of D^dag H D is diagonal."""
    u1 = np.random.default_rng(seed).normal(0, 3000, size=(n, 2))
    return PulseTable(0.02, np.stack([u1, u1[:, ::-1] * [-1.0, 1.0]], 1))


class TestGaugeEigendecomposition:
    """segment_unitaries eigendecomposes the real symmetric D^dag H D: the same spectrum and
    exponentials as numpy's complex eigh of the batch, and a unitary eigenbasis.  Two spins
    without offsets take the closed-form parity blocks instead of eigh; the examples reach them."""

    @given(gauge_cases())
    @example((PRESETS["defm"], zero_pulse(0.02, 16, 2)))  # both blocks diag(+-pi J / 2): degenerate
    @example((PRESETS["defm"], PulseTable(0.02, np.random.default_rng(5).normal(0, 3000, size=(40, 2, 2)))))
    @example((PRESETS["defm"], equal_moduli_table(40, 6)))
    @settings(max_examples=150)
    def test_matches_complex_eigh(self, case):
        self.assert_matches_complex_eigh(*case)

    @staticmethod
    def assert_matches_complex_eigh(system, table):
        h = segment_hamiltonians(system, table)
        evals, vecs, units = segment_unitaries(h, table.dt)
        ref_evals, ref_vecs = np.linalg.eigh(h)
        ref_vecs_h = ref_vecs.conj().transpose(0, 2, 1)
        ref_units = (ref_vecs * np.exp(-1j * table.dt * ref_evals)[:, None, :]) @ ref_vecs_h
        scale = np.max(np.abs(ref_evals), axis=1)
        assert np.all(np.max(np.abs(evals - ref_evals), axis=1) <= 1e-13 * scale)
        assert np.max(np.abs(units - ref_units)) <= 1e-13 * max(1.0, np.max(scale) * table.dt)
        eye = np.eye(system.dimension)
        assert np.max(np.abs(vecs.conj().transpose(0, 2, 1) @ vecs - eye)) <= 1e-13

    @pytest.mark.parametrize("system, eighs", [
        (PRESETS["defm"], 0), (PRESETS["tcp"], 1), (replace(PRESETS["defm"], offsets_hz=(10.0, 0.0)), 1),
        (replace(PRESETS["defm"], offsets_hz=(0.0, 1e-6)), 1),
    ], ids=["defm", "tcp", "defm-offset", "defm-microhertz-offset"])
    def test_eigh_only_without_flip_symmetry(self, system, eighs, monkeypatch):
        # a single-spin offset breaks the flip symmetry, however small against the drive
        table = PulseTable(0.02, np.random.default_rng(4).normal(0, 3000, size=(64, system.n_channels, 2)))
        h, calls, original = segment_hamiltonians(system, table), [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or original(a))
        segment_unitaries(h, table.dt)
        assert calls == [h.shape] * eighs
        monkeypatch.undo()
        self.assert_matches_complex_eigh(system, table)

    @pytest.mark.parametrize("system", [PRESETS["defm"], PRESETS["tcp"], THREE_SPINS],
                             ids=["defm", "tcp", "3-spin"])
    def test_two_spin_flip_term_raises(self, system):
        # an I1x I2x term flips two spins at once: no diagonal gauge makes it real beside the drive
        n, rng = system.n_spins, np.random.default_rng(3)
        table = PulseTable(0.02, rng.normal(0, 600, size=(8, system.n_channels, 2)))
        xx = spin_half_operator(n, 0, "x") @ spin_half_operator(n, 1, "x")
        h = segment_hamiltonians(system, table) + 2 * np.pi * 10.0 * xx
        with pytest.raises(ValueError, match="phase gauge of real symmetric"):
            segment_unitaries(h, table.dt)


class TestForwardMemory:
    """The forward-only walk holds one chunk of maps at a time, so its traced
    peak is bounded independently of N (all N maps at once would peak at
    32 MiB for Lindblad at N=4096 and 280 MiB for unitary at N=262144)."""

    BOUND = 4 * 2**20

    @pytest.mark.parametrize("kind, n", [
        ("lindblad", 4096), ("lindblad", 32768), ("unitary", 32768), ("unitary", 262144),
    ])
    def test_traced_peak_does_not_grow_with_n(self, kind, n):
        def run(n):
            rng = np.random.default_rng(7)
            if kind == "lindblad":
                system = PRESETS["tcp"]
                table = PulseTable(0.05, rng.normal(0, 300, size=(n, 1, 2)))
                noise = noise_operators(system, "local", 0.02)
                return lambda: propagate_lindblad(system, table, thermal_deviation(), noise)
            table = PulseTable(0.02, rng.normal(0, 3000, size=(n, 2, 2)))
            return lambda: propagate_unitary(PRESETS["defm"], table)

        run(8)()  # operator caches filled outside the trace
        call = run(n)
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.BOUND

    def test_chunk_squarings_take_two_buffers(self):
        # 64 substeps square each 256-segment chunk's RK4 maps 6 times, 0.5 MiB a level;
        # keeping every level would peak at 3.9 MiB
        system, noise = PRESETS["tcp"], noise_operators(PRESETS["tcp"], "local", 0.02)
        p = load_params(Path(__file__).parent / "artifacts" / "lls_tcp_local_g0.02.json")
        assert lindblad_substeps(system, sample_pulse(p, 512), noise, DEFAULT_SUBSTEP_TOL) == 64
        propagate_lindblad(system, p, thermal_deviation(), noise, n_fine=512)  # caches filled
        tracemalloc.start()
        try:
            propagate_lindblad(system, p, thermal_deviation(), noise, n_fine=512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.4 * 2**20


def forward_results():
    """Each forward propagator's final state and samples, and each kind of fidelity, over
    tables longer than one chunk."""
    defm, tcp = PRESETS["defm"], PRESETS["tcp"]
    gate = PulseTable(0.02, np.random.default_rng(3).normal(0, 3000, size=(300, 2, 2)))
    lls = PulseTable(0.05, np.random.default_rng(4).normal(0, 300, size=(300, 1, 2)))
    noisy = replace(lls_objective(), noise=noise_operators(tcp, "local", 0.02))
    results = [propagate_unitary(defm, gate, sample_times=[0.0, 0.01]),
               propagate_density(tcp, lls, thermal_deviation(), sample_times=[0.02, 0.05]),
               propagate_lindblad(tcp, lls, thermal_deviation(), noisy.noise, sample_times=[0.03])]
    fids = [evaluate_fidelity(defm, gate, cnot_objective()),
            evaluate_fidelity(tcp, lls, lls_objective()), evaluate_fidelity(tcp, lls, noisy)]
    return [a for r in results for a in (r.final, *(row for _, row in r.trajectory))] + [fids]


class TestWalkWorkspace:
    """The forward walk builds its maps in a workspace of its own: an outer one, such as an
    ascent's, neither changes what it returns nor is changed by it."""

    def test_results_are_the_same_inside_an_outer_workspace(self):
        outside = forward_results()
        with _workspace():
            inside = forward_results()
            assert workspace._WORKSPACE.buffers == {}  # nothing written into the outer one
        assert all(np.array_equal(a, b) for a, b in zip(outside, inside, strict=True))

    @pytest.mark.parametrize("system, table, objective", [
        pytest.param(PRESETS["defm"], PulseTable(
            0.02, np.random.default_rng(5).normal(0, 3000, size=(64, 2, 2))), cnot_objective(),
            id="unitary"),
        pytest.param(PRESETS["tcp"], PulseTable(
            0.05, np.random.default_rng(6).normal(0, 300, size=(64, 1, 2))),
            replace(lls_objective(), noise=noise_operators(PRESETS["tcp"], "local", 0.02)),
            id="dissipative"),
    ])
    def test_gradient_is_the_same_bits_after_a_forward_evaluation(self, system, table, objective):
        with _workspace():
            fid, grad = pulse_table_gradient(system, table, objective, substep_tol=0.05)
            grad = grad.copy()
            forward_results()
            again = pulse_table_gradient(system, table, objective, substep_tol=0.05)
        assert fid == again[0] and np.array_equal(grad, again[1])


class TestNetworkSampling:
    """A network reaches every forward path through one sampling, where
    n_fine=None means DEFAULT_N_FINE and any other count is taken as given."""

    @staticmethod
    def network():
        return init_params((1, 8, 2), 2 * np.pi * 60, 0.15, seed=3)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda sys_, p, rho0: evaluate_fidelity(sys_, p, lls_objective(), n_fine=0),
                     id="evaluate_fidelity"),
        pytest.param(lambda sys_, p, rho0: propagate_unitary(sys_, p, n_fine=0), id="propagate_unitary"),
        pytest.param(lambda sys_, p, rho0: propagate_lindblad(
            sys_, p, rho0, noise_operators(sys_, "local", 0.02), n_fine=0), id="propagate_lindblad"),
        pytest.param(lambda sys_, p, rho0: basis_trajectory(
            p, sys_, rho0, singlet_triplet_basis(), n_fine=0), id="basis_trajectory"),
        pytest.param(lambda sys_, p, rho0: shape_penalty(
            sys_, p, lls_objective(shape_weight=1.0), n_fine=0), id="shape_penalty"),
    ])
    def test_zero_segments_is_an_error(self, call):
        with pytest.raises(ValueError, match="n_segments"):
            call(PRESETS["tcp"], self.network(), thermal_deviation())

    def test_none_is_the_default_grid(self):
        p = self.network()
        default = propagate_unitary(PRESETS["tcp"], p).final
        table = sample_pulse(p, propagation.DEFAULT_N_FINE)
        assert np.array_equal(default, propagate_unitary(PRESETS["tcp"], table).final)
