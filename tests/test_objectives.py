import tracemalloc
from math import factorial

import numpy as np
import pytest
from dataclasses import replace

from pinnctl.network import PulseTable, apply_update, init_params
from pinnctl.objectives import (
    SHAPE_WINDOW,
    ObjectiveSpec,
    evaluate_fidelity,
    gate_fidelity,
    loss_and_gradient,
    pulse_table_gradient,
    state_fidelity,
    transfer_bound,
)
from pinnctl.objectives import _shape_cotangent
from pinnctl.optimizer import OptimizerConfig, multi_start
from pinnctl.propagation import (
    _buffer,
    _workspace,
    lindblad_substeps,
    prefix_products,
    segment_hamiltonians,
    segment_unitaries,
)
from pinnctl.spins import (
    PRESETS,
    SpinSystem,
    control_operator_stack,
    drift_hamiltonian,
    liouvillian,
    noise_operators,
)
from pinnctl.targets import (
    cnot,
    cnot_objective,
    lls_objective,
    singlet_order_operator,
    singlet_triplet_basis,
    thermal_deviation,
)

from oracles import shape_penalty


def haar_ish_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def zero_weight_params(sizes, amp_scale, time_scale):
    p = init_params(sizes, amp_scale, time_scale, seed=0)
    return replace_weights(p, [np.zeros_like(w) for w in p.weights])


def replace_weights(p, new_weights):
    from dataclasses import replace as dc_replace

    return dc_replace(p, weights=tuple(new_weights))


class TestGateFidelity:
    def test_self_fidelity_is_one(self):
        u = cnot(0, 1)
        assert np.isclose(gate_fidelity(u, u), 1.0)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(0)
        u = cnot(0, 1)
        for phi in rng.uniform(0, 2 * np.pi, 20):
            assert np.isclose(gate_fidelity(np.exp(1j * phi) * u, u), 1.0, atol=1e-12)

    def test_cnot_vs_identity(self):
        # Tr(CNOT) = 2, so |Tr|^2 / 16 = 4/16
        assert np.isclose(gate_fidelity(cnot(0, 1), np.eye(4)), 4.0 / 16.0)

    def test_range_and_uniqueness(self):
        rng = np.random.default_rng(2)
        target = cnot(0, 1)
        for _ in range(25):
            u = haar_ish_unitary(rng, 4)
            f = gate_fidelity(u, target)
            assert -1e-12 <= f <= 1 + 1e-12
            if f > 1 - 1e-9:
                phase = np.trace(target.conj().T @ u) / 4
                assert np.linalg.norm(u - phase * target) < 1e-4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gate_fidelity(np.eye(2), np.eye(4))


class TestStateFidelity:
    def test_transfer_bound_thermal_to_singlet_order(self):
        # eigenvalues {1,0,0,-1} . {1,0,0,-1} = 2
        assert np.isclose(transfer_bound(singlet_order_operator(), thermal_deviation()), 2.0)

    def test_normalized_self_transfer(self):
        q = singlet_order_operator()
        assert np.isclose(state_fidelity(q, q, q), 1.0)

    def test_untouched_thermal_scores_zero(self):
        rho = thermal_deviation()
        q = singlet_order_operator()
        assert np.isclose(state_fidelity(rho, q, rho), 0.0)

    def test_unitary_bound_never_exceeded(self):
        rng = np.random.default_rng(7)
        q = singlet_order_operator()
        rho_i = thermal_deviation()
        bound = transfer_bound(q, rho_i)
        for _ in range(50):
            v = haar_ish_unitary(rng, 4)
            f = np.trace(q @ v @ rho_i @ v.conj().T).real
            assert f / bound <= 1 + 1e-10

    def test_degenerate_bound_rejected(self):
        z = np.zeros((4, 4))
        with pytest.raises(ValueError):
            state_fidelity(z, z, z)


class TestObjectiveSpec:
    def test_gate_target_must_be_unitary(self):
        with pytest.raises(ValueError):
            ObjectiveSpec(kind="gate", target=np.ones((4, 4)))

    def test_state_requires_initial(self):
        with pytest.raises(ValueError):
            ObjectiveSpec(kind="state", target=singlet_order_operator())

    def test_norm_factor(self):
        q, rho = singlet_order_operator(), thermal_deviation()
        gate = ObjectiveSpec(kind="gate", target=cnot(0, 1))
        state = ObjectiveSpec(kind="state", target=q, initial=rho)
        assert gate.norm_factor == 1.0 / 16
        assert state.norm_factor == 1.0 / transfer_bound(q, rho)
        # replace re-runs the construction, so the factor follows the fields
        assert replace(state, initial=q).norm_factor == 1.0 / transfer_bound(q, q)

    def test_degenerate_bound_rejected_when_normalized(self):
        z = np.zeros((4, 4))
        with pytest.raises(ValueError, match="transfer bound"):
            ObjectiveSpec(kind="state", target=z, initial=z)


def fd_check(params, system, objective, n_fine, rng, n_probes, eps=1e-6, **kwargs):
    fid, (gw, gb) = loss_and_gradient(params, system, objective, n_fine, **kwargs)
    g = np.concatenate([a.ravel() for a in gw + gb])
    arrays = [np.zeros_like(w) for w in params.weights] + [
        np.zeros_like(b) for b in params.biases
    ]
    sizes = [a.size for a in arrays]
    offsets = np.cumsum([0] + sizes)
    max_rel = 0.0
    for _ in range(n_probes):
        idx = int(rng.integers(g.size))
        k = int(np.searchsorted(offsets, idx, side="right") - 1)
        local = idx - offsets[k]
        nw = len(params.weights)

        def value(sign):
            deltas = [np.zeros_like(a) for a in arrays]
            deltas[k].flat[local] = sign * eps
            p = apply_update(params, deltas[:nw], deltas[nw:])
            f, _ = loss_and_gradient(p, system, objective, n_fine, **kwargs)
            return f

        fd = (value(+1) - value(-1)) / (2 * eps)
        denom = max(abs(fd), abs(g[idx]), 1e-10)
        max_rel = max(max_rel, abs(fd - g[idx]) / denom)
    return fid, max_rel


def reference_lindblad_gradient(system, table, objective, substeps):
    """Unnormalized overlap Tr(rho_t rho(T)) and its amplitude-table gradient
    from complex superoperators, differentiating each RK4 substep in turn."""
    h0 = drift_hamiltonian(system)
    ops = control_operator_stack(system)
    gens = [liouvillian(o) for o in ops]
    h = table.dt / substeps
    maps, d_maps = [], []
    for u in table.flat_amplitudes():
        lv = liouvillian(h0 + np.einsum("c,cij->ij", u, ops), objective.noise)
        pw = [np.linalg.matrix_power(lv, k) for k in range(4)]
        maps.append(sum(np.linalg.matrix_power(h * lv, k) / factorial(k) for k in range(5)))
        # dR/du_c = sum_k h^k/k! sum_{a+b=k-1} L^b G_c L^a
        d_maps.append([
            sum(h**k / factorial(k) * sum(pw[k - 1 - a] @ g @ pw[a] for a in range(k))
                for k in range(1, 5))
            for g in gens
        ])
    states = []
    x = objective.initial.reshape(-1).astype(complex)
    for r in maps:
        for _ in range(substeps):
            states.append(x)
            x = r @ x
    costate = objective.target.reshape(-1).astype(complex)
    fid = float(np.real(np.vdot(costate, x)))
    grad = np.zeros((table.n_segments, len(ops)))
    for s in range(table.n_segments - 1, -1, -1):
        for _ in range(substeps):
            alpha = states.pop()
            for c, dr in enumerate(d_maps[s]):
                grad[s, c] += np.real(np.vdot(costate, dr @ alpha))
            costate = maps[s].conj().T @ costate
    return fid, grad


def reference_unitary_gradient(system, table, objective):
    """Unnormalized overlap and amplitude-table gradient from explicit prefix
    and suffix products, one matmul per segment, and einsum contractions."""
    ops = control_operator_stack(system)
    h = segment_hamiltonians(system, table)
    evals, vecs = np.linalg.eigh(h)
    units = np.stack([(v * np.exp(-1j * e * table.dt)) @ v.conj().T for e, v in zip(evals, vecs)])
    n, d = len(units), units.shape[1]
    pre, suf = [np.eye(d)], [np.eye(d)]
    for s in range(n):
        pre.append(units[s] @ pre[-1])
        suf.append(suf[-1] @ units[n - 1 - s])
    pre, suf = np.array(pre), np.array(suf[::-1])  # suf[s] = U_N ... U_{s+1}
    u = pre[-1]
    if objective.kind == "gate":
        z = np.trace(objective.target.conj().T @ u)
        fid = abs(z) ** 2
        core = np.conj(z) * objective.target.conj().T
    else:
        rho_t, rho_i = objective.target, objective.initial
        fid = np.real(np.trace(rho_t @ u @ rho_i @ u.conj().T))
        core = rho_i @ u.conj().T @ rho_t
    cot = np.einsum("nij,jk,nkl->nil", pre[:-1], core, suf[1:])
    k_mat = np.einsum("nki,nkl,nlj->nij", vecs.conj(), cot, vecs)
    lam_a, lam_b = evals[:, :, None], evals[:, None, :]
    f_mat = -1j * table.dt * np.exp(-0.5j * (lam_a + lam_b) * table.dt) * np.sinc(
        (lam_a - lam_b) * table.dt / (2 * np.pi)
    )
    g_mat = np.einsum("nik,nkl,njl->nij", vecs, k_mat * f_mat.transpose(0, 2, 1), vecs.conj())
    return fid, 2 * np.real(np.einsum("nij,cji->nc", g_mat, ops))


def scaled(objective, reference):
    """A reference (overlap, gradient) scaled to the normalized objective value."""
    overlap, grad = reference
    return overlap * objective.norm_factor, grad * objective.norm_factor


def loop_shape_cotangent(pre, units, rho_i, observables):
    """The sequential shape-penalty cotangent: one backward step per segment."""
    n = len(units)
    lo, hi = SHAPE_WINDOW
    ks = [k for k in range(1, n + 1) if lo <= k / n <= hi]
    obs = np.stack([np.asarray(o, dtype=complex) for o in observables])
    coeff = 2.0 / (len(ks) * len(obs))
    penalty = 0.0
    x = np.zeros_like(rho_i, dtype=complex)
    cot = np.zeros((n,) + rho_i.shape, dtype=complex)
    for j in range(n - 1, -1, -1):
        k = j + 1
        if k in ks:
            rho_k = pre[k] @ rho_i @ pre[k].conj().T
            e = np.real(np.einsum("bij,ji->b", obs, rho_k))
            penalty += float(np.dot(e, e))
            x = x + pre[k].conj().T @ (coeff * np.einsum("b,bij->ij", e, obs))
        cot[j] = pre[j] @ rho_i @ x
        if j > 0:
            x = x @ units[j]
    return penalty / (len(ks) * len(obs)), cot


class TestUnitaryGradientReference:
    @pytest.mark.parametrize("n", [1, 17, 256])
    def test_gate_matches_suffix_product_reference(self, n):
        system = PRESETS["defm"]
        obj = cnot_objective()
        table = PulseTable(0.02, np.random.default_rng(n).normal(0, 600, size=(n, 2, 2)))
        fid, grad = pulse_table_gradient(system, table, obj)
        ref_fid, ref_grad = scaled(obj, reference_unitary_gradient(system, table, obj))
        assert abs(fid - ref_fid) < 1e-12 * max(1.0, abs(ref_fid))
        assert np.max(np.abs(grad - ref_grad)) < 1e-12 * np.max(np.abs(ref_grad))

    @pytest.mark.parametrize("n", [1, 17, 256])
    def test_state_matches_suffix_product_reference(self, n):
        system = PRESETS["tcp"]
        obj = lls_objective()
        table = PulseTable(0.05, np.random.default_rng(n).normal(0, 300, size=(n, 1, 2)))
        fid, grad = pulse_table_gradient(system, table, obj)
        ref_fid, ref_grad = scaled(obj, reference_unitary_gradient(system, table, obj))
        assert abs(fid - ref_fid) < 1e-12 * max(1.0, abs(ref_fid))
        # one segment of this transfer has a gradient at round-off; dt is the
        # gradient's natural scale for an O(1) fidelity
        scale = max(np.max(np.abs(ref_grad)), table.dt)
        assert np.max(np.abs(grad - ref_grad)) < 1e-12 * scale

    @pytest.mark.parametrize("n", [32, 256])
    def test_shape_cotangent_matches_the_sequential_loop(self, n):
        system = PRESETS["tcp"]
        obj = lls_objective(shape_weight=1.0)
        table = PulseTable(0.05, np.random.default_rng(n).normal(0, 300, size=(n, 1, 2)))
        _, _, units = segment_unitaries(segment_hamiltonians(system, table), table.dt)
        pre = prefix_products(units)
        args = (obj.initial, obj.shape_observables)
        pen, cot = _shape_cotangent(pre, *args)
        ref_pen, ref_cot = loop_shape_cotangent(pre, units, *args)
        assert abs(pen - ref_pen) < 1e-12 * ref_pen
        assert np.max(np.abs(cot - ref_cot)) < 1e-12 * np.max(np.abs(ref_cot))
        assert shape_penalty(system, table, obj) == pen


class TestLindbladGradientReference:
    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_matches_complex_reference(self, kind):
        system = PRESETS["tcp"]
        noise = noise_operators(system, kind, 0.05)
        obj = replace(lls_objective(), noise=noise)
        table = PulseTable(0.02, np.random.default_rng(5).normal(0, 300, size=(16, 1, 2)))
        fid, grad = pulse_table_gradient(system, table, obj, substep_tol=0.05)
        substeps = lindblad_substeps(system, table, noise, 0.05)
        ref_fid, ref_grad = scaled(obj, reference_lindblad_gradient(system, table, obj, substeps))
        assert abs(fid - ref_fid) < 1e-12 * abs(ref_fid)
        assert np.max(np.abs(grad - ref_grad)) < 1e-12 * np.max(np.abs(ref_grad))


class TestLossAndGradient:
    def test_stationary_at_identity_target(self):
        sys_ = SpinSystem(2, ((0,), (1,)))
        obj = ObjectiveSpec(kind="gate", target=np.eye(4))
        p = zero_weight_params((1, 6, 6, 4), 2 * np.pi * 1000, 0.02)
        fid, (gw, gb) = loss_and_gradient(p, sys_, obj, 64)
        assert np.isclose(fid, 1.0)
        assert all(np.allclose(g, 0, atol=1e-12) for g in gw + gb)

    def test_gate_gradient_matches_fd(self):
        rng = np.random.default_rng(11)
        p = init_params((1, 4, 4, 4), 2 * np.pi * 1000, 0.02, seed=12)
        _, rel = fd_check(p, PRESETS["defm"], cnot_objective(), 48, rng, 20)
        assert rel < 1e-5

    def test_state_gradient_matches_fd(self):
        rng = np.random.default_rng(13)
        p = init_params((1, 4, 4, 2), 2 * np.pi * 200, 0.1, seed=14)
        _, rel = fd_check(p, PRESETS["tcp"], lls_objective(), 48, rng, 20)
        assert rel < 1e-5

    def test_lindblad_gradient_matches_fd(self):
        rng = np.random.default_rng(15)
        noise = noise_operators(PRESETS["tcp"], "local", 0.05)
        obj = replace(lls_objective(), noise=noise)
        p = init_params((1, 4, 4, 2), 2 * np.pi * 200, 0.1, seed=16)
        _, rel = fd_check(
            p, PRESETS["tcp"], obj, 32, rng, 20, substep_tol=0.05
        )
        assert rel < 1e-4

    def test_lindblad_gradient_matches_fd_at_default_tolerance(self):
        rng = np.random.default_rng(19)
        noise = noise_operators(PRESETS["tcp"], "global", 0.05)
        obj = replace(lls_objective(), noise=noise)
        p = init_params((1, 4, 4, 2), 2 * np.pi * 200, 0.1, seed=20)
        _, rel = fd_check(p, PRESETS["tcp"], obj, 32, rng, 10)
        assert rel < 1e-4

    def test_width_mismatch_rejected(self):
        p = init_params((1, 4, 2), 1.0, 0.02, seed=0)
        with pytest.raises(ValueError):
            loss_and_gradient(p, PRESETS["defm"], cnot_objective(), 16)


class TestLindbladWorkspace:
    """Inside an ascent the dissipative gradient writes its temporaries into
    buffers kept between calls; the arithmetic must not notice."""

    # n_fine and substep count change from call to call: 8, 64, 128, 8 substeps
    GRIDS = [(512, 0.05), (64, 0.05), (512, 0.005), (512, 0.05)]

    @staticmethod
    def noisy(kind, gamma):
        return replace(lls_objective(), noise=noise_operators(PRESETS["tcp"], kind, gamma))

    @pytest.mark.parametrize("kind", ["local", "global"])
    @pytest.mark.parametrize("gamma", [0.02, 0.07])
    def test_gradient_in_workspace_is_bit_identical(self, kind, gamma):
        p = init_params((1, 12, 12, 2), 2 * np.pi * 60, 0.15, seed=3)
        obj = self.noisy(kind, gamma)
        fresh = [loss_and_gradient(p, PRESETS["tcp"], obj, n, substep_tol=tol)
                 for n, tol in self.GRIDS]
        with _workspace():
            reused = [loss_and_gradient(p, PRESETS["tcp"], obj, n, substep_tol=tol)
                      for n, tol in self.GRIDS]
        for (f0, (gw0, gb0)), (f1, (gw1, gb1)) in zip(fresh, reused):
            assert f0 == f1
            assert all(np.array_equal(a, b) for a, b in zip(gw0 + gb0, gw1 + gb1))

    @pytest.mark.parametrize("run", ["multi_start"])
    def test_nested_ascents_restore_the_outer_workspace(self, run):
        tcp, obj = PRESETS["tcp"], self.noisy("local", 0.05)
        cfg = OptimizerConfig(learning_rate=3e-3, f_threshold=1.0, max_iters=2, n_fine=32,
                              substep_tol=0.05)
        p = init_params((1, 6, 2), 2 * np.pi * 60, 0.15, seed=1)

        def go():
            return multi_start(tcp, obj, (1, 6, 2), 2 * np.pi * 60, 0.15, cfg, 2).final_params

        alone = go()
        with _workspace():
            held = _buffer("outer", (3,))
            nested = go()
            assert _buffer("outer", (3,)) is held
        assert _buffer("outer", (3,)) is not held  # outside every workspace: fresh arrays
        assert all(np.array_equal(a, b) for a, b in zip(alone.weights + alone.biases,
                                                        nested.weights + nested.biases))

    @pytest.mark.parametrize("tol", [0.05, 0.005], ids=["8-substeps", "128-substeps"])
    def test_second_call_in_workspace_allocates_few_new_maps(self, tol):
        # the lindblad_retrain network; a step without the workspace traces
        # 11.7 (8 substeps) and 26.7 (128 substeps) arrays of N (d^2 x d^2) floats
        n = 512
        p = init_params((1, 60, 60, 60, 2), 2 * np.pi * 60, 0.15, seed=3)
        obj = self.noisy("local", 0.05)
        with _workspace():
            loss_and_gradient(p, PRESETS["tcp"], obj, n, substep_tol=tol)
            tracemalloc.start()
            try:
                loss_and_gradient(p, PRESETS["tcp"], obj, n, substep_tol=tol)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 2.5 * n * 16**2 * 8


class TestEvaluateFidelity:
    def test_matches_loss_path(self):
        p = init_params((1, 6, 6, 4), 2 * np.pi * 800, 0.02, seed=3)
        fid, _ = loss_and_gradient(p, PRESETS["defm"], cnot_objective(), 256)
        direct = evaluate_fidelity(PRESETS["defm"], p, cnot_objective(), n_fine=256)
        assert np.isclose(fid, direct, atol=1e-12)

    def test_lindblad_eval_gamma_zero_reduction(self):
        p = init_params((1, 6, 6, 2), 2 * np.pi * 200, 0.05, seed=4)
        obj = lls_objective()
        noise0 = noise_operators(PRESETS["tcp"], "local", 0.0)
        f_plain = evaluate_fidelity(PRESETS["tcp"], p, obj, n_fine=512)
        f_noise0 = evaluate_fidelity(
            PRESETS["tcp"], p, replace(obj, noise=noise0), n_fine=512
        )
        assert np.isclose(f_plain, f_noise0, atol=1e-12)


class TestTrajectoryShaping:
    def shaped(self, weight=0.5):
        return lls_objective(shape_weight=weight)

    def test_validation(self):
        with pytest.raises(ValueError):
            replace(cnot_objective(), shape_weight=1.0)
        with pytest.raises(ValueError):
            replace(lls_objective(), shape_weight=1.0)  # no observables
        noise = noise_operators(PRESETS["tcp"], "local", 0.05)
        with pytest.raises(ValueError):
            replace(self.shaped(), noise=noise)
        for weight in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="shape_weight must be finite and >= 0"):
                lls_objective(shape_weight=weight)

    def test_penalty_is_mean_squared_expectation(self):
        # the identity pulse leaves the thermal deviation invariant, so the
        # penalty equals the mean squared population of the initial state
        # drift is diagonal in the product basis but mixes T0/S0 populations;
        # evaluate a 4 ms sequence, whose window ends while the drift phase is tiny
        p = zero_weight_params((1, 6, 2), 2 * np.pi * 60, 0.004)  # zero pulse
        tcp = PRESETS["tcp"]
        obj = self.shaped()
        pops = [
            np.real(np.vdot(b, thermal_deviation() @ b))
            for b in singlet_triplet_basis()
        ]
        val = shape_penalty(tcp, p, obj, n_fine=256)
        assert np.isclose(val, np.mean(np.square(pops)), atol=1e-3)

    def test_window_without_checkpoints_is_an_error(self):
        # one segment: its only boundary, t = T, lies outside the mid-sequence window
        p = init_params((1, 8, 2), 2 * np.pi * 60, 0.15, seed=3)
        with pytest.raises(ValueError, match="no segment boundaries"):
            loss_and_gradient(p, PRESETS["tcp"], self.shaped(), 1)

    def test_shaped_gradient_matches_finite_differences(self):
        tcp = PRESETS["tcp"]
        obj = self.shaped(weight=0.7)
        p = init_params((1, 8, 2), 2 * np.pi * 60, 0.15, seed=3)
        rng = np.random.default_rng(7)
        _, max_rel = fd_check(p, tcp, obj, 24, rng, n_probes=8)
        assert max_rel < 1e-5

    def test_value_is_fidelity_minus_weighted_penalty(self):
        tcp = PRESETS["tcp"]
        obj = self.shaped(weight=0.7)
        p = init_params((1, 8, 2), 2 * np.pi * 60, 0.15, seed=3)
        value, _ = loss_and_gradient(p, tcp, obj, 32)
        fid = evaluate_fidelity(tcp, p, obj, n_fine=32)
        pen = shape_penalty(tcp, p, obj, n_fine=32)
        assert np.isclose(value, fid - obj.shape_weight * pen, atol=1e-12)

    def test_zero_weight_leaves_gradient_unchanged(self):
        tcp = PRESETS["tcp"]
        p = init_params((1, 8, 2), 2 * np.pi * 60, 0.15, seed=5)
        f0, (gw0, gb0) = loss_and_gradient(p, tcp, lls_objective(), 32)
        f1, (gw1, gb1) = loss_and_gradient(p, tcp, lls_objective(shape_weight=0.0), 32)
        assert f0 == f1
        assert all(np.array_equal(a, b) for a, b in zip(gw0, gw1))
        assert all(np.array_equal(a, b) for a, b in zip(gb0, gb1))
