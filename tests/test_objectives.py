import contextlib
import tracemalloc
from math import factorial

import numpy as np
import pytest
from dataclasses import replace
from functools import partial
from hypothesis import given, settings
from hypothesis import strategies as st

from pinnctl import objectives
from pinnctl.network import PulseTable, apply_update, backprop_pulse, init_params, sample_pulse
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
from pinnctl.objectives import _lindblad_pulse_gradient, _shape_cotangent
from pinnctl.optimizer import OptimizerConfig, multi_start
from pinnctl.propagation import (
    _buffer,
    _workspace,
    lindblad_substeps,
    propagate_density,
    propagate_unitary,
    prefix_products,
    segment_hamiltonians,
    segment_lindblad_maps,
    segment_unitaries,
    state_costate_sweeps,
)
from pinnctl.spins import (
    PRESETS,
    SpinSystem,
    control_operator_stack,
    drift_hamiltonian,
    liouvillian,
    noise_operators,
    system_operators,
)
from pinnctl.targets import (
    cnot,
    cnot_objective,
    lls_objective,
    singlet_order_operator,
    singlet_triplet_basis,
    thermal_deviation,
)

from oracles import lindblad_gradient, shape_penalty


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

    def test_dimension_mismatch_rejected(self):
        q = singlet_order_operator()
        with pytest.raises(ValueError, match="dimension mismatch"):
            state_fidelity(np.eye(2), q, q)


class TestObjectiveSpec:
    def test_gate_target_must_be_unitary(self):
        with pytest.raises(ValueError):
            ObjectiveSpec(kind="gate", target=np.ones((4, 4)))

    def test_state_requires_initial(self):
        with pytest.raises(ValueError):
            ObjectiveSpec(kind="state", target=singlet_order_operator())

    def test_state_shapes_must_match(self):
        with pytest.raises(ValueError, match=r"target has shape \(4, 4\).*\(8, 8\)"):
            ObjectiveSpec(kind="state", target=np.diag([1.0, 0, 0, 0]), initial=np.eye(8) / 8)

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

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown objective kind 'unitary'$"):
            ObjectiveSpec(kind="unitary", target=np.eye(4))

    @pytest.mark.parametrize("field", ["shape observables", "state target", "initial state"])
    def test_each_non_hermitian_input_is_named(self, field):
        skew = np.triu(np.ones((4, 4)))
        fields = {"shape observables": {"shape_weight": 1.0, "shape_observables": (skew,)},
                  "state target": {"target": skew}, "initial state": {"initial": skew}}
        spec = {"kind": "state", "target": singlet_order_operator(),
                "initial": thermal_deviation(), **fields[field]}
        with pytest.raises(ValueError, match=f"^{field} must be Hermitian$"):
            ObjectiveSpec(**spec)


class TestOneRulePerInput:
    """Each property of an objective's inputs is judged one way, wherever it is checked."""

    @pytest.mark.parametrize("defect, hermitian", [(2.8e-9, True), (1e-3, False)])
    def test_objective_and_propagation_judge_a_state_alike(self, defect, hermitian):
        # ||rho|| is 1.4e4, so an asymmetry of 2.8e-9 is round-off to the relative rule
        rho = 1e4 * thermal_deviation()
        rho[0, 1] += defect
        entries = [
            lambda: ObjectiveSpec(kind="state", target=singlet_order_operator(), initial=rho),
            lambda: propagate_density(PRESETS["tcp"], PulseTable(0.05, np.zeros((4, 1, 2))), rho),
        ]
        for entry in entries:
            if hermitian:
                entry()
            else:
                with pytest.raises(ValueError, match="^initial state must be Hermitian$"):
                    entry()

    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_gate_objective_takes_a_noise_model_only_at_gamma_zero(self, kind):
        table = PulseTable(0.02, np.random.default_rng(3).normal(0, 500, (16, 2, 2)))
        plain = cnot_objective()
        quiet = replace(plain, noise=noise_operators(PRESETS["defm"], kind, 0.0))
        assert not quiet.dissipative
        value, grad = pulse_table_gradient(PRESETS["defm"], table, quiet)
        plain_value, plain_grad = pulse_table_gradient(PRESETS["defm"], table, plain)
        assert value == plain_value and grad.tobytes() == plain_grad.tobytes()
        fid = evaluate_fidelity(PRESETS["defm"], table, quiet)
        assert fid == evaluate_fidelity(PRESETS["defm"], table, plain)
        with pytest.raises(ValueError, match="gate objectives do not support dissipative"):
            replace(plain, noise=noise_operators(PRESETS["defm"], kind, 0.02))

    def test_gradient_and_forward_share_the_channel_message(self):
        table = PulseTable(0.02, np.zeros((4, 1, 2)))
        calls = [
            lambda: pulse_table_gradient(PRESETS["defm"], table, cnot_objective()),
            lambda: evaluate_fidelity(PRESETS["defm"], table, cnot_objective()),
            lambda: propagate_unitary(PRESETS["defm"], table),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^pulse has 1 channels, system has 2$"):
                call()

    def test_non_finite_gradient_is_a_floating_point_error(self):
        # past the float range the gradient overflows; with numpy's warnings
        # silenced the guard still refuses to return it
        table = PulseTable(0.02, np.full((4, 2, 2), 1e308))
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            pulse_table_gradient(PRESETS["defm"], table, cnot_objective())


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
        pen, factors = _shape_cotangent(pre, *args)
        cot = pre[:-1] @ factors @ pre[1:].conj().transpose(0, 2, 1)  # C_s = P_s R_s P_{s+1}^dag
        ref_pen, ref_cot = loop_shape_cotangent(pre, units, *args)
        assert abs(pen - ref_pen) < 1e-12 * ref_pen
        assert np.max(np.abs(cot - ref_cot)) < 1e-12 * np.max(np.abs(ref_cot))
        assert shape_penalty(system, table, obj) == pen


def complex_products_gradient(system, table, objective):
    """Unnormalized overlap and amplitude-table gradient by numpy's complex matmul throughout:
    plain sequential prefix products, then the eigenbasis Daleckii-Krein block.  The eigenpairs
    are the gradient's own (``segment_unitaries``): this reference checks the product arithmetic,
    and the eigensolver is held to numpy's complex eigh by the gauge tests of test_propagation."""
    dt = table.dt
    evals, vecs, _ = segment_unitaries(segment_hamiltonians(system, table), dt)
    vecs_h = vecs.conj().transpose(0, 2, 1)
    units = np.matmul(vecs * np.exp(-1j * dt * evals)[:, None, :], vecs_h)
    pre = [np.eye(system.dimension, dtype=complex)]
    for u in units:
        pre.append(u @ pre[-1])
    pre = np.array(pre)
    u = pre[-1]
    if objective.kind == "gate":
        z = np.trace(objective.target.conj().T @ u)
        overlap, k_mat = abs(z) ** 2, np.conj(z) * objective.target.conj().T @ u
    else:
        rho_t, rho_i = objective.target, objective.initial
        overlap = np.real(np.trace(rho_t @ u @ rho_i @ u.conj().T))
        k_mat = rho_i @ u.conj().T @ rho_t @ u
    if objective.shape_weight > 0:
        pen, factors = _shape_cotangent(pre, objective.initial, objective.shape_observables)
        ratio = objective.shape_weight / objective.norm_factor
        overlap, k_mat = overlap - ratio * pen, k_mat - ratio * factors
    a_mat = np.matmul(vecs_h, pre[:-1]) * np.exp(-0.5j * dt * evals)[:, :, None]
    m_mat = np.matmul(np.matmul(a_mat, k_mat), a_mat.conj().transpose(0, 2, 1))
    m_mat *= np.sinc((evals[:, :, None] - evals[:, None, :]) * (dt / (2 * np.pi)))
    g_mat = np.matmul(np.matmul(vecs, m_mat), vecs_h)
    return overlap, 2 * dt * np.imag(np.einsum("nij,cji->nc", g_mat, control_operator_stack(system)))


class TestRealFormProducts:
    """The unitary gradient's complex products, formed in real arithmetic, against the same
    products in complex arithmetic; the same bits in and out of a workspace."""

    @staticmethod
    def case(name, n):
        rng = np.random.default_rng(n)
        if name == "cnot":
            return PRESETS["defm"], PulseTable(0.02, rng.normal(0, 600, size=(n, 2, 2))), cnot_objective()
        obj = lls_objective(shape_weight=1.0)
        return PRESETS["tcp"], PulseTable(0.05, rng.normal(0, 300, size=(n, 1, 2))), obj

    # a one-segment grid has no boundary in the shape window
    @pytest.mark.parametrize("name, n", [("cnot", 1), ("cnot", 8), ("cnot", 256), ("cnot", 4096),
                                         ("shaped-lls", 8), ("shaped-lls", 256), ("shaped-lls", 4096)])
    def test_matches_complex_products(self, name, n):
        system, table, obj = self.case(name, n)
        fid, grad = pulse_table_gradient(system, table, obj)
        ref_fid, ref_grad = scaled(obj, complex_products_gradient(system, table, obj))
        assert abs(fid - ref_fid) <= 1e-12 * abs(ref_fid)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))
        with _workspace():
            pulse_table_gradient(*self.case(name, 37))  # other buffer shapes first
            reused = pulse_table_gradient(system, table, obj)
        assert reused[0] == fid
        assert np.array_equal(reused[1], grad)


class TestLindbladGradientReference:
    # defm: two channels, so four controls and 70 monomials in each RK4 map
    @pytest.mark.parametrize("name, kind", [
        pytest.param("tcp", "local", id="local"), pytest.param("tcp", "global", id="global"),
        pytest.param("defm", "local", id="defm-local"), pytest.param("defm", "global", id="defm-global"),
    ])
    def test_matches_complex_reference(self, name, kind):
        system = PRESETS[name]
        noise = noise_operators(system, kind, 0.05)
        obj = replace(lls_objective(), noise=noise)
        table = PulseTable(0.02, np.random.default_rng(5).normal(0, 300, size=(16, system.n_channels, 2)))
        fid, grad = pulse_table_gradient(system, table, obj, substep_tol=0.05)
        substeps = lindblad_substeps(system, table, noise, 0.05)
        ref_fid, ref_grad = scaled(obj, reference_lindblad_gradient(system, table, obj, substeps))
        assert abs(fid - ref_fid) < 1e-12 * abs(ref_fid)
        assert np.max(np.abs(grad - ref_grad)) < 1e-12 * np.max(np.abs(ref_grad))

    @pytest.mark.parametrize("substeps", [1, 2, 4, 8, 16, 32, 128])
    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_matches_complex_reference_at_each_squaring_count(self, kind, substeps):
        # 0-7 squarings: the reverse pass doubles its width-1 factors down the top four (to
        # 16 = d^2), then steps the rest densely: from 5 squarings on, both sides of its switch run
        system = PRESETS["tcp"]
        obj = replace(lls_objective(), noise=noise_operators(system, kind, 0.05))
        table = PulseTable(0.02, np.random.default_rng(5).normal(0, 300, size=(16, 1, 2)))
        fid, grad = _lindblad_pulse_gradient(system, table, obj, substeps)
        ref_fid, ref_grad = reference_lindblad_gradient(system, table, obj, substeps)
        assert abs(fid - ref_fid) < 1e-12 * abs(ref_fid)
        assert np.max(np.abs(grad - ref_grad)) < 1e-12 * np.max(np.abs(ref_grad))


@st.composite
def dissipative_cases(draw):
    """A tcp- or defm-like 2-spin system (both spins on one channel, or one channel each) with
    random coupling and offsets, local or global noise at gamma <= 0.1, a random state pair, and
    a table of 1-600 segments at 1-128 substeps whose substep bound (rate + ||H||) h is at most
    0.005-0.5, over a pulse short enough that the collapse rate times its length is at most 2 (a
    state relaxed further leaves a gradient of round-off).  The kept levels take at most 4.9 MB:
    N (squarings + 1) <= 2400."""
    channels = draw(st.sampled_from([((0, 1),), ((0,), (1,))]))
    j_hz = draw(st.sampled_from([8.75, 48.2]) | st.floats(1.0, 300.0)) * draw(st.sampled_from([1, -1]))
    offsets = tuple(draw(st.sampled_from([0.0, 40.0]) | st.floats(-300.0, 300.0)) for _ in range(2))
    system = SpinSystem(2, channels, ((0, 1, j_hz),), offsets)
    noise = noise_operators(system, draw(st.sampled_from(["local", "global"])), draw(st.floats(1e-3, 0.1)))
    squarings = draw(st.integers(0, 7))
    n = draw(st.integers(1, min(600, 2400 // (squarings + 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(0.0, draw(st.sampled_from([30.0, 300.0, 3000.0])), size=(n, len(channels), 2))
    ops = system_operators(system)
    rate = noise.rate + ops.drift_norm + np.max(np.abs(amps.reshape(n, -1)) @ ops.control_norms)
    dt = min(draw(st.sampled_from([0.005, 0.05, 0.5])) * 2**squarings / rate, 2.0 / (noise.rate * n))
    pair = [a + a.conj().T for a in rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))]
    objective = ObjectiveSpec(kind="state", target=pair[0], initial=pair[1], noise=noise)
    return system, PulseTable(dt * n, amps), objective, 2**squarings


class TestRK4Tangent:
    """The dissipative gradient runs back through the squarings on the cotangent's factors and
    then through the RK4 map's monomials, never forming L: it matches the reference in powers
    of L (``oracles.lindblad_gradient``) across systems, noise, chunks and squaring counts."""

    @given(dissipative_cases())
    @settings(max_examples=120)
    def test_matches_the_liouvillian_reference(self, case):
        system, table, objective, substeps = case
        overlap, grad = _lindblad_pulse_gradient(system, table, objective, substeps)
        ref_overlap, ref_grad = lindblad_gradient(system, table, objective, substeps)
        assert abs(overlap - ref_overlap) <= 1e-12 * max(abs(ref_overlap), 1.0)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


class TestBlockedSweeps:
    """The state and costate sweeps by blocks of isqrt(N) segments, with a remainder."""

    @staticmethod
    def plain_sweeps(maps, x0, y0):
        xs, ys = np.empty((len(maps), len(x0))), np.empty((len(maps), len(y0)))
        x, y = x0, y0
        for s in range(len(maps)):
            xs[s] = x
            x = maps[s] @ x
        for s in range(len(maps) - 1, -1, -1):
            ys[s] = y
            y = y @ maps[s]
        return xs, ys, float(y0 @ x)

    @staticmethod
    def case(kind, n):
        # the segment length of the 16-segment cases, and the singlet order kept rather than
        # made, so that even one segment has an overlap of order 1
        system = PRESETS["tcp"]
        obj = replace(lls_objective(), initial=singlet_order_operator(),
                      noise=noise_operators(system, kind, 0.05))
        table = PulseTable(0.02 * n / 16, np.random.default_rng(n).normal(0, 300, size=(n, 1, 2)))
        return system, table, obj

    # b = 1, 1, 1, 3, 4, 6, 17 with remainders 0, 0, 0, 1, 1, 1, 11 (the 16-segment cases above:
    # b = 4, none); 300 segments are one full _CHUNK of the reverse pass and a partial one
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 17, 37, 300])
    @pytest.mark.parametrize("substeps", [2, 8])
    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_matches_complex_reference(self, kind, substeps, n):
        system, table, obj = self.case(kind, n)
        fid, grad = _lindblad_pulse_gradient(system, table, obj, substeps)
        ref_fid, ref_grad = reference_lindblad_gradient(system, table, obj, substeps)
        assert abs(fid - ref_fid) < 1e-12 * abs(ref_fid)
        assert np.max(np.abs(grad - ref_grad)) < 1e-12 * np.max(np.abs(ref_grad))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 17, 37])
    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_matches_a_plain_sweep(self, kind, n):
        system, table, obj = self.case(kind, n)
        ops = system_operators(system)
        maps = segment_lindblad_maps(system, obj.noise, table, 8)[-1]
        x0, y0 = ops.coordinates(obj.initial), ops.coordinates(obj.target)
        for got, ref in zip(state_costate_sweeps(maps, x0, y0), self.plain_sweeps(maps, x0, y0)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_matches_a_plain_sweep_at_512_segments(self, kind, monkeypatch):
        # b = 22 and 23 full blocks, remainder 6
        system, table, obj = self.case(kind, 512)
        ops = system_operators(system)
        maps = segment_lindblad_maps(system, obj.noise, table, 8)[-1]
        x0, y0 = ops.coordinates(obj.initial), ops.coordinates(obj.target)
        for got, ref in zip(state_costate_sweeps(maps, x0, y0), self.plain_sweeps(maps, x0, y0)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        fid, grad = _lindblad_pulse_gradient(system, table, obj, 8)
        monkeypatch.setattr(objectives, "state_costate_sweeps", self.plain_sweeps)
        ref_fid, ref_grad = _lindblad_pulse_gradient(system, table, obj, 8)
        assert abs(fid - ref_fid) <= 1e-13 * abs(ref_fid)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-13 * np.max(np.abs(ref_grad))

    @pytest.mark.parametrize("n", [3, 37, 512])
    def test_bit_identical_in_a_workspace_and_on_a_second_call(self, n):
        system, table, obj = self.case("local", n)
        fresh = _lindblad_pulse_gradient(system, table, obj, 8)
        with _workspace():
            _lindblad_pulse_gradient(*self.case("global", 500), 8)  # other buffer shapes first
            first = _lindblad_pulse_gradient(system, table, obj, 8)
            first = first[0], first[1].copy()
            second = _lindblad_pulse_gradient(system, table, obj, 8)
        for fid, grad in (first, second):
            assert fid == fresh[0]
            assert np.array_equal(grad, fresh[1])

    def test_gate_and_dissipative_gradients_share_the_scan_buffers(self):
        # both scans are real: the gate's (38, 8, 4) states in the scan's buffers, then the
        # dissipative (501, 16, 1), then the gate's again
        rng = np.random.default_rng(37)
        gate = PRESETS["defm"], PulseTable(0.02, rng.normal(0, 600, size=(37, 2, 2))), cnot_objective()
        noisy = self.case("global", 500)
        fresh = [pulse_table_gradient(*gate), _lindblad_pulse_gradient(*noisy, 8)]
        with _workspace():
            mixed = [pulse_table_gradient(*gate), _lindblad_pulse_gradient(*noisy, 8),
                     pulse_table_gradient(*gate)]
        for (fid, grad), (ref_fid, ref_grad) in zip(mixed, fresh + fresh[:1]):
            assert fid == ref_fid
            assert np.array_equal(grad, ref_grad)


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

    @pytest.mark.parametrize("case", ["gate", "shaped", "dissipative"])
    @pytest.mark.parametrize("in_workspace", [False, True], ids=["fresh", "workspace"])
    def test_is_the_table_gradient_of_the_sampled_pulse(self, case, in_workspace, monkeypatch):
        # the training table is sample_pulse's, and its amplitude gradient is pulse_table_gradient's
        system, obj, sizes, amp_scale, duration = {
            "gate": (PRESETS["defm"], cnot_objective(), (1, 12, 12, 4), 2 * np.pi * 500, 0.02),
            "shaped": (PRESETS["tcp"], lls_objective(shape_weight=1.0), (1, 12, 12, 2),
                       2 * np.pi * 200, 0.1),
            "dissipative": (PRESETS["tcp"], replace(lls_objective(), noise=noise_operators(
                PRESETS["tcp"], "local", 0.05)), (1, 12, 12, 2), 2 * np.pi * 60, 0.15),
        }[case]
        p, n = init_params(sizes, amp_scale, duration, seed=5), 128
        upstreams = []

        def recorded(params, upstream, tape):
            upstreams.append(upstream.copy())
            return backprop_pulse(params, upstream, tape)

        monkeypatch.setattr(objectives, "backprop_pulse", recorded)
        with _workspace() if in_workspace else contextlib.nullcontext():
            fid, (gw, gb) = loss_and_gradient(p, system, obj, n)
            tape = []
            ref_fid, du = pulse_table_gradient(system, sample_pulse(p, n, tape), obj,
                                               amp_bound=p.amp_scale)
            ref_gw, ref_gb = backprop_pulse(p, du, tape)
        assert fid == ref_fid
        assert np.array_equal(upstreams[0], du)
        assert all(np.array_equal(a, b) for a, b in zip(gw + gb, ref_gw + ref_gb))


class TestLindbladWorkspace:
    """Inside an ascent the dissipative gradient writes its temporaries into
    buffers kept between calls; the arithmetic must not notice."""

    # n_fine and substep count change from call to call: 8, 1, 64, 2, 128, 16, 8 substeps; n_fine
    # 257 ends in a one-row chunk of the reverse pass
    GRIDS = [(512, 0.05), (4096, 0.05), (64, 0.05), (2048, 0.05), (512, 0.005), (257, 0.05),
             (512, 0.05)]

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
            return multi_start(partial(init_params, (1, 6, 2), 2 * np.pi * 60, 0.15), tcp, obj,
                               cfg, 2).final_params

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
        # 8.0 (8 substeps) and 12.0 (128 substeps) arrays of N (d^2 x d^2) floats
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

    def test_fresh_gradient_memory_does_not_grow_with_substeps(self):
        # one level per squaring and nothing per substep: the kept levels R, R^2, ..., M plus a
        # fixed 3.5 arrays of N (d^2 x d^2) floats.  8 and 1024 substeps (4 and 11 levels) trace
        # 5.7 and 13.2 arrays; keeping 2 KiB per substep would add 2.0 arrays at 1024
        system, obj, n = PRESETS["tcp"], self.noisy("local", 0.05), 512
        table = PulseTable(0.15, np.random.default_rng(7).normal(0, 300, size=(n, 1, 2)))
        for substeps in (8, 1024):
            tracemalloc.start()
            try:
                _lindblad_pulse_gradient(system, table, obj, substeps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= (substeps.bit_length() + 3.5) * n * 16**2 * 8, substeps

    def test_fresh_gradient_at_one_substep_keeps_one_full_length_array(self):
        # R is the one full-length array: the reverse pass runs per chunk and forms no
        # Liouvillian, so 4096 rows trace 1.27 arrays of N (d^2 x d^2) floats
        system, obj, n = PRESETS["tcp"], self.noisy("local", 0.05), 4096
        table = PulseTable(0.15 * n / 512, np.random.default_rng(7).normal(0, 300, size=(n, 1, 2)))
        tracemalloc.start()
        try:
            _lindblad_pulse_gradient(system, table, obj, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * 16**2 * 8

    @pytest.mark.parametrize("substeps", [8, 128])
    def test_fresh_gradient_memory_grows_by_the_maps_alone(self, substeps):
        # only the squaring levels are full length; the reverse pass runs in chunks of rows,
        # so doubling N adds squarings + 1 arrays (and 0.17 of small ones)
        system, obj = PRESETS["tcp"], self.noisy("local", 0.05)
        peaks = []
        for n in (512, 1024):
            table = PulseTable(0.15 * n / 512, np.random.default_rng(7).normal(0, 300, size=(n, 1, 2)))
            tracemalloc.start()
            try:
                _lindblad_pulse_gradient(system, table, obj, substeps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        squarings = substeps.bit_length() - 1
        assert peaks[1] - peaks[0] <= (squarings + 3) * 512 * 16**2 * 8


class TestUnitaryWorkspace:
    """Inside an ascent the unitary gradient writes its (N, d, d) temporaries
    into buffers kept between calls; the arithmetic must not notice, and the
    arrays it returns stay the caller's."""

    CASES = {
        "gate": (PRESETS["defm"], cnot_objective(), (1, 12, 12, 4), 2 * np.pi * 500, 0.02),
        "shaped": (PRESETS["tcp"], lls_objective(shape_weight=1.0), (1, 12, 12, 2),
                   2 * np.pi * 200, 0.1),
    }

    @pytest.mark.parametrize("case", ["gate", "shaped"])
    def test_gradient_in_workspace_is_bit_identical(self, case):
        system, obj, sizes, amp_scale, duration = self.CASES[case]
        p = init_params(sizes, amp_scale, duration, seed=3)
        grids = [256, 32, 256]
        fresh = [loss_and_gradient(p, system, obj, n) for n in grids]
        with _workspace():
            reused = [loss_and_gradient(p, system, obj, n) for n in grids]
        for (f0, (gw0, gb0)), (f1, (gw1, gb1)) in zip(fresh, reused):
            assert f0 == f1
            assert all(np.array_equal(a, b) for a, b in zip(gw0 + gb0, gw1 + gb1))

    def test_returned_gradient_outlives_the_next_call(self):
        rng = np.random.default_rng(4)
        first, second = (PulseTable(0.02, rng.normal(0, 600, size=(64, 2, 2))) for _ in range(2))
        with _workspace():
            _, du = pulse_table_gradient(PRESETS["defm"], first, cnot_objective())
            held = du.copy()
            pulse_table_gradient(PRESETS["defm"], second, cnot_objective())
        assert np.array_equal(du, held)

    def test_nested_ascent_restores_the_outer_workspace(self):
        cfg = OptimizerConfig(learning_rate=3e-3, f_threshold=1.0, max_iters=2, n_fine=32)

        def go():
            return multi_start(partial(init_params, (1, 6, 4), 2 * np.pi * 500, 0.02),
                               PRESETS["defm"], cnot_objective(), cfg, 2).final_params

        alone = go()
        with _workspace():
            held = _buffer("unitaries", (32, 4, 4), complex)
            nested = go()
            assert _buffer("unitaries", (32, 4, 4), complex) is held
        assert all(np.array_equal(a, b) for a, b in zip(alone.weights + alone.biases,
                                                        nested.weights + nested.biases))


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


class TestObjectiveDimension:
    THREE = SpinSystem(3, channels=((0, 1, 2),), couplings=((0, 1, 8.75),))

    @pytest.mark.parametrize("score", [
        lambda sys_, table, obj: pulse_table_gradient(sys_, table, obj),
        lambda sys_, table, obj: evaluate_fidelity(sys_, table, obj),
    ], ids=["pulse_table_gradient", "evaluate_fidelity"])
    def test_names_both_sizes(self, score):
        table = PulseTable(0.05, np.zeros((8, 1, 2)))
        with pytest.raises(ValueError, match=r"target has shape \(4, 4\).*\(8, 8\)"):
            score(self.THREE, table, lls_objective())


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
