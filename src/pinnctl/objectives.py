"""Gate/state fidelity functionals and exact gradients w.r.t. network parameters.

Gradients are reverse-mode derivatives of the discretized dynamics: the
eigendecomposition-based Frechet derivative of each segment exponential
(Daleckii-Krein) chained into the network backprop for the unitary path, and
the exact adjoint of the per-segment RK4 polynomial for the dissipative path,
taken in real arithmetic in the orthonormal Hermitian basis of
``spins.SystemOperators``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import (
    NetworkParams,
    PulseTable,
    backprop_pulse,
    forward_batch,
    segment_times,
)
from .propagation import (
    DEFAULT_N_FINE,
    DEFAULT_SUBSTEP_TOL,
    _buffer,
    lindblad_substeps,
    prefix_products,
    propagate_density,
    propagate_lindblad,
    propagate_unitary,
    segment_hamiltonians,
    segment_lindblad_maps,
    segment_unitaries,
)
from .spins import NoiseModel, SpinSystem, control_operator_stack, system_operators

# trajectory shaping penalizes the checkpoints in this mid-sequence window (fractions of T)
SHAPE_WINDOW = (0.25, 0.75)


@dataclass(frozen=True)
class ObjectiveSpec:
    """What to optimize: a target unitary or a state-transfer pair."""

    kind: str  # "gate" | "state"
    target: np.ndarray
    initial: np.ndarray | None = None
    noise: NoiseModel | None = None
    # Optional trajectory shaping: penalize the mean squared expectation value
    # of the given observables over the mid-sequence SHAPE_WINDOW, steering
    # the optimizer toward solutions that park the state in coherences rather
    # than basis populations while in transit.
    shape_weight: float = 0.0
    shape_observables: tuple | None = None
    # overlap -> normalized fidelity (1/d^2 or 1/transfer bound), set from the fields above
    norm_factor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("gate", "state"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if not 0 <= self.shape_weight < np.inf:  # NaN-safe
            raise ValueError(f"shape_weight must be finite and >= 0, got {self.shape_weight!r}")
        if self.shape_weight > 0:
            if self.kind != "state":
                raise ValueError("trajectory shaping applies to state objectives only")
            if self.noise is not None and self.noise.gamma > 0:
                raise ValueError("trajectory shaping is not supported with dissipative evolution")
            if not self.shape_observables:
                raise ValueError("shape_weight > 0 requires shape_observables")
            for o in self.shape_observables:
                if np.linalg.norm(o - o.conj().T) > 1e-10:
                    raise ValueError("shape observables must be Hermitian")
        d = self.target.shape[0]
        if self.kind == "gate":
            if np.linalg.norm(self.target @ self.target.conj().T - np.eye(d)) > 1e-10:
                raise ValueError("gate target must be unitary")
            if self.noise is not None:
                raise ValueError("gate objectives do not support dissipative evolution")
        else:
            if np.linalg.norm(self.target - self.target.conj().T) > 1e-10:
                raise ValueError("state target must be Hermitian")
            if self.initial is None:
                raise ValueError("state objectives require an initial state")
            if np.linalg.norm(self.initial - self.initial.conj().T) > 1e-10:
                raise ValueError("initial state must be Hermitian")
        if self.kind == "gate":
            factor = 1.0 / d**2
        else:
            factor = 1.0 / _checked_transfer_bound(self.target, self.initial)
        object.__setattr__(self, "norm_factor", factor)


def gate_fidelity(u_final: np.ndarray, target: np.ndarray) -> float:
    """|Tr(U_t^dag U)|^2 / d^2, so the optimum is 1."""
    if u_final.shape != target.shape:
        raise ValueError("dimension mismatch")
    d = target.shape[0]
    overlap = abs(np.trace(target.conj().T @ u_final)) ** 2
    return float(overlap / d**2)


def transfer_bound(target: np.ndarray, initial: np.ndarray) -> float:
    """Max of Tr(rho_t U rho_i U^dag) over unitaries: sorted-eigenvalue dot product."""
    et = np.sort(np.linalg.eigvalsh(target))[::-1]
    ei = np.sort(np.linalg.eigvalsh(initial))[::-1]
    return float(np.dot(et, ei))


def _checked_transfer_bound(target: np.ndarray, initial: np.ndarray) -> float:
    bound = transfer_bound(target, initial)
    if abs(bound) < 1e-14:
        raise ValueError("degenerate target/initial pair: transfer bound is zero")
    return bound


def state_fidelity(rho_final: np.ndarray, target: np.ndarray, initial: np.ndarray) -> float:
    """Tr(rho_t rho(T)) divided by the unitary transfer bound from the initial state."""
    if rho_final.shape != target.shape:
        raise ValueError("dimension mismatch")
    overlap = float(np.real(np.trace(target @ rho_final)))
    return overlap / _checked_transfer_bound(target, initial)


def _phase_divided_differences(evals: np.ndarray, dt: float) -> np.ndarray:
    """Divided differences of f(x) = exp(-i x dt) on each eigenvalue pair.

    F_ab = (f(a)-f(b))/(a-b) via the exact, degeneracy-safe form
    -i dt exp(-i (a+b) dt / 2) sinc((a-b) dt / 2).
    """
    lam_a = evals[:, :, None]
    lam_b = evals[:, None, :]
    mid = np.exp(-0.5j * (lam_a + lam_b) * dt)
    return -1j * dt * mid * np.sinc((lam_a - lam_b) * dt / (2.0 * np.pi))


def _shape_window_checkpoints(n_segments: int) -> list[int]:
    """Segment boundaries k (state after k segments) whose time k/n lies in SHAPE_WINDOW."""
    lo, hi = SHAPE_WINDOW
    ks = [k for k in range(1, n_segments + 1) if lo <= k / n_segments <= hi]
    if not ks:
        raise ValueError("shape window contains no segment boundaries at this resolution")
    return ks


def _shape_expectations(pre: np.ndarray, rho_i: np.ndarray, observables):
    """Checkpoints k, observables O_b (B, d, d) and expectations e_kb = Tr(O_b rho_k),
    rho_k = P_k rho_i P_k^dag, at the mid-window checkpoints."""
    ks = np.array(_shape_window_checkpoints(len(pre) - 1))
    obs = np.stack([np.asarray(o, dtype=complex) for o in observables])
    d = rho_i.shape[0]
    p_k = pre[ks]
    rho_k = np.matmul(np.matmul(p_k, rho_i), p_k.conj().transpose(0, 2, 1))
    # Tr(O rho) = sum_ij O_ij (rho^T)_ij
    e = np.real(rho_k.transpose(0, 2, 1).reshape(len(ks), d * d) @ obs.reshape(len(obs), d * d).T)
    return ks, obs, e


def _shape_cotangent(pre: np.ndarray, rho_i: np.ndarray, observables) -> tuple[float, np.ndarray]:
    """Penalty P = mean_k mean_b Tr(O_b rho_k)^2 over mid-window checkpoints,
    and its cotangent C with dP = 2 Re sum_s Tr(C_s dU_s).

    With W_k = dP/drho_k = 2/(KB) sum_b e_kb O_b, C_j = P_j rho_i S_{j+1} P_{j+1}^dag,
    where S_m is the sum of P_k^dag W_k P_k over the checkpoints k >= m.
    """
    ks, obs, e = _shape_expectations(pre, rho_i, observables)
    n, d = len(pre) - 1, rho_i.shape[0]
    w_k = (2.0 / e.size) * (e @ obs.reshape(len(obs), d * d)).reshape(len(ks), d, d)
    terms = np.zeros((n + 1, d, d), dtype=complex)
    terms[ks] = np.matmul(np.matmul(pre[ks].conj().transpose(0, 2, 1), w_k), pre[ks])
    s_mat = np.cumsum(terms[::-1], axis=0)[::-1]
    pre_h = pre.conj().transpose(0, 2, 1)
    cot = np.matmul(np.matmul(pre[:-1], np.matmul(rho_i, s_mat[1:])), pre_h[1:])
    return float(np.mean(e**2)), cot


def _unitary_pulse_gradient(
    system: SpinSystem, table: PulseTable, objective: ObjectiveSpec
) -> tuple[float, np.ndarray]:
    """Unnormalized overlap and its gradient w.r.t. the amplitude table (N, 2M).

    The product after segment s is U(T) P_{s+1}^dag, so every cotangent
    C_s = P_s K U(T) P_{s+1}^dag comes from the prefix products alone.
    """
    dt = table.dt
    h_batch = segment_hamiltonians(system, table)
    evals, vecs, units = segment_unitaries(h_batch, dt)
    pre = prefix_products(units)  # pre[s] = product before segment s
    u_total = pre[-1]

    if objective.kind == "gate":
        utd = objective.target.conj().T
        z = np.trace(utd @ u_total)
        overlap = float(abs(z) ** 2)
        # dF = 2 Re Tr(C_s dU_s) with K = conj(z) U_t^dag
        k_total = np.conj(z) * utd @ u_total
    else:
        rho_t = objective.target
        rho_i = objective.initial
        overlap = float(np.real(np.trace(rho_t @ u_total @ rho_i @ u_total.conj().T)))
        k_total = rho_i @ u_total.conj().T @ rho_t @ u_total
    pre_h = pre.conj().transpose(0, 2, 1)
    cot = np.matmul(np.matmul(pre[:-1], k_total), pre_h[1:])
    if objective.shape_weight > 0.0:
        pen, pen_cot = _shape_cotangent(pre, objective.initial, objective.shape_observables)
        # the caller rescales value and gradient by norm_factor; divide the
        # penalty out here so the combined result is exactly
        # F_normalized - weight * P and its gradient
        ratio = objective.shape_weight / objective.norm_factor
        overlap = overlap - ratio * pen
        cot = cot - ratio * pen_cot

    # Daleckii-Krein: dF/du_c = 2 Re Tr(G O_c), G = V ((V^dag C V) o F^T) V^dag
    vecs_h = vecs.conj().transpose(0, 2, 1)
    k_mat = np.matmul(np.matmul(vecs_h, cot), vecs)
    f_mat = _phase_divided_differences(evals, dt)
    g_mat = np.matmul(np.matmul(vecs, k_mat * f_mat.transpose(0, 2, 1)), vecs_h)
    ops = control_operator_stack(system)
    n, d = g_mat.shape[:2]
    ops_t = ops.transpose(0, 2, 1).reshape(len(ops), d * d)
    du = 2.0 * np.real(g_mat.reshape(n, d * d) @ ops_t.T)
    return overlap, du


def _lindblad_pulse_gradient(
    system: SpinSystem,
    table: PulseTable,
    objective: ObjectiveSpec,
    substeps: int,
) -> tuple[float, np.ndarray]:
    """Unnormalized overlap and amplitude-table gradient for the dissipative path."""
    ops = system_operators(system)
    lv, r_mats, maps = segment_lindblad_maps(system, objective.noise, table, substeps)
    n, dd, _ = lv.shape

    # substep states alpha_p = R^p x_s entering segment s, costates
    # beta_p = (R^T)^(m-1-p) y_s leaving it, and Z = sum_p alpha_p beta_p^T
    alphas = _buffer("substep_states", (n, dd, substeps))
    betas = _buffer("substep_costates", (n, dd, substeps))
    x = ops.coordinates(objective.initial)
    for s in range(n):
        alphas[s, :, 0] = x
        x = maps[s] @ x
    y = ops.coordinates(objective.target)
    overlap = float(y @ x)
    for s in range(n - 1, -1, -1):
        betas[s, :, -1] = y
        y = y @ maps[s]
    r_t = r_mats.transpose(0, 2, 1)
    for p in range(1, substeps):
        alphas[:, :, p] = np.matmul(r_mats, alphas[:, :, p - 1, None])[:, :, 0]
        betas[:, :, -1 - p] = np.matmul(r_t, betas[:, :, -p, None])[:, :, 0]
    z_mat = np.matmul(alphas, betas.transpose(0, 2, 1), out=_buffer("adjoint_z", lv.shape))

    # W = sum_{a+b<=3} c_{a+b+1} L^b Z L^a with c_k = h^k / k!, by Horner on
    # both sides: Y_3 = c_4 Z, Y_b = c_{b+1} Z + Y_{b+1} L, and
    # W = Y_0 + L (Y_1 + L (Y_2 + L Y_3)); every stage is written into a
    # workspace buffer, and W accumulates in the spent Y buffers
    h_sub = table.dt / substeps
    spare = _buffer("adjoint_spare", lv.shape)
    ys = [np.multiply(z_mat, h_sub**4 / 24.0, out=_buffer("adjoint_y3", lv.shape))]
    for k, k_fact in ((3, 6.0), (2, 2.0), (1, 1.0)):
        y_b = np.matmul(ys[-1], lv, out=_buffer(f"adjoint_y{k - 1}", lv.shape))
        y_b += np.multiply(z_mat, h_sub**k / k_fact, out=spare)
        ys.append(y_b)
    w_mat = ys[0]
    for y_b in ys[1:]:
        y_b += np.matmul(lv, w_mat, out=spare)
        w_mat = y_b

    # dF/du_c = Tr(G_c W)
    du = np.tensordot(w_mat, ops.control_generators, axes=([1, 2], [2, 1]))
    return overlap, du


def pulse_table_gradient(
    system: SpinSystem,
    table: PulseTable,
    objective: ObjectiveSpec,
    *,
    substep_tol: float = DEFAULT_SUBSTEP_TOL,
    amp_bound: float | None = None,
) -> tuple[float, np.ndarray]:
    """Objective value and its exact gradient w.r.t. the amplitude table,
    shape (n_segments, 2M).

    The value is the normalized fidelity minus shape_weight times the
    trajectory penalty when shaping is enabled, so thresholding the value
    guarantees at least that fidelity."""
    if table.n_channels != system.n_channels:
        raise ValueError("pulse channel count does not match system")
    if objective.noise is not None and objective.noise.gamma > 0:
        substeps = lindblad_substeps(system, table, objective.noise, substep_tol, amp_bound)
        overlap, du = _lindblad_pulse_gradient(system, table, objective, substeps)
    else:
        overlap, du = _unitary_pulse_gradient(system, table, objective)
    scale = objective.norm_factor
    fid = overlap * scale
    grad = du * scale
    if not np.isfinite(fid) or not np.all(np.isfinite(grad)):
        raise FloatingPointError(
            f"non-finite fidelity/gradient (fidelity={fid}, "
            f"segments={table.n_segments}, dt={table.dt})"
        )
    return fid, grad


def loss_and_gradient(
    params: NetworkParams,
    system: SpinSystem,
    objective: ObjectiveSpec,
    n_fine: int = DEFAULT_N_FINE,
    *,
    substep_tol: float = DEFAULT_SUBSTEP_TOL,
):
    """Objective value at n_fine segments and its exact gradient w.r.t. all
    weights/biases (fidelity minus the trajectory-shaping penalty, if any).

    Returns (value, (grad_w, grad_b)).
    """
    if params.n_channels != system.n_channels:
        raise ValueError(
            f"network output width {params.layer_sizes[-1]} does not match "
            f"2 x {system.n_channels} system channels"
        )
    ts = segment_times(params.time_scale, n_fine)
    tape = []
    amps = forward_batch(params, ts, tape)
    table = PulseTable(
        duration=params.time_scale,
        samples=amps.reshape(n_fine, params.n_channels, 2),
    )
    # substep count from amp_scale, not the realized amplitudes, so the
    # discretized objective is differentiable in the parameters
    fid, du = pulse_table_gradient(
        system, table, objective, substep_tol=substep_tol, amp_bound=params.amp_scale
    )
    grad_w, grad_b = backprop_pulse(params, ts, du, tape=tape)
    return fid, (grad_w, grad_b)


def evaluate_fidelity(
    system: SpinSystem,
    pulse,
    objective: ObjectiveSpec,
    *,
    n_fine: int | None = None,
) -> float:
    """Propagate a pulse (table or network) and score it against the objective."""
    if objective.kind == "gate":
        res = propagate_unitary(system, pulse, n_fine=n_fine)
        return gate_fidelity(res.final, objective.target)
    if objective.noise is not None and objective.noise.gamma > 0:
        res = propagate_lindblad(system, pulse, objective.initial, objective.noise, n_fine=n_fine)
    else:
        res = propagate_density(system, pulse, objective.initial, n_fine=n_fine)
    return state_fidelity(res.final, objective.target, objective.initial)
