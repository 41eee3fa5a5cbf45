"""Gate/state fidelity functionals and exact gradients w.r.t. network parameters.

The network-space gradient is the table gradient of the network's samples (``network.sample_pulse``),
backpropagated through the tape of that one forward pass.  The gradients are reverse-mode derivatives
of the discretized dynamics; both take the maps' product up to every segment from one blocked sqrt(N)
scan.  The unitary path takes its prefix products (``propagation.prefix_products``, scanned in real
form) and each exponential's Frechet derivative in its eigenbasis (Daleckii-Krein), whose batched
complex products are each one real matmul (``propagation._complex_matmul``).  The dissipative path
takes its RK4 maps (one GEMM over the amplitude monomials, ``propagation.segment_lindblad_maps``),
their states and, over the same block maps, costates (``propagation.state_costate_sweeps``), then,
in chunks of ``_CHUNK`` segments, each map's reverse pass in real arithmetic: back through the
squarings on the factors x_s, y_s of its rank-one cotangent x_s y_s^T
(``propagation._squarings_adjoint``), then through the RK4 map's monomials in the amplitudes
(``propagation._rk4_map_gradient``), with no Liouvillian.  Both, and the network's passes, write
temporaries into the ascent's workspace (``workspace._buffer``); gradients are fresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checks import hermitian, real
from .network import NetworkParams, PulseTable, backprop_pulse, sample_pulse
from .propagation import (
    DEFAULT_N_FINE,
    DEFAULT_SUBSTEP_TOL,
    _CHUNK,
    _as_pulse,
    _complex_matmul,
    _rk4_map_gradient,
    _squarings_adjoint,
    lindblad_substeps,
    prefix_products,
    propagate_density,
    propagate_lindblad,
    propagate_unitary,
    segment_hamiltonians,
    segment_lindblad_maps,
    segment_unitaries,
    state_costate_sweeps,
)
from .spins import NoiseModel, SpinSystem, control_operator_stack, system_operators
from .workspace import _buffer

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
        real("shape_weight", self.shape_weight, "finite and >= 0")
        if self.shape_weight > 0:
            if self.kind != "state":
                raise ValueError("trajectory shaping applies to state objectives only")
            if self.dissipative:
                raise ValueError("trajectory shaping is not supported with dissipative evolution")
            if not self.shape_observables:
                raise ValueError("shape_weight > 0 requires shape_observables")
            for o in self.shape_observables:
                hermitian("shape observables", o)
        d = self.target.shape[0]
        if self.kind == "gate":
            if np.linalg.norm(self.target @ self.target.conj().T - np.eye(d)) > 1e-10:
                raise ValueError("gate target must be unitary")
            if self.dissipative:
                raise ValueError("gate objectives do not support dissipative evolution")
            factor = 1.0 / d**2
        else:
            hermitian("state target", self.target)
            if self.initial is None:
                raise ValueError("state objectives require an initial state")
            if self.initial.shape != self.target.shape:
                raise ValueError(f"state target has shape {self.target.shape} and initial "
                                 f"state {self.initial.shape}; they must match")
            hermitian("initial state", self.initial)
            factor = 1.0 / _checked_transfer_bound(self.target, self.initial)
        object.__setattr__(self, "norm_factor", factor)

    @property
    def dissipative(self) -> bool:
        """Whether the objective's evolution dissipates: a noise model with gamma > 0."""
        return self.noise is not None and self.noise.gamma > 0

    def check_dimension(self, d: int) -> None:
        """Raise ValueError unless the target (and initial state) are d x d."""
        for name, m in (("target", self.target), ("initial state", self.initial)):
            if m is not None and m.shape != (d, d):
                raise ValueError(f"objective {name} has shape {m.shape}; the system's is {(d, d)}")


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


def _shape_window_checkpoints(n_segments: int) -> list[int]:
    """Segment boundaries k (state after k segments) whose time k/n lies in SHAPE_WINDOW."""
    lo, hi = SHAPE_WINDOW
    ks = [k for k in range(1, n_segments + 1) if lo <= k / n_segments <= hi]
    if not ks:
        raise ValueError(f"shape window contains no segment boundaries on a {n_segments}-segment grid")
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
    and the (N, d, d) factors R_s of its cotangent: dP = 2 Re sum_s Tr(C_s dU_s)
    with C_s = P_s R_s P_{s+1}^dag.

    With W_k = dP/drho_k = 2/(KB) sum_b e_kb O_b, R_j = rho_i S_{j+1}, where
    S_m is the sum of P_k^dag W_k P_k over the checkpoints k >= m.
    """
    ks, obs, e = _shape_expectations(pre, rho_i, observables)
    n, d = len(pre) - 1, rho_i.shape[0]
    w_k = (2.0 / e.size) * (e @ obs.reshape(len(obs), d * d)).reshape(len(ks), d, d)
    terms = np.zeros((n + 1, d, d), dtype=complex)
    terms[ks] = np.matmul(np.matmul(pre[ks].conj().transpose(0, 2, 1), w_k), pre[ks])
    s_mat = np.cumsum(terms[::-1], axis=0)[::-1]
    return float(np.mean(e**2)), np.matmul(rho_i, s_mat[1:])


def _unitary_pulse_gradient(
    system: SpinSystem, table: PulseTable, objective: ObjectiveSpec
) -> tuple[float, np.ndarray]:
    """Unnormalized overlap and its gradient w.r.t. the amplitude table (N, 2M).

    The product after segment s is U(T) P_{s+1}^dag, so every cotangent
    C_s = P_s K_s P_{s+1}^dag comes from the prefix products alone.  K_s = K
    is one matrix, less ratio * R_s (``_shape_cotangent``) under trajectory
    shaping.  Write U_s = V D V^dag and E = D^(1/2).  Since
    P_{s+1}^dag V = P_s^dag V D^*, the Daleckii-Krein matrix in the
    eigenbasis is (V^dag C_s V) o F = -i dt (A K_s A^dag) o S, with
    A = E V^dag P_s and S_ab = sinc((l_a - l_b) dt / 2): the phase of the
    divided differences F of exp(-i x dt) cancels against E.
    """
    dt = table.dt
    evals, vecs, units = segment_unitaries(segment_hamiltonians(system, table), dt)
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
    n, d = evals.shape
    shape = vecs.shape
    vecs_h = np.conj(vecs.transpose(0, 2, 1), out=_buffer("gradient_vecs_h", shape, complex))
    a_mat = _complex_matmul(vecs_h, pre[:-1], _buffer("gradient_a", shape, complex))
    a_mat *= np.exp(-0.5j * dt * evals)[:, :, None]
    ak = _buffer("gradient_ak", shape, complex)
    if objective.shape_weight > 0.0:
        pen, pen_factors = _shape_cotangent(pre, objective.initial, objective.shape_observables)
        # the caller rescales value and gradient by norm_factor; divide the
        # penalty out here so the combined result is exactly
        # F_normalized - weight * P and its gradient
        ratio = objective.shape_weight / objective.norm_factor
        overlap = overlap - ratio * pen
        _complex_matmul(a_mat, k_total - ratio * pen_factors, ak)
    else:  # A K as one (N d, d) @ (d, d) product
        np.matmul(a_mat.reshape(n * d, d), k_total, out=ak.reshape(n * d, d))
    a_h = np.conj(a_mat, out=_buffer("gradient_a_h", shape, complex)).transpose(0, 2, 1)
    m_mat = _complex_matmul(ak, a_h, _buffer("gradient_m", shape, complex))
    # S_ab = sin(y) / y at y = (l_a - l_b) dt / 2, which np.sinc takes as y / pi
    m_mat *= np.sinc((evals[:, :, None] - evals[:, None, :]) * (dt / (2.0 * np.pi)))
    # back to the lab frame, G = V M V^dag (M without its factor -i dt), in the spent A and AK
    g_mat = _complex_matmul(_complex_matmul(vecs, m_mat, a_mat), vecs_h, ak)
    # dF/du_c = 2 Re Tr(-i dt G O_c) = 2 dt Im Tr(G O_c)
    ops = control_operator_stack(system)
    ops_t = ops.transpose(0, 2, 1).reshape(len(ops), d * d)
    du = (2.0 * dt) * np.imag(g_mat.reshape(n, d * d) @ ops_t.T)
    return overlap, du


def _lindblad_pulse_gradient(
    system: SpinSystem,
    table: PulseTable,
    objective: ObjectiveSpec,
    substeps: int,
) -> tuple[float, np.ndarray]:
    """Unnormalized overlap and amplitude-table gradient for the dissipative path."""
    ops = system_operators(system)
    levels = segment_lindblad_maps(system, objective.noise, table, substeps)

    # states x_s entering segment s and costates y_s leaving it
    xs, ys, overlap = state_costate_sweeps(
        levels[-1], ops.coordinates(objective.initial), ops.coordinates(objective.target))
    du = np.empty((len(xs), 2 * system.n_channels))
    for i in range(0, len(xs), _CHUNK):  # the reverse pass by chunks: its temporaries are O(chunk)
        rows = slice(i, i + _CHUNK)
        # dF = Tr(Z_s dM_s), Z_s = x_s y_s^T as its factors, back through the squarings, then R
        z = _squarings_adjoint(xs[rows, :, None], ys[rows, None, :], [m[rows] for m in levels])
        du[rows] = _rk4_map_gradient(system, objective.noise, table, substeps, rows, z)
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
    objective.check_dimension(system.dimension)
    _as_pulse(system, table, None)  # the channel check of every forward evaluation
    if objective.dissipative:
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
    params.check_channels(system.n_channels)
    tape = []
    table = sample_pulse(params, n_fine, tape)
    # substep count from amp_scale, not the realized amplitudes, so the
    # discretized objective is differentiable in the parameters
    fid, du = pulse_table_gradient(
        system, table, objective, substep_tol=substep_tol, amp_bound=params.amp_scale
    )
    return fid, backprop_pulse(params, du, tape)


def evaluate_fidelity(
    system: SpinSystem,
    pulse,
    objective: ObjectiveSpec,
    *,
    n_fine: int | None = None,
) -> float:
    """Propagate a pulse (table or network) and score it against the objective."""
    objective.check_dimension(system.dimension)
    if objective.kind == "gate":
        res = propagate_unitary(system, pulse, n_fine=n_fine)
        return gate_fidelity(res.final, objective.target)
    if objective.dissipative:
        res = propagate_lindblad(system, pulse, objective.initial, objective.noise, n_fine=n_fine)
    else:
        res = propagate_density(system, pulse, objective.initial, n_fine=n_fine)
    return state_fidelity(res.final, objective.target, objective.initial)
