"""Independent references that only the tests use.

``propagate_oracle`` integrates the equation of motion with an adaptive
Dormand-Prince method (scipy's RK45), treating a network as a
continuous-time Hamiltonian; ``expm_hermitian`` exponentiates one Hermitian
matrix by its eigendecomposition; ``shape_penalty`` is the forward value of
the trajectory-shaping penalty whose cotangent the shaped gradient uses.
``segment_liouvillians`` builds each segment's real Liouvillian from its
Hamiltonian, and ``lindblad_gradient`` is the dissipative gradient in powers
of those Liouvillians, the reference of the monomial tangent that
``objectives._lindblad_pulse_gradient`` runs.
"""

from __future__ import annotations

from math import factorial

import numpy as np
from scipy.integrate import solve_ivp

from pinnctl.checks import hermitian
from pinnctl.network import NetworkParams, PulseTable, forward_batch
from pinnctl.objectives import ObjectiveSpec, _shape_expectations
from pinnctl.propagation import (
    EvolutionResult,
    _as_pulse,
    prefix_products,
    segment_hamiltonians,
    segment_unitaries,
)
from pinnctl.spins import (
    NoiseModel,
    SpinSystem,
    control_operator_stack,
    drift_hamiltonian,
    liouvillian,
    system_operators,
)


def expm_hermitian(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) for Hermitian h via eigendecomposition."""
    hermitian("h", h)
    if dt < 0:
        raise ValueError("dt must be >= 0")
    evals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * evals * dt)
    return (vecs * phases) @ vecs.conj().T


def shape_penalty(
    system: SpinSystem,
    pulse,
    objective: ObjectiveSpec,
    *,
    n_fine: int | None = None,
) -> float:
    """Mean squared mid-window expectation penalty of a pulse (table or network)."""
    if not objective.shape_observables:
        raise ValueError("objective has no shape observables")
    table = _as_pulse(system, pulse, n_fine)
    h_batch = segment_hamiltonians(system, table)
    _, _, units = segment_unitaries(h_batch, table.dt)
    pre = prefix_products(units)
    _, _, e = _shape_expectations(pre, objective.initial, objective.shape_observables)
    return float(np.mean(e**2))


def segment_liouvillians(system: SpinSystem, noise: NoiseModel, table: PulseTable) -> np.ndarray:
    """Per-segment real Liouvillians, (N, d^2, d^2): -i (H kron I - I kron H^T) of each segment
    Hamiltonian H0 + sum_c u_c O_c plus the noise's dissipator (``spins.liouvillian``), taken into
    the Hermitian basis B as B^dag L B, whose imaginary part is round-off."""
    ops = system_operators(system)
    h = ops.drift + np.tensordot(table.flat_amplitudes(), ops.controls, axes=1)
    n, d, _ = h.shape
    eye = np.eye(d)
    lv = -1j * (np.einsum("nij,kl->nikjl", h, eye) - np.einsum("ij,nlk->nikjl", eye, h))
    lv = lv.reshape(n, d * d, d * d) + liouvillian(np.zeros((d, d)), noise)
    basis = ops.hermitian_basis
    return (basis.conj().T @ lv @ basis).real


def lindblad_gradient(system: SpinSystem, table: PulseTable, objective: ObjectiveSpec,
                      substeps: int) -> tuple[float, np.ndarray]:
    """Unnormalized overlap and amplitude-table gradient of the dissipative path in powers of
    the Liouvillians L: R = sum_(k<=4) (h L)^k / k! by Horner, M = R^substeps by squaring,
    states and costates one segment at a time, the cotangent x y^T of M stepped densely back
    through the squarings (Z <- S Z + Z S), W = sum_(a+b<4) (h L)^a Z (h L)^b / (a+b+1)! and
    dF/du_c = h Tr(W G_c)."""
    ops = system_operators(system)
    hl = (table.dt / substeps) * segment_liouvillians(system, objective.noise, table)
    eye = np.eye(hl.shape[-1])
    r = eye + hl / 4
    for k in (3, 2, 1):
        r = eye + (hl / k) @ r
    levels = [r]
    for _ in range(substeps.bit_length() - 1):
        levels.append(levels[-1] @ levels[-1])
    x, xs = ops.coordinates(objective.initial), []
    for m in levels[-1]:
        xs.append(x)
        x = m @ x
    y = ops.coordinates(objective.target)
    overlap, ys = float(y @ x), []
    for m in levels[-1][::-1]:
        ys.append(y)
        y = y @ m
    z = np.einsum("ni,nj->nij", np.array(xs), np.array(ys[::-1]))
    for s in reversed(levels[:-1]):
        z = s @ z + z @ s
    powers = [np.broadcast_to(eye, hl.shape)]
    for _ in range(3):
        powers.append(hl @ powers[-1])
    w = sum(powers[a] @ z @ powers[b] / factorial(a + b + 1) for a in range(4) for b in range(4 - a))
    return overlap, (table.dt / substeps) * np.einsum("nij,cji->nc", w, ops.control_generators)


def propagate_oracle(
    system: SpinSystem,
    pulse,
    initial: np.ndarray | None = None,
    mode: str = "unitary",
    *,
    noise: NoiseModel | None = None,
    rtol: float = 1e-9,
    atol: float = 1e-11,
) -> EvolutionResult:
    """Adaptive embedded 4(5) Dormand-Prince integration as a cross-check.

    A NetworkParams pulse is evaluated continuously in time (no grid); a
    PulseTable is treated as the piecewise-constant function it is.
    """
    if mode not in ("unitary", "density", "lindblad"):
        raise ValueError(f"unknown mode {mode!r}")
    h0 = drift_hamiltonian(system)
    ops = control_operator_stack(system)
    d = system.dimension

    if isinstance(pulse, NetworkParams):
        duration = pulse.time_scale

        def amps_at(t: float) -> np.ndarray:
            return forward_batch(pulse, np.array([min(max(t, 0.0), duration)]))[0]

    else:
        table = _as_pulse(system, pulse, None)
        duration = table.duration
        flat = table.flat_amplitudes()

        def amps_at(t: float) -> np.ndarray:
            s = min(int(t / table.dt), table.n_segments - 1)
            return flat[s]

    def hamiltonian(t: float) -> np.ndarray:
        return h0 + np.einsum("c,cij->ij", amps_at(t), ops)

    if mode == "unitary":
        y0 = np.eye(d, dtype=complex).reshape(-1)

        def rhs(t, y):
            return (-1j * hamiltonian(t) @ y.reshape(d, d)).reshape(-1)

    elif mode == "density":
        hermitian("initial state", initial)
        y0 = initial.reshape(-1).astype(complex)

        def rhs(t, y):
            rho = y.reshape(d, d)
            return (-1j * (hamiltonian(t) @ rho - rho @ hamiltonian(t))).reshape(-1)

    else:
        if noise is None:
            raise ValueError("lindblad mode requires a noise model")
        hermitian("initial state", initial)
        y0 = initial.reshape(-1).astype(complex)
        l_noise = liouvillian(np.zeros((d, d)), noise)

        def rhs(t, y):
            rho = y.reshape(d, d)
            comm = -1j * (hamiltonian(t) @ rho - rho @ hamiltonian(t))
            return comm.reshape(-1) + l_noise @ y

    sol = solve_ivp(rhs, (0.0, duration), y0, method="RK45", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"adaptive integration failed: {sol.message}")
    return EvolutionResult(final=sol.y[:, -1].reshape(d, d), trajectory=None)
