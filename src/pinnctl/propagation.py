"""Time evolution under piecewise-constant Hamiltonians.

The forward-only propagators walk the segments in chunks of at most _CHUNK, folding each
chunk's maps into the state by a pairwise product tree before the next chunk is built, so their
memory is O(chunk), not O(N).  Their unitary maps are exp(-i H dt) by Taylor polynomial and
squaring in the real form [[Re U, -Im U], [Im U, Re U]], acting on the state [Re U; Im U]: no
eigendecomposition.  One helper (``_taylor_power``) forms every such polynomial by Horner on its
coefficients 1/k!, with no division per stage, and keeps every squaring.  Only the unitary
gradient eigendecomposes (``segment_unitaries``, for Daleckii-Krein).  One blocked sqrt(N) scan
(``_blocked_states``) gives both gradients the product of the maps up to every segment: the unitary
P_s = U_s ... U_1 run from the identity (the product after segment s is U(T) P_s^dagger), and the
dissipative states, whose costates run back over its block maps (``state_costate_sweeps``).  The
master equation runs in the real coordinates of an orthonormal Hermitian basis, where its generators
are real d^2 x d^2 matrices; an RK4 substep is the degree-4 Taylor call, and its reverse pass
through the squarings is ``_taylor_power_adjoint``.
Inside an ascent the segment arrays are buffers of its workspace (``workspace._buffer``), valid
until the next call; outside one they are fresh.  The forward walk (``_sweep_segments``) opens a
workspace of its own, whose buffers each chunk reuses.  numpy only; Dormand-Prince is a test oracle.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .checks import hermitian, real
from .network import NetworkParams, PulseTable, sample_pulse
from .spins import (
    NoiseModel,
    SpinSystem,
    SystemOperators,
    control_operator_stack,
    drift_hamiltonian,
    system_operators,
)
from .workspace import _buffer, _workspace

DEFAULT_N_FINE = 4096  # 2**12
# Per-RK4-substep cap on (gamma*||H0|| + ||H||)*h; 0.005 keeps the gamma=0
# dissipative path within 1e-8 of the exact unitary propagation.
DEFAULT_SUBSTEP_TOL = 0.005
# Segments per map build in the forward-only walk: a chunk's (256, 16, 16)
# Lindblad temporaries take 2 MB and stay in L2 through the build and product.
_CHUNK = 256
_MAX_SQUARINGS = 18  # per segment exponential: their round-off, about 2**s * eps, stays below 6e-11


@dataclass
class EvolutionResult:
    final: np.ndarray
    trajectory: list[tuple[float, np.ndarray]] | None


def _check_state(system: SpinSystem, rho0: np.ndarray):
    if rho0.shape != (system.dimension,) * 2:
        raise ValueError(f"initial state has shape {rho0.shape}; the system's is "
                         f"{(system.dimension,) * 2}")
    hermitian("initial state", rho0)


def _as_pulse(system: SpinSystem, pulse, n_fine: int | None) -> PulseTable:
    """The pulse as a table: a PulseTable as given, a network sampled onto
    n_fine segments (DEFAULT_N_FINE when None).  Every forward analysis
    samples a network here and nowhere else."""
    if isinstance(pulse, PulseTable):
        table = pulse
    elif isinstance(pulse, NetworkParams):
        table = sample_pulse(pulse, DEFAULT_N_FINE if n_fine is None else n_fine)
    else:
        raise TypeError(f"cannot interpret {type(pulse).__name__} as a pulse")
    if table.n_channels != system.n_channels:
        raise ValueError(
            f"pulse has {table.n_channels} channels, system has {system.n_channels}"
        )
    return table


def segment_hamiltonians(
    system: SpinSystem, table: PulseTable, rows: slice = slice(None)
) -> np.ndarray:
    """Batched H_s = H0 + sum_c u_cx X_c + u_cy Y_c, shape (N, dim, dim), for the
    segments in rows (all by default); in a workspace, its buffer."""
    ops = control_operator_stack(system)
    amps = table.flat_amplitudes()[rows]
    h = _buffer("hamiltonians", (len(amps), *ops.shape[1:]), complex)
    np.dot(amps, ops.reshape(len(ops), -1), out=h.reshape(len(amps), -1))
    return np.add(h, drift_hamiltonian(system), out=h)


def segment_unitaries(h_batch: np.ndarray, dt: float):
    """Eigendecompose each segment Hamiltonian and form exp(-i H dt) = (V * phases) V^dag.

    Returns (evals (N,d), vecs (N,d,d), unitaries (N,d,d), in a workspace its buffer).
    """
    evals, vecs = np.linalg.eigh(h_batch)
    phases = np.multiply(-1j, evals, out=_buffer("unitary_phases", evals.shape, complex))
    phases = np.exp(np.multiply(phases, dt, out=phases), out=phases)[:, None, :]
    scaled = np.multiply(vecs, phases, out=_buffer("unitary_scaled", vecs.shape, complex))
    vecs_h = np.conj(vecs, out=_buffer("unitary_vecs_h", vecs.shape, complex)).transpose(0, 2, 1)
    return evals, vecs, np.matmul(scaled, vecs_h, out=_buffer("unitaries", vecs.shape, complex))


def _blocked_states(maps: np.ndarray, x0: np.ndarray):
    """States x_s = M_(s-1) ... M_0 x0, s = 0..N ((N+1, *x0.shape), in a workspace its buffer), the
    full blocks of b = isqrt(N) maps and their products T_k = M_(kb+b-1) ... M_(kb), formed together
    by b - 1 batched matmuls.  The T_k carry x0 across the blocks, the last N mod b maps step singly,
    and one batched matmul per position fills every block: about 3 sqrt(N) Python-level steps
    instead of N, and the only further array is the carry."""
    (n, *shape), b = maps.shape, math.isqrt(len(maps))
    m = n - n % b  # segments in full blocks
    blocks = maps[:m].reshape(-1, b, *shape)
    carry, spare = blocks[:, 0], _buffer("scan_carry", (2, m // b, *shape), maps.dtype)
    for j in range(1, b):
        carry = np.matmul(blocks[:, j], carry, out=spare[j % 2])
    xs = _buffer("scan_states", (n + 1, *x0.shape), maps.dtype)
    xb, x = xs[:m].reshape(-1, b, *x0.shape), x0
    for k in range(m // b):
        xb[k, 0], x = x, carry[k] @ x
    for s in range(m, n):
        xs[s], x = x, maps[s] @ x
    xs[n] = x
    for j in range(1, b):
        np.matmul(blocks[:, j - 1], xb[:, j - 1], out=xb[:, j])
    return xs, blocks, carry


def prefix_products(units: np.ndarray) -> np.ndarray:
    """P[s] = U_s ... U_1 for s = 1..N, P[0] = identity: (N+1, d, d), in a workspace its buffer.
    The states of the blocked scan (``_blocked_states``) run from the identity."""
    return _blocked_states(units, np.eye(units.shape[1]))[0]


def state_costate_sweeps(maps: np.ndarray, x0: np.ndarray, y0: np.ndarray):
    """States x_s = M_(s-1) ... M_0 x0 entering each segment s, costates y_s = y0 M_(N-1) ... M_(s+1)
    leaving it ((N, d^2) each, in a workspace its buffers) and the overlap y0 . M_(N-1) ... M_0 x0.
    The states are the blocked scan's (x0 as a column); the costates step back singly over the last
    N mod b segments, across the blocks by the scan's block maps T_k, then fill every block at once."""
    (n, dd, _), (xs, blocks, carry) = maps.shape, _blocked_states(maps, x0[:, None])
    nb, b = blocks.shape[:2]
    ys, y = _buffer("segment_costates", (n, dd)), y0
    yb = ys[: nb * b].reshape(nb, b, dd)
    for s in range(n - 1, nb * b - 1, -1):
        ys[s], y = y, y @ maps[s]
    for k in range(nb - 1, -1, -1):
        yb[k, -1], y = y, y @ carry[k]
    for j in range(1, b):
        np.matmul(yb[:, b - j, None], blocks[:, b - j], out=yb[:, b - j - 1, None])
    return xs[:n, :, 0], ys, float(y0 @ xs[n, :, 0])


def _ordered_product(maps: np.ndarray) -> np.ndarray:
    """maps[-1] @ ... @ maps[0] as a pairwise tree: log2(N) batched matmuls.

    The odd last entry of a level is set aside (a copy of one matrix, so the
    level itself can be freed) and multiplied on from the left at the end.
    """
    level, tails = maps, []
    while len(level) > 1:
        if len(level) % 2:
            tails.append(level[-1].copy())
            level = level[:-1]
        level = np.matmul(level[1::2], level[0::2])
    out = level[0]
    for tail in reversed(tails):
        out = tail @ out
    return out


def _sweep_segments(
    table: PulseTable, build: Callable[[slice], np.ndarray], x: np.ndarray, sample_times, read,
) -> EvolutionResult:
    """Apply the maps of the table's segments to x in order, in a workspace of the walk's own.
    Returns read(x) at the end and, when sample_times is given, one row (t, read(x)) per sample
    time, in the order given, with x taken at the segment boundary nearest to t.

    build(rows) returns the stacked maps of the segments in the slice rows; it is called for one
    chunk of at most _CHUNK segments at a time, and each chunk is folded into x before the next is
    built, so only one chunk of maps is alive at once."""
    n, duration = table.n_segments, table.duration
    times = () if sample_times is None else sample_times
    snap = [int(round(np.clip(t, 0.0, duration) / duration * n)) for t in times]
    wanted, states, start = {*snap, n}, {}, 0
    with _workspace():  # one chunk's buffers, reused by the next chunk
        # every span lies inside one chunk, and a chunk's first span starts it
        for stop in sorted(wanted | {*range(_CHUNK, n, _CHUNK)}):
            if stop > start:
                if start % _CHUNK == 0:
                    lo, chunk = start, build(slice(start, start + _CHUNK))
                x = _ordered_product(chunk[start - lo : stop - lo]) @ x
            if stop in wanted:
                states[stop] = read(x)
            start = stop
    traj = None if sample_times is None else [(t, states[s]) for t, s in zip(sample_times, snap)]
    return EvolutionResult(final=states[n], trajectory=traj)


def _control_bound(ops: SystemOperators, table: PulseTable, amp_bound: float | None = None) -> float:
    """max_s sum_c |u_sc| ||O_c|| >= ||H_s - H0||, or amp_bound sum_c ||O_c|| when an amplitude
    bound is given: the control term of both segment plans.  inf past the float range."""
    with np.errstate(over="ignore"):
        if amp_bound is not None:
            return amp_bound * float(ops.control_norms.sum())
        amps = table.flat_amplitudes()
        return float(max(  # by chunks: no temporary grows with N
            np.max(np.abs(amps[i : i + _CHUNK]) @ ops.control_norms) for i in range(0, len(amps), _CHUNK)))


def taylor_plan(system: SpinSystem, table: PulseTable) -> tuple[int, int]:
    """(degree, squarings) for every segment's exp(-i H dt), from one table-wide bound
    theta = (||H0|| + max_s sum_c |u_sc| ||O_c||) dt >= ||H_s dt||, so that a map is the same
    bits in any chunk: theta / 2^squarings <= 1/2 and the Taylor remainder there <= eps."""
    ops = system_operators(system)
    with np.errstate(over="ignore"):  # past the float range theta is inf, rejected below
        theta = table.dt * (ops.drift_norm + _control_bound(ops, table))
    if not theta <= (limit := 2.0 ** (_MAX_SQUARINGS - 1)):
        raise ValueError(f"segment phase bound ||H dt|| <= {theta:.3g} rad exceeds {limit:g} rad, "
                         f"the most {_MAX_SQUARINGS} squarings keep to round-off; use more segments")
    squarings = math.ceil(math.log2(2.0 * theta)) if theta > 0.5 else 0
    scaled, eps = theta / 2**squarings, np.finfo(float).eps
    return next(m for m in range(1, 30) if scaled ** (m + 1) / math.factorial(m + 1) <= eps), squarings


def segment_unitary_maps(system: SpinSystem, table: PulseTable, plan: tuple[int, int],
                         rows: slice = slice(None)) -> np.ndarray:
    """Real forms of U_s = exp(-i H_s dt), (N, 2d, 2d), for the segments in rows, by the
    plan of ``taylor_plan``; in a workspace, its buffer."""
    h = segment_hamiltonians(system, table, rows)
    n, d, c = len(h), h.shape[1], table.dt / 2 ** plan[1]
    x = _buffer("unitary_generator", (n, 2 * d, 2 * d))
    # the real form of -i c H = c Im H - i c Re H
    np.multiply(h.imag, c, out=x[:, :d, :d])
    np.multiply(h.real, c, out=x[:, :d, d:])
    x[:, d:, :d], x[:, d:, d:] = -x[:, :d, d:], x[:, :d, :d]
    return _taylor_power(x, *plan)[-1]


def propagate_unitary(
    system: SpinSystem, pulse, *, n_fine: int | None = None, sample_times=None
) -> EvolutionResult:
    """U(T) as the ordered product of segment exponentials over the pulse."""
    table = _as_pulse(system, pulse, n_fine)
    plan, d = taylor_plan(system, table), system.dimension
    return _sweep_segments(table, lambda rows: segment_unitary_maps(system, table, plan, rows),
                           np.eye(2 * d, d), sample_times, lambda x: x[:d] + 1j * x[d:])  # [Re U; Im U]


def propagate_density(
    system: SpinSystem, pulse, rho0: np.ndarray, *, n_fine: int | None = None, sample_times=None
) -> EvolutionResult:
    """rho(T) = U rho0 U^dagger on the same piecewise-constant grid."""
    _check_state(system, rho0)
    res = propagate_unitary(system, pulse, n_fine=n_fine, sample_times=sample_times)
    final = res.final @ rho0 @ res.final.conj().T
    traj = None
    if res.trajectory is not None:
        traj = [(t, u @ rho0 @ u.conj().T) for t, u in res.trajectory]
    return EvolutionResult(final=final, trajectory=traj)


def _check_substep_tol(tol) -> None:
    # The Liouvillian's norm can reach about twice the rate (gamma*||H0|| +
    # ||H||) that tol caps per substep, and RK4 is stable only for h*||L||
    # below about 2.8, so a tolerance above 1 can let every substep diverge.
    real("substep_tol", tol, "in (0, 1]")


def lindblad_substeps(
    system: SpinSystem, table: PulseTable, noise: NoiseModel, tol: float, amp_bound: float | None = None
) -> int:
    """Power-of-two substep count per segment so (rate + ||H||)*h <= tol, for a tol in (0, 1].
    When amp_bound is given the bound uses it instead of the realized amplitudes, making the
    count independent of the pulse values."""
    _check_substep_tol(tol)
    ops = system_operators(system)
    control = _control_bound(ops, table, amp_bound)
    needed = (noise.rate + ops.drift_norm + control) * table.dt / tol
    m = 1
    while m < needed:
        m *= 2
        if m > 2**20:
            raise RuntimeError(
                f"Lindblad step-size underflow: (rate + ||H||) dt / tol = {needed:.3g}; collapse rate "
                f"gamma*||H0|| {noise.rate:.3g} rad/s, Hamiltonian bound {ops.drift_norm + control:.3g}"
                " rad/s; use more segments, a larger substep_tol, a smaller gamma or smaller amplitudes")
    return m


def _add_identity(batch: np.ndarray, c: float):
    """batch[s] += c * eye for an (N, d, d) batch, in place through the flat view of its diagonals."""
    n, d, _ = batch.shape
    batch.reshape(n, d * d)[:, :: d + 1] += c


def _taylor_power(x: np.ndarray, degree: int, squarings: int) -> list[np.ndarray]:
    """[r, r^2, ..., r^(2^squarings)]: r = c_m x + c_(m-1) eye, then r <- x r + c_k eye (c_k = 1/k!),
    exp(x)'s Taylor polynomial by Horner, and its squarings, for a batch of real x, spent on them."""
    r = np.divide(x, float(math.factorial(degree)), out=_buffer("horner_a", x.shape))
    tmp = _buffer("horner_b", x.shape)
    _add_identity(r, 1.0 / math.factorial(degree - 1))
    for k in range(degree - 2, -1, -1):
        r, tmp = np.matmul(x, r, out=tmp), r
        _add_identity(r, 1.0 / math.factorial(k))
    levels = [r]  # all kept for _taylor_power_adjoint: in the spent x and tmp, then a buffer each
    for i in range(squarings):
        out = (x, tmp)[i] if i < 2 else _buffer(f"taylor_level_{i + 1}", x.shape)
        levels.append(np.matmul(levels[-1], levels[-1], out=out))
    return levels


def _taylor_power_adjoint(z: np.ndarray, levels: list, generator: np.ndarray, step: float):
    """Reverse pass of levels = _taylor_power(step * L, 4, squarings), RK4 maps M = levels[-1] of L:
    from their cotangents z (dF = Tr(z dM), spent), W with dF = Tr(W dL), in a workspace its buffer."""
    spare, other = _buffer("adjoint_spare", z.shape), _buffer("adjoint_z", z.shape)
    for m in reversed(levels[:-1]):  # M_(j+1) = M_j M_j: Z_j = M_j Z_(j+1) + Z_(j+1) M_j, down to R
        z, other = np.matmul(m, z, out=other), z
        z += np.matmul(other, m, out=spare)
    # W = sum_{a+b<=3} c_{a+b+1} L^b Z L^a with c_k = h^k / k!, by Horner on
    # both sides: Y_3 = c_4 Z, Y_b = c_{b+1} Z + Y_{b+1} L, and
    # W = Y_0 + L (Y_1 + L (Y_2 + L Y_3)); every stage is written into a
    # workspace buffer, and W accumulates in the spent Y buffers
    ys = [np.multiply(z, step**4 / 24.0, out=_buffer("adjoint_y3", z.shape))]
    for k, k_fact in ((3, 6.0), (2, 2.0), (1, 1.0)):
        y_b = np.matmul(ys[-1], generator, out=_buffer(f"adjoint_y{k - 1}", z.shape))
        y_b += np.multiply(z, step**k / k_fact, out=spare)
        ys.append(y_b)
    w_mat = ys[0]
    for y_b in ys[1:]:
        y_b += np.matmul(generator, w_mat, out=spare)
        w_mat = y_b
    return w_mat


def segment_lindblad_maps(
    system: SpinSystem,
    noise: NoiseModel,
    table: PulseTable,
    substeps: int,
    rows: slice = slice(None),
) -> tuple[np.ndarray, ...]:
    """Per-segment real Liouvillians L, RK4 substep maps R, R^2, R^4, ... and
    segment maps M = R^substeps (substeps a power of two), in the coordinates of
    ``SystemOperators.coordinates``, for the segments in rows (all by default;
    each row is the same bits either way).

    With a constant generator one RK4 step is the 4th-order Taylor polynomial
    of exp(h L) (``_taylor_power``).  Returns (L, R, ..., M), each (N, d^2, d^2),
    M at [-1], in a workspace (an ascent's, or the forward-only walk's) its buffer.
    """
    ops = system_operators(system)
    amps, gens = table.flat_amplitudes()[rows], ops.control_generators
    shape = (len(amps), *gens.shape[1:])
    lv = _buffer("lindblad_generator", shape)
    # the product np.tensordot(amps, gens, axes=1) forms, written into lv
    np.dot(amps, gens.reshape(len(gens), -1), out=lv.reshape(len(amps), -1))
    lv += ops.drift_generator + noise.dissipator
    hl = np.multiply(lv, table.dt / substeps, out=_buffer("lindblad_step", shape))
    return (lv, *_taylor_power(hl, 4, substeps.bit_length() - 1))


def propagate_lindblad(
    system: SpinSystem,
    pulse,
    rho0: np.ndarray,
    noise: NoiseModel,
    *,
    n_fine: int | None = None,
    sample_times=None,
) -> EvolutionResult:
    """Integrate the master equation with collapse rate gamma*||H0||, at the
    substep count of DEFAULT_SUBSTEP_TOL."""
    _check_state(system, rho0)
    table = _as_pulse(system, pulse, n_fine)
    m_sub, ops = lindblad_substeps(system, table, noise, DEFAULT_SUBSTEP_TOL), system_operators(system)
    return _sweep_segments(
        table, lambda rows: segment_lindblad_maps(system, noise, table, m_sub, rows)[-1],
        ops.coordinates(rho0), sample_times, ops.density)
