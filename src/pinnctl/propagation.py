"""Time evolution under piecewise-constant Hamiltonians.

The forward-only propagators walk the segments in chunks of at most _CHUNK, folding each chunk's
maps into the state by a pairwise product tree before the next chunk is built, so their memory is
O(chunk), not O(N), besides the table (a network is sampled in row blocks, ``forward_batch``).
Every per-segment GEMM (Hamiltonians, unitary generators, RK4 maps and tangent traces) is ``_affine``:
per-segment features times a per-system stack, plus any offset, into a buffer.  The unitary maps are
exp(-i H dt) by Taylor polynomial (``_taylor_power``, Paterson-Stockmeyer, about 2 sqrt(m) matmuls
at degree m, the generator GEMM writing into its powers) and squaring (``_squarings``, in two
buffers) in the real form [[Re U, -Im U], [Im U, Re U]], acting on the state [Re U; Im U]: no
eigendecomposition and no complex H, the generators coming from the real forms of -i H0 and -i O_c
(``SystemOperators.unitary_generators``).  Only the unitary gradient eigendecomposes (for
Daleckii-Krein, ``segment_unitaries``), each H by a real eigh of D^dag H D, real symmetric in a
diagonal phase gauge D, or, for two spins without offsets, whose D^dag H D commutes with the spin
flip, by a closed-form rotation of each of its two 2x2 parity blocks (``_flip_parity_eigh``); its
batched complex products are each one real matmul (``_complex_matmul``).  One blocked sqrt(N) scan
(``_blocked_states``) gives both gradients the product of the maps up to every segment: the
unitary P_s = U_s ... U_1, run from the identity over the real forms of the U_s (the product after
segment s is U(T) P_s^dagger), and the dissipative states, whose costates run back over its block
maps (``state_costate_sweeps``).  The master
equation runs in the real coordinates of an orthonormal Hermitian basis, where its generators are
real d^2 x d^2 matrices.  An RK4 substep map is a fixed polynomial in its amplitudes: the features
are their monomials, the stack a matrix built once per system, noise and step (``_rk4_coefficients``),
so no path forms a Liouvillian.  One function builds the maps and monomials (``_rk4_maps``): the walk's
builder keeps the last squaring level (``segment_lindblad_maps``), the gradient every level.
The dissipative table gradient is here, beside its maps (``lindblad_table_gradient``): by chunks,
its reverse pass doubles a segment's cotangent factors x y^T down the squarings while their width
stays within d^2, then steps densely, the cotangent Z written over the spent segment maps M
(``_squarings_adjoint``, for any squared map), and then takes the RK4 map's tangent: one ``_affine``
GEMM with the monomials' coefficients and a gather over their derivatives.
Inside an ascent the segment arrays are buffers of its workspace (``workspace._buffer``), valid
until the next call; outside one they are fresh.  The forward walk (``_sweep_segments``) opens a
workspace of its own, whose buffers each chunk reuses.  numpy only; Dormand-Prince is a test oracle.
"""

from __future__ import annotations

import functools
import itertools
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
    _read_only,
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


def _affine(features: np.ndarray, stack: np.ndarray, key: str | np.ndarray, offset=None) -> np.ndarray:
    """features @ stack + offset, (N, *stack.shape[1:]), for features (N, K) and a stack (K, ...): one
    GEMM into the buffer for key (or into key, an array of max(N, 2) rows), then the offset, if given,
    in place.  A single row is computed as two: a one-row product runs as a GEMV, with other bits."""
    n, k = features.shape
    if n == 1:
        features = np.repeat(features, 2, axis=0)
    out = _buffer(key, (len(features), *stack.shape[1:]), stack.dtype) if isinstance(key, str) else key
    np.matmul(features, stack.reshape(k, -1), out=out.reshape(len(features), -1))
    return out[:n] if offset is None else np.add(out[:n], offset, out=out[:n])


def segment_hamiltonians(system: SpinSystem, table: PulseTable) -> np.ndarray:
    """Batched H_s = H0 + sum_c u_cx X_c + u_cy Y_c, (N, dim, dim); in a workspace, its buffer."""
    return _affine(table.flat_amplitudes(), control_operator_stack(system), "hamiltonians",
                   drift_hamiltonian(system))


def segment_unitaries(h_batch: np.ndarray, dt: float):
    """Eigendecompose each segment Hamiltonian and form exp(-i H dt) = (V * phases) V^dag.

    Every H of ``segment_hamiltonians`` (a diagonal drift, single-spin x/y controls) is D S D^dag, S
    real symmetric, D = diag(exp(i theta_m)), theta_m the sum of arg <2^k|H|0> over the set bits k of
    m: V = D Q for S = Q diag(evals) Q^T by real eigh.  A batch outside that family, where some
    |Im S_ab| exceeds 1e-12 |Re S_ab|, raises ValueError.  When d = 4 and S = F S F to round-off
    (|S - F S F| <= 1e-12 |S| in every entry), F the spin flip m -> 3 - m, as for every segment
    of a drift without offsets, S splits into two 2x2 parity blocks, each diagonalized in closed
    form (``_flip_parity_eigh``) instead of by eigh; U is then formed from the basis Q sqrt 2 and
    an exact 1/2, whose norms carry no rounded sqrt(1/2).  Every other batch takes eigh.
    Returns (evals (N,d), vecs (N,d,d), unitaries (N,d,d); in a workspace the last two are buffers).
    """
    n, d, _ = h_batch.shape
    bits = (np.arange(d) >> np.arange((d - 1).bit_length())[:, None]) & 1  # [k, m]: bit k of m
    gauge = np.exp(1j * (np.angle(h_batch[:, 1 << np.arange(len(bits)), 0]) @ bits))  # D's diagonal
    s = np.multiply(np.conj(gauge)[:, :, None], h_batch, out=_buffer("unitary_gauged", (n, d, d), complex))
    s *= gauge[:, None, :]
    residue = np.abs(s.imag, out=_buffer("unitary_residue", (n, d, d)))
    bound = np.abs(s.real, out=_buffer("unitary_bound", (n, d, d)))
    if np.any(residue > np.multiply(bound, 1e-12, out=bound)):
        raise ValueError("segment Hamiltonians must be a phase gauge of real symmetric matrices")
    # no offsets in the drift: S commutes with the spin flip F, m -> 3 - m, and has two parity blocks
    flipped = s.real[:, ::-1, ::-1]
    if d == 4 and np.all(np.abs(np.subtract(s.real, flipped, out=residue), out=residue) <= bound):
        evals, basis, q = _flip_parity_eigh(s.real)
    else:
        evals, q = np.linalg.eigh(s.real)
        basis = q
    vecs = np.multiply(gauge[:, :, None], basis, out=_buffer("unitary_vecs", (n, d, d), complex))
    phases = np.multiply(-1j, evals, out=_buffer("unitary_phases", evals.shape, complex))
    phases = np.exp(np.multiply(phases, dt, out=phases), out=phases)[:, None, :]
    if basis is not q:  # columns of norm sqrt 2
        phases *= 0.5
    scaled = np.multiply(vecs, phases, out=_buffer("unitary_scaled", vecs.shape, complex))
    vecs_h = np.conj(vecs, out=_buffer("unitary_vecs_h", vecs.shape, complex)).transpose(0, 2, 1)
    units = _complex_matmul(scaled, vecs_h, _buffer("unitaries", vecs.shape, complex))
    if basis is not q:
        np.multiply(gauge[:, :, None], q, out=vecs)
    return evals, vecs, units


@functools.cache
def _parity_maps() -> tuple[np.ndarray, np.ndarray]:
    """The two GEMM stacks of ``_flip_parity_eigh``, from the parity bases E_p = [e0 + p e3,
    e1 + p e2], p = +1 (even) and -1 (odd).  (16, 6): the entries of S to the mean, half-difference
    and off-diagonal of each block E_p^T S E_p / 2.  (12, 36): the features [cos t, sin t, their
    unit copies, mean, radius] of the two blocks, (6, 2), to the 9 entries of each column (even -,
    even +, odd -, odd +): E_p (a, b) for (a, b) = (-sin t, cos t) or (cos t, sin t), the same for
    the unit copies, and the eigenvalue mean -+ radius."""
    embed = np.array([[[1, 0], [0, 1], [0, p], [p, 0]] for p in (1, -1)])  # [block, m, i]
    pp = np.einsum("kai,kbj->ijkab", embed, embed) / 4  # [i, j, block] -> S's coefficients
    blocks = np.stack([pp[0, 0] + pp[1, 1], pp[0, 0] - pp[1, 1], pp[0, 1] + pp[1, 0]]).reshape(6, 16)
    turn = np.array([[[0, -1], [1, 0]], np.eye(2)])  # [-+, (a, b), (cos, sin)]
    columns = np.zeros((6, 2, 2, 2, 9))  # [feature, block, block, -+, entry]
    for k in range(2):
        columns[0:2, k, k, :, 0:4] = columns[2:4, k, k, :, 4:8] = np.einsum("mi,jif->fjm", embed[k], turn)
        columns[4, k, k, :, 8], columns[5, k, k, :, 8] = 1.0, (-1.0, 1.0)
    return _read_only(np.ascontiguousarray(blocks.T)), _read_only(columns.reshape(12, 36))


def _flip_parity_eigh(s: np.ndarray):
    """The eigendecomposition of a real symmetric batch S (N, 4, 4) with S = F S F, F the flip
    m -> 3 - m: the eigenvalues ascending, as eigh's; the eigenbasis times sqrt 2, whose entries
    carry no rounded sqrt(1/2), for U; and the eigenbasis Q.  Each parity block [[m + h, b],
    [b, m - h]] (one GEMM, ``_parity_maps``) is diagonalized by one symmetric Schur rotation
    (Golub and Van Loan, Matrix Computations, sec. 8.5): the eigenvalues m -+ hypot(h, b) with the
    vectors (-sin t, cos t) and (cos t, sin t), t = atan2(b, h) / 2.  Q is cos t and sin t times
    sqrt(1/2) after one Newton-Schulz step, v <- v (3 - |v|^2) / 2, so that its column norms, like
    the scaled basis's, carry no rounding bias into long products.  A second GEMM lays out the
    columns, a gather sorts them."""
    n, (to_blocks, to_columns) = len(s), _parity_maps()
    blocks = _affine(s.reshape(n, 16), to_blocks, "parity_blocks").reshape(n, 3, 2)
    mean, half, off = blocks.transpose(1, 0, 2)
    angle = np.arctan2(off, half)
    angle *= 0.5
    cos, sin = np.cos(angle), np.sin(angle)
    ucos, usin = cos * math.sqrt(0.5), sin * math.sqrt(0.5)
    grow = 1.5 - (ucos * ucos + usin * usin)  # 3/2 - |v|^2 / 2
    features = np.stack([cos, sin, ucos * grow, usin * grow, mean, np.hypot(half, off)], 1)
    columns = _affine(features.reshape(n, 12), to_columns, "parity_columns").reshape(4 * n, 9)
    order = np.argsort(columns[:, 8].reshape(n, 4), axis=1)
    rows = np.take(columns, order + 4 * np.arange(n)[:, None], axis=0).transpose(0, 2, 1)
    return rows[:, 8], rows[:, :4], rows[:, 4:8]


def _complex_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a @ b for complex batches as one real matmul: the rows of a, read as (re, im) pairs,
    times the 2x2-block real form [[re, im], [-im, re]] of b's entries, whose rows are the pairs
    of b and of i b (a workspace buffer).  numpy's batched complex matmul has no small-matrix
    path.  a and out need a contiguous last axis (``view`` raises otherwise); b may be any view."""
    *batch, k, n = b.shape
    form = _buffer("complex_matmul_form", (*batch, k, 2, n), complex)
    form[..., 0, :] = b
    np.multiply(b, 1j, out=form[..., 1, :])
    np.matmul(a.view(float), form.view(float).reshape(*batch, 2 * k, 2 * n), out=out.view(float))
    return out


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
    The states [Re P; Im P] of the blocked scan (``_blocked_states``) run from the identity over
    the real forms [[Re U, -Im U], [Im U, Re U]], read back to complex once."""
    n, d, _ = units.shape
    form = _buffer("prefix_form", (n, 2, d, 2, d))
    form[:, 0, :, 0] = form[:, 1, :, 1] = units.real
    np.negative(units.imag, out=form[:, 0, :, 1])
    form[:, 1, :, 0] = units.imag
    xs = _blocked_states(form.reshape(n, 2 * d, 2 * d), np.eye(2 * d, d))[0]
    pre = _buffer("prefix_products", (n + 1, d, d), complex)
    pre.real, pre.imag = xs[:, :d], xs[:, d:]
    return pre


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
    """Real forms of U_s = exp(-i H_s dt), (N, 2d, 2d), for the segments in rows, by the plan of
    ``taylor_plan``; in a workspace, its buffer.  The generators c realform(-i H_s), c = dt / 2^s,
    are one GEMM of [c, c u_s] with ``SystemOperators.unitary_generators``, in ``_taylor_power``."""
    gens = system_operators(system).unitary_generators
    amps, c = table.flat_amplitudes()[rows], table.dt / 2 ** plan[1]
    coefficients = np.full((len(amps), len(gens)), c)
    np.multiply(amps, c, out=coefficients[:, 1:])
    return _squarings(_taylor_power(coefficients, gens, plan[0]), plan[1], keep=False)[-1]


def _unitary_walk(system: SpinSystem, pulse, n_fine: int | None, sample_times, read) -> EvolutionResult:
    """The walk of the unitary maps from [Re U; Im U] = [I; 0]: read(U) at the end and each sample."""
    table = _as_pulse(system, pulse, n_fine)
    plan, d = taylor_plan(system, table), system.dimension
    return _sweep_segments(table, lambda rows: segment_unitary_maps(system, table, plan, rows),
                           np.eye(2 * d, d), sample_times, lambda x: read(x[:d] + 1j * x[d:]))


def propagate_unitary(
    system: SpinSystem, pulse, *, n_fine: int | None = None, sample_times=None
) -> EvolutionResult:
    """U(T) as the ordered product of segment exponentials over the pulse."""
    return _unitary_walk(system, pulse, n_fine, sample_times, lambda u: u)


def propagate_density(
    system: SpinSystem, pulse, rho0: np.ndarray, *, n_fine: int | None = None, sample_times=None
) -> EvolutionResult:
    """rho(T) = U rho0 U^dagger on the same piecewise-constant grid: the unitary walk, each U read so."""
    _check_state(system, rho0)
    return _unitary_walk(system, pulse, n_fine, sample_times, lambda u: u @ rho0 @ u.conj().T)


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


def _squarings(r: np.ndarray, squarings: int, keep: bool = True) -> list[np.ndarray]:
    """[r, r^2, ..., r^(2^squarings)], each level in a buffer of its own, kept for the adjoint; or,
    not kept, only [r^(2^squarings)], the levels taking turns in two buffers."""
    levels = [r]
    for i in range(squarings):
        square = np.matmul(levels[-1], levels[-1],
                           out=_buffer(f"taylor_level_{i + 1 if keep else i % 2 + 1}", r.shape))
        levels = [*levels, square] if keep else [square]
    return levels


@functools.lru_cache(maxsize=None)
def _paterson_stockmeyer(degree: int) -> tuple[int, int, np.ndarray]:
    """(b, q, C) of ``_taylor_power`` at degree m: b = ceil(sqrt(m)), q Horner steps, C[j, k - jb] = 1/k!."""
    b = math.isqrt(degree - 1) + 1
    q = -(-degree // b) - 1  # the last block, j = q, has degree m - qb in [1, b]
    table = [[1.0 / math.factorial(k) if k <= degree and (k < j * b + b or j == q) else 0.0
              for k in range(j * b, j * b + b + 1)] for j in range(q + 1)]
    return b, q, _read_only(np.array(table))


def _taylor_power(features: np.ndarray, stack: np.ndarray, degree: int) -> np.ndarray:
    """r = sum_(k<=m) x^k / k! (m = degree), exp(x)'s Taylor polynomial, for the real batch
    x = features @ stack, by Paterson-Stockmeyer, in a workspace its buffer.  x's GEMM (``_affine``)
    fills slot 1 of the powers P = [eye, x, ..., x^b], b = ceil(sqrt(m)); one GEMM of the coefficients
    1/k! (``_paterson_stockmeyer``) with P gives the blocks B_j = sum_(i<b) x^i / (jb+i)! (the last up
    to x^b), and Horner runs over them in x^b: r <- x^b r + B_j.  b - 1 + ceil(m/b) - 1 matmuls."""
    (b, q, coefficients), n, shape = _paterson_stockmeyer(degree), len(features), stack.shape[1:]
    powers = _buffer("taylor_powers", (b + 1, max(n, 2), *shape))  # _affine computes one row as two
    powers[0] = np.eye(shape[-1])
    _affine(features, stack, powers[1])
    for i in range(2, b + 1):
        np.matmul(powers[1], powers[i - 1], out=powers[i])
    blocks = _buffer("taylor_blocks", (q + 1, *powers.shape[1:]))
    np.matmul(coefficients, powers.reshape(b + 1, -1), out=blocks.reshape(q + 1, -1))
    r = blocks[q]
    for j in range(q - 1, -1, -1):  # into B_j, the product through the spent identity
        r = np.add(blocks[j], np.matmul(powers[b], r, out=powers[0]), out=blocks[j])
    return r[:n]


def _squarings_adjoint(x: np.ndarray, yt: np.ndarray, levels: list) -> np.ndarray:
    """Reverse pass of levels = _squarings(R, s): from the cotangent of M = levels[-1] as factors,
    dF = Tr(X Yt dM) with X (N, D, r) and Yt (N, r, D), the cotangent Z = sum_j R^j X Yt R^(2^s-1-j)
    of R = levels[0], dF = Tr(Z dR), (N, D, D).  Each squared level S, from the top, takes Z <- S Z
    + Z S, on the factors ([X, S X], [Yt S; Yt]) while their width stays within D; their product goes
    over M (consumed; no lower level is written), then steps densely, in turn in M and X's spent buffer."""
    (n, dd, width), squarings = x.shape, len(levels) - 1
    factored = min(squarings, (dd // width).bit_length() - 1)  # the most doublings within D
    dense = levels[: squarings - factored]
    full = dd if dense else width << factored
    # B fills the columns from the left and A the rows from the bottom, so no factor is copied
    b, a = _buffer("adjoint_b", (n, dd, full)), _buffer("adjoint_a", (n, full, dd))
    b[..., :width], a[:, full - width :] = x, yt
    for s in reversed(levels[squarings - factored : -1]):
        np.matmul(s, b[..., :width], out=b[..., width : 2 * width])
        np.matmul(a[:, full - width :], s, out=a[:, full - 2 * width : full - width])
        width *= 2
    z = np.matmul(b[..., :width], a[:, full - width :], out=levels[-1])
    for s in reversed(dense):
        np.matmul(s, z, out=b)
        b += np.matmul(z, s, out=a)
        z, b = b, z
    return z


@functools.lru_cache(maxsize=16)
def _rk4_coefficients(system: SpinSystem, dissipator: bytes, step: float):
    """R - eye = sum_a w^a K_a, R = sum_(j<=4) (step L)^j / j!, L = A + sum_c u_c G_c (A: drift plus
    dissipator, whose bytes key the cache), over the monomials of w = step u up to degree 4, graded:
    1, w, then [(lo, parents, last)] per degree from 2, each a parent's times a degree-1 one.  K (P,
    d^4) by Horner on the coefficient matrices, r <- (step L) (eye + r) / j, G_c taking a to a + e_c.
    The derivative index: d w^a / d u_c = step e_c(a) w^(a - e_c) per pair (a, c) with e_c(a) > 0,
    as child a, parent a - e_c and a (pairs, 2M) weight."""
    ops = system_operators(system)
    gens, dd = ops.control_generators, ops.drift_generator.shape[0]
    drift = step * (ops.drift_generator + np.frombuffer(dissipator).reshape(dd, dd))
    terms = [t for j in range(5) for t in itertools.combinations_with_replacement(range(len(gens)), j)]
    index, below = {t: i for i, t in enumerate(terms)}, sum(len(t) < 4 for t in terms)
    r = np.zeros((len(terms), dd, dd))
    for j in (4, 3, 2, 1):
        r[0] += np.eye(dd)
        xr = np.matmul(drift, r)
        for c, g in enumerate(gens):  # the monomials of degree <= 3 lead
            xr[[index[tuple(sorted((*t, c)))] for t in terms[:below]]] += np.matmul(g, r[:below])
        r = xr / j
    split = {j: [(index[t[:-1]], index[t[-1:]]) for t in terms if len(t) == j] for j in (2, 3, 4)}
    blocks = tuple((index[(0,) * j], *_read_only(np.array(pairs)).T) for j, pairs in split.items())
    pairs = [(a, index[t[: t.index(c)] + t[t.index(c) + 1 :]], c, t.count(c))
             for a, t in enumerate(terms) for c in sorted(set(t))]
    children, parents, channels, counts = np.array(pairs).T
    derivatives = children, parents, np.eye(len(gens))[channels] * (step * counts)[:, None]
    return blocks, _read_only(r.reshape(len(terms), -1)), tuple(map(_read_only, derivatives))


def _rk4_maps(system: SpinSystem, noise: NoiseModel, table: PulseTable, substeps: int, rows: slice):
    """The RK4 substep maps R = I + sum_a w^a K_a, (N, d^2, d^2), of the segments in rows, in a workspace
    their buffer: one GEMM (``_affine``) of the monomials of w = h u up to degree 4, (P, N), a row each
    (so the rows below are copied whole), with the K_a of ``_rk4_coefficients``, then the identity.
    The only build of R and the monomials.  Returns (R, monomials, coefficients, derivative index)."""
    amps, step = table.flat_amplitudes()[rows], table.dt / substeps
    blocks, coefficients, derivatives = _rk4_coefficients(system, noise.dissipator.tobytes(), step)
    monomials = np.ones((len(coefficients), len(amps)))
    np.multiply(amps.T, step, out=monomials[1 : amps.shape[1] + 1])
    for lo, parents, last in blocks:  # each degree from the one below
        np.multiply(monomials[parents], monomials[last], out=monomials[lo : lo + len(parents)])
    r, dd = _affine(monomials.T, coefficients, "rk4_maps"), system.dimension**2
    r[:, :: dd + 1] += 1.0  # R's diagonal, after the GEMM, so that R rounds as Horner's last step does
    return r.reshape(-1, dd, dd), monomials, coefficients, derivatives


def segment_lindblad_maps(system: SpinSystem, noise: NoiseModel, table: PulseTable, substeps: int,
                          rows: slice = slice(None)) -> np.ndarray:
    """Segment maps M = R^substeps (substeps a power of two), (N, d^2, d^2), in the coordinates of
    ``SystemOperators.coordinates``, for the segments in rows (all by default; each row is the same
    bits either way): the forward walk's builder.  With a constant generator L = A + sum_c u_c G_c
    one RK4 step is the 4th-order Taylor polynomial of exp(h L), a fixed polynomial in w = h u, so
    R is one GEMM (``_rk4_maps``) and L is never formed; R is squared in two buffers (``_squarings``),
    and M is, in a workspace (an ascent's, or the walk's), its buffer."""
    r = _rk4_maps(system, noise, table, substeps, rows)[0]
    return _squarings(r, substeps.bit_length() - 1, keep=False)[-1]


def lindblad_table_gradient(system: SpinSystem, noise: NoiseModel, table: PulseTable, substeps: int,
                            initial: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """The overlap Tr(target rho(T)) of the dissipative evolution from initial, unnormalized, and its
    exact gradient w.r.t. the amplitude table, (N, 2M).  One RK4 build (``_rk4_maps``) gives R, the
    monomials and the derivative index; every squaring level of R is kept (``_squarings``), and the
    sweeps give the states x_s entering segment s and costates y_s leaving it, in the coordinates of
    ``SystemOperators.coordinates``.  Then, by chunks of _CHUNK rows, so that no temporary grows with N,
    each cotangent Z_s = x_s y_s^T of dF = Tr(Z_s dM_s) goes back through the squarings over the spent M
    (``_squarings_adjoint``) to R = I + sum_a w^a K_a, and t_a = Tr(Z K_a) = vec(Z) . vec(K_a^T) is one
    GEMM (``_affine``), dF/du_c = sum_a step e_c(a) w^(a - e_c) t_a a gather over the derivative index;
    no L.  The K_a^T are a copy (D^2, P) per call, not cached: the forward walk never reads them."""
    ops = system_operators(system)
    r, monomials, stack, (children, parents, weights) = _rk4_maps(system, noise, table, substeps, slice(None))
    levels = _squarings(r, substeps.bit_length() - 1)
    xs, ys, overlap = state_costate_sweeps(levels[-1], ops.coordinates(initial), ops.coordinates(target))
    (n, dd), p = xs.shape, len(stack)
    kt = stack.reshape(p, dd, dd).transpose(2, 1, 0).reshape(dd * dd, p)  # [ij, a] = K_a[j, i]
    du = np.empty((n, 2 * system.n_channels))
    for i in range(0, n, _CHUNK):
        rows = slice(i, i + _CHUNK)
        z = _squarings_adjoint(xs[rows, :, None], ys[rows, None, :], [m[rows] for m in levels])
        t = _affine(z.reshape(len(z), -1), kt, "rk4_traces")
        du[rows] = np.multiply(t[:, children], monomials[parents, rows].T) @ weights
    return overlap, du


def propagate_lindblad(system: SpinSystem, pulse, rho0: np.ndarray, noise: NoiseModel, *,
                       n_fine: int | None = None, sample_times=None) -> EvolutionResult:
    """Integrate the master equation with collapse rate gamma*||H0||, at the
    substep count of DEFAULT_SUBSTEP_TOL."""
    _check_state(system, rho0)
    table = _as_pulse(system, pulse, n_fine)
    m_sub, ops = lindblad_substeps(system, table, noise, DEFAULT_SUBSTEP_TOL), system_operators(system)
    return _sweep_segments(
        table, lambda rows: segment_lindblad_maps(system, noise, table, m_sub, rows),
        ops.coordinates(rho0), sample_times, ops.density)
