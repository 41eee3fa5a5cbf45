"""Time evolution under piecewise-constant Hamiltonians.

The primary propagator forms exact segment exponentials (eigendecomposition of
each 4x4 Hermitian segment Hamiltonian) and takes their ordered product as a
pairwise tree, adjacent pairs multiplied together level by level, so N segments
cost log2(N) batched matmuls.  The forward-only propagators walk the segments
in chunks of at most _CHUNK: each chunk's maps are built once, while they
still fit in cache, and folded into the state (one tree per span between
sample boundaries) before the next chunk is built, so their memory is
O(chunk), not O(N).  For gradients, ``prefix_products``
forms every partial product P_s = U_s ... U_1 by a blocked scan: products inside
blocks of about sqrt(N) segments are formed for all blocks at once, then each
block is carried by the product of the blocks before it.  Suffix products are
not formed separately: for unitary segments the product after segment s is
U(T) P_s^dagger.  Dissipative evolution integrates
the vectorized master equation with fixed-step RK4 inside each segment, in
real arithmetic: in an orthonormal basis of Hermitian matrices every
Hermiticity-preserving generator is a real d^2 x d^2 matrix, and density
matrices are real coordinate vectors.  During an ascent (``optimizer.ascend``)
the segment maps and the dissipative adjoint write their (N, d^2, d^2)
temporaries into one workspace of buffers kept for the whole ascent: arrays of
that size are handed back to the kernel when freed and would fault in fresh
pages on every step.  Outside an ascent they are allocated per call, and the
forward-only Lindblad walk reuses one chunk's buffers for the next.  The
independent cross-check, an adaptive Dormand-Prince integrator that treats
the network as a continuous-time Hamiltonian, lives with the tests
(tests/oracles.py), so this module needs numpy alone.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .network import NetworkParams, PulseTable, sample_pulse
from .spins import (
    NoiseModel,
    SpinSystem,
    control_operator_stack,
    drift_hamiltonian,
    system_operators,
)

DEFAULT_N_FINE = 4096  # 2**12
# Per-RK4-substep cap on (gamma*||H0|| + ||H||)*h; 0.005 keeps the gamma=0
# dissipative path within 1e-8 of the exact unitary propagation.
DEFAULT_SUBSTEP_TOL = 0.005
# Segments per map build in the forward-only walk: a chunk's (256, 16, 16)
# Lindblad temporaries take 2 MB and stay in L2 through the build and product.
_CHUNK = 256


@dataclass
class EvolutionResult:
    final: np.ndarray
    trajectory: list[tuple[float, np.ndarray]] | None


def _hermitian_check(h: np.ndarray, tol: float = 1e-10):
    if np.linalg.norm(h - h.conj().T) > tol * max(1.0, np.linalg.norm(h)):
        raise ValueError("matrix is not Hermitian")


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
    """Batched H_s = H0 + sum_c u_cx X_c + u_cy Y_c, shape (N, dim, dim), for
    the segments in rows (all by default)."""
    h0 = drift_hamiltonian(system)
    ops = control_operator_stack(system)
    amps = table.flat_amplitudes()[rows]
    return h0[None, :, :] + np.einsum("nc,cij->nij", amps, ops)


def segment_unitaries(h_batch: np.ndarray, dt: float):
    """Eigendecompose each segment Hamiltonian and form exp(-i H dt).

    Returns (evals (N,d), vecs (N,d,d), unitaries (N,d,d)).
    """
    evals, vecs = np.linalg.eigh(h_batch)
    phases = np.exp(-1j * evals * dt)
    units = np.einsum("nik,nk,njk->nij", vecs, phases, vecs.conj())
    return evals, vecs, units


def prefix_products(units: np.ndarray) -> np.ndarray:
    """P[s] = U_s ... U_1 for s = 1..N, with P[0] = identity; shape (N+1, d, d).

    Blocked scan: the N segments are split into blocks of b = ceil(sqrt(N))
    (the last one padded with identities).  Products inside every block are
    formed together, one batched matmul per position in the block; each block
    is then carried by the product of all blocks before it.  N matmuls per
    phase, with about 2 sqrt(N) Python-level steps instead of N.
    """
    n, d, _ = units.shape
    b = math.isqrt(max(n - 1, 0)) + 1
    nb = max(1, -(-n // b))
    local = np.empty((nb * b, d, d), dtype=complex)
    local[:n] = units
    local[n:] = np.eye(d)
    local = local.reshape(nb, b, d, d)
    for j in range(1, b):
        local[:, j] = np.matmul(local[:, j], local[:, j - 1])
    carry = np.empty((nb, d, d), dtype=complex)
    carry[0] = np.eye(d)
    for k in range(1, nb):
        carry[k] = local[k - 1, -1] @ carry[k - 1]
    out = np.empty((n + 1, d, d), dtype=complex)
    out[0] = np.eye(d)
    out[1:] = np.matmul(local, carry[:, None]).reshape(nb * b, d, d)[:n]
    return out


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
    n: int, build: Callable[[slice], np.ndarray], x: np.ndarray, sample_times,
    duration: float, read,
):
    """Apply the maps of n segments to x in order.  Returns the final x and,
    when sample_times is given, one row (t, read(x)) per sample time, in the
    order given, with x taken at the segment boundary nearest to t.

    build(rows) returns the stacked maps of the segments in the slice rows; it
    is called for one chunk of at most _CHUNK segments at a time, and each
    chunk is folded into x before the next is built, so only one chunk of
    maps is alive at once."""
    if sample_times is None:
        snap = []
    else:
        snap = [int(round(np.clip(t, 0.0, duration) / duration * n)) for t in sample_times]
    wanted = set(snap)
    states = {}
    start = 0
    # every span lies inside one chunk, and a chunk's first span starts it
    for stop in sorted(wanted | {*range(_CHUNK, n, _CHUNK), n}):
        if stop > start:
            if start % _CHUNK == 0:
                lo, chunk = start, build(slice(start, start + _CHUNK))
            x = _ordered_product(chunk[start - lo : stop - lo]) @ x
        if stop in wanted:
            states[stop] = read(x)
        start = stop
    traj = None if sample_times is None else [(t, states[s]) for t, s in zip(sample_times, snap)]
    return x, traj


def propagate_unitary(
    system: SpinSystem, pulse, *, n_fine: int | None = None, sample_times=None
) -> EvolutionResult:
    """U(T) as the ordered product of segment exponentials over the pulse."""
    table = _as_pulse(system, pulse, n_fine)

    def units(rows: slice) -> np.ndarray:
        return segment_unitaries(segment_hamiltonians(system, table, rows), table.dt)[2]

    acc, traj = _sweep_segments(
        table.n_segments, units, np.eye(system.dimension, dtype=complex),
        sample_times, table.duration, np.copy,
    )
    return EvolutionResult(final=acc, trajectory=traj)


def propagate_density(
    system: SpinSystem, pulse, rho0: np.ndarray, *, n_fine: int | None = None, sample_times=None
) -> EvolutionResult:
    """rho(T) = U rho0 U^dagger on the same piecewise-constant grid."""
    _hermitian_check(rho0)
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
    if not 0 < tol <= 1:  # NaN-safe
        raise ValueError(f"substep_tol must be in (0, 1], got {tol!r}")


def lindblad_substeps(
    system: SpinSystem, table: PulseTable, noise: NoiseModel, tol: float, amp_bound: float | None = None
) -> int:
    """Power-of-two substep count per segment so (rate + ||H||)*h <= tol,
    for a tol in (0, 1].

    When amp_bound is given the bound uses it instead of the realized
    amplitudes, making the count independent of the pulse values.
    """
    _check_substep_tol(tol)
    ops = system_operators(system)
    if amp_bound is not None:
        ctrl = amp_bound * float(ops.control_norms.sum())
    else:
        ctrl = float(np.max(np.abs(table.flat_amplitudes()) @ ops.control_norms))
    rate_total = noise.rate + ops.drift_norm + ctrl
    needed = rate_total * table.dt / tol
    m = 1
    while m < needed:
        m *= 2
        if m > 2**20:
            raise RuntimeError("Lindblad step-size underflow: pathological parameters")
    return m


_WORKSPACE = threading.local()


@contextmanager
def _workspace():
    """Keep the large float temporaries that ``_buffer`` hands out alive until
    exit, so repeated calls write into pages already faulted in instead of
    fresh ones.  A nested workspace starts empty and restores the outer one."""
    outer = getattr(_WORKSPACE, "buffers", None)
    _WORKSPACE.buffers = {}
    try:
        yield
    finally:
        _WORKSPACE.buffers = outer


def _buffer(key: str, shape: tuple) -> np.ndarray:
    """An uninitialised float array: the workspace's buffer for key when a
    workspace is open (reallocated when the shape changes), else np.empty."""
    buffers = getattr(_WORKSPACE, "buffers", None)
    if buffers is None:
        return np.empty(shape)
    buf = buffers.get(key)
    if buf is None or buf.shape != shape:
        buf = buffers[key] = np.empty(shape)
    return buf


def _add_identity(batch: np.ndarray):
    """batch[s] += eye for an (N, d, d) batch, in place through the strided
    view of its diagonals."""
    diagonals = np.einsum("nii->ni", batch)
    diagonals += 1.0


def segment_lindblad_maps(
    system: SpinSystem,
    noise: NoiseModel,
    table: PulseTable,
    substeps: int,
    rows: slice = slice(None),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment real Liouvillians L, RK4 substep maps R and segment maps
    M = R^substeps (substeps a power of two), in the coordinates of
    ``SystemOperators.coordinates``, for the segments in rows (all by default;
    each row is the same bits either way).

    With a constant generator one RK4 step is the 4th-order Taylor polynomial
    of exp(h L), evaluated here by Horner.  Returns (L, R, M), each (N, d^2, d^2).
    Inside a workspace (an ascent, or the forward-only walk) the three arrays
    are workspace buffers: valid until the next call there, which overwrites them.
    """
    ops = system_operators(system)
    amps, gens = table.flat_amplitudes()[rows], ops.control_generators
    shape = (len(amps), *gens.shape[1:])
    lv = _buffer("lindblad_generator", shape)
    # the product np.tensordot(amps, gens, axes=1) forms, written into lv
    np.dot(amps, gens.reshape(len(gens), -1), out=lv.reshape(len(amps), -1))
    lv += ops.drift_generator + noise.dissipator
    hl = np.multiply(lv, table.dt / substeps, out=_buffer("lindblad_step", shape))
    # Horner in place: r = eye + hl/4, then r = eye + hl @ r / k for k = 3, 2, 1
    # (the last division is by 1 and is skipped)
    r = np.divide(hl, 4.0, out=_buffer("lindblad_horner_a", shape))
    tmp = _buffer("lindblad_horner_b", shape)
    _add_identity(r)
    for k in (3.0, 2.0):
        np.matmul(hl, r, out=tmp)
        np.divide(tmp, k, out=r)
        _add_identity(r)
    np.matmul(hl, r, out=tmp)
    r, tmp = tmp, r
    _add_identity(r)
    # squarings ping-pong between tmp and the spent hl; r stays intact for the gradient
    m = r
    if substeps > 1:
        m, spare = np.matmul(r, r, out=tmp), hl
        for _ in range(substeps.bit_length() - 2):
            m, spare = np.matmul(m, m, out=spare), m
    return lv, r, m


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
    _hermitian_check(rho0)
    table = _as_pulse(system, pulse, n_fine)
    m_sub = lindblad_substeps(system, table, noise, DEFAULT_SUBSTEP_TOL)
    ops = system_operators(system)

    def maps(rows: slice) -> np.ndarray:
        return segment_lindblad_maps(system, noise, table, m_sub, rows)[2]

    with _workspace():  # one chunk's buffers, reused by the next chunk
        x, traj = _sweep_segments(
            table.n_segments, maps, ops.coordinates(rho0), sample_times, table.duration,
            ops.density,
        )
    return EvolutionResult(final=ops.density(x), trajectory=traj)
