"""Spin-1/2 operators, drift/control Hamiltonians, and noise models.

All Hamiltonians are in angular frequency (rad/s); configuration values are
in Hz and the 2*pi conversion happens here, once, during drift construction.
Each system's operators are built here once (``system_operators``); their
Liouville-space form, real in an orthonormal Hermitian basis, and the real
form of -i times each, on first use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .checks import integer, read_json, real

MAX_SPINS = 4

_PAULI_HALF = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
}


@dataclass(frozen=True)
class SpinSystem:
    """A small register of spin-1/2 nuclei with grouped x/y controls.

    channels: groups of spin indices sharing one (x, y) amplitude pair.
    couplings: (i, j, J_hz) scalar couplings entering the drift as
        2*pi*J * Iiz*Ijz.
    offsets_hz: signed per-spin offset, entering as 2*pi*offset * Ikz.
    """

    n_spins: int
    channels: tuple[tuple[int, ...], ...]
    couplings: tuple[tuple[int, int, float], ...] = ()
    offsets_hz: tuple[float, ...] = ()

    def __post_init__(self):
        if not 1 <= self.n_spins <= MAX_SPINS:
            raise ValueError(f"n_spins must be in [1, {MAX_SPINS}], got {self.n_spins}")
        # tuples throughout, so that a system given lists still keys the operator cache
        object.__setattr__(self, "channels", tuple(tuple(g) for g in self.channels))
        if not self.channels:
            raise ValueError("a register needs at least one control channel")
        object.__setattr__(self, "couplings", tuple(
            (i, j, real("coupling J_hz", j_hz)) for i, j, j_hz in self.couplings))
        object.__setattr__(self, "offsets_hz", tuple(real("offsets_hz", o) for o in self.offsets_hz))
        seen: set[int] = set()
        for group in self.channels:
            for s in group:
                if not 0 <= s < self.n_spins:
                    raise ValueError(f"channel spin index {s} out of range")
                if s in seen:
                    raise ValueError(f"spin {s} appears in more than one channel group")
                seen.add(s)
        for i, j, _ in self.couplings:
            if i == j:
                raise ValueError("coupling requires distinct spins")
            if not (0 <= i < self.n_spins and 0 <= j < self.n_spins):
                raise ValueError("coupling spin index out of range")
        if self.offsets_hz and len(self.offsets_hz) != self.n_spins:
            raise ValueError("offsets_hz length must equal n_spins")

    @property
    def dimension(self) -> int:
        return 2**self.n_spins

    @property
    def n_channels(self) -> int:
        return len(self.channels)


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Uniform-coefficient collapse model with strength gamma * drift_norm."""

    gamma: float
    kind: str  # "local" | "global"
    collapse_ops: tuple[np.ndarray, ...]
    drift_norm: float  # rad/s, spectral norm of the drift Hamiltonian

    def __post_init__(self):
        real("gamma", self.gamma, "finite and >= 0")
        if self.kind not in ("local", "global"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.gamma > 0 and not self.drift_norm > 0:
            raise ValueError("drift_norm must be positive when gamma > 0")

    @property
    def rate(self) -> float:
        """Collapse-term coefficient gamma * ||H0|| in rad/s."""
        return self.gamma * self.drift_norm

    @functools.cached_property
    def dissipator(self) -> np.ndarray:
        """Real (d^2, d^2) dissipator in the Hermitian basis; built once, read-only."""
        d = self.collapse_ops[0].shape[0]
        lv = liouvillian(np.zeros((d, d)), self)
        return _read_only(_real_superoperator(_hermitian_basis(d), lv))


@dataclass(frozen=True, eq=False)
class SystemOperators:
    """The operators of one system, built once by ``system_operators``.

    drift: (d, d) H0 in rad/s.  controls: (2M, d, d) in (x1, y1, x2, y2, ...)
    order, grouped spins summed.  drift_norm, control_norms: spectral norms
    of H0 and of each control operator.  The Liouville-space generators are
    built on first use, in the coordinates x_k = Tr(B_k rho) of an orthonormal
    Hermitian basis, where they are real, and so are the real forms of -i H0
    and -i O_c.  Every array is read-only: callers share them.
    """

    drift: np.ndarray
    controls: np.ndarray
    drift_norm: float
    control_norms: np.ndarray

    @functools.cached_property
    def hermitian_basis(self) -> np.ndarray:
        """(d^2, d^2) unitary whose column k is vec(B_k); see ``_hermitian_basis``."""
        return _read_only(_hermitian_basis(self.drift.shape[0]))

    @functools.cached_property
    def drift_generator(self) -> np.ndarray:
        """Real (d^2, d^2) generator of H0 in the Hermitian basis."""
        return _read_only(_real_superoperator(self.hermitian_basis, liouvillian(self.drift)))

    @functools.cached_property
    def control_generators(self) -> np.ndarray:
        """Real (2M, d^2, d^2) generators dL/du_c, in control-stack order."""
        basis = self.hermitian_basis
        gens = [_real_superoperator(basis, liouvillian(o)) for o in self.controls]
        return _read_only(np.stack(gens))

    @functools.cached_property
    def unitary_generators(self) -> np.ndarray:
        """Real (1 + 2M, 2d, 2d) forms [[Im A, Re A], [-Re A, Im A]] of -i A for A = H0, then each
        control operator in control-stack order: -i H_s dt is [dt, dt u_s] times this stack."""
        ops = np.concatenate([self.drift[None], self.controls])
        return _read_only(np.block([[ops.imag, ops.real], [-ops.real, ops.imag]]))

    def coordinates(self, rho: np.ndarray) -> np.ndarray:
        """Real coordinates x_k = Tr(B_k rho) of a Hermitian (d, d) matrix."""
        return (self.hermitian_basis.conj().T @ rho.reshape(-1)).real

    def density(self, x: np.ndarray) -> np.ndarray:
        """The (d, d) matrix with coordinates x; inverse of ``coordinates``."""
        d = self.drift.shape[0]
        return (self.hermitian_basis @ x).reshape(d, d)


def spin_half_operator(n_spins: int, target: int, axis: str) -> np.ndarray:
    """Embed a single-spin I_x/y/z (eigenvalues +-1/2) into an n-spin register."""
    if not 1 <= n_spins <= MAX_SPINS:
        raise ValueError(f"n_spins must be in [1, {MAX_SPINS}], got {n_spins}")
    if not 0 <= target < n_spins:
        raise ValueError(f"target {target} out of range for {n_spins} spins")
    if axis not in _PAULI_HALF:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    op = np.array([[1.0]], dtype=complex)
    for k in range(n_spins):
        factor = _PAULI_HALF[axis] if k == target else np.eye(2, dtype=complex)
        op = np.kron(op, factor)
    return op


def drift_hamiltonian(system: SpinSystem) -> np.ndarray:
    """Internal Hamiltonian in rad/s: couplings 2*pi*J IizIjz plus offsets 2*pi*d Ikz.

    Read-only: the array is built once per system and shared by every caller.
    """
    return system_operators(system).drift


def control_operator_stack(system: SpinSystem) -> np.ndarray:
    """Control operators stacked as (2M, dim, dim) in (x1, y1, x2, y2, ...) order.

    Read-only: the array is built once per system and shared by every caller.
    """
    return system_operators(system).controls


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _spectral_norm(h: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))


@functools.lru_cache(maxsize=16)
def system_operators(system: SpinSystem) -> SystemOperators:
    """The operators of a system, built once per system and shared by every caller."""
    n, dim = system.n_spins, system.dimension
    h0 = np.zeros((dim, dim), dtype=complex)
    for i, j, j_hz in system.couplings:
        iz = spin_half_operator(n, i, "z")
        jz = spin_half_operator(n, j, "z")
        h0 += 2.0 * np.pi * j_hz * (iz @ jz)
    for k, off_hz in enumerate(system.offsets_hz):
        if off_hz != 0.0:
            h0 += 2.0 * np.pi * off_hz * spin_half_operator(n, k, "z")
    # one (X_k, Y_k) pair per channel group
    controls = np.zeros((2 * system.n_channels, dim, dim), dtype=complex)
    for c, group in enumerate(system.channels):
        for s in group:
            controls[2 * c] += spin_half_operator(n, s, "x")
            controls[2 * c + 1] += spin_half_operator(n, s, "y")
    return SystemOperators(
        drift=_read_only(h0),
        controls=_read_only(controls),
        drift_norm=_spectral_norm(h0),
        control_norms=_read_only(np.array([_spectral_norm(o) for o in controls])),
    )


def liouvillian(h: np.ndarray, noise: NoiseModel | None = None) -> np.ndarray:
    """Vectorized generator: d vec(rho)/dt = L vec(rho) (row-major vec)."""
    d = h.shape[0]
    eye = np.eye(d)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    if noise is not None and noise.gamma > 0:
        rate = noise.rate
        for v in noise.collapse_ops:
            vdv = v.conj().T @ v
            lv += rate * (
                np.kron(v, v.conj())
                - 0.5 * (np.kron(vdv, eye) + np.kron(eye, vdv.T))
            )
    return lv


def _hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the d x d Hermitian matrices, as columns vec(B_k).

    B_k with k = i*d + j is E_ii on the diagonal, (E_ij + E_ji)/sqrt2 above
    it and i(E_ij - E_ji)/sqrt2 below it.  The (d^2, d^2) matrix is unitary.
    """
    s = 1.0 / np.sqrt(2.0)
    basis = np.zeros((d, d, d, d), dtype=complex)  # basis[i, j] = B_{i*d+j}
    for i in range(d):
        basis[i, i, i, i] = 1.0
        for j in range(i + 1, d):
            basis[i, j, i, j] = basis[i, j, j, i] = s
            basis[j, i, j, i] = 1j * s
            basis[j, i, i, j] = -1j * s
    return basis.reshape(d * d, d * d).T


def _real_superoperator(basis: np.ndarray, lv: np.ndarray) -> np.ndarray:
    """B^H L B for a Hermiticity-preserving L, whose imaginary part is round-off."""
    out = basis.conj().T @ lv @ basis
    if np.max(np.abs(out.imag)) > 1e-12 * max(1.0, np.max(np.abs(out.real))):
        raise ValueError("superoperator does not preserve Hermiticity")
    return out.real


def noise_operators(system: SpinSystem, kind: str, gamma: float) -> NoiseModel:
    """Collapse-operator set for a two-spin register.

    local: I1x, I1y, I2x, I2y.  global: I1x+I2x, I1y+I2y.
    """
    if system.n_spins != 2:
        raise ValueError("noise operator sets are defined for 2-spin systems only")
    sx = [spin_half_operator(2, k, "x") for k in range(2)]
    sy = [spin_half_operator(2, k, "y") for k in range(2)]
    if kind == "local":
        ops = (sx[0], sy[0], sx[1], sy[1])
    elif kind == "global":
        ops = (sx[0] + sx[1], sy[0] + sy[1])
    else:
        raise ValueError(f"unknown noise kind {kind!r}")
    return NoiseModel(gamma=gamma, kind=kind, collapse_ops=ops,
                      drift_norm=system_operators(system).drift_norm)


# Built-in presets.
# defm: heteronuclear pair, J = 48.2 Hz, independent controls per spin.
# tcp:  homonuclear pair, J = 8.75 Hz, shift difference 127.5 Hz expressed as
#       per-spin offsets -Delta/2, +Delta/2, one collective control channel.
TCP_DELTA_HZ = 127.5

PRESETS: dict[str, SpinSystem] = {
    "defm": SpinSystem(
        n_spins=2,
        channels=((0,), (1,)),
        couplings=((0, 1, 48.2),),
        offsets_hz=(0.0, 0.0),
    ),
    "tcp": SpinSystem(
        n_spins=2,
        channels=((0, 1),),
        couplings=((0, 1, 8.75),),
        offsets_hz=(-TCP_DELTA_HZ / 2.0, +TCP_DELTA_HZ / 2.0),
    ),
}


def system_from_dict(cfg: dict) -> SpinSystem:
    """Build a SpinSystem from the JSON configuration schema.

    {"spins": n, "channels": [[0],[1]],
     "couplings": [{"i":0,"j":1,"J_hz":48.2}], "offsets_hz": [0,0]}
    with integer spin counts and indices.
    """
    try:
        n = integer("spins", cfg["spins"])
        channels = tuple(
            tuple(integer("channel spin index", s) for s in g) for g in cfg["channels"]
        )
        couplings = tuple(
            (integer("coupling i", c["i"]), integer("coupling j", c["j"]), c["J_hz"])
            for c in cfg.get("couplings", [])
        )
        offsets = tuple(cfg.get("offsets_hz", ()))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid system configuration: {exc}") from exc
    return SpinSystem(n_spins=n, channels=channels, couplings=couplings, offsets_hz=offsets)


def load_system(spec: str) -> SpinSystem:
    """Resolve a preset name or a system JSON file path to a SpinSystem."""
    if not isinstance(spec, str):
        raise TypeError(f"a system is a preset name or a file path, got {spec!r}")
    if spec in PRESETS:
        return PRESETS[spec]
    return system_from_dict(read_json(spec, "system"))
