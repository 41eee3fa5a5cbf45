"""Canonical targets: CNOT gate, singlet-triplet basis, singlet-order state objective."""

from __future__ import annotations

import numpy as np

from .objectives import ObjectiveSpec
from .spins import spin_half_operator


def cnot(control: int, target: int, n_spins: int = 2) -> np.ndarray:
    """Computational-basis CNOT: flip `target` when `control` is |1>."""
    if control == target:
        raise ValueError("control and target must differ")
    if not (0 <= control < n_spins and 0 <= target < n_spins):
        raise ValueError("spin index out of range")
    dim = 2**n_spins
    u = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        # bit 0 is the leftmost spin in the tensor-product ordering
        cbit = (b >> (n_spins - 1 - control)) & 1
        out = b ^ (1 << (n_spins - 1 - target)) if cbit else b
        u[out, b] = 1.0
    return u


def singlet_triplet_basis() -> list[np.ndarray]:
    """Orthonormal two-spin basis in the order T+, T0, S0, T-."""
    t_plus = np.array([1, 0, 0, 0], dtype=complex)
    t_zero = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2.0)
    s_zero = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0)
    t_minus = np.array([0, 0, 0, 1], dtype=complex)
    return [t_plus, t_zero, s_zero, t_minus]


def singlet_order_operator() -> np.ndarray:
    """Population-difference operator |S0><S0| - |T0><T0|."""
    _, t0, s0, _ = singlet_triplet_basis()
    return np.outer(s0, s0.conj()) - np.outer(t0, t0.conj())


def thermal_deviation() -> np.ndarray:
    """Traceless thermal deviation I1z + I2z for a homonuclear pair."""
    return spin_half_operator(2, 0, "z") + spin_half_operator(2, 1, "z")


def lls_objective(shape_weight: float = 0.0) -> ObjectiveSpec:
    """State-transfer objective: thermal deviation -> singlet order.

    A positive shape_weight adds a mid-sequence penalty on the squared
    singlet-triplet basis populations, selecting transfer routes that store
    the order in coherences while in transit.
    """
    observables = None
    if shape_weight > 0:
        observables = tuple(np.outer(b, b.conj()) for b in singlet_triplet_basis())
    return ObjectiveSpec(
        kind="state",
        target=singlet_order_operator(),
        initial=thermal_deviation(),
        shape_weight=shape_weight,
        shape_observables=observables,
    )


def cnot_objective(control: int = 0, target: int = 1) -> ObjectiveSpec:
    return ObjectiveSpec(kind="gate", target=cnot(control, target))


def named_target(name: str, shape_weight: float = 0.0) -> ObjectiveSpec:
    """Resolve CLI-style target names: 'cnot:0,1' or 'lls' (the only one
    that takes a shape_weight)."""
    if name == "lls":
        return lls_objective(shape_weight=shape_weight)
    if name.startswith("cnot"):
        if shape_weight:
            raise ValueError("shape_weight applies to the lls target only")
        if ":" in name:
            c, t = (int(x) for x in name.split(":", 1)[1].split(","))
        else:
            c, t = 0, 1
        return cnot_objective(c, t)
    raise ValueError(f"unknown target {name!r}")
