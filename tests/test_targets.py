import numpy as np
import pytest

from pinnctl.spins import spin_half_operator
from pinnctl.targets import (
    cnot,
    lls_objective,
    named_target,
    singlet_order_operator,
    singlet_triplet_basis,
    thermal_deviation,
)


class TestCnot:
    def test_standard_matrix(self):
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
                [0, 0, 1, 0],
            ],
            dtype=complex,
        )
        assert np.array_equal(cnot(0, 1), expected)

    def test_involutory(self):
        u = cnot(0, 1)
        assert np.allclose(u @ u, np.eye(4))
        u = cnot(1, 0)
        assert np.allclose(u @ u, np.eye(4))

    def test_trace_is_two(self):
        assert np.isclose(np.trace(cnot(0, 1)), 2.0)

    def test_index_clash_rejected(self):
        with pytest.raises(ValueError):
            cnot(0, 0)

    def test_repeated_calls_identical(self):
        assert np.array_equal(cnot(0, 1), cnot(0, 1))


class TestSingletTripletBasis:
    def test_orthonormal(self):
        basis = singlet_triplet_basis()
        gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        assert np.allclose(gram, np.eye(4), atol=1e-14)

    def test_singlet_isotropic_expectation(self):
        # <S0| I1.I2 |S0> = -3/4
        dot = sum(
            spin_half_operator(2, 0, ax) @ spin_half_operator(2, 1, ax)
            for ax in ("x", "y", "z")
        )
        _, _, s0, _ = singlet_triplet_basis()
        assert np.isclose(np.vdot(s0, dot @ s0).real, -0.75)

    def test_t0_s0_orthogonal(self):
        _, t0, s0, _ = singlet_triplet_basis()
        assert abs(np.vdot(t0, s0)) < 1e-14

    def test_order_matches_convention(self):
        t_plus, _, _, t_minus = singlet_triplet_basis()
        assert np.array_equal(t_plus, [1, 0, 0, 0])
        assert np.array_equal(t_minus, [0, 0, 0, 1])


class TestSingletOrder:
    def test_traceless_and_projector_square(self):
        q = singlet_order_operator()
        _, t0, s0, _ = singlet_triplet_basis()
        assert abs(np.trace(q)) < 1e-14
        expected_sq = np.outer(s0, s0.conj()) + np.outer(t0, t0.conj())
        assert np.allclose(q @ q, expected_sq)

    def test_commutes_with_isotropic_exchange(self):
        # the conserved-order property behind the long lifetime
        dot = sum(
            spin_half_operator(2, 0, ax) @ spin_half_operator(2, 1, ax)
            for ax in ("x", "y", "z")
        )
        q = singlet_order_operator()
        assert np.linalg.norm(q @ dot - dot @ q) < 1e-14


class TestLlsObjective:
    def test_transfer_bound_is_two(self):
        from pinnctl.objectives import transfer_bound

        obj = lls_objective()
        assert np.isclose(transfer_bound(obj.target, obj.initial), 2.0)

    def test_thermal_scores_zero(self):
        from pinnctl.objectives import state_fidelity

        obj = lls_objective()
        assert np.isclose(
            state_fidelity(obj.initial, obj.target, obj.initial), 0.0
        )

    def test_kind_and_normalization(self):
        obj = lls_objective()
        assert obj.kind == "state"
        assert np.isclose(obj.norm_factor, 0.5)  # 1 / transfer bound


class TestNamedTarget:
    def test_cnot_with_indices(self):
        obj = named_target("cnot:0,1")
        assert obj.kind == "gate"
        assert np.array_equal(obj.target, cnot(0, 1))

    def test_lls(self):
        obj = named_target("lls")
        assert obj.kind == "state"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            named_target("toffoli")
