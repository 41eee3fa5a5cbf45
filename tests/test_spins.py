import numpy as np
import pytest

from pinnctl.spins import (
    PRESETS,
    NoiseModel,
    SpinSystem,
    control_operator_stack,
    drift_hamiltonian,
    load_system,
    noise_operators,
    spin_half_operator,
    system_from_dict,
    system_operators,
)
from pinnctl.spins import _hermitian_basis, _real_superoperator


def herm_defect(a):
    return np.linalg.norm(a - a.conj().T)


class TestSpinHalfOperator:
    def test_single_spin_z(self):
        op = spin_half_operator(1, 0, "z")
        assert np.allclose(op, np.diag([0.5, -0.5]))

    def test_two_spin_z_tensor(self):
        op = spin_half_operator(2, 0, "z")
        assert np.allclose(op, np.diag([0.5, 0.5, -0.5, -0.5]))

    def test_commutator_gives_iz(self):
        # [I_x, I_y] = i I_z on the second spin of a pair, brute-force 4x4
        ix = spin_half_operator(2, 1, "x")
        iy = spin_half_operator(2, 1, "y")
        iz = spin_half_operator(2, 1, "z")
        comm = ix @ iy - iy @ ix
        assert np.allclose(comm, 1j * iz, atol=1e-14)

    @pytest.mark.parametrize("n_spins", [1, 2, 3, 4])
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_hermitian_and_halved_eigenvalues(self, n_spins, axis):
        op = spin_half_operator(n_spins, n_spins - 1, axis)
        assert herm_defect(op) < 1e-12
        evals = np.sort(np.linalg.eigvalsh(op))
        assert np.isclose(evals[0], -0.5) and np.isclose(evals[-1], 0.5)

    def test_distinct_spins_commute(self):
        a = spin_half_operator(3, 0, "x")
        b = spin_half_operator(3, 2, "y")
        assert np.allclose(a @ b, b @ a)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            spin_half_operator(2, 2, "x")
        with pytest.raises(ValueError):
            spin_half_operator(5, 0, "x")
        with pytest.raises(ValueError):
            spin_half_operator(0, 0, "x")
        with pytest.raises(ValueError, match="axis must be one of x, y, z, got 'w'"):
            spin_half_operator(2, 0, "w")


class TestDriftHamiltonian:
    def test_defm_diagonal_values(self):
        h0 = drift_hamiltonian(PRESETS["defm"])
        j = 48.2
        expected = np.diag(2 * np.pi * j * np.array([0.25, -0.25, -0.25, 0.25]))
        assert np.allclose(h0, expected)

    def test_zero_system_gives_zero(self):
        sys_ = SpinSystem(2, channels=((0,), (1,)))
        assert np.allclose(drift_hamiltonian(sys_), 0.0)

    def test_tcp_matches_offsets(self):
        # 2*pi*J I1z I2z - pi*Delta I1z + pi*Delta I2z
        h0 = drift_hamiltonian(PRESETS["tcp"])
        j, delta = 8.75, 127.5
        i1z = spin_half_operator(2, 0, "z")
        i2z = spin_half_operator(2, 1, "z")
        expected = 2 * np.pi * j * (i1z @ i2z) - np.pi * delta * i1z + np.pi * delta * i2z
        assert np.allclose(h0, expected)

    def test_tcp_spectral_norm_matches_eigensolve(self):
        h0 = drift_hamiltonian(PRESETS["tcp"])
        brute = max(abs(np.linalg.eigvals(h0)))
        assert np.isclose(system_operators(PRESETS["tcp"]).drift_norm, brute.real, rtol=1e-12)

    @pytest.mark.parametrize("name", ["defm", "tcp"])
    def test_paper_systems_diagonal_and_hermitian(self, name):
        h0 = drift_hamiltonian(PRESETS[name])
        assert herm_defect(h0) < 1e-12
        assert np.max(np.abs(h0 - np.diag(np.diag(h0)))) < 1e-14

    def test_linearity_in_couplings_and_offsets(self):
        base = SpinSystem(2, ((0,), (1,)), couplings=((0, 1, 10.0),), offsets_hz=(5.0, -3.0))
        double = SpinSystem(2, ((0,), (1,)), couplings=((0, 1, 20.0),), offsets_hz=(10.0, -6.0))
        assert np.allclose(2 * drift_hamiltonian(base), drift_hamiltonian(double))


def control_pairs(system):
    """The control stack as one (X_k, Y_k) pair per channel group."""
    ops = control_operator_stack(system)
    return list(zip(ops[0::2], ops[1::2]))


class TestControlOperators:
    def test_defm_four_individual_operators(self):
        pairs = control_pairs(PRESETS["defm"])
        assert len(pairs) == 2
        assert np.allclose(pairs[0][0], spin_half_operator(2, 0, "x"))
        assert np.allclose(pairs[1][1], spin_half_operator(2, 1, "y"))

    def test_tcp_collective_operators(self):
        pairs = control_pairs(PRESETS["tcp"])
        assert len(pairs) == 1
        x, y = pairs[0]
        assert np.allclose(x, spin_half_operator(2, 0, "x") + spin_half_operator(2, 1, "x"))
        assert np.allclose(y, spin_half_operator(2, 0, "y") + spin_half_operator(2, 1, "y"))

    def test_single_spin_pauli_halves(self):
        sys_ = SpinSystem(1, channels=((0,),))
        (x, y), = control_pairs(sys_)
        assert np.allclose(x, [[0, 0.5], [0.5, 0]])
        assert np.allclose(y, [[0, -0.5j], [0.5j, 0]])

    def test_all_hermitian(self):
        for name in PRESETS:
            for x, y in control_pairs(PRESETS[name]):
                assert herm_defect(x) < 1e-12 and herm_defect(y) < 1e-12


class TestCachedOperators:
    @staticmethod
    def fresh_drift(system):
        h0 = np.zeros((system.dimension, system.dimension), dtype=complex)
        for i, j, j_hz in system.couplings:
            iz = spin_half_operator(system.n_spins, i, "z")
            jz = spin_half_operator(system.n_spins, j, "z")
            h0 += 2 * np.pi * j_hz * iz @ jz
        for k, off_hz in enumerate(system.offsets_hz):
            h0 += 2 * np.pi * off_hz * spin_half_operator(system.n_spins, k, "z")
        return h0

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_equal_to_a_fresh_kron_build(self, name):
        system = PRESETS[name]
        assert np.array_equal(drift_hamiltonian(system), self.fresh_drift(system))
        fresh = np.stack([
            sum(spin_half_operator(system.n_spins, s, axis) for s in group)
            for group in system.channels for axis in "xy"
        ])
        assert np.array_equal(control_operator_stack(system), fresh)

    def test_shared_and_read_only(self):
        system = PRESETS["defm"]
        h0, ops = drift_hamiltonian(system), control_operator_stack(system)
        assert drift_hamiltonian(system) is h0 and control_operator_stack(system) is ops
        with pytest.raises(ValueError):
            h0[0, 0] = 1.0
        with pytest.raises(ValueError):
            ops += 1.0

    @pytest.mark.parametrize("n_spins", [1, 2, 3])
    def test_unitary_generators_are_the_real_forms_of_a_kron_build(self, n_spins):
        system = SpinSystem(n_spins, ((0,), tuple(range(1, n_spins)))[: min(n_spins, 2)],
                            couplings=tuple((k, k + 1, 10.0 + k) for k in range(n_spins - 1)),
                            offsets_hz=tuple(20.0 * k - 15.0 for k in range(n_spins)))
        ops = [self.fresh_drift(system)] + [
            sum(spin_half_operator(n_spins, s, axis) for s in group)
            for group in system.channels for axis in "xy"
        ]
        gens = system_operators(system).unitary_generators
        assert gens.shape == (len(ops), 2**(n_spins + 1), 2**(n_spins + 1))
        for gen, op in zip(gens, ops):
            a = -1j * op  # [[Re, -Im], [Im, Re]] of -i A
            assert np.array_equal(gen, np.block([[a.real, -a.imag], [a.imag, a.real]]))
        assert system_operators(system).unitary_generators is gens
        with pytest.raises(ValueError):
            gens[0, 0, 0] = 1.0

    def test_liouville_generators_built_on_first_use(self):
        system = SpinSystem(2, ((0, 1),), couplings=((0, 1, 3.0),), offsets_hz=(1.0, -1.0))
        ops = system_operators(system)
        assert not {"hermitian_basis", "drift_generator", "control_generators"} & vars(ops).keys()
        assert ops.control_generators is ops.control_generators
        assert not ops.control_generators.flags.writeable
        assert ops.control_generators.shape == (2, 16, 16)

    @pytest.mark.parametrize("n_spins", [1, 2, 3])
    def test_coordinates_round_trip(self, n_spins):
        ops = system_operators(SpinSystem(n_spins, ((0,),)))
        d = 2**n_spins
        rng = np.random.default_rng(n_spins)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = a + a.conj().T
        x = ops.coordinates(rho)
        assert x.shape == (d * d,) and x.dtype == np.float64
        back = ops.density(x)
        assert np.max(np.abs(back - rho)) < 1e-14
        assert np.array_equal(back, back.conj().T)

    def test_system_given_lists_is_hashable(self):
        listed = SpinSystem(2, [[0], [1]], couplings=[[0, 1, 48.2]], offsets_hz=[0.0, 0.0])
        assert listed == PRESETS["defm"]
        assert drift_hamiltonian(listed) is drift_hamiltonian(PRESETS["defm"])

    def test_differ_between_systems(self):
        defm, tcp = PRESETS["defm"], PRESETS["tcp"]
        assert not np.allclose(drift_hamiltonian(defm), drift_hamiltonian(tcp))
        assert control_operator_stack(defm).shape == (4, 4, 4)
        assert control_operator_stack(tcp).shape == (2, 4, 4)


class TestNoiseOperators:
    def test_local_gives_four(self):
        nm = noise_operators(PRESETS["tcp"], "local", 0.07)
        assert len(nm.collapse_ops) == 4
        assert nm.gamma == 0.07
        assert nm.drift_norm > 0

    def test_global_gives_two(self):
        nm = noise_operators(PRESETS["tcp"], "global", 0.0)
        assert len(nm.collapse_ops) == 2
        assert nm.rate == 0.0

    def test_global_at_004(self):
        nm = noise_operators(PRESETS["tcp"], "global", 0.04)
        assert len(nm.collapse_ops) == 2
        assert np.allclose(
            nm.collapse_ops[0],
            spin_half_operator(2, 0, "x") + spin_half_operator(2, 1, "x"),
        )

    def test_rejects_other_sizes(self):
        sys3 = SpinSystem(3, channels=((0,), (1,), (2,)))
        with pytest.raises(ValueError):
            noise_operators(sys3, "local", 0.1)

    @pytest.mark.parametrize("gamma", [np.inf, -np.inf, np.nan, -0.1])
    def test_rejects_non_finite_or_negative_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
            noise_operators(PRESETS["tcp"], "local", gamma)

    def test_gamma_requires_positive_drift_norm(self):
        with pytest.raises(ValueError):
            NoiseModel(gamma=0.1, kind="local", collapse_ops=(), drift_norm=0.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown noise kind 'dephasing'"):
            NoiseModel(gamma=0.1, kind="dephasing", collapse_ops=(), drift_norm=1.0)
        with pytest.raises(ValueError, match="unknown noise kind 'dephasing'"):
            noise_operators(PRESETS["tcp"], "dephasing", 0.1)

    def test_real_form_needs_a_hermiticity_preserving_superoperator(self):
        # -i I maps a Hermitian matrix to an anti-Hermitian one
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            _real_superoperator(_hermitian_basis(2), -1j * np.eye(4))


class TestSystemConfig:
    def test_from_dict_roundtrip(self):
        cfg = {
            "spins": 2,
            "channels": [[0], [1]],
            "couplings": [{"i": 0, "j": 1, "J_hz": 48.2}],
            "offsets_hz": [0, 0],
        }
        sys_ = system_from_dict(cfg)
        assert sys_ == PRESETS["defm"]

    @pytest.mark.parametrize("edit, named", [
        ({"spins": 2.9}, "spins must be an integer, got 2.9"),
        ({"channels": [[0.7], [1]]}, "channel spin index must be an integer, got 0.7"),
        ({"couplings": [{"i": 0.4, "j": 1, "J_hz": 48.2}]}, "coupling i must be an integer"),
        ({"spins": "2"}, "spins must be an integer, got '2'"),
        ({"spins": True}, "spins must be an integer, got True"),
    ], ids=["spins-float", "channel-float", "coupling-float", "spins-string", "spins-bool"])
    def test_non_integer_count_or_index_rejected(self, edit, named):
        cfg = {"spins": 2, "channels": [[0], [1]],
               "couplings": [{"i": 0, "j": 1, "J_hz": 48.2}], **edit}
        with pytest.raises(ValueError, match=f"^invalid system configuration: {named}"):
            system_from_dict(cfg)

    def test_load_system_preset(self):
        assert load_system("defm") is PRESETS["defm"]

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            SpinSystem(2, channels=((0,), (0,)))
        with pytest.raises(ValueError):
            SpinSystem(2, channels=((0,),), couplings=((1, 1, 5.0),))
        with pytest.raises(ValueError):
            SpinSystem(5, channels=())
        with pytest.raises(ValueError, match="^channel spin index 2 out of range$"):
            SpinSystem(2, channels=((0, 2),))
        with pytest.raises(ValueError, match="^coupling spin index out of range$"):
            SpinSystem(2, channels=((0,),), couplings=((0, 5, 1.0),))
        with pytest.raises(ValueError, match="^offsets_hz length must equal n_spins$"):
            SpinSystem(2, channels=((0,),), offsets_hz=(1.0,))
        with pytest.raises(ValueError, match="^a register needs at least one control channel$"):
            SpinSystem(2, channels=())

    @pytest.mark.parametrize("field, kwargs", [
        ("J_hz", {"couplings": ((0, 1, float("nan")),)}),
        ("J_hz", {"couplings": ((0, 1, -float("inf")),)}),
        ("offsets_hz", {"offsets_hz": (float("inf"), 0.0)}),
        ("offsets_hz", {"offsets_hz": (0.0, float("nan"))}),
        ("J_hz", {"couplings": ((0, 1, True),)}),
        ("offsets_hz", {"offsets_hz": ("0", 0.0)}),
    ], ids=["J-nan", "J-minus-inf", "offset-inf", "offset-nan", "J-bool", "offset-string"])
    def test_non_finite_coupling_or_offset_rejected(self, field, kwargs):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SpinSystem(2, channels=((0,), (1,)), **kwargs)

    def test_load_system_takes_a_name_or_a_path(self):
        with pytest.raises(TypeError, match="preset name or a file path"):
            load_system(PRESETS["defm"])

    def test_dimension(self):
        assert PRESETS["defm"].dimension == 4
        assert SpinSystem(3, channels=((0,),)).dimension == 8
