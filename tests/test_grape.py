import numpy as np
import pytest

from pinnctl.grape import GrapeConfig, grape_train
from pinnctl.network import PulseTable
from pinnctl.objectives import ObjectiveSpec, pulse_table_gradient
from pinnctl.spins import PRESETS, SpinSystem
from pinnctl.targets import cnot_objective


class TestGrapeConfig:
    def test_defaults(self):
        cfg = GrapeConfig()
        assert cfg.n_segments == 128
        assert cfg.clip_rule == "clip"
        assert cfg.learning_rate == 1e2

    def test_validation(self):
        with pytest.raises(ValueError):
            GrapeConfig(n_segments=0)
        with pytest.raises(ValueError):
            GrapeConfig(amp_limit=-1.0)
        with pytest.raises(ValueError):
            GrapeConfig(clip_rule="wrap")
        for bad in ({"learning_rate": -5.0}, {"f_threshold": 2.0}, {"max_iters": 0},
                    {"log_every": 0}, {"log_every": 2.5}):
            with pytest.raises(ValueError):
                GrapeConfig(**bad)


class TestGrapeTrain:
    def test_identity_zero_init_converges_immediately(self):
        sys_ = SpinSystem(2, ((0,), (1,)))
        obj = ObjectiveSpec(kind="gate", target=np.eye(4))
        cfg = GrapeConfig(n_segments=8, init_rule="zero", f_threshold=0.999999, max_iters=5)
        table, rec = grape_train(sys_, obj, 0.001, cfg)
        assert rec.converged
        assert rec.iterations[-1][0] == 0
        assert np.allclose(table.samples, 0)

    def test_cnot_reaches_099(self):
        cfg = GrapeConfig(
            n_segments=128,
            amp_limit=2 * np.pi * 1000,
            learning_rate=50.0,
            f_threshold=0.99,
            max_iters=500,
            seed=0,
        )
        table, rec = grape_train(PRESETS["defm"], cnot_objective(), 0.020, cfg)
        assert rec.converged
        assert rec.final_fidelity >= 0.99
        assert np.max(np.abs(table.samples)) <= cfg.amp_limit + 1e-12

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(21)
        sys_ = PRESETS["defm"]
        obj = cnot_objective()
        amps = rng.normal(0, 500, size=(8, 2, 2))
        table = PulseTable(0.004, amps)
        fid, grad = pulse_table_gradient(sys_, table, obj)
        eps = 1e-6
        for _ in range(10):
            s = rng.integers(8)
            c = rng.integers(4)
            bump = np.zeros_like(amps)
            bump.reshape(8, -1)[s, c] = eps
            fp, _ = pulse_table_gradient(sys_, PulseTable(0.004, amps + bump), obj)
            fm, _ = pulse_table_gradient(sys_, PulseTable(0.004, amps - bump), obj)
            fd = (fp - fm) / (2 * eps)
            assert abs(fd - grad[s, c]) < 1e-6 * max(1.0, abs(fd))

    def test_determinism(self):
        cfg = GrapeConfig(n_segments=16, learning_rate=50.0, max_iters=10, seed=3)
        t1, r1 = grape_train(PRESETS["defm"], cnot_objective(), 0.02, cfg)
        t2, r2 = grape_train(PRESETS["defm"], cnot_objective(), 0.02, cfg)
        assert np.array_equal(t1.samples, t2.samples)
        assert r1.iterations == r2.iterations


class TestGrapeWarmStart:
    def test_amp_limit_must_leave_headroom(self):
        from pinnctl.grape import grape_warm_start

        cfg = GrapeConfig(n_segments=8, amp_limit=500.0, max_iters=1)
        with pytest.raises(ValueError):
            grape_warm_start(
                PRESETS["defm"], cnot_objective(), (1, 8, 4), 500.0, 0.02, cfg
            )

    def test_fits_converged_segment_solution(self):
        from pinnctl.grape import grape_warm_start
        from pinnctl.network import forward_batch, segment_times

        sys_ = SpinSystem(2, ((0,), (1,)))
        obj = ObjectiveSpec(kind="gate", target=np.eye(4))
        cfg = GrapeConfig(
            n_segments=8, amp_limit=400.0, init_rule="zero",
            f_threshold=0.999999, max_iters=5,
        )
        fitted, rec = grape_warm_start(
            sys_, obj, (1, 16, 16, 4), 500.0, 0.001, cfg,
            seed=1, fit_samples=32, fit_iters=2000,
        )
        assert rec.converged
        # the zero-init identity solve is the zero pulse, so the fitted
        # network should be close to zero on the whole window
        out = forward_batch(fitted, segment_times(0.001, 32))
        assert np.max(np.abs(out)) < 0.05 * 500.0
