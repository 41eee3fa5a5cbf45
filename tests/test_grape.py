import numpy as np
import pytest

from pinnctl.grape import GrapeConfig, grape_train
from pinnctl.network import PulseTable, forward_batch, init_params, segment_times
from pinnctl.objectives import ObjectiveSpec, evaluate_fidelity, pulse_table_gradient
from pinnctl.optimizer import fit_network_to_table, run_record_to_dict
from pinnctl.spins import PRESETS, SpinSystem
from pinnctl.targets import cnot_objective


class TestGrapeConfig:
    def test_defaults(self):
        cfg = GrapeConfig()
        assert cfg.n_segments == 128
        assert cfg.learning_rate == 1e2

    def test_validation(self):
        with pytest.raises(ValueError):
            GrapeConfig(n_segments=0)
        with pytest.raises(ValueError):
            GrapeConfig(amp_limit=-1.0)
        for bad in ({"learning_rate": -5.0}, {"f_threshold": 2.0}, {"max_iters": 0},
                    {"log_every": 0}, {"log_every": 2.5}, {"n_segments": 4.7},
                    {"max_iters": True}, {"max_iters": 2.5}, {"amp_limit": np.inf}):
            with pytest.raises(ValueError):
                GrapeConfig(**bad)


class TestGrapeTrain:
    def test_start_meeting_threshold_exits_at_iteration_0(self):
        # no drift and a 1 rad/s limit: the seeded start is the identity to 1e-9
        sys_ = SpinSystem(2, ((0,), (1,)))
        obj = ObjectiveSpec(kind="gate", target=np.eye(4))
        cfg = GrapeConfig(n_segments=8, amp_limit=1.0, f_threshold=0.999999, max_iters=5, seed=4)
        table, rec = grape_train(sys_, obj, 0.001, cfg)
        assert rec.converged
        assert rec.iterations[-1][0] == 0
        start = np.random.default_rng(4).normal(0.0, 0.05, size=(8, 4))
        assert np.array_equal(table.samples.reshape(8, 4), start)

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

    def test_table_rounds_as_an_out_of_place_clipped_adam(self):
        # the ascent steps its copy of the table in place; every step must round
        # exactly as x = clip(x + -lr * m_hat / (sqrt(v_hat) + eps))
        system, obj, n, duration = PRESETS["defm"], cnot_objective(), 16, 0.02
        cfg = GrapeConfig(n_segments=n, amp_limit=2 * np.pi * 60, learning_rate=1e2,
                          f_threshold=1.0, max_iters=25, seed=4)
        table, _ = grape_train(system, obj, duration, cfg)
        x = np.random.default_rng(cfg.seed).normal(0.0, 0.05 * cfg.amp_limit, size=(n, 4))
        m = v = np.zeros_like(x)
        _, g = pulse_table_gradient(system, PulseTable(duration, x.reshape(n, -1, 2)), obj)
        for t in range(1, cfg.max_iters + 1):
            m = 0.9 * m + (1 - 0.9) * -g
            v = 0.999 * v + (1 - 0.999) * g * g
            step = -cfg.learning_rate * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            x = np.clip(x + step, -cfg.amp_limit, cfg.amp_limit)
            _, g = pulse_table_gradient(system, PulseTable(duration, x.reshape(n, -1, 2)), obj)
        assert np.any(np.abs(x) == cfg.amp_limit)  # the projection is exercised
        assert np.array_equal(table.samples.reshape(n, -1), x)

    def test_determinism(self):
        cfg = GrapeConfig(n_segments=16, learning_rate=50.0, max_iters=10, seed=3)
        t1, r1 = grape_train(PRESETS["defm"], cnot_objective(), 0.02, cfg)
        t2, r2 = grape_train(PRESETS["defm"], cnot_objective(), 0.02, cfg)
        assert np.array_equal(t1.samples, t2.samples)
        assert r1.iterations == r2.iterations

    def test_record_is_a_run_record_without_a_network(self):
        cfg = GrapeConfig(n_segments=4, max_iters=2, f_threshold=1.0)
        _, rec = grape_train(PRESETS["defm"], cnot_objective(), 0.02, cfg)
        doc = run_record_to_dict(rec)
        assert doc["final_params"] is None and doc["config"]["n_segments"] == 4
        assert [tuple(row) for row in doc["iterations"]] == rec.iterations
        assert doc["metadata"]["wall_time_s"] == rec.wall_time_s > 0


class TestGrapeWarmStart:
    def test_fits_converged_segment_solution(self):
        # a run's warm start: GRAPE, then the table fit of a fresh network
        sys_ = SpinSystem(2, ((0,), (1,)))
        obj = ObjectiveSpec(kind="gate", target=np.eye(4))
        cfg = GrapeConfig(n_segments=4, amp_limit=400.0, f_threshold=0.999, max_iters=5)
        table, rec = grape_train(sys_, obj, 0.001, cfg)
        assert rec.converged
        params0 = init_params((1, 16, 16, 4), 500.0, 0.001, seed=1)
        fitted = fit_network_to_table(params0, table, n_samples=32, n_iters=2000)
        # the smooth fit misses the staircase's steps, but not its level, and
        # keeps the converged table's fidelity
        t = segment_times(0.001, 32)
        staircase = table.flat_amplitudes()[(t / 0.001 * 4).astype(int)]
        rms = np.sqrt(np.mean((forward_batch(fitted, t) - staircase) ** 2))
        assert rms < 0.5 * np.sqrt(np.mean(staircase**2))
        assert evaluate_fidelity(sys_, fitted, obj, n_fine=32) >= cfg.f_threshold
