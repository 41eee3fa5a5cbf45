import numpy as np
import pytest

from pinnctl.network import init_params
from pinnctl.objectives import ObjectiveSpec
from pinnctl.optimizer import (
    DIVERGENCE_WINDOW,
    AdamState,
    AscentConfig,
    DivergenceError,
    OptimizerConfig,
    ascend,
    load_run_record,
    multi_start,
    resume,
    run_record_from_dict,
    run_record_to_dict,
    save_run_record,
    train,
)
from pinnctl.spins import SpinSystem
from pinnctl.targets import cnot_objective
from pinnctl.spins import PRESETS

TWO_CH = SpinSystem(2, ((0,), (1,)))
IDENTITY_OBJ = ObjectiveSpec(kind="gate", target=np.eye(4))


def small_params(seed=0):
    return init_params((1, 6, 6, 4), 2 * np.pi * 500, 0.005, seed=seed)


def quick_config(**kw):
    defaults = dict(learning_rate=1e-2, f_threshold=0.999, max_iters=30, n_fine=32, seed=0)
    defaults.update(kw)
    return OptimizerConfig(**defaults)


class TestAdam:
    def test_hand_computed_three_steps(self):
        # scalar parameter, constant gradient g=2, lr=0.1, standard betas
        state = AdamState([np.zeros(1)])
        x = 0.0
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        m = v = 0.0
        for t in range(1, 4):
            (delta,) = state.update([np.array([2.0])], lr, b1, b2, eps)
            x += delta[0]
            m = b1 * m + (1 - b1) * 2.0
            v = b2 * v + (1 - b2) * 4.0
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            expected_step = -lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.isclose(delta[0], expected_step, rtol=1e-14)

    def test_roundtrip(self):
        state = AdamState([np.ones((2, 3))])
        state.update([np.ones((2, 3))], 0.1, 0.9, 0.999, 1e-8)
        doc = state.to_dict()
        restored = AdamState.from_dict(doc, [np.ones((2, 3))])
        assert restored.step == state.step
        assert np.array_equal(restored.m[0], state.m[0])


class TestTrain:
    def test_already_converged_at_start(self):
        # zero-weight network, identity target, zero drift: fidelity 1 at iter 0
        p = small_params()
        from dataclasses import replace

        p = replace(p, weights=tuple(np.zeros_like(w) for w in p.weights))
        rec = train(p, TWO_CH, IDENTITY_OBJ, quick_config(f_threshold=0.999999))
        assert rec.converged
        assert rec.n_iters == 0

    def test_fidelity_improves(self):
        rec = train(small_params(), PRESETS["defm"], cnot_objective(), quick_config(max_iters=50))
        assert rec.iterations[-1][1] > rec.iterations[0][1]

    def test_deterministic_rerun(self):
        cfg = quick_config(max_iters=20)
        a = train(small_params(), PRESETS["defm"], cnot_objective(), cfg)
        b = train(small_params(), PRESETS["defm"], cnot_objective(), cfg)
        assert a.iterations == b.iterations
        for wa, wb in zip(a.final_params.weights, b.final_params.weights):
            assert np.array_equal(wa, wb)

    def test_running_max_nondecreasing(self):
        rec = train(small_params(), PRESETS["defm"], cnot_objective(), quick_config(max_iters=40))
        fids = [f for _, f, _ in rec.iterations]
        running = np.maximum.accumulate(fids)
        assert all(a <= b + 1e-15 for a, b in zip(running, running[1:]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(f_threshold=1.5)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)
        for bad in ({"log_every": 0}, {"log_every": 2.5}, {"n_fine": 0}, {"n_fine": 2.5},
                    {"substep_tol": -1.0}, {"substep_tol": 0.0}):
            with pytest.raises(ValueError):
                OptimizerConfig(**bad)


def quadratic(center):
    """Concave score 1 - |x - center|^2 and its gradient."""

    def score(arrays):
        (x,) = arrays
        d = x - center
        return 1.0 - float(np.sum(d * d)), [-2.0 * d]

    return score


def hand_rolled_adam(score, x, config, start_iter):
    """Every (iteration, value, gradient norm) of a plain Adam ascent, and the end point."""
    b1, b2 = config.adam_beta1, config.adam_beta2
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    value, (g,) = score([x])
    seen = [(start_iter, value, float(np.sqrt(np.sum(g * g))))]
    for t in range(1, config.max_iters + 1):
        if value >= config.f_threshold:
            break
        m = b1 * m + (1 - b1) * -g
        v = b2 * v + (1 - b2) * g * g
        step = (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + config.adam_eps)
        x = x - config.learning_rate * step
        value, (g,) = score([x])
        seen.append((start_iter + t, value, float(np.sqrt(np.sum(g * g)))))
    return seen, x


class TestAscend:
    CENTER = np.array([0.3, -0.2, 0.1])

    @pytest.mark.parametrize(
        "threshold, log_every, start_iter",
        [(1.0, 3, 0), (1.0, 3, 7), (0.999, 4, 0), (0.999, 4, 10)],
    )
    def test_matches_hand_rolled_adam(self, threshold, log_every, start_iter):
        score = quadratic(self.CENTER)
        cfg = AscentConfig(learning_rate=1e-2, f_threshold=threshold, max_iters=40,
                           log_every=log_every)
        (x,), rows, converged, state = ascend(score, [np.zeros(3)], cfg, start_iter=start_iter)
        seen, x_ref = hand_rolled_adam(score, np.zeros(3), cfg, start_iter)
        last = seen[-1]
        assert converged == (last[1] >= threshold)
        assert converged == (threshold < 1.0)  # the runs reach 0.999 well inside 40 updates
        assert state.step == last[0] - start_iter
        expected = [seen[0]] + [r for r in seen[1:] if r[0] % log_every == 0 or r[1] >= threshold]
        if expected[-1][0] != last[0]:
            expected.append(last)
        assert [r[0] for r in rows] == [r[0] for r in expected]
        np.testing.assert_allclose(np.array(rows)[:, 1:], np.array(expected)[:, 1:], rtol=1e-12)
        np.testing.assert_allclose(x, x_ref, rtol=1e-12)

    def test_project_runs_after_every_update(self):
        seen, calls = [], []

        def score(arrays):
            seen.append(arrays[0].copy())
            return quadratic(self.CENTER)(arrays)

        def project(arrays):
            calls.append(1)
            return [np.clip(a, -0.05, 0.05) for a in arrays]

        cfg = AscentConfig(learning_rate=1e-2, f_threshold=1.0, max_iters=25)
        (x,), rows, _, _ = ascend(score, [np.zeros(3)], cfg, project=project)
        assert len(calls) == rows[-1][0] == 25
        assert all(np.max(np.abs(a)) <= 0.05 for a in seen[1:])
        assert np.array_equal(np.abs(x), np.full(3, 0.05))

    def test_divergence_after_window(self):
        calls = []

        def collapsing(arrays):
            calls.append(1)
            return (0.9 if len(calls) == 1 else 0.3999), [np.ones(2)]

        cfg = AscentConfig(f_threshold=1.0, max_iters=DIVERGENCE_WINDOW - 1)
        ascend(collapsing, [np.zeros(2)], cfg)  # one update short of the window
        calls.clear()
        cfg = AscentConfig(f_threshold=1.0, max_iters=10 * DIVERGENCE_WINDOW)
        with pytest.raises(DivergenceError):
            ascend(collapsing, [np.zeros(2)], cfg)
        assert len(calls) == DIVERGENCE_WINDOW + 1

    def test_non_finite_value_raises(self):
        calls = []

        def blows_up(arrays):
            calls.append(1)
            return (0.5 if len(calls) < 3 else float("nan")), [np.ones(2)]

        with pytest.raises(FloatingPointError, match="iteration 2"):
            ascend(blows_up, [np.zeros(2)], AscentConfig(f_threshold=1.0, max_iters=10))

    def test_config_validation(self):
        for bad in ({"learning_rate": -5.0}, {"learning_rate": float("nan")},
                    {"f_threshold": 2.0}, {"f_threshold": 0.0}, {"max_iters": 0},
                    {"log_every": 0}, {"log_every": 1.0}, {"log_every": True}):
            with pytest.raises(ValueError):
                AscentConfig(**bad)


class TestResume:
    def test_zero_extra_is_noop(self):
        rec = train(small_params(), PRESETS["defm"], cnot_objective(), quick_config(max_iters=10))
        assert resume(rec, PRESETS["defm"], cnot_objective(), 0) is rec

    def test_split_equals_straight_run(self):
        cfg20 = quick_config(max_iters=20)
        straight = train(small_params(), PRESETS["defm"], cnot_objective(), cfg20)
        cfg10 = quick_config(max_iters=10)
        first = train(small_params(), PRESETS["defm"], cnot_objective(), cfg10)
        merged = resume(first, PRESETS["defm"], cnot_objective(), 10)
        assert merged.n_iters == straight.n_iters
        fs = dict((i, f) for i, f, _ in straight.iterations)
        fm = dict((i, f) for i, f, _ in merged.iterations)
        assert fs == fm
        for wa, wb in zip(straight.final_params.weights, merged.final_params.weights):
            assert np.array_equal(wa, wb)

    def test_resume_after_convergence_is_noop(self):
        p = small_params()
        from dataclasses import replace

        p = replace(p, weights=tuple(np.zeros_like(w) for w in p.weights))
        rec = train(p, TWO_CH, IDENTITY_OBJ, quick_config())
        assert resume(rec, TWO_CH, IDENTITY_OBJ, 50).n_iters == rec.n_iters

    def test_missing_moments_rejected(self):
        rec = train(small_params(), PRESETS["defm"], cnot_objective(), quick_config(max_iters=5))
        rec.adam_state = None
        with pytest.raises(ValueError):
            resume(rec, PRESETS["defm"], cnot_objective(), 5)


class TestMultiStart:
    def test_single_start_equals_train(self):
        cfg = quick_config(max_iters=15)
        direct = train(
            init_params((1, 6, 6, 4), 2 * np.pi * 500, 0.005, seed=cfg.seed),
            PRESETS["defm"],
            cnot_objective(),
            cfg,
        )
        multi = multi_start(
            PRESETS["defm"], cnot_objective(), (1, 6, 6, 4), 2 * np.pi * 500, 0.005, cfg, 1
        )
        assert multi.iterations == direct.iterations

    def test_returns_best_of_three(self):
        cfg = quick_config(max_iters=10)
        best = multi_start(
            PRESETS["defm"], cnot_objective(), (1, 6, 6, 4), 2 * np.pi * 500, 0.005, cfg, 3
        )
        for k in range(3):
            p0 = init_params((1, 6, 6, 4), 2 * np.pi * 500, 0.005, seed=cfg.seed + k)
            from dataclasses import replace as dc_replace

            rec = train(p0, PRESETS["defm"], cnot_objective(), dc_replace(cfg, seed=cfg.seed + k))
            assert best.final_fidelity >= rec.final_fidelity - 1e-15

    def test_deterministic_winner(self):
        cfg = quick_config(max_iters=8)
        a = multi_start(PRESETS["defm"], cnot_objective(), (1, 6, 6, 4), 500.0, 0.005, cfg, 2)
        b = multi_start(PRESETS["defm"], cnot_objective(), (1, 6, 6, 4), 500.0, 0.005, cfg, 2)
        assert a.context["seed"] == b.context["seed"]
        assert a.iterations == b.iterations


class TestRecordSerialization:
    def test_roundtrip(self, tmp_path):
        rec = train(small_params(), PRESETS["defm"], cnot_objective(), quick_config(max_iters=5))
        path = tmp_path / "record.json"
        save_run_record(rec, path)
        loaded = load_run_record(path)
        assert loaded.iterations == rec.iterations
        assert loaded.converged == rec.converged
        assert loaded.config == rec.config
        for wa, wb in zip(loaded.final_params.weights, rec.final_params.weights):
            assert np.array_equal(wa, wb)

    def test_loads_record_with_constant_lr_decay(self):
        rec = train(small_params(), PRESETS["defm"], cnot_objective(), quick_config(max_iters=2))
        doc = run_record_to_dict(rec)
        doc["config"]["lr_decay"] = "constant"  # written before the schedule was removed
        assert run_record_from_dict(doc).config == rec.config
        doc["config"]["lr_decay"] = "cosine"
        with pytest.raises(ValueError, match="cosine"):
            run_record_from_dict(doc)

    def test_final_fidelity_is_last_row(self):
        rec = train(small_params(), PRESETS["defm"], cnot_objective(), quick_config(max_iters=5))
        assert rec.final_fidelity == rec.iterations[-1][1]
        assert all(np.isfinite(f) for _, f, _ in rec.iterations)


class TestFitNetworkToTable:
    def table(self, duration=0.005, n_segments=8, scale=300.0, seed=11):
        from pinnctl.network import PulseTable

        rng = np.random.default_rng(seed)
        return PulseTable(duration, rng.normal(0, scale, size=(n_segments, 2, 2)))

    def test_validation(self):
        from pinnctl.optimizer import fit_network_to_table

        table = self.table()
        p = init_params((1, 8, 4), 2 * np.pi * 500, 0.004, seed=0)  # wrong duration
        with pytest.raises(ValueError):
            fit_network_to_table(p, table, n_iters=1)
        p = init_params((1, 8, 2), 2 * np.pi * 500, 0.005, seed=0)  # wrong channels
        with pytest.raises(ValueError):
            fit_network_to_table(p, table, n_iters=1)
        p = init_params((1, 8, 4), 100.0, 0.005, seed=0)  # bound too tight
        with pytest.raises(ValueError):
            fit_network_to_table(p, table, n_iters=1)

    def test_fits_staircase(self):
        from pinnctl.network import forward_batch, segment_times
        from pinnctl.optimizer import fit_network_to_table

        table = self.table()
        p0 = init_params((1, 24, 24, 4), 2 * np.pi * 500, 0.005, seed=0)
        fitted = fit_network_to_table(p0, table, n_samples=64, n_iters=3000)
        t = segment_times(0.005, 64)
        seg = np.minimum((t / 0.005 * 8).astype(int), 7)
        target = table.flat_amplitudes()[seg]
        rms0 = np.sqrt(np.mean((forward_batch(p0, t) - target) ** 2))
        rms = np.sqrt(np.mean((forward_batch(fitted, t) - target) ** 2))
        assert rms < 0.1 * rms0

    def test_deterministic(self):
        from pinnctl.network import forward_batch, segment_times
        from pinnctl.optimizer import fit_network_to_table

        table = self.table()
        p0 = init_params((1, 12, 4), 2 * np.pi * 500, 0.005, seed=3)
        a = fit_network_to_table(p0, table, n_samples=32, n_iters=50)
        b = fit_network_to_table(p0, table, n_samples=32, n_iters=50)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
