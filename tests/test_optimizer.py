import json
from functools import partial

import numpy as np
import pytest

from pinnctl.network import init_params, params_from_dict
from pinnctl.objectives import ObjectiveSpec
from pinnctl.optimizer import (
    DIVERGENCE_WINDOW,
    AdamState,
    AscentConfig,
    DivergenceError,
    OptimizerConfig,
    ascend,
    multi_start,
    save_run_record,
    train,
)
from pinnctl.workspace import _buffer, _workspace
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
        # scalar parameter, constant descent gradient g=2 (ascent gradient -2),
        # lr=0.1, standard betas
        state = AdamState(np.zeros(1))
        x = 0.0
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        m = v = 0.0
        for t in range(1, 4):
            delta = state.update(np.array([-2.0]), lr)
            x += delta[0]
            m = b1 * m + (1 - b1) * 2.0
            v = b2 * v + (1 - b2) * 4.0
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            expected_step = -lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.isclose(delta[0], expected_step, rtol=1e-14)


class TestTrain:
    def test_already_converged_at_start(self):
        # zero-weight network, identity target, zero drift: fidelity 1 at iter 0
        p = small_params()
        from dataclasses import replace

        p = replace(p, weights=tuple(np.zeros_like(w) for w in p.weights))
        rec = train(p, TWO_CH, IDENTITY_OBJ, quick_config(f_threshold=0.999999))
        assert rec.converged
        assert rec.n_iters == 0

    def test_final_params_outlive_a_later_ascent(self):
        cfg = quick_config(max_iters=3, f_threshold=1.0)
        p0 = small_params()
        start = p0.vector()
        record = train(p0, PRESETS["defm"], cnot_objective(), cfg)
        held = record.final_params.vector()
        later = train(record.final_params, PRESETS["defm"], cnot_objective(), cfg)
        assert np.array_equal(p0.vector(), start)
        assert np.array_equal(record.final_params.vector(), held)
        assert not np.array_equal(later.final_params.vector(), held)

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

    def test_equals_a_per_array_reference_loop(self):
        # the reference keeps one Adam moment array per parameter array
        from dataclasses import replace

        from pinnctl.objectives import loss_and_gradient

        p0, system, objective = small_params(), PRESETS["defm"], cnot_objective()
        cfg = quick_config(f_threshold=1.0, max_iters=20)
        record = train(p0, system, objective, cfg)
        nw = len(p0.weights)

        def score(arrays):
            params = replace(p0, weights=tuple(arrays[:nw]), biases=tuple(arrays[nw:]))
            fid, (gw, gb) = loss_and_gradient(params, system, objective, cfg.n_fine)
            return fid, [*gw, *gb]

        arrays = [*p0.weights, *p0.biases]
        m = [np.zeros_like(a) for a in arrays]
        v = [np.zeros_like(a) for a in arrays]
        fid, g = score(arrays)
        fids = [fid]
        for step in range(1, 21):
            arrays = per_array_adam(arrays, g, m, v, step, cfg.learning_rate)
            fid, g = score(arrays)
            fids.append(fid)
        assert [f for _, f, _ in record.iterations] == fids
        final = record.final_params
        assert all(np.array_equal(a, b) for a, b in zip([*final.weights, *final.biases], arrays))

    def test_leaves_its_inputs_and_earlier_results_alone(self):
        p0 = small_params()
        start = [a.copy() for a in (*p0.weights, *p0.biases)]
        first = train(p0, PRESETS["defm"], cnot_objective(), quick_config(max_iters=5))
        assert all(np.array_equal(a, b) for a, b in zip((*p0.weights, *p0.biases), start))
        kept = [a.copy() for a in (*first.final_params.weights, *first.final_params.biases)]
        train(first.final_params, PRESETS["defm"], cnot_objective(), quick_config(max_iters=5))
        after = (*first.final_params.weights, *first.final_params.biases)
        assert all(np.array_equal(a, b) for a, b in zip(after, kept))

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
                    {"substep_tol": -1.0}, {"substep_tol": 0.0}, {"max_iters": 2.5},
                    # above 1 an RK4 substep can leave the method's stability region
                    {"substep_tol": 30.0}, {"substep_tol": float("inf")},
                    {"substep_tol": float("nan")}):
            with pytest.raises(ValueError):
                OptimizerConfig(**bad)


def quadratic(center):
    """Concave score 1 - |x - center|^2 and its gradient."""

    def score(x):
        d = x - center
        return 1.0 - float(np.sum(d * d)), -2.0 * d

    return score


def hand_rolled_adam(score, x, config):
    """Every (iteration, value, gradient norm) of a plain Adam ascent, and the end point."""
    b1, b2 = 0.9, 0.999
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    value, g = score(x)
    seen = [(0, value, float(np.sqrt(np.sum(g * g))))]
    for t in range(1, config.max_iters + 1):
        if value >= config.f_threshold:
            break
        m = b1 * m + (1 - b1) * -g
        v = b2 * v + (1 - b2) * g * g
        step = (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + 1e-8)
        x = x - config.learning_rate * step
        value, g = score(x)
        seen.append((t, value, float(np.sqrt(np.sum(g * g)))))
    return seen, x


def per_array_adam(arrays, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam ascent step with one moment array per parameter array; m and v
    are lists updated in place.  Returns the new arrays."""
    out = []
    for i, (a, g) in enumerate(zip(arrays, grads)):
        m[i] = b1 * m[i] + (1 - b1) * -g
        v[i] = b2 * v[i] + (1 - b2) * -g * -g
        m_hat = m[i] / (1 - b1**t)
        v_hat = v[i] / (1 - b2**t)
        out.append(a + -lr * m_hat / (np.sqrt(v_hat) + eps))
    return out


class TestAscend:
    CENTER = np.array([0.3, -0.2, 0.1])

    @pytest.mark.parametrize(
        "threshold, log_every", [(1.0, 3), (0.999, 4)], ids=["1.0-3-0", "0.999-4-0"],
    )
    def test_matches_hand_rolled_adam(self, threshold, log_every):
        score = quadratic(self.CENTER)
        cfg = AscentConfig(learning_rate=1e-2, f_threshold=threshold, max_iters=40,
                           log_every=log_every)
        x, record = ascend(score, np.zeros(3), cfg)
        rows, converged = record.iterations, record.converged
        assert record.config is cfg and record.wall_time_s >= 0 and record.final_params is None
        seen, x_ref = hand_rolled_adam(score, np.zeros(3), cfg)
        last = seen[-1]
        assert converged == (last[1] >= threshold)
        assert converged == (threshold < 1.0)  # the runs reach 0.999 well inside 40 updates
        expected = [seen[0]] + [r for r in seen[1:] if r[0] % log_every == 0 or r[1] >= threshold]
        if expected[-1][0] != last[0]:
            expected.append(last)
        assert [r[0] for r in rows] == [r[0] for r in expected]
        np.testing.assert_allclose(np.array(rows)[:, 1:], np.array(expected)[:, 1:], rtol=1e-12)
        np.testing.assert_allclose(x, x_ref, rtol=1e-12)

    def test_project_runs_after_every_update(self):
        seen, calls = [], []

        def score(x):
            seen.append(x.copy())
            return quadratic(self.CENTER)(x)

        def project(x):
            calls.append(1)
            return np.clip(x, -0.05, 0.05)

        cfg = AscentConfig(learning_rate=1e-2, f_threshold=1.0, max_iters=25)
        x, record = ascend(score, np.zeros(3), cfg, project=project)
        assert len(calls) == record.n_iters == 25
        assert all(np.max(np.abs(a)) <= 0.05 for a in seen[1:])
        assert np.array_equal(np.abs(x), np.full(3, 0.05))

    def test_leaves_the_callers_x_and_returns_a_fresh_one(self):
        cfg = AscentConfig(learning_rate=1e-2, f_threshold=1.0, max_iters=10)
        x0 = np.zeros(3)
        x, _ = ascend(quadratic(self.CENTER), x0, cfg)
        assert np.array_equal(x0, np.zeros(3)) and not np.shares_memory(x, x0)
        held = x.copy()
        later, _ = ascend(quadratic(-self.CENTER), x, cfg)  # a later ascent from the result
        assert np.array_equal(x, held) and not np.array_equal(later, held)

    def test_divergence_after_window(self):
        calls = []

        def collapsing(x):
            calls.append(1)
            return (0.9 if len(calls) == 1 else 0.3999), np.ones(2)

        cfg = AscentConfig(f_threshold=1.0, max_iters=DIVERGENCE_WINDOW - 1)
        ascend(collapsing, np.zeros(2), cfg)  # one update short of the window
        calls.clear()
        cfg = AscentConfig(f_threshold=1.0, max_iters=10 * DIVERGENCE_WINDOW)
        with pytest.raises(DivergenceError):
            ascend(collapsing, np.zeros(2), cfg)
        assert len(calls) == DIVERGENCE_WINDOW + 1

    def test_non_finite_value_raises(self):
        calls = []

        def blows_up(x):
            calls.append(1)
            return (0.5 if len(calls) < 3 else float("nan")), np.ones(2)

        with pytest.raises(FloatingPointError, match="iteration 2"):
            ascend(blows_up, np.zeros(2), AscentConfig(f_threshold=1.0, max_iters=10))

    def test_one_workspace_per_ascent(self):
        seen = []

        def score(x):
            seen.append(_buffer("probe", (2,)))
            return 0.5, np.ones(2)

        cfg = AscentConfig(f_threshold=1.0, max_iters=3)
        ascend(score, np.zeros(2), cfg)
        ascend(score, np.zeros(2), cfg)
        assert len(seen) == 8
        assert all(b is seen[0] for b in seen[:4]) and all(b is seen[4] for b in seen[4:])
        assert seen[4] is not seen[0]

    def test_buffer_of_another_dtype_is_fresh(self):
        with _workspace():
            real = _buffer("probe", (4, 2))
            cplx = _buffer("probe", (2, 2), complex)
            assert cplx.dtype == complex and not np.shares_memory(cplx, real)
            assert np.shares_memory(_buffer("probe", (2, 2), complex), cplx)  # and kept from then on

    def test_workspace_closes_when_the_ascent_raises(self):
        def blows_up(x):
            _buffer("probe", (2,))
            return float("nan"), np.ones(2)

        with pytest.raises(FloatingPointError):
            ascend(blows_up, np.zeros(2), AscentConfig(f_threshold=1.0, max_iters=3))
        assert _buffer("probe", (2,)) is not _buffer("probe", (2,))

    def test_config_validation(self):
        for bad in ({"learning_rate": -5.0}, {"learning_rate": float("nan")},
                    {"learning_rate": float("inf")},
                    {"f_threshold": 2.0}, {"f_threshold": 0.0}, {"max_iters": 0},
                    {"log_every": 0}, {"log_every": 1.0}, {"log_every": True},
                    {"max_iters": 2.5}, {"max_iters": True}, {"seed": True}, {"seed": -1}):
            with pytest.raises(ValueError):
                AscentConfig(**bad)


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
            partial(init_params, (1, 6, 6, 4), 2 * np.pi * 500, 0.005), PRESETS["defm"],
            cnot_objective(), cfg, 1
        )
        assert multi.iterations == direct.iterations

    def test_returns_best_of_three(self):
        cfg = quick_config(max_iters=10)
        best = multi_start(
            partial(init_params, (1, 6, 6, 4), 2 * np.pi * 500, 0.005), PRESETS["defm"],
            cnot_objective(), cfg, 3
        )
        for k in range(3):
            p0 = init_params((1, 6, 6, 4), 2 * np.pi * 500, 0.005, seed=cfg.seed + k)
            from dataclasses import replace as dc_replace

            rec = train(p0, PRESETS["defm"], cnot_objective(), dc_replace(cfg, seed=cfg.seed + k))
            assert best.final_fidelity >= rec.final_fidelity - 1e-15

    def test_deterministic_winner(self):
        cfg = quick_config(max_iters=8)
        init = partial(init_params, (1, 6, 6, 4), 500.0, 0.005)
        a = multi_start(init, PRESETS["defm"], cnot_objective(), cfg, 2)
        b = multi_start(init, PRESETS["defm"], cnot_objective(), cfg, 2)
        assert a.context["seed"] == b.context["seed"]
        assert a.iterations == b.iterations

    @pytest.mark.parametrize("n_starts", [0, 2.5, True])
    def test_rejects_a_start_count_that_is_not_a_positive_integer(self, n_starts):
        with pytest.raises(ValueError, match="n_starts"):
            multi_start(partial(init_params, (1, 6, 6, 4), 500.0, 0.005), PRESETS["defm"],
                        cnot_objective(), quick_config(max_iters=1), n_starts)


class TestRecordSerialization:
    def test_roundtrip(self, tmp_path):
        rec = train(small_params(), PRESETS["defm"], cnot_objective(), quick_config(max_iters=5))
        path = tmp_path / "record.json"
        save_run_record(rec, path)
        with open(path) as fh:
            doc = json.load(fh)
        assert [tuple(row) for row in doc["iterations"]] == rec.iterations
        assert doc["converged"] == rec.converged
        assert OptimizerConfig(**doc["config"]) == rec.config
        loaded = params_from_dict(doc["final_params"])
        for a, b in zip(loaded.weights + loaded.biases,
                        rec.final_params.weights + rec.final_params.biases):
            assert np.array_equal(a, b)
        assert "adam_state" not in doc

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
        p = init_params((1, 8, 4), 2 * np.pi * 500, 0.005, seed=0)
        for n_samples in (0, -3, 2.5, True):
            with pytest.raises(ValueError, match="n_samples must be an integer"):
                fit_network_to_table(p, table, n_samples=n_samples, n_iters=1)
        for n_iters in (0, -1, 1.5):
            with pytest.raises(ValueError, match="n_iters must be an integer"):
                fit_network_to_table(p, table, n_iters=n_iters)

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

    def test_leaves_its_inputs_and_earlier_results_alone(self):
        from pinnctl.optimizer import fit_network_to_table

        table = self.table()
        p0 = init_params((1, 12, 4), 2 * np.pi * 500, 0.005, seed=3)
        start = [a.copy() for a in (*p0.weights, *p0.biases)]
        first = fit_network_to_table(p0, table, n_samples=32, n_iters=5)
        assert all(np.array_equal(a, b) for a, b in zip((*p0.weights, *p0.biases), start))
        kept = [a.copy() for a in (*first.weights, *first.biases)]
        fit_network_to_table(first, table, n_samples=32, n_iters=5)
        assert all(np.array_equal(a, b) for a, b in zip((*first.weights, *first.biases), kept))

    def test_equals_a_per_array_reference_loop(self):
        # the tcp-lls architecture; the reference runs its own forward pass and
        # keeps one Adam moment array per parameter array
        from dataclasses import replace

        from pinnctl.network import PulseTable, backprop_pulse, forward_batch, segment_times
        from pinnctl.optimizer import fit_network_to_table

        rng = np.random.default_rng(4)
        table = PulseTable(0.150, rng.uniform(-300.0, 300.0, size=(64, 1, 2)))
        p0 = init_params((1, 60, 60, 60, 2), 2 * np.pi * 60, 0.150, seed=2)
        fitted = fit_network_to_table(p0, table, n_iters=50)

        t = segment_times(0.150, 256)
        target = table.flat_amplitudes()[np.minimum((t / 0.150 * 64).astype(int), 63)]
        nw = len(p0.weights)

        def grads(arrays):
            params = replace(p0, weights=tuple(arrays[:nw]), biases=tuple(arrays[nw:]))
            tape = []
            err = forward_batch(params, t, tape) - target
            gw, gb = backprop_pulse(params, (-2.0 / err.size) * err, tape)
            return [*gw, *gb]

        arrays = [*p0.weights, *p0.biases]
        m = [np.zeros_like(a) for a in arrays]
        v = [np.zeros_like(a) for a in arrays]
        g = grads(arrays)
        for step in range(1, 51):
            arrays = per_array_adam(arrays, g, m, v, step, 1e-2)
            g = grads(arrays)
        assert all(np.array_equal(a, b) for a, b in zip([*fitted.weights, *fitted.biases], arrays))

    @pytest.mark.parametrize("n_segments, n_points", [(64, 256), (256, 256), (300, 300),
                                                      (512, 512)])
    def test_every_segment_reaches_the_target(self, monkeypatch, n_segments, n_points):
        # the grid the fit samples its target on, as its first forward pass sees it
        import pinnctl.optimizer
        from pinnctl.optimizer import fit_network_to_table

        grids = []
        forward = pinnctl.optimizer.forward_batch

        def recorded(params, t, *args):
            grids.append(t.copy())
            return forward(params, t, *args)

        monkeypatch.setattr(pinnctl.optimizer, "forward_batch", recorded)
        table = self.table(duration=0.150, n_segments=n_segments)
        fit_network_to_table(init_params((1, 8, 4), 2 * np.pi * 500, 0.150, seed=3), table,
                             n_iters=1)
        t = grids[0]
        assert len(t) == n_points
        assert np.array_equal(np.unique((t / 0.150 * n_segments).astype(int)),
                              np.arange(n_segments))


class TestForwardsPerStep:
    @pytest.fixture
    def calls(self, monkeypatch):
        import pinnctl.network
        import pinnctl.optimizer

        calls = []
        forward = pinnctl.network.forward_batch

        def counted(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        for module in (pinnctl.network, pinnctl.optimizer):
            monkeypatch.setattr(module, "forward_batch", counted)
        return calls

    def test_table_fit_runs_one_forward_per_step(self, calls):
        from pinnctl.network import PulseTable
        from pinnctl.optimizer import fit_network_to_table

        table = PulseTable(0.005, np.random.default_rng(11).normal(0, 300.0, size=(8, 2, 2)))
        p0 = init_params((1, 12, 4), 2 * np.pi * 500, 0.005, seed=3)
        fit_network_to_table(p0, table, n_samples=32, n_iters=7)
        assert len(calls) == 8  # the initial score and one per update

    def test_loss_and_gradient_runs_one_forward(self, calls):
        from pinnctl.objectives import loss_and_gradient

        loss_and_gradient(small_params(), PRESETS["defm"], cnot_objective(), 32)
        assert len(calls) == 1
