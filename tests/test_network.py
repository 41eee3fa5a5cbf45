import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinnctl.network import (
    NetworkParams,
    PulseTable,
    apply_update,
    backprop_pulse,
    forward_batch,
    init_params,
    load_params,
    sample_pulse,
    save_params,
)

U_MAX = 2 * np.pi * 1000.0


def one_node_params(amp_scale=1.0, time_scale=1.0):
    """(1,1,2) network, all weights 1, all biases 0."""
    return NetworkParams(
        layer_sizes=(1, 1, 2),
        weights=(np.ones((1, 1)), np.ones((1, 2))),
        biases=(np.zeros(1), np.zeros(2)),
        amp_scale=amp_scale,
        time_scale=time_scale,
    )


class TestInit:
    def test_paper_gate_architecture_shapes(self):
        p = init_params((1, 40, 40, 4), U_MAX, 0.020, seed=7)
        assert [w.shape for w in p.weights] == [(1, 40), (40, 40), (40, 4)]
        assert all(np.allclose(b, 0) for b in p.biases)

    def test_three_hidden_layers(self):
        p = init_params((1, 60, 60, 60, 2), U_MAX, 0.1, seed=7)
        assert len(p.weights) == 4
        assert p.n_channels == 1

    def test_deterministic(self):
        a = init_params((1, 10, 10, 4), U_MAX, 0.02, seed=3)
        b = init_params((1, 10, 10, 4), U_MAX, 0.02, seed=3)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_fan_in_variance(self):
        p = init_params((1, 400, 400, 2), 1.0, 1.0, seed=0)
        assert np.isclose(np.var(p.weights[1]), 1.0 / 400, rtol=0.1)

    def test_rejects_bad_layers(self):
        with pytest.raises(ValueError):
            init_params((2, 4, 2), 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            init_params((1, 4, 3), 1.0, 1.0, 0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
    def test_rejects_scales_that_are_not_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="amp_scale must be positive and finite"):
            init_params((1, 4, 2), bad, 1.0, 0)
        with pytest.raises(ValueError, match="time_scale must be positive and finite"):
            init_params((1, 4, 2), 1.0, bad, 0)


class TestForward:
    def test_zero_network_outputs_zero(self):
        p = init_params((1, 5, 4), U_MAX, 0.02, seed=0)
        p = NetworkParams(
            p.layer_sizes,
            tuple(np.zeros_like(w) for w in p.weights),
            p.biases,
            p.amp_scale,
            p.time_scale,
        )
        for t in np.linspace(0, 0.02, 7):
            assert np.allclose(forward_batch(p, t)[0], 0.0)

    def test_bounded_by_amp_scale(self):
        p = init_params((1, 30, 30, 4), U_MAX, 0.02, seed=5)
        u = forward_batch(p, np.linspace(0, 0.02, 500))
        assert np.all(np.abs(u) <= U_MAX)

    def test_hand_computed_composition(self):
        # w=1, b=0 throughout, amp_scale=1, T=1: u(t) = tanh(tanh(t))
        p = one_node_params()
        expected = np.tanh(np.tanh(0.5))
        assert np.allclose(forward_batch(p, 0.5)[0], [expected, expected])

    def test_rejects_time_outside_window(self):
        p = init_params((1, 4, 2), 1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            forward_batch(p, 1.5)
        with pytest.raises(ValueError):
            forward_batch(p, -0.1)
        for bad in ([0.5, np.nan], np.inf, -np.inf):
            with pytest.raises(ValueError, match="outside the control window"):
                forward_batch(p, bad)

    @pytest.mark.parametrize("sizes", [(1, 2), (1, 4, 2), (1, 40, 40, 4), (1, 60, 60, 60, 2)])
    def test_tape_equals_the_separate_taped_forward(self, sizes):
        def taped_forward(params, t):
            # the taped forward as it stood on its own, with a k=1 matmul first layer
            a = (np.asarray(t, dtype=float) / params.time_scale)[:, None]
            tape = [a]
            for l in range(len(params.weights) - 1):
                a = np.tanh(a @ params.weights[l] + params.biases[l])
                tape.append(a)
            out_act = np.tanh(a @ params.weights[-1] + params.biases[-1])
            tape.append(out_act)
            return params.amp_scale * out_act, tape

        p = init_params(sizes, U_MAX, 0.02, seed=5, input_gain=4.0)
        for n in (1, 7, 256):
            t = np.random.default_rng(n).uniform(0, 0.02, n)
            tape = []
            u = forward_batch(p, t, tape)
            u_ref, tape_ref = taped_forward(p, t)
            assert np.array_equal(u, u_ref)
            assert np.array_equal(forward_batch(p, t), u_ref)
            assert len(tape) == len(tape_ref) == len(sizes)
            assert all(np.array_equal(a, b) for a, b in zip(tape, tape_ref))

    def test_lipschitz_no_jumps(self):
        # finite difference quotient stays stable under grid refinement
        p = init_params((1, 20, 20, 2), U_MAX, 0.02, seed=1)
        slopes = []
        for n in (10_000, 20_000):
            t = np.linspace(0, 0.02, n)
            u = forward_batch(p, t)
            slopes.append(np.max(np.abs(np.diff(u, axis=0)) / (t[1] - t[0])))
        assert np.isfinite(slopes[0])
        assert slopes[1] < 2.0 * slopes[0] + 1e-9


class TestBackprop:
    def test_zero_upstream_zero_gradient(self):
        p = init_params((1, 6, 6, 2), 1.0, 1.0, seed=3)
        gw, gb = backprop_pulse(p, 0.3, np.zeros((1, 2)))
        assert all(np.allclose(g, 0) for g in gw + gb)

    def test_one_node_analytic_derivative(self):
        # u = tanh(w2 * tanh(w1 * t)); du/dw1 = sech^2(w2 h) * w2 * sech^2(w1 t) * t
        p = one_node_params()
        t = 0.7
        h = np.tanh(t)
        analytic = (1 - np.tanh(h) ** 2) * 1.0 * (1 - h**2) * t
        gw, _ = backprop_pulse(p, t, np.array([[1.0, 0.0]]))
        assert np.isclose(gw[0][0, 0], analytic, rtol=1e-12)

    @pytest.mark.parametrize("sizes", [(1, 3, 2), (1, 3, 3, 2), (1, 4, 4, 4, 2), (1, 3, 3, 3, 3, 2)])
    def test_matches_central_differences(self, sizes):
        rng = np.random.default_rng(42)
        p = init_params(sizes, 2.0, 1.0, seed=9)
        t = np.array([0.35, 0.8])
        upstream = rng.normal(size=(2, 2))
        gw, gb = backprop_pulse(p, t, upstream)
        g = np.concatenate([a.ravel() for a in gw + gb])

        def value(pp):
            return float(np.sum(upstream * forward_batch(pp, t)))

        eps = 1e-6
        for _ in range(8):
            idx = rng.integers(g.size)
            dw = [np.zeros_like(w) for w in p.weights]
            db = [np.zeros_like(b) for b in p.biases]
            arrs = dw + db
            k, local = _locate(arrs, idx)
            arrs[k].flat[local] = eps
            plus = value(apply_update(p, dw, db))
            arrs[k].flat[local] = -eps
            minus = value(apply_update(p, dw, db))
            fd = (plus - minus) / (2 * eps)
            assert abs(fd - g[idx]) < 1e-6 * max(1.0, abs(fd))

    def test_shape_mismatch_rejected(self):
        p = init_params((1, 3, 2), 1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            backprop_pulse(p, 0.5, np.zeros((1, 4)))


def _locate(arrays, flat_idx):
    sizes = [a.size for a in arrays]
    offsets = np.cumsum([0] + sizes)
    k = int(np.searchsorted(offsets, flat_idx, side="right") - 1)
    return k, flat_idx - offsets[k]


class TestSamplePulse:
    def test_zero_network_zero_table(self):
        p = one_node_params()
        p = NetworkParams(
            p.layer_sizes,
            tuple(np.zeros_like(w) for w in p.weights),
            p.biases,
            1.0,
            1.0,
        )
        table = sample_pulse(p, 16)
        assert np.allclose(table.samples, 0)

    def test_doubling_halves_width(self):
        p = init_params((1, 5, 2), 1.0, 1.0, seed=0)
        t1 = sample_pulse(p, 8)
        t2 = sample_pulse(p, 16)
        assert np.isclose(t1.dt, 2 * t2.dt)

    def test_reconstruction_converges_sup_norm(self):
        p = init_params((1, 10, 10, 2), 1.0, 1.0, seed=4)
        t_check = np.linspace(0, 1, 1001)
        u_exact = forward_batch(p, t_check)
        errs = []
        for n in (2**8, 2**12):
            table = sample_pulse(p, n)
            idx = np.minimum((t_check / table.dt).astype(int), n - 1)
            u_pwc = table.flat_amplitudes()[idx]
            errs.append(np.max(np.abs(u_pwc - u_exact)))
        assert errs[1] < errs[0]
        assert errs[1] < 1e-3 * p.amp_scale

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_segment_width_exact(self, n):
        p = init_params((1, 4, 2), 1.0, 1.0, seed=1)
        table = sample_pulse(p, n)
        assert table.n_segments == n
        assert np.isclose(table.dt * n, table.duration)


class TestSaveLoad:
    def test_roundtrip_bit_identical(self, tmp_path):
        p = init_params((1, 12, 12, 4), U_MAX, 0.02, seed=11)
        path = tmp_path / "params.json"
        save_params(p, path)
        q = load_params(path)
        t = np.random.default_rng(0).uniform(0, 0.02, 100)
        assert np.array_equal(forward_batch(p, t), forward_batch(q, t))

    def test_truncated_file_errors(self, tmp_path):
        p = init_params((1, 4, 2), 1.0, 1.0, seed=0)
        path = tmp_path / "params.json"
        save_params(p, path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(ValueError):
            load_params(path)

    def test_channel_mismatch_errors(self, tmp_path):
        p = init_params((1, 4, 2), 1.0, 1.0, seed=0)
        path = tmp_path / "params.json"
        save_params(p, path)
        with pytest.raises(ValueError, match="output width"):
            load_params(path, expected_channels=2)


class TestPulseTable:
    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            PulseTable(1.0, np.zeros((4, 2)))
        with pytest.raises(ValueError):
            PulseTable(0.0, np.zeros((4, 1, 2)))


class TestInputGain:
    def test_gain_scales_first_layer_only(self):
        base = init_params((1, 12, 4), 100.0, 0.02, seed=7)
        gained = init_params((1, 12, 4), 100.0, 0.02, seed=7, input_gain=8.0)
        assert np.allclose(gained.weights[0], 8.0 * base.weights[0])
        assert np.array_equal(gained.weights[1], base.weights[1])
        assert np.all(np.abs(gained.biases[0]) <= 4.0)
        assert np.any(gained.biases[0] != 0.0)
        assert np.array_equal(gained.biases[1], base.biases[1])
        assert gained.metadata["input_gain"] == 8.0

    def test_gain_one_is_plain_init(self):
        base = init_params((1, 12, 4), 100.0, 0.02, seed=7)
        same = init_params((1, 12, 4), 100.0, 0.02, seed=7, input_gain=1.0)
        assert all(np.array_equal(a, b) for a, b in zip(base.weights, same.weights))
        assert all(np.array_equal(a, b) for a, b in zip(base.biases, same.biases))
        assert "input_gain" not in same.metadata

    def test_gain_must_be_positive(self):
        for gain in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="input_gain must be positive and finite"):
                init_params((1, 12, 4), 100.0, 0.02, seed=7, input_gain=gain)
