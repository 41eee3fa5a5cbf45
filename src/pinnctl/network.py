"""Feed-forward ansatz mapping time to control amplitudes.

The network takes the normalized time t/T as its single input, applies tanh
in every hidden layer, and emits amp_scale * tanh(.) at the output so every
amplitude stays inside [-amp_scale, +amp_scale].
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np


@dataclass(frozen=True)
class NetworkParams:
    """Weights and biases of the ansatz; the entire encoded pulse."""

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]  # weights[l] has shape (n_l, n_{l+1})
    biases: tuple[np.ndarray, ...]  # biases[l] has shape (n_{l+1},)
    amp_scale: float  # rad/s
    time_scale: float  # seconds (= total pulse duration T)
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        sizes = self.layer_sizes
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"invalid layer sizes {sizes}")
        if sizes[0] != 1:
            raise ValueError("first layer must have a single (time) input")
        if sizes[-1] % 2 != 0:
            raise ValueError("last layer must be even (x/y pair per channel)")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("weight/bias count inconsistent with layer sizes")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[l], sizes[l + 1]) or b.shape != (sizes[l + 1],):
                raise ValueError(f"layer {l} shape mismatch: {w.shape}, {b.shape}")
        # scalars only: this runs on every update of a training run
        if not 0 < self.amp_scale < np.inf:  # NaN-safe
            raise ValueError(f"amp_scale must be positive and finite, got {self.amp_scale!r}")
        if not 0 < self.time_scale < np.inf:
            raise ValueError(f"time_scale must be positive and finite, got {self.time_scale!r}")

    @property
    def n_channels(self) -> int:
        return self.layer_sizes[-1] // 2


@dataclass(frozen=True)
class PulseTable:
    """A concrete sampling of a control profile: n_segments x channels x (x, y)."""

    duration: float
    samples: np.ndarray  # (n_segments, channels, 2), rad/s, sampled at segment midpoints

    def __post_init__(self):
        if self.samples.ndim != 3 or self.samples.shape[2] != 2:
            raise ValueError("samples must have shape (n_segments, channels, 2)")
        if not self.duration > 0:
            raise ValueError("duration must be positive")

    @property
    def n_segments(self) -> int:
        return self.samples.shape[0]

    @property
    def n_channels(self) -> int:
        return self.samples.shape[1]

    @property
    def dt(self) -> float:
        return self.duration / self.n_segments

    def flat_amplitudes(self) -> np.ndarray:
        """Samples reshaped to (n_segments, 2*channels) in (x1, y1, x2, y2) order."""
        return self.samples.reshape(self.n_segments, -1)

    def scaled(self, factor: float) -> "PulseTable":
        return PulseTable(self.duration, self.samples * factor)


def init_params(
    layer_sizes,
    amp_scale: float,
    time_scale: float,
    seed: int,
    input_gain: float = 1.0,
) -> NetworkParams:
    """Deterministic init: weights ~ N(0, 1/fan_in) per layer, biases zero.

    input_gain > 1 scales the first-layer weights and spreads the first-layer
    biases uniformly over +-input_gain/2, distributing the tanh feature kinks
    across the time window so the network can express sub-window structure
    from the start (drawn from a separate stream so the base draw is
    unchanged).
    """
    sizes = tuple(int(s) for s in layer_sizes)
    if not 0 < input_gain < np.inf:  # NaN-safe
        raise ValueError(f"input_gain must be positive and finite, got {input_gain!r}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    if input_gain != 1.0:
        gain_rng = np.random.default_rng(seed + 999)
        weights[0] = weights[0] * input_gain
        biases[0] = gain_rng.uniform(-input_gain, input_gain, size=sizes[1]) * 0.5
    meta = {"seed": seed}
    if input_gain != 1.0:
        meta["input_gain"] = float(input_gain)
    return NetworkParams(
        layer_sizes=sizes,
        weights=tuple(weights),
        biases=tuple(biases),
        amp_scale=float(amp_scale),
        time_scale=float(time_scale),
        metadata=meta,
    )


def _check_times(params: NetworkParams, t: np.ndarray):
    # written so that NaN, which compares false, fails the check
    if not np.all((t >= -1e-12) & (t <= params.time_scale * (1 + 1e-12))):
        raise ValueError("time outside the control window [0, T]")


def forward_batch(params: NetworkParams, t, tape: list | None = None) -> np.ndarray:
    """Evaluate the control amplitudes at times t (shape (N,)) -> (N, 2M) rad/s.

    Given a list as ``tape``, appends the input column and every tanh output
    (hidden layers, then the output layer before amp_scale), which is
    sufficient for an exact reverse pass since d tanh = 1 - tanh^2.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    _check_times(params, t)
    a = (t / params.time_scale)[:, None]
    if tape is not None:
        tape.append(a)
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        # one time input: the first layer is a broadcast product, bit-equal to a k=1 matmul
        a = np.tanh((a * w if l == 0 else a @ w) + b)
        if tape is not None:
            tape.append(a)
    return params.amp_scale * a


def backprop_pulse(
    params: NetworkParams, t, upstream: np.ndarray, tape: list[np.ndarray] | None = None
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Exact gradient of sum_n upstream[n] . u(t_n) w.r.t. every weight and bias.

    upstream has shape (N, 2M) matching the times t; returns (grad_w, grad_b)
    with the same shapes as params.weights / params.biases.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    upstream = np.atleast_2d(np.asarray(upstream, dtype=float))
    if upstream.shape != (t.size, params.layer_sizes[-1]):
        raise ValueError(
            f"upstream shape {upstream.shape} does not match "
            f"({t.size}, {params.layer_sizes[-1]})"
        )
    if tape is None:
        tape = []
        forward_batch(params, t, tape)
    n_layers = len(params.weights)
    grad_w = [None] * n_layers
    grad_b = [None] * n_layers
    # output layer: u = amp_scale * tanh(z); tape[-1] is tanh(z)
    delta = upstream * params.amp_scale * (1.0 - tape[-1] ** 2)
    for l in range(n_layers - 1, -1, -1):
        a_prev = tape[l]
        grad_w[l] = a_prev.T @ delta
        grad_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ params.weights[l].T) * (1.0 - a_prev**2)
    return tuple(grad_w), tuple(grad_b)


def segment_times(duration: float, n_segments: int) -> np.ndarray:
    """Midpoints of n_segments equal segments of [0, duration]."""
    return (np.arange(n_segments) + 0.5) * (duration / n_segments)


def sample_pulse(params: NetworkParams, n_segments: int) -> PulseTable:
    """Discretize the network onto n_segments piecewise-constant segments."""
    if n_segments < 1:
        raise ValueError("n_segments must be >= 1")
    t = segment_times(params.time_scale, n_segments)
    u = forward_batch(params, t)
    samples = u.reshape(n_segments, params.n_channels, 2)
    return PulseTable(duration=params.time_scale, samples=samples)


def params_to_dict(params: NetworkParams) -> dict:
    return {
        "layer_sizes": list(params.layer_sizes),
        "weights": [w.flatten().tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "amp_scale": params.amp_scale,
        "time_scale": params.time_scale,
        "metadata": params.metadata,
    }


def params_from_dict(doc: dict) -> NetworkParams:
    try:
        sizes = tuple(int(s) for s in doc["layer_sizes"])
        weights = tuple(
            np.asarray(doc["weights"][l], dtype=float).reshape(sizes[l], sizes[l + 1])
            for l in range(len(sizes) - 1)
        )
        biases = tuple(np.asarray(b, dtype=float) for b in doc["biases"])
        if not all(np.all(np.isfinite(a)) for a in weights + biases):
            raise ValueError("non-finite weight or bias")
        return NetworkParams(
            layer_sizes=sizes,
            weights=weights,
            biases=biases,
            amp_scale=float(doc["amp_scale"]),
            time_scale=float(doc["time_scale"]),
            metadata=dict(doc.get("metadata", {})),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"malformed parameter document: {exc}") from exc


def save_params(params: NetworkParams, path) -> None:
    """Write parameters as JSON; floats use shortest round-trip decimals."""
    with open(path, "w") as fh:
        json.dump(params_to_dict(params), fh)


def load_params(path, expected_channels: int | None = None) -> NetworkParams:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"cannot parse parameter file {path}: {exc}") from exc
    params = params_from_dict(doc)
    if expected_channels is not None and params.n_channels != expected_channels:
        raise ValueError(
            f"network output width {params.layer_sizes[-1]} does not match "
            f"2 x {expected_channels} system channels"
        )
    return params


def apply_update(params: NetworkParams, delta_w, delta_b) -> NetworkParams:
    """Return a copy with weights+delta_w, biases+delta_b."""
    return replace(
        params,
        weights=tuple(w + dw for w, dw in zip(params.weights, delta_w)),
        biases=tuple(b + db for b, db in zip(params.biases, delta_b)),
    )
