"""Feed-forward ansatz mapping time to control amplitudes.

The network takes the normalized time t/T as its single input, applies tanh
in every hidden layer, and emits amp_scale * tanh(.) at the output so every
amplitude stays inside [-amp_scale, +amp_scale].  ``sample_pulse`` is the one
sampler of a network onto a segment grid, for forward analyses and training; the
table fit evaluates its own dense grid through ``forward_batch``.  A forward
analysis samples without a tape, in row blocks, so its memory is the table plus
one block's layers; training keeps every row's layers for backprop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .checks import REALS, integer, read_json, real
from .workspace import _buffer, _workspace

# Rows per block of a forward pass without a tape (256 to 4096 time alike): sampling a
# network onto N segments then holds one block's layers besides its (N, 2M) table.
_ROWS = 1024


@dataclass(frozen=True, eq=False)
class NetworkParams:
    """Weights and biases of the ansatz; the entire encoded pulse."""

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]  # weights[l] has shape (n_l, n_{l+1})
    biases: tuple[np.ndarray, ...]  # biases[l] has shape (n_{l+1},)
    amp_scale: float  # rad/s
    time_scale: float  # seconds (= total pulse duration T)
    metadata: dict = field(default_factory=dict)

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
        for name in ("amp_scale", "time_scale"):
            object.__setattr__(self, name, real(name, getattr(self, name), "positive and finite"))

    @property
    def n_channels(self) -> int:
        return self.layer_sizes[-1] // 2

    @staticmethod
    def flatten(weights, biases) -> np.ndarray:
        """Arrays shaped like the weights and biases (the parameters or their
        gradients) as one fresh vector: every weight, then every bias, each row-major."""
        return np.concatenate([*weights, *biases], axis=None)

    def vector(self) -> np.ndarray:
        """The parameters as one fresh vector, laid out by ``flatten``."""
        return self.flatten(self.weights, self.biases)

    def with_vector(self, x: np.ndarray) -> "NetworkParams":
        """These params with each weight and bias a view of x, laid out as ``vector()``."""
        arrays, start = [], 0
        for a in (*self.weights, *self.biases):
            arrays.append(x[start:start + a.size].reshape(a.shape))
            start += a.size
        n = len(self.weights)
        return replace(self, weights=tuple(arrays[:n]), biases=tuple(arrays[n:]))

    def check_channels(self, n_channels: int) -> None:
        """Raise ValueError unless the output layer drives n_channels (x, y) pairs."""
        if self.n_channels != n_channels:
            raise ValueError(f"network output width {self.layer_sizes[-1]} does not match "
                             f"2 x {n_channels} system channels")


@dataclass(frozen=True, eq=False)
class PulseTable:
    """A concrete sampling of a control profile: n_segments x channels x (x, y)."""

    duration: float
    samples: np.ndarray  # (n_segments, channels, 2), rad/s, sampled at segment midpoints

    def __post_init__(self):
        if self.samples.ndim != 3 or self.samples.shape[2] != 2:
            raise ValueError("samples must have shape (n_segments, channels, 2)")
        if self.n_segments < 1:
            raise ValueError("a pulse table needs at least one segment")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("pulse table samples must be finite")
        real("duration", self.duration, "positive and finite")

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
        peak = float(np.max(np.abs(self.samples), initial=0.0))
        if not np.isfinite(peak * float(factor)):
            raise ValueError(f"amplitude factor {factor:g} takes the largest amplitude "
                             f"{peak:.3g} rad/s past the float range")
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
    sizes = tuple(integer("layer_sizes", s, 1) for s in layer_sizes)
    input_gain = real("input_gain", input_gain, "positive and finite")
    rng = np.random.default_rng(seed)
    params = NetworkParams(
        layer_sizes=sizes,
        weights=tuple(rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, n_out))
                      for n_in, n_out in zip(sizes[:-1], sizes[1:])),
        biases=tuple(np.zeros(n) for n in sizes[1:]),
        amp_scale=amp_scale,
        time_scale=time_scale,
        metadata={"seed": seed},
    )
    if input_gain != 1.0:  # in place, now that the layer sizes are checked
        w0, b0 = params.weights[0], params.biases[0]
        w0 *= input_gain
        b0[:] = np.random.default_rng(seed + 999).uniform(-input_gain, input_gain, size=sizes[1]) * 0.5
        params.metadata["input_gain"] = input_gain
    return params


def forward_batch(params: NetworkParams, t, tape: list | None = None) -> np.ndarray:
    """Evaluate the control amplitudes at times t (shape (N,)) -> fresh (N, 2M) rad/s.

    Given a list as ``tape``, appends the input column and every tanh output
    (hidden layers, then the output layer before amp_scale), which is
    sufficient for an exact reverse pass since d tanh = 1 - tanh^2.  Each layer
    is formed in place in one buffer (in a workspace, the layer's), so a tape
    filled there lasts until the next forward pass.  Without a tape the rows go
    in blocks of _ROWS through one workspace of their own, so the layers take
    O(block x width) memory; the rows are the taped pass's bits, except that past
    a few thousand rows that pass's GEMMs can take other BLAS kernels.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    # written so that NaN, which compares false, fails the check
    if not np.all((t >= -1e-12) & (t <= params.time_scale * (1 + 1e-12))):
        raise ValueError("time outside the control window [0, T]")
    if tape is not None:
        return params.amp_scale * _layers(params, t, tape)
    out = np.empty((len(t), params.layer_sizes[-1]))
    # a lone last row joins the block before it: a one-row product runs as a GEMV, with other bits
    stops = [*range(_ROWS, len(t) - 1, _ROWS), len(t)]
    with _workspace():
        for lo, hi in zip([0, *stops], stops):
            np.multiply(_layers(params, t[lo:hi], []), params.amp_scale, out=out[lo:hi])
    return out


def _layers(params: NetworkParams, t: np.ndarray, tape: list) -> np.ndarray:
    """The output layer's tanh at times t, appending the input column and every tanh output to tape."""
    a = (t / params.time_scale)[:, None]
    tape.append(a)
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = _buffer(f"layer{l}", (len(t), len(b)))
        # one time input: the first layer is a broadcast product, bit-equal to a k=1 matmul
        a = np.tanh(np.add((np.multiply if l == 0 else np.matmul)(a, w, out=z), b, out=z), out=z)
        tape.append(a)
    return a


def backprop_pulse(
    params: NetworkParams, upstream: np.ndarray, tape: list[np.ndarray]
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Exact gradient of sum_n upstream[n] . u(t_n) w.r.t. every weight and bias.

    tape is the list that ``forward_batch(params, t, tape)`` filled; upstream
    has shape (N, 2M) matching its times t.  Returns (grad_w, grad_b) with the
    same shapes as params.weights / params.biases, as fresh arrays.
    """
    upstream = np.atleast_2d(np.asarray(upstream, dtype=float))
    if upstream.shape != tape[-1].shape:
        raise ValueError(f"upstream shape {upstream.shape} does not match {tape[-1].shape}")
    n_layers = len(params.weights)
    grad_w = [None] * n_layers
    grad_b = [None] * n_layers
    keys = ["backprop_a", "backprop_b"]  # delta and its 1 - a^2 factor take turns in two buffers
    # output layer: u = amp_scale * tanh(z)
    delta = np.multiply(upstream, params.amp_scale, out=_buffer(keys[0], upstream.shape))
    for l in range(n_layers - 1, -1, -1):
        # this layer's tanh output a: delta * (1.0 - a**2), the factor formed in the other buffer
        factor = np.square(tape[l + 1], out=_buffer(keys[1], delta.shape))
        delta = np.multiply(delta, np.subtract(1.0, factor, out=factor), out=delta)
        grad_w[l] = tape[l].T @ delta
        grad_b[l] = delta.sum(axis=0)
        if l > 0:  # the next delta goes where the factor was
            delta = np.matmul(delta, params.weights[l].T, out=_buffer(keys[1], tape[l].shape))
            keys.reverse()
    return tuple(grad_w), tuple(grad_b)


def segment_times(duration: float, n_segments: int) -> np.ndarray:
    """Midpoints of n_segments equal segments of [0, duration]."""
    return (np.arange(n_segments) + 0.5) * (duration / n_segments)


def sample_pulse(params: NetworkParams, n_segments: int, tape: list | None = None) -> PulseTable:
    """Discretize the network onto n_segments piecewise-constant segments.

    A list given as ``tape`` is filled by the one ``forward_batch`` pass, for
    ``backprop_pulse`` of a gradient w.r.t. the table's flat amplitudes."""
    integer("n_segments", n_segments, 1)
    u = forward_batch(params, segment_times(params.time_scale, n_segments), tape)
    return PulseTable(params.time_scale, u.reshape(n_segments, params.n_channels, 2))


def params_to_dict(params: NetworkParams) -> dict:
    return {
        "layer_sizes": list(params.layer_sizes),
        "weights": [w.flatten().tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "amp_scale": params.amp_scale,
        "time_scale": params.time_scale,
        "metadata": params.metadata,
    }


def _numbers(name: str, values) -> np.ndarray:
    """A (nested) JSON array as floats; ValueError on an element that is not a number."""
    items = np.asarray(values, dtype=object).ravel()
    # the few element types, then the first element of a wrong one
    wrong = {k for k in set(map(type, items)) if k is bool or not issubclass(k, REALS)}
    if wrong:
        bad = next(v for v in items if type(v) in wrong)
        raise ValueError(f"{name} must hold numbers only, got {bad!r}")
    return np.asarray(values, dtype=float)


def _weights(values, n_in: int, n_out: int) -> np.ndarray:
    """One layer's weights, as params_to_dict writes them (a flat row-major list)
    or nested exactly (n_in, n_out); a transposed nesting is an error, not a reshape."""
    w = _numbers("weights", values)
    if w.shape not in ((n_in * n_out,), (n_in, n_out)):
        raise ValueError(f"weights of a {n_in} x {n_out} layer must be a flat list of "
                         f"{n_in * n_out} numbers or nested ({n_in}, {n_out}), got shape {w.shape}")
    return w.reshape(n_in, n_out)


def params_from_dict(doc: dict) -> NetworkParams:
    try:
        sizes = tuple(integer("layer_sizes", s, 1) for s in doc["layer_sizes"])
        weights = tuple(_weights(doc["weights"][l], sizes[l], sizes[l + 1])
                        for l in range(len(sizes) - 1))
        biases = tuple(_numbers("biases", b) for b in doc["biases"])
        if not all(np.all(np.isfinite(a)) for a in weights + biases):
            raise ValueError("non-finite weight or bias")
        return NetworkParams(
            layer_sizes=sizes,
            weights=weights,
            biases=biases,
            amp_scale=doc["amp_scale"],
            time_scale=doc["time_scale"],
            metadata=dict(doc.get("metadata", {})),
        )
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed parameter document: {exc}") from exc


def save_params(params: NetworkParams, path) -> None:
    """Write parameters as JSON; floats use shortest round-trip decimals."""
    with open(path, "w") as fh:
        json.dump(params_to_dict(params), fh)


def load_params(path, expected_channels: int | None = None) -> NetworkParams:
    params = params_from_dict(read_json(path, "parameter"))
    if expected_channels is not None:
        params.check_channels(expected_channels)
    return params


def apply_update(params: NetworkParams, delta_w, delta_b) -> NetworkParams:
    """Return a copy with weights+delta_w, biases+delta_b."""
    return params.with_vector(params.vector() + NetworkParams.flatten(delta_w, delta_b))
