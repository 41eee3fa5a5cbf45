"""Adam ascent: the one loop (``ascend``), and network training, resume,
multi-start and the least-squares table fit built on it.  The GRAPE baseline
(grape.py) runs the same loop on pulse table entries.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .network import (
    NetworkParams,
    PulseTable,
    backprop_pulse,
    forward_batch,
    init_params,
    params_from_dict,
    params_to_dict,
    segment_times,
)
from .objectives import ObjectiveSpec, loss_and_gradient
from .propagation import DEFAULT_N_FINE, DEFAULT_SUBSTEP_TOL
from .spins import SpinSystem

DIVERGENCE_WINDOW = 100


class DivergenceError(RuntimeError):
    pass


def _require_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class AscentConfig:
    """Settings of one Adam ascent: step size, moments, stopping and logging."""

    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    f_threshold: float = 0.99
    max_iters: int = 20000
    seed: int = 0
    log_every: int = 1

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate!r}")
        if not 0 < self.f_threshold <= 1:
            raise ValueError(f"f_threshold must be in (0, 1], got {self.f_threshold!r}")
        if not self.max_iters >= 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters!r}")
        _require_count("log_every", self.log_every)


@dataclass(frozen=True)
class OptimizerConfig(AscentConfig):
    """Network training: the ascent settings plus the propagation grid and substep tolerance."""

    n_fine: int = DEFAULT_N_FINE
    substep_tol: float = DEFAULT_SUBSTEP_TOL

    def __post_init__(self):
        super().__post_init__()
        _require_count("n_fine", self.n_fine)
        if not self.substep_tol > 0:
            raise ValueError(f"substep_tol must be positive, got {self.substep_tol!r}")


class AdamState:
    """First/second moment accumulators over a list of arrays."""

    def __init__(self, shapes_like: list[np.ndarray]):
        self.step = 0
        self.m = [np.zeros_like(a, dtype=float) for a in shapes_like]
        self.v = [np.zeros_like(a, dtype=float) for a in shapes_like]

    def update(self, grads: list[np.ndarray], lr: float, b1: float, b2: float, eps: float):
        """Return the parameter increments for one descent step on `grads`."""
        self.step += 1
        t = self.step
        out = []
        for i, g in enumerate(grads):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1**t)
            v_hat = self.v[i] / (1 - b2**t)
            out.append(-lr * m_hat / (np.sqrt(v_hat) + eps))
        return out

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "m": [a.flatten().tolist() for a in self.m],
            "v": [a.flatten().tolist() for a in self.v],
        }

    @classmethod
    def from_dict(cls, doc: dict, shapes_like: list[np.ndarray]) -> "AdamState":
        state = cls(shapes_like)
        state.step = int(doc["step"])
        state.m = [
            np.asarray(flat, dtype=float).reshape(ref.shape)
            for flat, ref in zip(doc["m"], shapes_like)
        ]
        state.v = [
            np.asarray(flat, dtype=float).reshape(ref.shape)
            for flat, ref in zip(doc["v"], shapes_like)
        ]
        return state


@dataclass
class RunRecord:
    """Optimization trajectory plus everything needed to resume it."""

    iterations: list[tuple[int, float, float]]  # (iter, fidelity, grad 2-norm)
    final_params: NetworkParams
    converged: bool
    config: OptimizerConfig
    adam_state: dict | None = None
    wall_time_s: float = 0.0
    context: dict = field(default_factory=dict)

    @property
    def final_fidelity(self) -> float:
        return self.iterations[-1][1]

    @property
    def n_iters(self) -> int:
        return self.iterations[-1][0]


def _grad_norm(*groups) -> float:
    """2-norm of gradient arrays, the squares summed group by group."""
    return float(np.sqrt(sum(sum(float(np.sum(g * g)) for g in group) for group in groups)))


def ascend(score, arrays: list[np.ndarray], config: AscentConfig, *, project=None,
           state: AdamState | None = None, start_iter: int = 0, norm=_grad_norm):
    """Maximise score(arrays) -> (value, gradients) with Adam until the value
    reaches config.f_threshold or after config.max_iters updates.

    ``project`` maps the arrays after every update; ``state`` and
    ``start_iter`` continue an earlier ascent.  Returns the final arrays, the
    (iteration, value, norm(gradients)) rows, the converged flag and the state.
    Raises FloatingPointError on a non-finite value, and DivergenceError after
    DIVERGENCE_WINDOW consecutive updates below the initial value - 0.5.
    """
    state = state if state is not None else AdamState(arrays)
    value, grads = score(arrays)
    initial = value
    rows = [(start_iter, value, norm(grads))]
    converged = value >= config.f_threshold
    below = 0
    it = start_iter
    while not converged and it < start_iter + config.max_iters:
        it += 1
        deltas = state.update([-g for g in grads], config.learning_rate,  # descend on -value
                              config.adam_beta1, config.adam_beta2, config.adam_eps)
        arrays = [a + d for a, d in zip(arrays, deltas)]
        if project is not None:
            arrays = project(arrays)
        value, grads = score(arrays)
        if not math.isfinite(value):
            raise FloatingPointError(f"non-finite score at iteration {it}")
        converged = value >= config.f_threshold
        if converged or it % config.log_every == 0:
            rows.append((it, value, norm(grads)))
        if value < initial - 0.5:
            below += 1
            if below >= DIVERGENCE_WINDOW:
                raise DivergenceError(f"score stuck below initial-0.5 for {DIVERGENCE_WINDOW} "
                                      f"iterations (iteration {it}, score {value:.6f})")
        else:
            below = 0
    if rows[-1][0] != it:
        rows.append((it, value, norm(grads)))
    return arrays, rows, converged, state


def _with_arrays(params: NetworkParams, arrays: list[np.ndarray]) -> NetworkParams:
    nw = len(params.weights)
    return replace(params, weights=tuple(arrays[:nw]), biases=tuple(arrays[nw:]))


def train(
    params0: NetworkParams,
    system: SpinSystem,
    objective: ObjectiveSpec,
    config: OptimizerConfig,
    *,
    adam_state: AdamState | None = None,
    start_iter: int = 0,
) -> RunRecord:
    """Ascend fidelity with Adam until f_threshold or max_iters."""
    t0 = time.monotonic()
    nw = len(params0.weights)

    def score(arrays):
        params = _with_arrays(params0, arrays)
        fid, (gw, gb) = loss_and_gradient(params, system, objective, config.n_fine,
                                          substep_tol=config.substep_tol)
        return fid, [*gw, *gb]

    arrays, rows, converged, state = ascend(
        score, [*params0.weights, *params0.biases], config, state=adam_state, start_iter=start_iter,
        norm=lambda grads: _grad_norm(grads[:nw], grads[nw:]),
    )
    return RunRecord(
        iterations=rows,
        final_params=_with_arrays(params0, arrays),
        converged=converged,
        config=config,
        adam_state=state.to_dict(),
        wall_time_s=time.monotonic() - t0,
    )


def resume(
    record: RunRecord,
    system: SpinSystem,
    objective: ObjectiveSpec,
    extra_iters: int,
) -> RunRecord:
    """Continue a run as if it had never stopped (same Adam moments and step count)."""
    if record.adam_state is None:
        raise ValueError("record is missing the Adam moment state; cannot resume")
    if extra_iters == 0 or record.converged:
        return record
    params = record.final_params
    arrays = list(params.weights) + list(params.biases)
    state = AdamState.from_dict(record.adam_state, arrays)
    cfg = replace(record.config, max_iters=extra_iters)
    cont = train(
        params, system, objective, cfg, adam_state=state, start_iter=record.n_iters
    )
    merged = record.iterations + [r for r in cont.iterations if r[0] > record.n_iters]
    return RunRecord(
        iterations=merged,
        final_params=cont.final_params,
        converged=cont.converged,
        config=record.config,
        adam_state=cont.adam_state,
        wall_time_s=record.wall_time_s + cont.wall_time_s,
        context=record.context,
    )


def fit_network_to_table(
    params0: NetworkParams,
    table: PulseTable,
    *,
    n_samples: int = 256,
    learning_rate: float = 1e-2,
    n_iters: int = 12000,
) -> NetworkParams:
    """Least-squares fit of the network to a piecewise-constant pulse.

    Minimizes the mean squared amplitude error against the table held as a
    staircase, sampled on a dense midpoint grid.  This is a supervised warm
    start: the physics never enters, so it is cheap, and the fitted network
    starts inside the basin of the table's transfer route.
    """
    if abs(params0.time_scale - table.duration) > 1e-12 * table.duration:
        raise ValueError("network time_scale and table duration differ")
    if params0.n_channels != table.n_channels:
        raise ValueError("network and table channel counts differ")
    t = segment_times(table.duration, n_samples)
    seg = np.minimum(
        (t / table.duration * table.n_segments).astype(int), table.n_segments - 1
    )
    target = table.flat_amplitudes()[seg]
    if np.any(np.abs(target) >= params0.amp_scale):
        raise ValueError("table amplitudes exceed the network amp_scale bound")

    def score(arrays):
        params = _with_arrays(params0, arrays)
        err = forward_batch(params, t) - target
        gw, gb = backprop_pulse(params, t, (-2.0 / err.size) * err)
        return -float(np.vdot(err, err)) / err.size, [*gw, *gb]

    # -MSE <= 0 never reaches a threshold in (0, 1]: exactly n_iters updates
    config = AscentConfig(learning_rate=learning_rate, f_threshold=1.0, max_iters=n_iters,
                          log_every=n_iters)
    arrays = ascend(score, [*params0.weights, *params0.biases], config)[0]
    return _with_arrays(params0, arrays)


def multi_start(
    system: SpinSystem,
    objective: ObjectiveSpec,
    layer_sizes,
    amp_scale: float,
    time_scale: float,
    config: OptimizerConfig,
    n_starts: int = 1,
    *,
    early_stop: bool = False,
    input_gain: float = 1.0,
) -> RunRecord:
    """Train from seeds seed..seed+n-1; best final fidelity wins, ties by lower seed.

    With early_stop the remaining starts are skipped once one run reaches the
    fidelity threshold.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    best: RunRecord | None = None
    for k in range(n_starts):
        seed = config.seed + k
        params0 = init_params(layer_sizes, amp_scale, time_scale, seed, input_gain=input_gain)
        record = train(params0, system, objective, replace(config, seed=seed))
        record.context["seed"] = seed
        if best is None or record.final_fidelity > best.final_fidelity:
            best = record
        if early_stop and record.converged:
            break
    return best


def run_record_to_dict(record: RunRecord) -> dict:
    return {
        "iterations": [[int(i), f, g] for i, f, g in record.iterations],
        "final_params": params_to_dict(record.final_params),
        "converged": record.converged,
        "config": asdict(record.config),
        "adam_state": record.adam_state,
        "context": record.context,
        "metadata": {"wall_time_s": record.wall_time_s},
    }


def run_record_from_dict(doc: dict) -> RunRecord:
    config = dict(doc["config"])
    # records written before the learning-rate schedule was removed carry it
    lr_decay = config.pop("lr_decay", "constant")
    if lr_decay != "constant":
        raise ValueError(f"run record uses lr_decay {lr_decay!r}; only 'constant' is supported")
    return RunRecord(
        iterations=[(int(i), float(f), float(g)) for i, f, g in doc["iterations"]],
        final_params=params_from_dict(doc["final_params"]),
        converged=bool(doc["converged"]),
        config=OptimizerConfig(**config),
        adam_state=doc.get("adam_state"),
        wall_time_s=float(doc.get("metadata", {}).get("wall_time_s", 0.0)),
        context=dict(doc.get("context", {})),
    )


def save_run_record(record: RunRecord, path) -> None:
    with open(path, "w") as fh:
        json.dump(run_record_to_dict(record), fh)


def load_run_record(path) -> RunRecord:
    with open(path) as fh:
        return run_record_from_dict(json.load(fh))
