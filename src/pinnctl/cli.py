"""Command-line surface: synthesize, sample, sweep, fft, trajectory.

Exit codes: 0 success/converged, 1 error, 2 ran to the iteration cap without
reaching the fidelity threshold.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields, replace as dc_replace
from pathlib import Path

import numpy as np

from . import analysis, fileio
from .checks import integer, read_json
from .grape import GrapeConfig, grape_train
from .network import PulseTable, init_params, load_params, sample_pulse, save_params
from .objectives import _shape_window_checkpoints
from .optimizer import (
    OptimizerConfig, RunRecord, fit_network_to_table, multi_start, save_run_record,
)
from .propagation import DEFAULT_N_FINE, lindblad_substeps
from .spins import load_system, noise_operators
from .targets import named_target, singlet_triplet_basis, thermal_deviation

DEFAULT_AMP_SCALE = 2.0 * np.pi * 1000.0  # rad/s

RUN_PRESETS = {
    "defm-cnot": {
        "system": "defm",
        "objective": {"target": "cnot:0,1"},
        "network": {
            "layer_sizes": [1, 40, 40, 4],
            # output scale well below the 2*pi*1000 hardware bound: the gate
            # only needs ~2*pi*200 RMS, and a tanh output layer conditions far
            # better when its active range matches the needed amplitudes
            "amp_scale_rad_s": 2.0 * np.pi * 500.0,
            # spread the first-layer tanh kinks across the window so the
            # trained pulse carries sub-millisecond structure (visible as the
            # under-discretization blow-up below 2^5 segments)
            "input_gain": 8,
            "duration_s": 0.020,
        },
        "optimizer": {
            "learning_rate": 3e-3,
            "f_threshold": 0.99,
            "max_iters": 20000,
            "n_fine": 256,
        },
        "n_starts": 3,
    },
    "tcp-lls": {
        "system": "tcp",
        # shape_weight steers the transfer route through coherences rather
        # than mid-sequence populations (the published trajectory shape)
        "objective": {"target": "lls", "shape_weight": 1.0},
        "network": {
            "layer_sizes": [1, 60, 60, 60, 2],
            "amp_scale_rad_s": 2.0 * np.pi * 60.0,
            "duration_s": 0.150,
        },
        # from a random start the shaped objective either stalls or locks
        # into the wrong (population-storage) route; a segment-wise solve of
        # the same objective finds the coherence route immediately, so the
        # network is fitted to that solution and only fine-tuned here
        "warm_start": {
            "n_segments": 64,
            "amp_limit_rad_s": 2.0 * np.pi * 55.0,
            "learning_rate": 8.0,
            "shape_weight": 3.0,
            "f_threshold": 0.995,
            "max_iters": 8000,
        },
        "optimizer": {
            "learning_rate": 1e-3,
            "f_threshold": 0.99,
            "max_iters": 20000,
            "n_fine": 256,
            "seed": 2,
        },
        "n_starts": 1,
    },
}
# the noise analysis's retrain of a trained tcp-lls network, by default the one that
# `--preset tcp-lls --out runs/lls` writes: a fixed budget (f_threshold 1.0, so exit code 2)
RUN_PRESETS["tcp-lls-noisy"] = {
    "system": "tcp",
    "objective": {"target": "lls"},
    "network": "runs/lls/params.json",
    "noise": {"kind": "local", "gamma": 0.02},
    "optimizer": {"learning_rate": 3e-3, "f_threshold": 1.0, "max_iters": 400,
                  "n_fine": 512, "substep_tol": 0.05},
}


# The keys _build_run reads, per block of a run configuration (None: the top level).
RUN_CONFIG_KEYS = {
    None: {"system", "objective", "network", "optimizer", "warm_start", "noise", "n_starts"},
    "objective": {"target", "shape_weight"},
    "network": {"layer_sizes", "amp_scale_rad_s", "input_gain", "duration_s"},
    "optimizer": {f.name for f in fields(OptimizerConfig)},
    "warm_start": {"n_segments", "amp_limit_rad_s", "learning_rate", "shape_weight",
                   "f_threshold", "max_iters"},
    "noise": {"kind", "gamma"},
}


class ConfigError(ValueError):
    pass


def _load_run_config(args) -> dict:
    if args.preset:
        cfg = json.loads(json.dumps(RUN_PRESETS[args.preset]))
    elif args.config:
        cfg = read_json(args.config, "run configuration")
    else:
        raise ConfigError("either --config or --preset is required")
    if not isinstance(cfg, dict) or not isinstance(cfg.get("optimizer", {}), dict):
        raise ConfigError("invalid run configuration: expected a JSON object whose optimizer "
                          "entry, if any, is an object")
    if args.seed is not None:
        cfg.setdefault("optimizer", {})["seed"] = args.seed
    return cfg


def _build_run(cfg: dict):
    """Validate a run configuration and return the run as a call with no arguments.

    Every ConfigError is raised here, before any training starts: a key outside
    RUN_CONFIG_KEYS, or a present block ({} included) that is not an object or
    lacks a required key.  The run makes one multi_start call and returns
    (record, GRAPE run record or None), with `cfg` in the record's context.
    """
    try:
        if not isinstance(cfg, dict):
            raise TypeError("expected a JSON object")
        for block, known in RUN_CONFIG_KEYS.items():
            entries = cfg if block is None else cfg.get(block)
            if isinstance(entries, dict) and not entries.keys() <= known:
                unknown = min(entries.keys() - known)
                raise ValueError(f"unknown {block or 'top-level'} key {unknown!r}")
        system = load_system(cfg["system"])
        # each block with its defaults; a block that is not an object is a TypeError
        obj_cfg = {"shape_weight": 0.0, **cfg["objective"]}
        objective = named_target(obj_cfg["target"], shape_weight=obj_cfg["shape_weight"])
        objective.check_dimension(system.dimension)
        opt = OptimizerConfig(**cfg.get("optimizer", {}))
        n_starts = integer("n_starts", cfg.get("n_starts", 1), 1)
        given = isinstance(cfg["network"], str)  # a parameter file, named as a system file is
        if given:
            params0 = load_params(cfg["network"], expected_channels=system.n_channels)
        else:
            net = {"amp_scale_rad_s": DEFAULT_AMP_SCALE, "input_gain": 1.0, **cfg["network"]}
            init = functools.partial(init_params, net["layer_sizes"], net["amp_scale_rad_s"],
                                     net["duration_s"], input_gain=net["input_gain"])
            params0 = init(opt.seed)  # checks the network settings before --out exists
            params0.check_channels(system.n_channels)
    except (KeyError, OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid run configuration: {exc}") from exc
    except MemoryError as exc:  # numpy's message names the size asked for
        raise ConfigError(
            f"invalid run configuration: network too large to allocate: {exc}") from exc
    amp_scale, duration = params0.amp_scale, params0.time_scale
    if "noise" in cfg:
        try:
            noise = noise_operators(system, **cfg["noise"])
            objective = dc_replace(objective, noise=noise)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid noise configuration: {exc}") from exc
    warm = "warm_start" in cfg
    if given and warm:
        raise ConfigError("a run from a given network takes no warm_start block")
    if (given or warm) and n_starts > 1:
        raise ConfigError("a given or warm start trains one start; n_starts must be 1")
    if warm:
        try:
            ws = {"n_segments": 64, "amp_limit_rad_s": 0.9 * amp_scale, "learning_rate": 10.0,
                  "shape_weight": obj_cfg["shape_weight"],
                  "f_threshold": opt.f_threshold, "max_iters": 8000, **cfg["warm_start"]}
            ws_objective = named_target(obj_cfg["target"], shape_weight=ws["shape_weight"])
            grape_cfg = GrapeConfig(
                n_segments=ws["n_segments"],
                amp_limit=ws["amp_limit_rad_s"],
                learning_rate=ws["learning_rate"],
                f_threshold=ws["f_threshold"],
                max_iters=ws["max_iters"],
                seed=opt.seed,
                log_every=500,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid warm_start configuration: {exc}") from exc
        # settings the warm-start path cannot honour
        if grape_cfg.amp_limit >= amp_scale:
            raise ConfigError(f"warm_start.amp_limit_rad_s {grape_cfg.amp_limit:g} must be below "
                              f"network.amp_scale_rad_s {amp_scale:g}")
        if net["input_gain"] != 1.0:
            raise ConfigError("a warm_start run does not apply network.input_gain; leave it at 1")
    try:  # the grids training runs on: each shaped stage's window, the noisy gradient's substeps
        if objective.shape_weight:
            _shape_window_checkpoints(opt.n_fine)
        if warm and ws_objective.shape_weight:
            _shape_window_checkpoints(grape_cfg.n_segments)
        if objective.dissipative:
            grid = PulseTable(duration, np.broadcast_to(0.0, (opt.n_fine, system.n_channels, 2)))
            lindblad_substeps(system, grid, objective.noise, opt.substep_tol, amp_scale)
    except (RuntimeError, ValueError) as exc:
        raise ConfigError(f"invalid run configuration: {exc}") from exc

    def run() -> tuple[RunRecord, RunRecord | None]:
        grape_record, first = None, params0
        if warm:  # solve segment-wise, then regress params0 (input gain 1) onto that pulse
            table, grape_record = grape_train(system, ws_objective, duration, grape_cfg)
            if not grape_record.converged:
                print("warm start did not converge; continuing anyway", file=sys.stderr)
            first = fit_network_to_table(params0, table)
        # the first seed trains that start; later seeds, in a fresh run only, are drawn
        record = multi_start(lambda seed: first if seed == opt.seed else init(seed),
                             system, objective, opt, n_starts)
        record.context["config"] = cfg
        return record, grape_record

    return run


def synthesize(cfg: dict) -> tuple[RunRecord, RunRecord | None]:
    """Run a training recipe: a RUN_PRESETS entry, or the same schema read from JSON.

    The whole configuration is validated first (ConfigError).  A warm_start block solves
    the objective segment-wise and fits the network to that pulse; then one multi_start
    call trains seeds seed..seed+n_starts-1 (n_starts defaults to 1), the first from the
    named parameter file, the fit or the network block's initial draw, later ones drawn
    by its initialiser, stops at the first that converges and names the winning seed in
    the record's context.  A warm start that misses its threshold is reported on stderr
    before the fine-tune starts.  Returns the run record, its context holding `cfg`, and
    the warm start's GRAPE record or None.
    """
    return _build_run(cfg)()


def cmd_synthesize(args) -> int:
    run = _build_run(_load_run_config(args))
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)  # before training, so a bad --out costs no run
    record, _ = run()
    save_run_record(record, out / "run_record.json")
    fileio.write_fidelity_trace_csv(record.iterations, out / "fidelity_trace.csv")
    save_params(record.final_params, out / "params.json")
    print(
        f"final fidelity {record.final_fidelity:.6f} after {record.n_iters} iterations "
        f"({'converged' if record.converged else 'not converged'})"
    )
    return 0 if record.converged else 2


def cmd_sample(args) -> int:
    params = load_params(args.params)
    table = sample_pulse(params, args.segments)
    if args.format == "csv":
        fileio.write_pulse_csv(table, args.out)
    else:
        fileio.write_shaped_pulse(table, params.amp_scale, args.out)
    print(f"wrote {args.segments} segments to {args.out}")
    return 0


def _floats(option: str, text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{option} {text!r} is not a comma-separated list of numbers") from None


def _parse_segments(text: str | None, log2: bool) -> list[int]:
    """--segments as segment counts; absent, the doubling grid 1, 2, 4, ..., 32768."""
    if text is None:
        text, log2 = "1..32768", True
    elif log2 and ".." not in text:
        raise ConfigError(f"--log2 applies to a range LO..HI, not to the list {text!r}")
    try:
        if ".." not in text:
            return [int(x) for x in text.split(",")]
        lo, hi = (int(x) for x in text.split("..", 1))
    except ValueError:
        raise ConfigError(f"--segments {text!r} is not a comma-separated list of integers "
                          "or a range LO..HI") from None
    if lo < 1 or lo > hi:
        raise ValueError(f"segment range {text!r} needs 1 <= lo <= hi")
    if log2:
        vals = []
        n = lo
        while n <= hi:
            vals.append(n)
            n *= 2
        return vals
    return list(range(lo, hi + 1))


def _gamma_override(text: str) -> tuple[float, str]:
    """One --params-for-gamma value, GAMMA=PATH, as (gamma, path)."""
    g_txt, eq, path = text.partition("=")
    try:
        if eq:
            return float(g_txt), path
    except ValueError:
        pass
    raise ConfigError(f"--params-for-gamma {text!r} is not of the form GAMMA=PATH with a numeric GAMMA")


def _noise_model(system, args):
    """The --noise model at --gamma; none when gamma is absent or 0.  Any other
    gamma builds the model, whose check rejects negative, infinite and NaN rates."""
    if args.gamma is None or args.gamma == 0:
        return None
    return noise_operators(system, args.noise, args.gamma)


def cmd_sweep(args) -> int:
    system = load_system(args.system)
    objective = named_target(args.target)
    params = load_params(args.params, expected_channels=system.n_channels)
    if args.kind == "discretization":
        counts = _parse_segments(args.segments, args.log2)
        sweep = analysis.discretization_sweep(params, system, objective, counts)
    elif args.kind == "noise":
        gammas = _floats("--gammas", args.gammas)
        by_gamma = {g: params for g in gammas}
        for override in args.params_for_gamma or []:
            g, path = _gamma_override(override)
            if g not in by_gamma:
                raise ConfigError(f"--params-for-gamma {override} is not a swept gamma ({args.gammas})")
            by_gamma[g] = load_params(path, expected_channels=system.n_channels)
        sweep = analysis.noise_sweep(by_gamma, system, objective, gammas, args.noise)
    else:
        devs = _floats("--deviations", args.deviations)
        sweep = analysis.amplitude_error_sweep(
            params, system, objective, devs, noise=_noise_model(system, args)
        )
    fileio.write_sweep_csv(sweep, args.out)
    print(f"wrote {len(sweep.axis_values)} points to {args.out}")
    return 0


def cmd_fft(args) -> int:
    table = fileio.read_pulse_csv(args.pulse)
    spec = analysis.pulse_spectrum(table)
    fileio.write_spectrum_csv(spec, args.out)
    widths = ", ".join(f"{w:.1f}" for w in spec.energy_bandwidth_99)
    print(f"99% energy bandwidth per channel: {widths} Hz")
    return 0


def cmd_trajectory(args) -> int:
    system = load_system(args.system)
    params = load_params(args.params, expected_channels=system.n_channels)
    if args.basis != "singlet-triplet":
        raise ConfigError(f"unknown basis {args.basis!r}")
    basis = singlet_triplet_basis()
    labels = ["T_plus", "T_zero", "S_zero", "T_minus"]
    integer("samples", args.samples, 1)
    noise = _noise_model(system, args)
    times, values = analysis.basis_trajectory(
        params, system, thermal_deviation(), basis, n_samples=args.samples, noise=noise,
        n_fine=DEFAULT_N_FINE,
    )
    fileio.write_trajectory_csv(times, values, labels, args.out, {
        "basis": args.basis, "samples": len(times), "segments": DEFAULT_N_FINE,
        "gamma": 0.0 if noise is None else noise.gamma,
        "noise_kind": None if noise is None else noise.kind,
    })
    print(f"wrote {len(times)} samples to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinnctl", description="Pulse synthesis and analysis for small spin systems"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="train a control network")
    p_syn.add_argument("--config", help="run configuration JSON")
    p_syn.add_argument("--preset", choices=sorted(RUN_PRESETS), help="built-in run preset")
    p_syn.add_argument("--out", help="output directory")
    p_syn.add_argument("--seed", type=int, default=None)
    p_syn.set_defaults(func=cmd_synthesize)

    p_samp = sub.add_parser("sample", help="discretize a trained network to a pulse file")
    p_samp.add_argument("params", help="network parameter JSON")
    p_samp.add_argument("--segments", type=int, required=True)
    p_samp.add_argument("--format", choices=["csv", "shaped"], default="csv")
    p_samp.add_argument("--out", required=True)
    p_samp.set_defaults(func=cmd_sample)

    p_sw = sub.add_parser("sweep", help="fidelity sweeps")
    # one parser per kind, so a flag of another kind is an argparse error; no
    # abbreviations, or noise's --gammas would take amperr's --gamma
    kinds = p_sw.add_subparsers(dest="kind", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--params", required=True)
    common.add_argument("--system", default="defm")
    common.add_argument("--target", default="cnot:0,1")
    common.add_argument("--out", required=True)
    noise_kind = argparse.ArgumentParser(add_help=False)
    noise_kind.add_argument("--noise", choices=["local", "global"], default="local")

    p_disc = kinds.add_parser("discretization", parents=[common], allow_abbrev=False,
                              help="fidelity against segment count")
    p_disc.add_argument("--segments", help="counts N1,N2,... or a range LO..HI "
                        "(default: 1, 2, 4, ..., 32768)")
    p_disc.add_argument("--log2", action="store_true")

    p_noise = kinds.add_parser("noise", parents=[common, noise_kind], allow_abbrev=False,
                               help="fidelity against collapse rate")
    p_noise.add_argument("--gammas", default="0.0")
    p_noise.add_argument(
        "--params-for-gamma", action="append", metavar="GAMMA=PATH",
        help="per-gamma parameter file for retrained sweeps",
    )

    p_amp = kinds.add_parser("amperr", parents=[common, noise_kind], allow_abbrev=False,
                             help="fidelity against control-amplitude error")
    p_amp.add_argument("--deviations", default="0.0")
    p_amp.add_argument("--gamma", type=float, default=None)
    p_sw.set_defaults(func=cmd_sweep)

    p_fft = sub.add_parser("fft", help="spectrum of a pulse CSV")
    p_fft.add_argument("pulse")
    p_fft.add_argument("--out", required=True)
    p_fft.set_defaults(func=cmd_fft)

    p_traj = sub.add_parser("trajectory", parents=[noise_kind],
                            help="basis-state expectation trajectory")
    p_traj.add_argument("--params", required=True)
    p_traj.add_argument("--system", default="tcp")
    p_traj.add_argument("--basis", default="singlet-triplet")
    p_traj.add_argument("--samples", type=int, default=200)
    p_traj.add_argument("--gamma", type=float, default=None)
    p_traj.add_argument("--out", required=True)
    p_traj.set_defaults(func=cmd_trajectory)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # a numpy fault is one error line, not a RuntimeWarning; underflow to zero is none
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (ConfigError, ValueError, KeyError, OSError, RuntimeError, FloatingPointError,
            MemoryError) as exc:  # numpy's MemoryError names the size, Python's nothing
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
