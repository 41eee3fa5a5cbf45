"""The four seeded workloads.

Each workload builds its inputs from the seed in ``__init__`` (the set-up,
which ends with one untimed warm-up call), does its timed work in ``run``,
and checks its outputs in ``finish``.  Steps are timed by the step clock
through the markers a workload names, or by ``clock.step`` in ``run``.  Work in ``run`` goes through pinnctl
module attributes (``optimizer.train``, ``cli.main``), never through names
bound here, so the outside-in tracer sees every call.  Why each workload was
chosen is in perfbench/README.md.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import replace

import numpy as np

from pinnctl import (
    analysis, cli, grape, network, objectives, optimizer, propagation, spins, targets,
)

from common import BENCH, ROOT, SCRATCH
from common import WORKLOADS as DEFAULT_SEEDS

ARTIFACTS = ROOT / "tests" / "artifacts"
DEFM = spins.PRESETS["defm"]
TCP = spins.PRESETS["tcp"]
EVAL_N_FINE = 4096
GAMMAS = (0.0, 0.02, 0.04, 0.06, 0.07)
# Criterion 6 grid: 21 deviations in +-0.2.
DEFAULT_DEVIATIONS = tuple(round(float(d), 4) for d in np.arange(-0.2, 0.2001, 0.02))
# Forward-only sweep values may move by discretisation-level changes of the
# propagators, not more.
SWEEP_TOL = 1e-7
# Training fidelities after up to 400 Adam steps amplify round-off and
# discretisation-level changes; a wrong gradient moves them far more.
TRAIN_TOL = 1e-5


def _fidelity_of(result):
    return float(result[0])


def _load_references() -> dict:
    path = BENCH / "references.json"
    return json.loads(path.read_text()) if path.exists() else {}


class Checks:
    """Named pass/fail output checks; a failed check is counted, never raised."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, ok, detail="") -> None:
        self.items.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    def run(self, name: str, fn) -> None:
        """Add a check computed by fn() -> (ok, detail); an exception fails it."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashing check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.add(name, ok, detail)


class CnotGateTrain:
    """Acceptance CNOT recipe from a seeded initialisation, fixed step budget."""

    name = "cnot_gate_train"
    steps_per_second = 130  # sized so a run lasts about --seconds at the baseline

    def __init__(self, seed: int, seconds: float):
        self.objective = targets.cnot_objective()
        self.params0 = network.init_params((1, 40, 40, 4), 2 * np.pi * 500.0, 0.020, seed)
        self.config = optimizer.OptimizerConfig(
            learning_rate=3e-3, f_threshold=0.99, n_fine=256, log_every=1000, seed=seed,
            max_iters=max(1, int(self.steps_per_second * seconds)),
        )
        objectives.loss_and_gradient(self.params0, DEFM, self.objective, self.config.n_fine)
        self.markers = [("optimizer", "loss_and_gradient", "interval", _fidelity_of)]

    def run(self, clock):
        self.record = optimizer.train(self.params0, DEFM, self.objective, self.config)

    def finish(self, clock, checks: Checks) -> float:
        rec, obj = self.record, self.objective
        fids = clock.results["optimizer.loss_and_gradient"]
        f_eval = objectives.evaluate_fidelity(DEFM, rec.final_params, obj, n_fine=EVAL_N_FINE)
        checks.add("fidelities_in_range", all(np.isfinite(f) and -1e-12 <= f <= 1 + 1e-12 for f in fids))
        checks.add("record_matches_steps", rec.final_fidelity == fids[-1]
                   and (rec.converged or rec.n_iters == self.config.max_iters),
                   f"{rec.n_iters} iterations")
        checks.add("ascent_improved", fids[-1] > fids[0], f"{fids[0]:.6f} -> {fids[-1]:.6f}")

        def reevaluated():
            f = objectives.evaluate_fidelity(DEFM, rec.final_params, obj, n_fine=self.config.n_fine)
            return abs(f - rec.final_fidelity) < 1e-10, f"{f!r} vs {rec.final_fidelity!r}"

        def unitary():
            u = propagation.propagate_unitary(DEFM, rec.final_params, n_fine=EVAL_N_FINE).final
            err = np.linalg.norm(u @ u.conj().T - np.eye(4))
            return err < 1e-10, f"{err:.2e}"

        checks.run("fidelity_reevaluated", reevaluated)
        checks.run("unitarity", unitary)
        checks.run("gradient_matches_fd", lambda: _directional_fd(
            rec.final_params, DEFM, obj, self.config.n_fine, {}))
        if rec.converged:
            checks.add("criterion1_fidelity", f_eval >= 0.99, f"{f_eval:.6f}")
        return f_eval


def _directional_fd(params, system, objective, n_fine, kwargs, eps=1e-6):
    """Central difference of the objective along the normalised gradient."""
    _, (gw, gb) = objectives.loss_and_gradient(params, system, objective, n_fine, **kwargs)
    norm = np.sqrt(sum(float(np.sum(g * g)) for g in (*gw, *gb)))
    dw = [g / norm for g in gw]
    db = [g / norm for g in gb]
    plus = network.apply_update(params, [eps * d for d in dw], [eps * d for d in db])
    minus = network.apply_update(params, [-eps * d for d in dw], [-eps * d for d in db])
    fp, _ = objectives.loss_and_gradient(plus, system, objective, n_fine, **kwargs)
    fm, _ = objectives.loss_and_gradient(minus, system, objective, n_fine, **kwargs)
    fd = (fp - fm) / (2 * eps)
    err = abs(fd - norm) / max(1.0, norm)
    return err < 1e-5, f"directional derivative {norm:.6e}, FD {fd:.6e}"


class LlsWarmStart:
    """The tcp-lls preset path: GRAPE, network fit, shaped fine-tune.

    Every stage keeps the preset's settings and seed.  The workload seed
    jitters the network initialisation that is fitted to the GRAPE table by
    the relative ``jitter`` (the default seed leaves it exact, so it
    reproduces the preset run).  A fresh initialisation per seed is not used: the
    shaped fine-tune from seed 5's fit converges through mid-sequence
    populations (Criterion 4 mid-window value 0.56), and the preset run with
    --seed 1 had not finished after three minutes.
    """

    name = "lls_warm_start"
    jitter = 0.01

    def __init__(self, seed: int, seconds: float):
        preset = cli.RUN_PRESETS["tcp-lls"]
        ws, net, opt = preset["warm_start"], preset["network"], preset["optimizer"]
        self.duration = net["duration_s"]
        self.grape_config = grape.GrapeConfig(
            n_segments=ws["n_segments"], amp_limit=ws["amp_limit_rad_s"],
            learning_rate=ws["learning_rate"], f_threshold=ws["f_threshold"],
            max_iters=ws["max_iters"], seed=opt["seed"], log_every=500,
        )
        self.grape_objective = targets.lls_objective(shape_weight=ws["shape_weight"])
        self.objective = targets.lls_objective(shape_weight=preset["objective"]["shape_weight"])
        self.config = optimizer.OptimizerConfig(**opt)
        params0 = network.init_params(net["layer_sizes"], net["amp_scale_rad_s"],
                                      self.duration, opt["seed"])
        if seed != DEFAULT_SEEDS[self.name]:
            rng = np.random.default_rng(seed)
            params0 = replace(
                params0,
                weights=tuple(w * (1 + self.jitter * rng.standard_normal(w.shape))
                              for w in params0.weights),
                biases=tuple(b * (1 + self.jitter * rng.standard_normal(b.shape))
                             for b in params0.biases),
            )
        self.params0 = params0
        table = network.PulseTable(self.duration, np.full((ws["n_segments"], 1, 2), 100.0))
        objectives.pulse_table_gradient(TCP, table, self.grape_objective)
        self.markers = [
            ("grape", "pulse_table_gradient", "interval", _fidelity_of),
            ("optimizer", "forward_batch", "interval", None),
            ("optimizer", "loss_and_gradient", "interval", _fidelity_of),
        ]

    def run(self, clock):
        # grape.grape_warm_start with the initialisation made in set-up
        table, self.grape_record = grape.grape_train(
            TCP, self.grape_objective, self.duration, self.grape_config)
        fitted = optimizer.fit_network_to_table(self.params0, table)
        self.record = optimizer.train(fitted, TCP, self.objective, self.config)

    def finish(self, clock, checks: Checks) -> float:
        rec = self.record
        checks.add("grape_converged", self.grape_record.converged,
                   f"{self.grape_record.iterations[-1][0]} iterations")
        checks.add("fine_tune_converged", rec.converged, f"{rec.n_iters} steps")
        tune = clock.results["optimizer.loss_and_gradient"]
        checks.add("record_matches_steps", rec.final_fidelity == tune[-1])
        fid = objectives.evaluate_fidelity(TCP, rec.final_params, targets.lls_objective(),
                                           n_fine=EVAL_N_FINE)
        checks.add("criterion4_fidelity", fid >= 0.99, f"{fid:.6f}")

        def trajectory():
            times, values = analysis.basis_trajectory(
                rec.final_params, TCP, targets.thermal_deviation(),
                targets.singlet_triplet_basis(), n_samples=201,
            )
            order = values[-1, 2] - values[-1, 1]
            mid = (times >= 0.25 * times[-1]) & (times <= 0.75 * times[-1])
            peak = float(np.max(np.abs(values[mid])))
            return abs(order) >= 0.98 * 2.0 and peak < 0.3, f"order {order:.4f}, mid-window {peak:.4f}"

        checks.run("criterion4_trajectory", trajectory)
        return fid


NOISE_PAIRS = tuple((kind, g) for kind in ("local", "global") for g in GAMMAS[1:])


class LindbladRetrain:
    """Dissipative retrain of the acceptance suite, warm-started from lls_tcp."""

    name = "lindblad_retrain"
    steps_per_second = 12
    max_steps = 400  # the acceptance retrain length

    def __init__(self, seed: int, seconds: float):
        self.kind, self.gamma = NOISE_PAIRS[seed % len(NOISE_PAIRS)]
        self.key = f"lls_tcp_{self.kind}_g{self.gamma}"
        self.params0 = network.load_params(ARTIFACTS / "lls_tcp.json")
        self.noise = spins.noise_operators(TCP, self.kind, self.gamma)
        self.objective = replace(targets.lls_objective(), noise=self.noise)
        steps = max(1, min(self.max_steps, int(self.steps_per_second * seconds)))
        self.config = optimizer.OptimizerConfig(
            learning_rate=3e-3, f_threshold=1.0, max_iters=steps, n_fine=512, substep_tol=0.05
        )
        self.reference = _load_references().get("lindblad_retrain", {}).get(self.key)
        self.committed = network.load_params(ARTIFACTS / f"{self.key}.json")
        objectives.loss_and_gradient(
            self.params0, TCP, self.objective, self.config.n_fine, substep_tol=self.config.substep_tol
        )
        self.markers = [("optimizer", "loss_and_gradient", "interval", _fidelity_of)]

    def run(self, clock):
        self.record = optimizer.train(self.params0, TCP, self.objective, self.config)

    def finish(self, clock, checks: Checks) -> float:
        rec = self.record
        fids = clock.results["optimizer.loss_and_gradient"]
        checks.add("record_matches_steps", rec.final_fidelity == fids[-1]
                   and rec.n_iters == self.config.max_iters, f"{rec.n_iters} iterations")
        if self.reference is None:
            checks.add("reference_fidelities", False, f"no reference for {self.key}")
        else:
            every = self.reference["every"]
            ref = self.reference["fidelity"]
            pairs = [(k, fids[k], ref[k // every]) for k in range(0, len(fids), every)
                     if k // every < len(ref)]
            worst = max(abs(a - b) for _, a, b in pairs)
            checks.add("reference_fidelities", worst < TRAIN_TOL,
                       f"{len(pairs)} checkpoints, worst {worst:.2e}")

        def flat(p):
            return np.concatenate([w.ravel() for w in (*p.weights, *p.biases)])

        end, start, committed = flat(rec.final_params), flat(self.params0), flat(self.committed)
        if rec.n_iters == self.max_steps:
            diff = float(np.max(np.abs(end - committed)))
            checks.add("committed_artifact", diff < 1e-6, f"max |dparam| {diff:.2e}")
        else:
            before = np.linalg.norm(start - committed)
            after = np.linalg.norm(end - committed)
            checks.add("moves_toward_artifact", after < before, f"{before:.4e} -> {after:.4e}")
        rho0 = targets.thermal_deviation()
        rho = propagation.propagate_lindblad(
            TCP, rec.final_params, rho0, self.noise, n_fine=EVAL_N_FINE
        ).final
        trace_err = abs(np.trace(rho) - np.trace(rho0))
        herm_err = np.linalg.norm(rho - rho.conj().T)
        checks.add("rho_trace", trace_err < 1e-10, f"{trace_err:.2e}")
        checks.add("rho_hermitian", herm_err < 1e-10, f"{herm_err:.2e}")
        return objectives.state_fidelity(rho, self.objective.target, self.objective.initial)


def _read_sweep(path) -> tuple[list[float], list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [float(r[0]) for r in rows], [float(r[1]) for r in rows]


class SweepEval:
    """Forward-only sweeps through the CLI on the committed pulses."""

    name = "sweep_eval"
    seconds_per_pass = 5.0

    def __init__(self, seed: int, seconds: float):
        if seed == 0:
            self.deviations = list(DEFAULT_DEVIATIONS)
        else:
            rng = np.random.default_rng(seed)
            drawn = np.round(rng.uniform(-0.2, 0.2, size=20), 4)
            self.deviations = sorted({0.0, *(float(d) for d in drawn)})
        self.passes = max(1, round(seconds / self.seconds_per_pass))
        self.out = SCRATCH / "tmp" / f"sweep-{seed}-{id(self)}"
        self.noiseless = objectives.evaluate_fidelity(
            TCP, network.load_params(ARTIFACTS / "lls_tcp.json"), targets.lls_objective()
        )
        self.references = _load_references().get("sweep_eval", {})
        # A step is one pass of the five sweeps, the unit a user waits for
        # (timed in run).  Single sweep points are too unlike each other for a
        # steady median: it falls at the top of the 4096-segment unitary
        # points.  The points are still marked, so the speed probe runs
        # between them.
        self.markers = [("analysis", "evaluate_fidelity", None, None)]

    def commands(self, tag: str) -> dict[str, list[str]]:
        lls = str(ARTIFACTS / "lls_tcp.json")
        devs = ",".join(repr(d) for d in self.deviations)
        out = {
            "discretization": ["sweep", "discretization", "--params", str(ARTIFACTS / "cnot_defm.json"),
                               "--system", "defm", "--target", "cnot:0,1",
                               "--segments", "1..32768", "--log2"],
            "amperr_clean": ["sweep", "amperr", "--params", lls, "--system", "tcp",
                             "--target", "lls", f"--deviations={devs}"],
            "amperr_local_g0.02": ["sweep", "amperr", "--params",
                                   str(ARTIFACTS / "lls_tcp_local_g0.02.json"), "--system", "tcp",
                                   "--target", "lls", f"--deviations={devs}",
                                   "--gamma", "0.02", "--noise", "local"],
        }
        for kind in ("local", "global"):
            cmd = ["sweep", "noise", "--params", lls, "--system", "tcp", "--target", "lls",
                   "--gammas", ",".join(repr(g) for g in GAMMAS), "--noise", kind]
            for g in GAMMAS[1:]:
                cmd += ["--params-for-gamma", f"{g!r}={ARTIFACTS / f'lls_tcp_{kind}_g{g}.json'}"]
            out[f"noise_{kind}"] = cmd
        return {name: cmd + ["--out", str(self.out / f"{tag}-{name}.csv")]
                for name, cmd in out.items()}

    def run(self, clock):
        self.out.mkdir(parents=True)
        self.exit_codes = []
        for p in range(self.passes):
            with clock.step("sweep_eval.pass"):
                for cmd in self.commands(str(p)).values():
                    self.exit_codes.append(cli.main(cmd))

    def finish(self, clock, checks: Checks) -> float:
        try:
            return self._finish(checks)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def _finish(self, checks: Checks) -> float:
        checks.add("exit_codes", all(c == 0 for c in self.exit_codes), self.exit_codes)
        for p in range(self.passes):
            csvs = {name: _read_sweep(self.out / f"{p}-{name}.csv") for name in self.commands(str(p))}
            self._check_pass(checks, str(p), csvs)
        return dict(zip(*csvs["discretization"]))[float(EVAL_N_FINE)]

    def _check_pass(self, checks: Checks, tag: str, csvs: dict) -> None:
        if not self.references:
            checks.add(f"{tag}.references_present", False, "perfbench/references.json")
        for name, ref in self.references.items():
            xs, fs = csvs[name]
            if xs != ref["axis"]:  # amperr on a seed-drawn grid has no reference
                continue
            worst = max(abs(a - b) for a, b in zip(fs, ref["fidelity"]))
            checks.add(f"{tag}.{name}_reference", worst < SWEEP_TOL, f"worst {worst:.2e}")
        by_gamma = {kind: dict(zip(*csvs[f"noise_{kind}"])) for kind in ("local", "global")}
        for kind in ("local", "global"):
            checks.add(f"{tag}.{kind}_gamma0_is_noiseless", by_gamma[kind][0.0] == self.noiseless)
        loc, glo = by_gamma["local"], by_gamma["global"]
        checks.add(f"{tag}.criterion5_rate_order", loc[0.07] > glo[0.07])
        checks.add(f"{tag}.criterion5_drop_order", glo[0.04] - glo[0.06] > loc[0.04] - loc[0.06])
        clean = dict(zip(*csvs["amperr_clean"]))
        noisy = dict(zip(*csvs["amperr_local_g0.02"]))
        checks.add(f"{tag}.amperr_zero_is_noiseless", clean[0.0] == self.noiseless)
        checks.add(f"{tag}.amperr_zero_matches_noise_sweep", noisy[0.0] == loc[0.02])
        widths = [analysis.robust_width(analysis.SweepResult("du_over_u", list(s), list(s.values())))
                  for s in (clean, noisy)]
        checks.add(f"{tag}.criterion6_flatter", widths[1] > widths[0], widths)


WORKLOADS = {w.name: w for w in (CnotGateTrain, LlsWarmStart, LindbladRetrain, SweepEval)}
