"""Seeded results do not follow the BLAS thread count: the same computation run
in two processes, at one and at two OpenBLAS threads, gives the same bits."""

import os
import subprocess
import sys
from pathlib import Path

import pinnctl

SRC = Path(pinnctl.__file__).resolve().parents[1]
ARTIFACTS = Path(__file__).resolve().parent / "artifacts"

# prints one digest per line: the LLS network's weight and bias gradients at 512 and
# 4096 rows, then the parameters after a 20-step local-noise retrain at n_fine 512
DIGESTS = """
import hashlib, sys
from dataclasses import replace
import numpy as np
from pinnctl import network, optimizer, spins, targets

def digest(arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()

params = network.load_params(sys.argv[1])
for n in (512, 4096):
    tape = []
    network.sample_pulse(params, n, tape)
    upstream = np.random.default_rng(n).normal(size=tape[-1].shape)
    grad_w, grad_b = network.backprop_pulse(params, upstream, tape)
    print(n, digest([*grad_w, *grad_b]))
tcp = spins.PRESETS["tcp"]
objective = replace(targets.lls_objective(), noise=spins.noise_operators(tcp, "local", 0.02))
config = optimizer.OptimizerConfig(learning_rate=3e-3, f_threshold=1.0, max_iters=20, n_fine=512,
                                   substep_tol=0.05)
record = optimizer.train(params, tcp, objective, config)
print("retrain", record.n_iters, digest([record.final_params.vector()]))
"""


def digests(threads: int) -> str:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", DIGESTS, str(ARTIFACTS / "lls_tcp.json")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_backprop_and_a_retrain_are_the_same_bits_at_one_and_two_blas_threads():
    one = digests(1)
    assert [line.split()[0] for line in one.splitlines()] == ["512", "4096", "retrain"]
    assert "retrain 20 " in one
    assert digests(2) == one
