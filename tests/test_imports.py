"""The package needs numpy alone at runtime: scipy is a test dependency
(tests/oracles.py), so importing pinnctl must not load it."""

import os
import subprocess
import sys
from pathlib import Path

import pinnctl

SRC = Path(pinnctl.__file__).resolve().parents[1]


def test_import_loads_no_scipy():
    code = "import sys, pinnctl; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_sources_never_name_scipy():
    hits = [f"{path.relative_to(SRC)}:{n}"
            for path in sorted(SRC.rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1) if "scipy" in line]
    assert not hits
