"""One rule per property of an input from outside: a bool is not a number, an
integer field holds an integer, no range admits NaN or infinity, a state or an
observable is Hermitian to round-off, and a JSON input file is UTF-8 JSON.  Each
error names the input.
"""

from __future__ import annotations

import json
import math

import numpy as np

# concrete types: an isinstance check against the numbers ABCs costs several times more
INTEGERS = (int, np.integer)
REALS = (int, float, np.integer, np.floating)
# the ranges a real value can be held to, each named as its error message names it
RULES = {
    "finite": lambda x: True,
    "positive and finite": lambda x: x > 0,
    "finite and >= 0": lambda x: x >= 0,
    "in (0, 1]": lambda x: 0 < x <= 1,
}


def integer(name: str, value, low: int | None = None) -> int:
    """value as an int; ValueError unless it is an integer, not a bool, and at least low."""
    if (isinstance(value, bool) or not isinstance(value, INTEGERS)
            or (low is not None and value < low)):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def real(name: str, value, rule: str = "finite") -> float:
    """value as a float; ValueError unless it is a real number, not a bool,
    neither NaN nor infinite, and in the range RULES[rule]."""
    try:
        if (not isinstance(value, bool) and isinstance(value, REALS)
                and math.isfinite(value) and RULES[rule](value)):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def hermitian(name: str, m: np.ndarray) -> None:
    """ValueError unless m is Hermitian to round-off: ||m - m^dag|| <= 1e-10 max(1, ||m||)."""
    if np.linalg.norm(m - m.conj().T) > 1e-10 * max(1.0, np.linalg.norm(m)):
        raise ValueError(f"{name} must be Hermitian")


def read_json(path, kind: str):
    """The document in the JSON file at path, read as UTF-8; a ValueError "cannot parse <kind>
    file <path>: ..." if the file is not UTF-8 or not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # not UTF-8, not JSON, or an integer past Python's digit limit
        raise ValueError(f"cannot parse {kind} file {path}: {exc}") from exc
