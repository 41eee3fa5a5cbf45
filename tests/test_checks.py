import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinnctl.checks import RULES, hermitian, integer, real

# the ranges again, written out apart from checks.RULES
IN_RULE = {
    "finite": lambda x: True,
    "positive and finite": lambda x: x > 0,
    "finite and >= 0": lambda x: x >= 0,
    "in (0, 1]": lambda x: 0 < x <= 1,
}

# everything a JSON document or a caller can hand over, numpy scalars included
VALUES = st.one_of(
    st.booleans(), st.none(), st.text(max_size=4),
    st.integers(-2**64, 2**64), st.floats(), st.floats(width=32).map(np.float32),
    st.integers(-2**62, 2**62).map(np.int64), st.just(np.True_),
    st.lists(st.integers(), max_size=2),
)


def is_number(value) -> bool:
    return type(value) in (int, float, np.int64, np.float32)


def is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


@given(VALUES, st.none() | st.integers(-2, 2))
@settings(max_examples=300)
@example(10**400, 1)
def test_integer_accepts_exactly_the_integers_in_range(value, low):
    expected = type(value) in (int, np.int64) and (low is None or value >= low)
    if expected:
        out = integer("n", value, low)
        assert type(out) is int and out == value
    else:
        with pytest.raises(ValueError, match=r"^n must be an integer( >= -?\d)?, got "):
            integer("n", value, low)


@given(VALUES, st.sampled_from(sorted(RULES)))
@settings(max_examples=300)
@example(10**400, "finite")
def test_real_accepts_exactly_the_finite_numbers_in_range(value, rule):
    expected = is_number(value) and is_finite(value) and IN_RULE[rule](value)
    if expected:
        out = real("x", value, rule)
        assert type(out) is float and out == float(value)
    else:
        with pytest.raises(ValueError, match=rf"^x must be {re.escape(rule)}, got "):
            real("x", value, rule)


@pytest.mark.parametrize("scale", [0.0, 1e-6, 1.0, 1e4, 1e8])
@pytest.mark.parametrize("phase", [1.0, 1j])
def test_hermitian_allows_round_off_of_the_norm(scale, phase):
    """||m - m^dag|| may reach 1e-10 max(1, ||m||): an absolute bound for a
    small matrix, a relative one for a large matrix."""
    m = scale * np.array([[1.0, 0.5j, 0.0], [-0.5j, 0.0, 2.0], [0.0, 2.0, -1.0]])
    allowed = 1e-10 * max(1.0, np.linalg.norm(m))
    # x at (0, 2) with no partner at (2, 0) puts sqrt(2) |x| into m - m^dag
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 2] = phase * allowed / np.sqrt(2.0)
    hermitian("rho", m)
    hermitian("rho", m + 0.9 * skew)
    with pytest.raises(ValueError, match="^rho must be Hermitian$"):
        hermitian("rho", m + 1.1 * skew)
