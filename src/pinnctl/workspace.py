"""The ascent workspace (``optimizer.ascend``): buffers for each step's large temporaries,
kept so that no step faults in fresh pages.  numpy only, below every module using it."""

import math
import threading
from contextlib import contextmanager

import numpy as np

_WORKSPACE = threading.local()


@contextmanager
def _workspace():
    """Keep the buffers that ``_buffer`` hands out until exit, so repeated calls reuse
    their pages.  A nested workspace starts empty and restores the outer one."""
    outer = getattr(_WORKSPACE, "buffers", None)
    _WORKSPACE.buffers = {}
    try:
        yield
    finally:
        _WORKSPACE.buffers = outer


def _buffer(key: str, shape: tuple, dtype=float) -> np.ndarray:
    """An uninitialised array: np.empty, or in a workspace its buffer for key (the
    head of it, reshaped, when a smaller array is asked for), valid until key is
    asked for again; reallocated when the dtype changes or more room is needed."""
    buffers = getattr(_WORKSPACE, "buffers", None)
    if buffers is None:
        return np.empty(shape, dtype)
    buf, size = buffers.get(key), math.prod(shape)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = buffers[key] = np.empty(shape, dtype)
    return buf if buf.shape == shape else buf.ravel()[:size].reshape(shape)
