"""Argument validation helpers.

All public entry points in the library validate their numeric inputs with
these helpers so errors surface at the API boundary with a clear message,
rather than deep inside numerical code as a cryptic numpy warning.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def check_positive(value: float, name: str) -> float:
    """Require ``value > 0``; return it as a float."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_nonnegative(value: float, name: str) -> float:
    """Require ``value >= 0``; return it as a float."""
    value = float(value)
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative finite number, got {value!r}")
    return value


def check_probability_vector(
    values: Sequence[float], name: str, *, allow_zero: bool = True
) -> np.ndarray:
    """Validate a vector of independent probabilities (need not sum to 1).

    Participation levels in the CPL game are independent Bernoulli
    probabilities, so unlike a distribution their sum ranges over ``[0, N]``.
    """
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(array < 0) or np.any(array > 1):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    if not allow_zero and np.any(array == 0):
        raise ValueError(f"{name} entries must be strictly positive")
    return array


def check_in_range(
    value: float, name: str, low: float, high: float, *, inclusive: bool = True
) -> float:
    """Require ``value`` within ``[low, high]`` (or the open interval)."""
    value = float(value)
    if inclusive:
        ok = low <= value <= high
    else:
        ok = low < value < high
    if not np.isfinite(value) or not ok:
        bounds = f"[{low}, {high}]" if inclusive else f"({low}, {high})"
        raise ValueError(f"{name} must lie in {bounds}, got {value!r}")
    return value
