"""Penalized Fischer-Burmeister function and its generalized derivative.

phi(y, v) = alpha * (y + v - sqrt(y^2 + v^2)) + (1 - alpha) * max(y, 0) * max(v, 0)

for the fixed weight alpha = ``ALPHA`` = 0.95. Its zero set is exactly the
complementarity set {y >= 0, v >= 0, y v = 0}, so stacking phi over the
inequality rows turns the KKT system into a square root-finding problem. The
function is smooth away from the origin; at (0, 0) the fixed element of the
Clarke generalized derivative selected by the direction (1, 1)/sqrt(2) is
used.

Both functions sit in the Newton loop, so they check shapes only; the
solver screens problem data and warm starts for finiteness.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["phi_vec", "phi_derivative_vec"]

# Weight on the Fischer-Burmeister part, strictly inside (0, 1); the
# remaining 1 - ALPHA multiplies the positive-part penalty.
ALPHA = 0.95
# Both components of the unit direction that selects the derivative at (0, 0).
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _as_pair(y, v) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (y.ndim and v.ndim):
        y, v = np.atleast_1d(y, v)
    if y.shape != v.shape or y.ndim > 2:
        raise ValueError(f"y and v must share a shape (q,) or (k, q), got {y.shape} and {v.shape}")
    return y, v


def phi_vec(y, v) -> np.ndarray:
    """Elementwise penalized Fischer-Burmeister values.

    Args:
        y: slack values, shape (q,), or a stack of k such rows, shape (k, q).
        v: multiplier values, the same shape as ``y``.

    Returns:
        Array of the inputs' shape; empty inputs give an empty array. Each
        row of a stack has the bits of the same row passed alone. Non-finite
        inputs give non-finite values rather than an error.

    Raises:
        ValueError: on shape mismatch or an input of more than two axes.
    """
    y, v = _as_pair(y, v)
    fischer = y + v - np.hypot(y, v)
    penalty = np.maximum(y, 0.0) * np.maximum(v, 0.0)
    return ALPHA * fischer + (1.0 - ALPHA) * penalty


def phi_derivative_vec(y, v) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise generalized derivative of phi.

    Away from the origin the function is differentiable and the exact
    partials are returned. At an exact (0, 0) pair both partials are
    ALPHA * (1 - 1/sqrt(2)), the Clarke element along (1, 1)/sqrt(2).

    Args:
        y, v: as for ``phi_vec``, shape (q,) or (k, q).

    Returns:
        (d_y, d_v), each of the inputs' shape; non-finite where an input is.

    Raises:
        ValueError: on shape mismatch or an input of more than two axes.
    """
    y, v = _as_pair(y, v)
    radius = np.hypot(y, v)
    at_origin = radius == 0.0
    # The substitutions cost three calls, and most calls have no pair at (0, 0).
    any_origin = np.count_nonzero(at_origin)
    if any_origin:
        radius = np.where(at_origin, 1.0, radius)
    # Both partials at once: row 0 of the stack is d_y, row 1 is d_v.
    pair = np.array((y, v))
    d = ALPHA * (1.0 - pair / radius) + (1.0 - ALPHA) * np.maximum(pair[::-1], 0.0) * (pair > 0.0)
    if any_origin:
        d = np.where(at_origin, ALPHA * (1.0 - _INV_SQRT2), d)
    return d[0], d[1]
