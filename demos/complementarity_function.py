"""A tour of the penalized Fischer-Burmeister function.

phi(y, v) = alpha (y + v - sqrt(y^2 + v^2)) + (1 - alpha) max(y, 0) max(v, 0)

vanishes exactly on the complementarity set {y >= 0, v >= 0, y v = 0}.
That turns the combinatorial "either the slack or the multiplier is zero"
condition into a plain root-finding target, which is what lets a Newton
method solve a QP without guessing active sets.
"""

import numpy as np

from fbqp import phi_derivative_vec, phi_vec
from fbqp.ncp import ALPHA

print(f"values on and off the complementarity set (alpha = {ALPHA}):")
ys = np.array([1.0, 0.0, 0.0, 1.0, -1.0, -1.0])
vs = np.array([0.0, 3.0, 0.0, 1.0, 2.0, 0.0])
for y, v, value in zip(ys, vs, phi_vec(ys, vs)):
    tag = "on " if value == 0.0 else "off"
    print(f"  phi({y:5.1f}, {v:5.1f}) = {value:12.8f}   [{tag} the zero set]")

print("\nthe penalty term punishes y > 0 and v > 0 happening together:")
fischer = 2.0 + 2.0 - np.hypot(2.0, 2.0)
print(f"  phi(2, 2) = {phi_vec([2.0], [2.0])[0]:.6f}")
print(f"            = alpha * {fischer:.6f} (plain Fischer-Burmeister)"
      f" + {(1.0 - ALPHA) * 4.0:.6f} (penalty (1 - alpha) * 2 * 2)")

# Sample the square [-3, 3]^2 and confirm the zero set is exactly the
# two nonnegative half-axes.
grid = np.linspace(-3.0, 3.0, 121)
yy, vv = np.meshgrid(grid, grid)
values = phi_vec(yy.ravel(), vv.ravel()).reshape(yy.shape)
zeros = np.abs(values) <= 1e-12
expected = (yy >= 0) & (vv >= 0) & (np.abs(yy * vv) <= 1e-12)
print(f"\nzero set on a 121 x 121 grid matches the half-axes: "
      f"{bool((zeros == expected).all())} ({int(zeros.sum())} grid zeros)")

print("\ngeneralized derivative (used as the Jacobian's diagonal blocks):")
ys = np.array([3.0, 1.0, 0.0, 1e-9])
vs = np.array([4.0, 0.0, 1.0, 1e-9])
for y, v, d_y, d_v in zip(ys, vs, *phi_derivative_vec(ys, vs)):
    print(f"  d phi({y:7.1e}, {v:7.1e}) = ({d_y:.6f}, {d_v:.6f})")

# The function is not differentiable at the origin. A fixed element of the
# generalized derivative keeps the Newton matrix deterministic there.
d_y, d_v = phi_derivative_vec([0.0], [0.0])
print(f"  d phi(0, 0)          = ({d_y[0]:.6f}, {d_v[0]:.6f})"
      "   <- fixed selection, direction (1, 1)/sqrt(2)")
