"""Differentiate a QP solution with respect to its data.

At a solved instance the KKT conditions on the active set are a linear
system, so the implicit function theorem turns its matrix into a linear map
from data perturbations to solution perturbations. Forward mode gives the
dense Jacobians dz/df, dz/dh, dz/db; reverse mode (vjp) pulls a gradient
on z back to every datum, including the matrices, with a single solve with
that symmetric matrix. That is the piece a learning pipeline needs to train through the
solver.
"""

import numpy as np

from fbqp import QpProblem, SolverConfig, solution_sensitivity, solve, vjp

# Projection of a target point c onto the simplex {z : z1 + z2 = 1, z >= 0}:
#   minimize 0.5 ||z - c||^2  ==  0.5 z'z - c'z  (+ constant)
c = np.array([0.6, 0.2])
problem = QpProblem(
    H=np.eye(2), f=-c,
    G=[[1.0, 1.0]], h=[1.0],
    A=-np.eye(2), b=np.zeros(2),
)
config = SolverConfig(tol_kkt=1e-11)
result = solve(problem, config)
z = result.iterate.z
print(f"projection of {c} onto the simplex: {np.round(z, 6)}")

sens = solution_sensitivity(problem, result)
print(f"wellposed (strict complementarity): {sens.wellposed}")
print("dz/df (perturbing the target moves the projection along the plane):")
print(np.round(sens.dz_df, 6))
print("dz/dh (moving the plane z1 + z2 = h):")
print(np.round(sens.dz_dh, 6))

# Cross-check one column against finite differences of the full solve.
step = 1e-5
column = 0
f_plus, f_minus = np.array(problem.f), np.array(problem.f)
f_plus[column] += step
f_minus[column] -= step
z_plus = solve(QpProblem(problem.H, f_plus, problem.G, problem.h,
                         problem.A, problem.b), config).iterate.z
z_minus = solve(QpProblem(problem.H, f_minus, problem.G, problem.h,
                          problem.A, problem.b), config).iterate.z
fd = (z_plus - z_minus) / (2 * step)
print(f"\nfinite-difference check, column {column} of dz/df:")
print(f"  implicit:    {sens.dz_df[:, column]}")
print(f"  differenced: {fd}")

# Reverse mode: gradient of the loss L = g'z* with respect to everything.
g = np.array([1.0, -1.0])
grads = vjp(problem, result, g)
print(f"\nvjp with cotangent g = {g}:")
print(f"  dL/df = {np.round(grads.df, 6)}")
print(f"  dL/dh = {np.round(grads.dh, 6)}")
print(f"  dL/db = {np.round(grads.db, 6)}")
print(f"  dL/dH =\n{np.round(grads.dH, 6)}")

# One descent step on the target c (recall f = -c, so moving f against the
# gradient means moving c along it) shifts the projection toward smaller
# L = g'z, i.e. more weight on z2.
c_next = c + 0.5 * grads.df
updated = solve(QpProblem(np.eye(2), -c_next, problem.G, problem.h,
                          problem.A, problem.b), config)
print(f"\nloss before: {g @ z:.6f}   after one data step: "
      f"{g @ updated.iterate.z:.6f}")
