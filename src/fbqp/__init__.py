"""Dense convex QP solving via a semismooth Newton method.

The KKT system of

    minimize    0.5 * z' H z + f' z
    subject to  G z = h,  A z <= b

is reformulated as a square nonsmooth root-finding problem through a
penalized Fischer-Burmeister function, regularized proximally, and solved
by damped Newton steps with a sigma-continuation outer loop. The package
also ships an exhaustive active-set oracle for cross-checking, solution
sensitivities in forward and reverse mode, a JSON problem-file format,
and a command line front end.

Quick start:

    >>> import numpy as np, fbqp
    >>> problem = fbqp.QpProblem(H=np.eye(2), f=np.array([-2.0, 1.0]),
    ...                          A=np.array([[1.0, 0.0], [0.0, 1.0]]),
    ...                          b=np.array([1.0, 1.0]))
    >>> result = fbqp.solve(problem)
    >>> result.status.value
    'Solved'
"""

from . import io, ncp, oracle, problem, sensitivity, solver
from .io import *
from .ncp import *
from .oracle import *
from .problem import *
from .sensitivity import *
from .solver import *

__version__ = "0.1.0"

# The public names are those of the six modules above; ``fbqp.jacobian``,
# the structured linear algebra, stays internal.
__all__ = sorted(
    name for module in (io, ncp, oracle, problem, sensitivity, solver) for name in module.__all__
)
