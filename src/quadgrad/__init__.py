"""quadgrad: a numerical laboratory for quasilinear elliptic problems whose
gradient nonlinearity grows quadratically and whose zeroth-order coefficient
is nonnegative.

The package computes the critical constants of the smallness analysis,
implements the exponential change of unknown with all proved bounds as
runtime-checkable predicates, and solves the truncated transformed problem by
fixed-point iteration on finite-difference grids, verifying the a priori
energy estimate along the way.
"""

__version__ = "0.1.0"
