"""Finite-difference discretization on an interval or a rectangle.

Conventions, chosen so every summation-by-parts identity holds to roundoff:

  * nodal fields live at the interior nodes of a uniform grid with homogeneous
    Dirichlet values implied on the boundary; spacing h = extent/(n+1);
  * gradients are forward differences per cell (1D) / per axis edge (2D),
    with zero extension across the boundary;
  * all integrals, nodal and edge alike, use the same product measure
    prod(h), so the discrete Hoelder inequality is exact;
  * the coefficient A is a constant diagonal, one entry per axis;
  * the divergence-form operator is assembled weakly as gradient^T followed
    by A's entry for the edge's axis, which makes
        <op u, v> = <A grad u, grad v>
    an identity of floating-point sums, not an approximation (the stencil
    takes 1/h^2 into the axis coefficients once, when it is built);
  * the dual norm of a source is the energy norm of its Riesz representative
    with respect to the plain Laplacian (coefficient-independent by the norm
    convention on the solution space);
  * ``DiffusionOperator.fast_inverse`` is the exact inverse of every such
    operator: the closed-form Green's matrix in 1D; in 2D the orthonormal
    sine transform B_x r B_y, one matrix product from each side, scaled by
    the inverse eigenvalues and transformed back.  So the Riesz lift and
    each step of the Sobolev ascent are exact solves, with no iterative
    tolerance, and the same inverse preconditions ``cg_solve`` for the
    operator plus a diagonal;
  * the stencil is the innermost loop of every solve, so its index tuples are
    built once per grid shape and each application is one zero-padded copy
    plus slice differences per axis; the unscaled Green's matrix and the
    orthonormal sine matrices are cached per axis length and applied as
    dense matrix products;
  * ``ScalarField`` validates nodal data where it enters (CSV, expressions)
    and a solution where it leaves; everything else, the norms and the
    dual-norm lift included, takes the grid and a plain nodal array, and
    ``gradient(grid, v)`` is a tuple of per-axis edge arrays.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, FieldValidationError, IterativeSolveFailure


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on a box, interior nodes only (h and the node
    measure are computed once per grid)."""

    extents: tuple
    shape: tuple

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(float(e) for e in self.extents))
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if len(self.extents) != len(self.shape):
            raise FieldValidationError("extents and shape must have equal length")
        if self.dim not in (1, 2):
            raise FieldValidationError(f"only 1D and 2D grids supported, got {self.dim}D")
        if any(e <= 0 for e in self.extents):
            raise FieldValidationError("extents must be positive")
        if any(n < 3 for n in self.shape):
            raise FieldValidationError("need at least 3 interior nodes per axis")

    @property
    def dim(self):
        return len(self.shape)

    @cached_property
    def h(self):
        return tuple(e / (n + 1) for e, n in zip(self.extents, self.shape))

    @cached_property
    def node_measure(self):
        return float(np.prod(self.h))

    def axis_coords(self, axis):
        h = self.h[axis]
        return h * np.arange(1, self.shape[axis] + 1)

    def coords(self):
        """Interior node coordinates, one array per axis (an ij meshgrid)."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))


@dataclass(frozen=True)
class ScalarField:
    """Nodal values on a grid's interior; boundary values are identically zero."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise FieldValidationError(
                f"field shape {vals.shape} does not match grid {self.grid.shape}"
            )
        if not np.isfinite(vals).all():
            raise FieldValidationError("field contains non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class MatrixField:
    """Constant diagonal coercive coefficient A.

    The (2d+1)-point stencil represents only a diagonal A, so ``values``
    holds its d per-axis diagonal entries, shape (d,).  Validation demands a
    declared coercivity alpha > 0 and finite entries, each at least alpha.
    """

    grid: Grid
    values: np.ndarray
    alpha: float

    def __post_init__(self):
        d = self.grid.dim
        vals = np.array(self.values, dtype=float)
        if vals.shape != (d,):
            raise FieldValidationError(
                f"matrix field shape {vals.shape} is not ({d},)")
        if self.alpha <= 0:
            raise FieldValidationError("declared coercivity alpha must be positive")
        if not np.all(np.isfinite(vals)):
            raise FieldValidationError("matrix field contains non-finite values")
        if np.min(vals) < self.alpha:
            raise FieldValidationError(
                f"smallest diagonal entry {np.min(vals):g} falls below declared "
                f"coercivity {self.alpha:g}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def identity(cls, grid):
        return cls(grid, np.ones(grid.dim), alpha=1.0)


class _StencilPlan(NamedTuple):
    """Index tuples for nodal arrays of one shape, zero-padded by one node.

    ``edges[a]`` holds the (upper, lower) nodes of each axis-a edge in the
    padded array, ``nodes[a]`` the (upper, lower) edges of each node in an
    axis-a edge array.
    """

    padded: tuple
    interior: tuple
    edges: tuple
    nodes: tuple


@lru_cache(maxsize=32)
def _stencil_plan(shape):
    dim = len(shape)

    def along(axis, at_axis, elsewhere):
        return tuple(at_axis if b == axis else elsewhere for b in range(dim))

    upper, lower, inner, whole = (slice(1, None), slice(None, -1),
                                  slice(1, -1), slice(None))
    return _StencilPlan(
        padded=tuple(n + 2 for n in shape),
        interior=(inner,) * dim,
        edges=tuple((along(a, upper, inner), along(a, lower, inner))
                    for a in range(dim)),
        nodes=tuple((along(a, upper, whole), along(a, lower, whole))
                    for a in range(dim)),
    )


def _zero_padded(v, plan):
    """Copy of v with one layer of homogeneous Dirichlet nodes around it."""
    ext = np.zeros(plan.padded)
    ext[plan.interior] = v
    return ext


def edge_values(v: np.ndarray):
    """Per axis, the (upper, lower) end values of every edge of the nodal
    array v, with the Dirichlet zero beyond the boundary."""
    plan = _stencil_plan(v.shape)
    ext = _zero_padded(v, plan)
    return tuple((ext[hi], ext[lo]) for hi, lo in plan.edges)


def gradient(grid: Grid, v: np.ndarray) -> tuple:
    """Forward differences of the nodal array v per axis edge, with
    Dirichlet zero extension: one edge array per axis."""
    return tuple((hi - lo) / h for (hi, lo), h in zip(edge_values(v), grid.h))


def node_average(grid: Grid, grad: tuple):
    """Central differences at the nodes from a per-edge gradient."""
    plan = _stencil_plan(grid.shape)
    return tuple(0.5 * (d[lo] + d[hi]) for d, (hi, lo) in zip(grad, plan.nodes))


def lp_norm(grid: Grid, v: np.ndarray, p) -> float:
    """L^p norm of the nodal array v with nodal midpoint quadrature, p >= 1."""
    p = float(p)
    if p < 1:
        raise DomainError(f"p must be at least 1, got {p}")
    return float(np.sum(np.abs(v) ** p) * grid.node_measure) ** (1.0 / p)


def energy_norm(grid: Grid, grad: tuple) -> float:
    """L^2 norm of a per-edge gradient in the shared product measure."""
    total = sum(float((c * c).sum()) for c in grad)
    return float(np.sqrt(total * grid.node_measure))


def h1_seminorm(grid: Grid, v: np.ndarray) -> float:
    """Energy norm of the nodal array v: L^2 norm of its per-edge gradient."""
    return energy_norm(grid, gradient(grid, v))


@lru_cache(maxsize=32)
def _green_matrix(n):
    """Inverse of the unscaled 3-point Dirichlet stencil tridiag(-1, 2, -1)
    of order n: entry (i, j), 1-based, is min(i, j) (n+1 - max(i, j)) / (n+1).

    Every factor is an integer-valued double, exact below 2^53, so each
    entry is rounded once, by the division.
    """
    k = np.arange(1.0, n + 1.0)
    i, j = k[:, None], k[None, :]
    green = np.minimum(i, j) * (n + 1.0 - np.maximum(i, j)) / (n + 1.0)
    green.setflags(write=False)
    return green


@lru_cache(maxsize=32)
def _sine_basis(n):
    """Orthonormal DST-I matrix of order n: symmetric and its own inverse.

    Column k (1-based) is the Dirichlet eigenvector sin(pi j k / (n+1)) of the
    3-point stencil on n interior nodes, with eigenvalue
    (2 sin(pi k / (2(n+1))) / h)^2 for spacing h.
    """
    k = np.arange(1, n + 1)
    basis = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi / (n + 1) * np.outer(k, k))
    basis.setflags(write=False)
    return basis


class DiffusionOperator:
    """Matrix-free divergence-form operator -div(A grad .) on nodal arrays,
    for the constant diagonal A of a ``MatrixField``.

    The stencil uses the per-axis entries ``coef`` of A times 1/h^2.  Its
    exact inverse ``fast_inverse`` is, in 1D, h^2/A times the shared Green's
    matrix of the unscaled stencil; in 2D the operator is diagonal in the
    product sine basis."""

    def __init__(self, A: MatrixField):
        self.grid = g = A.grid
        self.coef = tuple(A.values)
        self._plan = plan = _stencil_plan(g.shape)
        scaled = tuple(c / (h * h) for c, h in zip(self.coef, g.h))
        self._axes = tuple(zip(scaled, plan.edges, plan.nodes))
        if g.dim == 1:
            (n,), (h,), (coef,) = g.shape, g.h, self.coef
            self._green = _green_matrix(n)
            self._green_scale = h * h / coef
        else:
            self._green = None
            self._bases = tuple(_sine_basis(n) for n in g.shape)
            # the inverse eigenvalues are 0.5 / sum(0.5 lam): halving is
            # exact, so these are the bits of 1 / sum(lam) wherever that sum
            # is finite, and the sum of halves stays finite where it is not
            half_eig = 0.0
            for a, (coef, n, h) in enumerate(zip(self.coef, g.shape, g.h)):
                k = np.arange(1, n + 1)
                lam = coef * (2.0 * np.sin(0.5 * np.pi * k / (n + 1)) / h) ** 2
                half_eig = half_eig + 0.5 * lam.reshape([n if b == a else 1
                                                         for b in range(g.dim)])
            self._inv_eig = 0.5 / half_eig

    def apply(self, v: np.ndarray) -> np.ndarray:
        """(2d+1)-point stencil; the axis terms are summed in axis order."""
        ext = _zero_padded(v, self._plan)
        out = None
        for coef, (hi, lo), (nhi, nlo) in self._axes:
            flux = ext[hi] - ext[lo]
            flux *= coef
            term = flux[nlo] - flux[nhi]
            if out is None:
                out = term
            else:
                out += term
        return out

    def fast_inverse(self, r: np.ndarray) -> np.ndarray:
        """Exact inverse of the operator: one product with the Green's
        matrix in 1D, in 2D the sine transform B_x r B_y (one product from
        each side), the inverse eigenvalues, and the transform back."""
        if self._green is not None:
            return self._green @ (r * self._green_scale)
        bx, by = self._bases
        s = bx @ r @ by
        s *= self._inv_eig
        return bx @ s @ by


def cg_solve(inverse, rhs: np.ndarray, shift, tol: float = 1e-12, maxiter=None):
    """Conjugate gradients for (L + diag(shift)) x = rhs on nodal arrays,
    started from x = 0 and preconditioned with ``inverse``, the exact
    inverse of L; ``shift`` is a nonnegative diagonal.

    Since L z = r for every preconditioned residual z, the image of the
    search direction p = z + beta p is carried as L p = r + beta L p
    (Eisenstat, SIAM J. Sci. Stat. Comput. 2, 1981), so L itself is never
    applied.  The stopping rule is on the unpreconditioned residual,
    |r| <= tol |rhs|, relative to this system's right-hand side; a Newton
    step passes the ratio that makes tol |rhs| its forcing target (see
    ``solver.inner_solve``).  Returns (x, iterations).
    """
    b_norm = float(np.sqrt(np.vdot(rhs, rhs).real))
    target = tol * max(b_norm, np.finfo(float).tiny)
    x = np.zeros(rhs.shape)
    if b_norm == 0.0 or b_norm <= target:
        return x, 0
    # the zero start's residual is rhs itself, and L p = r for p = inverse(r)
    r = np.array(rhs, dtype=float)
    z = inverse(r)
    p = z.copy()
    lp = r.copy()
    rz = float(np.vdot(r, z).real)
    if maxiter is None:
        maxiter = 20 * rhs.size + 100
    for it in range(1, maxiter + 1):
        ap = lp + shift * p
        pap = float(np.vdot(p, ap).real)
        if not (pap > 0.0 and rz > 0.0):  # divisors; a huge A underflows them
            res = float(np.sqrt(np.vdot(r, r).real))
            raise IterativeSolveFailure(
                f"conjugate gradients broke down (p.(L + shift)p = {pap:g}, "
                f"r.z = {rz:g}) at residual {res:g} after {it - 1} iterations",
                residual=res, iterations=it - 1)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if np.sqrt(np.vdot(r, r).real) <= target:
            return x, it
        z = inverse(r)
        rz_new = float(np.vdot(r, z).real)
        beta = rz_new / rz
        p *= beta
        p += z
        lp *= beta
        lp += r
        rz = rz_new
    res = float(np.sqrt(np.vdot(r, r).real))
    raise IterativeSolveFailure(
        f"conjugate gradients stalled at relative residual "
        f"{res / b_norm:g} after {maxiter} iterations",
        residual=res, iterations=maxiter)


@lru_cache(maxsize=32)
def laplacian(grid: Grid) -> DiffusionOperator:
    """The plain Laplacian of a grid, built once per grid."""
    return DiffusionOperator(MatrixField.identity(grid))


def riesz_representative(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Solve the plain Poisson problem with source f (the dual-norm lift).

    The solve is exact (``DiffusionOperator.fast_inverse``).
    """
    return laplacian(grid).fast_inverse(f)


def hminus1_norm(grid: Grid, f: np.ndarray) -> float:
    """Dual norm of a nodal source: energy norm of its Riesz representative."""
    return h1_seminorm(grid, riesz_representative(grid, f))


# relative change of the ratio at which the Sobolev ascent stops
SOBOLEV_TOL = 1e-8


@dataclass
class SobolevEstimate:
    value: float
    iterations: int
    converged: bool


def estimate_sobolev_constant(grid: Grid, p: float,
                              max_iter: int = 400) -> SobolevEstimate:
    """Maximize |v|_p / |grad v|_2 by preconditioned ascent.

    Each step lifts the p-norm subgradient through the exact Poisson solve
    (``DiffusionOperator.fast_inverse``) and renormalizes in energy; the
    achieved ratio increases monotonically, so the returned value is a
    certified lower bound of the discrete constant.
    Stagnation before a relative change of SOBOLEV_TOL returns the best ratio
    found with ``converged=False``.
    """
    if p <= 2:
        raise DomainError(f"estimator requires p > 2, got {p}")
    lap = laplacian(grid)
    bump = field_from_expression(grid, {"kind": "sine_bump"})
    v = bump.values / h1_seminorm(grid, bump.values)
    ratio = lp_norm(grid, v, p)
    for it in range(1, max_iter + 1):
        g = np.abs(v) ** (p - 2.0) * v
        z = lap.fast_inverse(g)
        z = z / h1_seminorm(grid, z)
        new_ratio = lp_norm(grid, z, p)
        v = z
        if abs(new_ratio - ratio) <= SOBOLEV_TOL * max(ratio, 1e-300):
            return SobolevEstimate(max(new_ratio, ratio), it, True)
        ratio = max(ratio, new_ratio)
    return SobolevEstimate(ratio, max_iter, False)


def write_field_csv(grid: Grid, values: np.ndarray, path):
    """Row-major CSV with header "nx[,ny],hx[,hy]", one value per line."""
    header = [str(n) for n in grid.shape] + [repr(h) for h in grid.h]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        # one bare value per row, ended by the csv module's "\r\n"
        fh.write("\r\n".join(map(repr, values.ravel().tolist())) + "\r\n")


def read_field_csv(path, grid: Grid | None = None) -> ScalarField:
    """Read a field CSV; reconstructs the grid from the header if not given."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:  # a ValueError here includes bytes that are not UTF-8
            header = next(reader, [])
            flat = np.array([float(row[0]) for row in reader if row])
        except ValueError as exc:
            raise FieldValidationError(f"field file {path}: {exc}") from exc
    dim, odd = divmod(len(header), 2)
    try:
        if dim == 0 or odd:
            raise ValueError("expected nx[,ny],hx[,hy]")
        shape = tuple(int(n) for n in header[:dim])
        h = tuple(float(hi) for hi in header[dim:])
    except ValueError as exc:
        raise FieldValidationError(
            f"malformed field header {header!r} in {path}: {exc}") from exc
    extents = tuple(hi * (n + 1) for hi, n in zip(h, shape))
    file_grid = Grid(extents, shape)
    if grid is not None:
        if grid.shape != file_grid.shape or not np.allclose(grid.extents, extents):
            raise FieldValidationError(
                f"field file {path} has grid {file_grid.shape}/{extents}, "
                f"expected {grid.shape}/{grid.extents}"
            )
        file_grid = grid
    if flat.size != int(np.prod(shape)):
        raise FieldValidationError(
            f"field file {path} holds {flat.size} values, expected {np.prod(shape)}"
        )
    return ScalarField(file_grid, flat.reshape(shape))


# the expression catalog: each kind and the parameters it reads besides "kind"
EXPRESSION_KEYS = {"constant": ("value",), "coordinate_product": ("scale",),
                   "sine_bump": ("amplitude",)}


def field_from_expression(grid: Grid, spec: dict) -> ScalarField:
    """Small expression catalog: constant, product of coordinates, sine bump."""
    kind = spec.get("kind")
    if kind == "constant":
        return ScalarField(grid, np.full(grid.shape, float(spec["value"])))
    if kind == "coordinate_product":
        scale = float(spec.get("scale", 1.0))
        coords = grid.coords()
        return ScalarField(grid, scale * np.prod(coords, axis=0))
    if kind == "sine_bump":
        amp = float(spec.get("amplitude", 1.0))
        coords = grid.coords()
        vals = amp * np.prod(
            [np.sin(np.pi * x / e) for x, e in zip(coords, grid.extents)], axis=0
        )
        return ScalarField(grid, vals)
    raise FieldValidationError(f"unknown field expression kind {kind!r}")
