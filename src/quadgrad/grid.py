"""Finite-difference discretization on an interval or a rectangle.

Conventions, chosen so every summation-by-parts identity holds to roundoff:

  * nodal fields live at the interior nodes of a uniform grid with homogeneous
    Dirichlet values implied on the boundary; spacing h = extent/(n+1);
  * gradients are forward differences per cell (1D) / per axis edge (2D),
    with zero extension across the boundary;
  * all integrals, nodal and edge alike, use the same product measure
    prod(h), so the discrete Hoelder inequality is exact;
  * the divergence-form operator is assembled weakly as gradient^T followed
    by the per-edge coefficient, which makes
        <op u, v> = <A grad u, grad v>
    an identity of floating-point sums, not an approximation;
  * the dual norm of a source is the energy norm of its Riesz representative
    with respect to the plain Laplacian (coefficient-independent by the norm
    convention on the solution space);
  * the Laplacian and every constant-coefficient operator are diagonal in the
    product sine basis, so the Riesz lift and each step of the Sobolev ascent
    are exact solves (``DiffusionOperator.fast_inverse``), with no iterative
    tolerance.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, FieldValidationError, IterativeSolveFailure


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on a box, interior nodes only."""

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

    @property
    def h(self):
        return tuple(e / (n + 1) for e, n in zip(self.extents, self.shape))

    @property
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
        if not np.all(np.isfinite(vals)):
            raise FieldValidationError("field contains non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid, fn):
        return cls(grid, fn(*grid.coords()))


@dataclass(frozen=True)
class VectorField:
    """Per-edge gradient components (staggered: one array per axis)."""

    grid: Grid
    components: tuple


@dataclass(frozen=True)
class MatrixField:
    """Symmetric positive-definite coefficient, constant or one matrix per cell.

    ``values`` is either a (d, d) matrix or an array of shape cells + (d, d)
    with cells = (n+1,) in 1D and (nx+1, ny+1) in 2D.  Validation demands
    exact symmetry and smallest eigenvalue >= alpha at every cell.
    """

    grid: Grid
    values: np.ndarray
    alpha: float

    def __post_init__(self):
        d = self.grid.dim
        vals = np.array(self.values, dtype=float)
        cells = tuple(n + 1 for n in self.grid.shape)
        if vals.shape == (d, d):
            pass
        elif vals.shape == cells + (d, d):
            pass
        else:
            raise FieldValidationError(
                f"matrix field shape {vals.shape} is neither ({d},{d}) nor "
                f"{cells + (d, d)}"
            )
        if self.alpha <= 0:
            raise FieldValidationError("declared coercivity alpha must be positive")
        if not np.all(np.isfinite(vals)):
            raise FieldValidationError("matrix field contains non-finite values")
        if not np.array_equal(vals, np.swapaxes(vals, -1, -2)):
            raise FieldValidationError("matrix field is not exactly symmetric")
        eig = np.linalg.eigvalsh(vals)
        if np.min(eig) < self.alpha:
            raise FieldValidationError(
                f"smallest eigenvalue {np.min(eig):g} falls below declared "
                f"coercivity {self.alpha:g}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def identity(cls, grid, scale=1.0):
        return cls(grid, scale * np.eye(grid.dim), alpha=scale)

    @property
    def is_constant(self):
        return self.values.shape == (self.grid.dim, self.grid.dim)

    def cell_values(self):
        cells = tuple(n + 1 for n in self.grid.shape)
        if self.is_constant:
            return np.broadcast_to(self.values, cells + self.values.shape)
        return self.values

    def edge_coefficients(self):
        """Diagonal coefficient per axis edge, arithmetic cell averages.

        The axis-a entry of each cell is averaged over the cells sharing an
        axis-a edge.  Only the diagonal entries enter the (2d+1)-point
        stencil; off-diagonal entries are rejected at assembly time (a wider
        stencil would be required to represent them).
        """
        d = self.grid.dim
        cv = self.cell_values()
        if np.any(cv[..., ~np.eye(d, dtype=bool)] != 0.0):
            raise FieldValidationError(
                "operator assembly requires a diagonal coefficient matrix; "
                "off-diagonal entries are not representable by the "
                f"{2 * d + 1}-point stencil"
            )
        plan = kernels.stencil_plan(self.grid.shape)
        coefs = []
        for a in range(d):
            coef = cv[..., a, a]  # one value per cell
            for b in range(d):
                if b != a:
                    hi, lo = plan.nodes[b]
                    coef = 0.5 * (coef[lo] + coef[hi])
            coefs.append(np.array(coef))
        return tuple(coefs)

    def node_values(self):
        """Matrix at each interior node, averaging the 2^d adjacent cells."""
        cv = self.cell_values()
        sides = (slice(None, -1), slice(1, None))
        # corners in axis order, the first axis varying fastest
        corners = [cv[idx[::-1]]
                   for idx in itertools.product(sides, repeat=self.grid.dim)]
        return 0.5 ** self.grid.dim * sum(corners[1:], corners[0])


def gradient(v: ScalarField) -> VectorField:
    """Forward differences per axis edge with Dirichlet zero extension."""
    g = v.grid
    plan = kernels.stencil_plan(g.shape)
    ext = kernels.zero_padded(v.values, plan)
    return VectorField(g, tuple((ext[hi] - ext[lo]) / h
                                for (hi, lo), h in zip(plan.edges, g.h)))


def nodal_gradient(v: ScalarField):
    """Central differences at the nodes (averaged adjacent edge slopes).

    Used for pointwise evaluation of the gradient nonlinearity; the energy
    machinery keeps the exact per-edge gradients.
    """
    plan = kernels.stencil_plan(v.grid.shape)
    return tuple(0.5 * (d[lo] + d[hi])
                 for d, (hi, lo) in zip(gradient(v).components, plan.nodes))


def lp_norm(v: ScalarField, p) -> float:
    """L^p norm with nodal midpoint quadrature, p >= 1."""
    p = float(p)
    if p < 1:
        raise DomainError(f"p must be at least 1, got {p}")
    return float(np.sum(np.abs(v.values) ** p) * v.grid.node_measure) ** (1.0 / p)


def inner_l2(u: ScalarField, v: ScalarField) -> float:
    return float(np.sum(u.values * v.values) * u.grid.node_measure)


def h1_seminorm(v: ScalarField) -> float:
    """Energy norm: L^2 norm of the per-edge gradient."""
    comps = gradient(v).components
    total = sum(float(np.sum(c * c)) for c in comps)
    return float(np.sqrt(total * v.grid.node_measure))


class DiffusionOperator:
    """Matrix-free divergence-form operator -div(A grad .) on nodal arrays."""

    def __init__(self, A: MatrixField):
        self.grid = A.grid
        self.coef = A.edge_coefficients()
        self._plan = kernels.stencil_plan(self.grid.shape)
        inv_h2 = tuple(1.0 / (h * h) for h in self.grid.h)
        self._axes = tuple(zip(self.coef, inv_h2, self._plan.edges,
                               self._plan.nodes))
        # eigenvalues of the mean-coefficient operator in the sine basis
        g = self.grid
        self._bases = tuple(kernels.sine_basis(n) for n in g.shape)
        eig = 0.0
        for a, (coef, n, h) in enumerate(zip(self.coef, g.shape, g.h)):
            k = np.arange(1, n + 1)
            lam = float(np.mean(coef)) \
                * (2.0 * np.sin(0.5 * np.pi * k / (n + 1)) / h) ** 2
            eig = eig + lam.reshape([n if b == a else 1 for b in range(g.dim)])
        self._inv_eig = 1.0 / eig

    def apply(self, v: np.ndarray) -> np.ndarray:
        return kernels.apply_diffusion(v, self._axes, self._plan)

    def fast_inverse(self, r: np.ndarray) -> np.ndarray:
        """Exact inverse of the mean-coefficient operator, by sine transforms.

        Each axis's edge coefficients are replaced by their mean, which makes
        the operator diagonal in the product sine basis.  For a constant A
        (every coefficient a config can build) this is the exact inverse of
        the operator; for a per-cell A it is the spectrally equivalent
        preconditioner of Concus & Golub (SIAM J. Numer. Anal. 10, 1973).
        """
        spectrum = kernels.sine_transform(r, self._bases)
        return kernels.sine_transform(spectrum * self._inv_eig, self._bases)


def cg_solve(apply_fn, rhs: np.ndarray, tol: float = 1e-12, maxiter=None,
             x0=None, precond=None):
    """Conjugate gradients on nodal arrays, relative-residual stopping rule.

    ``precond`` applies a symmetric positive-definite approximate inverse
    (preconditioned CG); without it this is plain CG.  Either way the rule
    is on the unpreconditioned residual, |r| <= tol |rhs|.
    """
    b_norm = float(np.sqrt(np.vdot(rhs, rhs).real))
    x = np.zeros_like(rhs) if x0 is None else np.array(x0, dtype=float)
    if b_norm == 0.0 and x0 is None:
        return x
    r = rhs - apply_fn(x)
    target = tol * max(b_norm, np.finfo(float).tiny)
    rr = float(np.vdot(r, r).real)
    if np.sqrt(rr) <= target:
        return x
    if precond is None:
        def precond(v):
            return v
    z = precond(r)
    p = z.copy()
    rz = float(np.vdot(r, z).real)
    if maxiter is None:
        maxiter = 20 * rhs.size + 100
    for _ in range(maxiter):
        ap = apply_fn(p)
        alpha = rz / float(np.vdot(p, ap).real)
        x += alpha * p
        r -= alpha * ap
        rr = float(np.vdot(r, r).real)
        if np.sqrt(rr) <= target:
            return x
        z = precond(r)
        rz_new = float(np.vdot(r, z).real)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise IterativeSolveFailure(
        f"conjugate gradients stalled at relative residual "
        f"{np.sqrt(rr) / b_norm:g} after {maxiter} iterations",
        residual=float(np.sqrt(rr)),
        iterations=maxiter,
    )


def riesz_representative(f: ScalarField) -> ScalarField:
    """Solve the plain Poisson problem with source f (the dual-norm lift).

    The solve is exact, by sine transforms.
    """
    lap = DiffusionOperator(MatrixField.identity(f.grid))
    return ScalarField(f.grid, lap.fast_inverse(f.values))


def hminus1_norm(f: ScalarField) -> float:
    """Dual norm of a nodal source: energy norm of its Riesz representative."""
    return h1_seminorm(riesz_representative(f))


@dataclass
class SobolevEstimate:
    value: float
    iterations: int
    converged: bool


def estimate_sobolev_constant(grid: Grid, p: float, tol: float = 1e-8,
                              max_iter: int = 400) -> SobolevEstimate:
    """Maximize |v|_p / |grad v|_2 by preconditioned ascent.

    Each step lifts the p-norm subgradient through the exact Poisson solve
    (``DiffusionOperator.fast_inverse``) and renormalizes in energy; the
    achieved ratio increases monotonically, so the returned value is a
    certified lower bound of the discrete constant.
    Stagnation before `tol` relative change returns the best ratio found with
    ``converged=False``.
    """
    if p <= 2:
        raise DomainError(f"estimator requires p > 2, got {p}")
    lap = DiffusionOperator(MatrixField.identity(grid))
    bump = ScalarField.from_function(
        grid, lambda *xs: np.prod(
            [np.sin(np.pi * x / e) for x, e in zip(xs, grid.extents)], axis=0)
    )
    v = bump.values / h1_seminorm(bump)
    ratio = lp_norm(ScalarField(grid, v), p)
    for it in range(1, max_iter + 1):
        g = np.abs(v) ** (p - 2.0) * v
        z = lap.fast_inverse(g)
        zf = ScalarField(grid, z)
        z = z / h1_seminorm(zf)
        new_ratio = lp_norm(ScalarField(grid, z), p)
        v = z
        if abs(new_ratio - ratio) <= tol * max(ratio, 1e-300):
            return SobolevEstimate(max(new_ratio, ratio), it, True)
        ratio = max(ratio, new_ratio)
    return SobolevEstimate(ratio, max_iter, False)


def write_field_csv(field: ScalarField, path):
    """Row-major CSV with header "nx[,ny],hx[,hy]", one value per line."""
    g = field.grid
    header = [str(n) for n in g.shape] + [repr(h) for h in g.h]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for val in field.values.ravel(order="C"):
            writer.writerow([repr(float(val))])


def read_field_csv(path, grid: Grid | None = None) -> ScalarField:
    """Read a field CSV; reconstructs the grid from the header if not given."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        flat = np.array([float(row[0]) for row in reader if row])
    dim, odd = divmod(len(header), 2)
    if dim == 0 or odd:
        raise FieldValidationError(
            f"malformed field header {header!r}: expected nx[,ny],hx[,hy]"
        )
    shape = tuple(int(n) for n in header[:dim])
    h = tuple(float(hi) for hi in header[dim:])
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
