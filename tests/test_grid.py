import csv
import io
import itertools
import math
import os
import re

import numpy as np
import pytest

from conftest import dense_operator, grid_check
from quadgrad.errors import DomainError, FieldValidationError, IterativeSolveFailure
from quadgrad.grid import (
    DiffusionOperator,
    Grid,
    MatrixField,
    ScalarField,
    cg_solve,
    estimate_sobolev_constant,
    field_from_expression,
    gradient,
    laplacian,
    h1_seminorm,
    hminus1_norm,
    lp_norm,
    node_average,
    read_field_csv,
    riesz_representative,
    write_field_csv,
)
from quadgrad.grid import _sine_basis

HOLDER = "discrete Hoelder inequality"
SYMMETRY = "operator symmetry"
PARTS = "discrete integration by parts"

INV_SQRT12 = 0.288675134594812882254574390251


def sine_transform_inverse(op, r):
    """The operator's exact inverse by product sine transforms: its
    eigenvalues are the sums of the per-axis 3-point stencils' ones."""
    g = op.grid
    eig = 0.0
    for axis, (coef, n, h) in enumerate(zip(op.coef, g.shape, g.h)):
        k = np.arange(1, n + 1)
        lam = coef * (2.0 * np.sin(0.5 * np.pi * k / (n + 1)) / h) ** 2
        eig = eig + np.expand_dims(lam, tuple(b for b in range(g.dim)
                                              if b != axis))

    def transform(v):
        # each axis's orthonormal DST-I matrix is its own inverse
        for axis, n in enumerate(g.shape):
            v = np.moveaxis(np.tensordot(_sine_basis(n), v, (1, axis)), 0, axis)
        return v

    return transform(transform(r) / eig)


def fit_order(hs, errs):
    """Least-squares slope of log(err) against log(h)."""
    return np.polyfit(np.log(hs), np.log(errs), 1)[0]


class TestGrid:
    def test_spacing(self):
        g = Grid((2.0,), (7,))
        assert g.h == (0.25,)
        assert g.node_measure == 0.25
        g2 = Grid((1.0, 3.0), (4, 5))
        assert g2.h == (0.2, 0.5)

    def test_validation(self):
        with pytest.raises(FieldValidationError):
            Grid((1.0,), (2,))
        with pytest.raises(FieldValidationError):
            Grid((1.0, 1.0, 1.0), (4, 4, 4))
        with pytest.raises(FieldValidationError):
            Grid((-1.0,), (8,))

    def test_field_validation(self):
        g = Grid((1.0,), (8,))
        with pytest.raises(FieldValidationError):
            ScalarField(g, np.full(8, np.nan))
        with pytest.raises(FieldValidationError):
            ScalarField(g, np.zeros(9))


class TestGradient:
    def test_linear_field_exact(self):
        g = Grid((1.0,), (31,))
        xs = g.coords()[0]
        # interior restriction of v(x) = x: interior slopes exactly 1
        (dx,) = gradient(g, xs)
        assert np.allclose(dx[1:-1], 1.0, rtol=1e-13)

    def test_zero_field(self):
        g = Grid((1.0, 1.0), (5, 6))
        comps = gradient(g, np.zeros(g.shape))
        assert all(np.all(c == 0.0) for c in comps)

    def test_sine_refinement_order(self):
        errs, hs = [], []
        for n in (32, 64, 128, 256):
            g = Grid((1.0,), (n,))
            xs = g.coords()[0]
            (dx,) = gradient(g, np.sin(np.pi * xs))
            mids = (np.concatenate(([0.0], xs)) + np.concatenate((xs, [1.0]))) / 2.0
            errs.append(np.max(np.abs(dx - np.pi * np.cos(np.pi * mids))))
            hs.append(g.h[0])
        assert fit_order(hs, errs) >= 0.9

    def test_node_average_consistency(self):
        g = Grid((1.0,), (64,))
        xs = g.coords()[0]
        (dn,) = node_average(g, gradient(g, np.sin(np.pi * xs)))
        assert np.max(np.abs(dn - np.pi * np.cos(np.pi * xs))) <= 5e-3


class TestNorms:
    def test_zero_field_norms(self):
        g = Grid((1.0, 1.0), (6, 6))
        z = np.zeros(g.shape)
        assert lp_norm(g, z, 2.0) == 0.0
        assert h1_seminorm(g, z) == 0.0
        assert hminus1_norm(g, z) == 0.0

    def test_p_below_one_rejected(self):
        g = Grid((1.0,), (8,))
        with pytest.raises(DomainError):
            lp_norm(g, np.zeros(g.shape), 0.5)

    def test_dual_norm_analytic(self):
        g = Grid((1.0,), (256,))
        f = field_from_expression(g, {"kind": "constant", "value": 1.0})
        assert abs(hminus1_norm(g, f.values) - INV_SQRT12) <= 1e-3

    def test_holder_exact(self, rng):
        g = Grid((1.0, 1.0), (9, 11))
        res = grid_check(HOLDER, g, rng, p_f=1.5, p_star=6.0)
        assert res.ok, res.line()

    def test_holder_overflow_fails(self, rng):
        # |f|^(p1/p2) overflows, so both sides are infinite: a NaN margin
        res = grid_check(HOLDER, Grid((1.0,), (128,)), rng, p_f=1e6, p_star=6.0)
        assert not res.ok and math.isnan(res.worst), res.line()

    def test_duality_and_riesz(self, rng):
        res = grid_check("dual-norm duality and Riesz equality",
                         Grid((1.0,), (48,)), rng)
        assert res.ok, res.line()


class TestOperator:
    def test_poisson_exact_for_quadratic(self):
        g = Grid((1.0,), (64,))
        op = DiffusionOperator(MatrixField.identity(g))
        x = np.linalg.solve(dense_operator(op), np.ones(64))
        xs = g.coords()[0]
        assert np.max(np.abs(x - xs * (1 - xs) / 2)) <= 1e-12

    def test_zero_maps_to_zero(self):
        g = Grid((1.0, 1.0), (8, 8))
        op = DiffusionOperator(MatrixField.identity(g))
        assert np.all(op.apply(np.zeros((8, 8))) == 0.0)

    def test_symmetry(self, rng):
        g = Grid((1.0, 2.0), (10, 7))
        A = MatrixField(g, [1.4, 0.7], alpha=0.7)
        res = grid_check(SYMMETRY, DiffusionOperator(A), rng)
        assert res.ok, res.line()

    def test_integration_by_parts(self, rng):
        for A in (MatrixField(Grid((1.0,), (20,)), [1.7], alpha=1.7),
                  MatrixField(Grid((1.0, 1.0), (9, 12)), [2.0, 0.5], alpha=0.5)):
            res = grid_check(PARTS, DiffusionOperator(A), rng)
            assert res.ok, res.line()

    def test_rayleigh_floor(self, rng):
        # random quotients stay above alpha times the discrete Poincare factor
        n = 24
        g = Grid((1.0,), (n,))
        alpha = 0.6
        A = MatrixField(g, [alpha], alpha=alpha)
        op = DiffusionOperator(A)
        h = g.h[0]
        lam_min = (4.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2
        for _ in range(20):
            v = rng.standard_normal(n)
            quot = float(v @ op.apply(v)) / float(v @ v)
            assert quot >= alpha * lam_min * (1.0 - 1e-12)

    def test_variable_coefficient_cells(self):
        # A is one constant diagonal: an entry for every cell is refused,
        # even when all entries are equal (2D: test_per_cell_matrix_field)
        g = Grid((1.0,), (16,))
        with pytest.raises(FieldValidationError,
                           match=re.escape("(17, 1) is not (1,)")):
            MatrixField(g, np.ones((17, 1)), alpha=1.0)

    def test_offdiagonal_rejected_at_assembly(self):
        # the stencil takes a diagonal A only; a symmetric off-diagonal
        # matrix, constant or per cell, is refused before an operator exists
        g = Grid((1.0, 1.0), (6, 6))
        sym = np.array([[1.0, 0.2], [0.2, 1.0]])
        per_cell = np.broadcast_to(sym, (7, 7, 2, 2))
        for values in (sym, per_cell):
            with pytest.raises(FieldValidationError,
                               match=re.escape("is not (2,)")):
                DiffusionOperator(MatrixField(g, values, alpha=0.5))

    def test_matrix_validation(self):
        # per-axis entries of a diagonal A; a d x d matrix is refused
        g = Grid((1.0, 1.0), (6, 6))
        for values, alpha, message in (
                ([[1.0, 0.1], [0.0, 1.0]], 0.5, "(2, 2) is not (2,)"),
                ([1.0, 0.2], 0.5, "smallest diagonal entry 0.2 falls below"),
                ([1.0, 1.0], 0.0, "alpha must be positive"),
                ([1.0, np.inf], 0.5, "non-finite")):
            with pytest.raises(FieldValidationError, match=re.escape(message)):
                MatrixField(g, values, alpha=alpha)

    def test_cg_failure_reported(self, rng):
        # the exact inverse solves a zero shift in one iteration; a nonzero
        # shift needs more than two
        g = Grid((1.0,), (32,))
        op = DiffusionOperator(MatrixField.identity(g))
        shift = rng.uniform(1.0, 50.0, 32)
        with pytest.raises(IterativeSolveFailure) as err:
            cg_solve(op.fast_inverse, np.ones(32), shift, tol=1e-14, maxiter=2)
        assert err.value.residual > 0 and err.value.iterations == 2

    def test_cg_breakdown_reported(self):
        # an inverse that underflows every residual to 0 leaves r.z and
        # p.(L + shift)p at 0: a failed solve, not a ZeroDivisionError
        with pytest.raises(IterativeSolveFailure,
                           match="^conjugate gradients broke down") as err:
            cg_solve(np.zeros_like, np.full(8, 1e-20), np.zeros(8))
        assert err.value.residual > 0 and err.value.iterations == 0

    @pytest.mark.parametrize("extents, shape", [((1.0,), (13,)),
                                                ((1.0, 2.0), (6, 5))],
                             ids=["1d", "2d"])
    def test_apply_matches_assembled_matrix(self, rng, extents, shape):
        # constant diagonal coefficient; the dense operator must equal
        # sum_a c_a D_a^T D_a with D_a the axis-a gradient matrix
        g = Grid(extents, shape)
        diag = rng.uniform(0.5, 2.0, g.dim)
        op = DiffusionOperator(MatrixField(g, diag, alpha=0.5))
        dense = dense_operator(op)
        units = np.eye(int(np.prod(shape))).reshape((-1,) + shape)
        grads = [gradient(g, e) for e in units]
        ref = np.zeros_like(dense)
        for axis, coef in enumerate(diag):
            D = np.stack([comps[axis].ravel() for comps in grads], axis=1)
            ref += coef * (D.T @ D)
        np.testing.assert_allclose(dense, ref, rtol=1e-13)

    @pytest.mark.parametrize("A", [
        MatrixField.identity(Grid((1.0,), (128,))),
        MatrixField(Grid((1.0, 1.0), (64, 64)), [1.0, 1.25], alpha=1.0),
    ], ids=["benchmark_1d", "benchmark_2d"])
    def test_symmetry_check_catches_planted_asymmetry(self, A):
        op = DiffusionOperator(A)

        class Skewed:
            grid, coef = A.grid, op.coef

            def apply(self, v):
                av = op.apply(v)
                return av + 1e-12 * np.roll(av, 1, axis=0)

        res = grid_check(SYMMETRY, Skewed(), np.random.default_rng(0))
        assert not res.ok, res.line()

    @pytest.mark.parametrize("grid", [Grid((1.0,), (128,)),
                                      Grid((1.0, 1.0), (64, 64))],
                             ids=["1d-128", "2d-64x64"])
    def test_integration_by_parts_catches_planted_skew(self, grid):
        # clean pairs read at most about 1.6e-16; a skew of 1e-12 reads
        # 3.3e-13 (1D) and 3.8e-14 (2D), which a limit of 1e-12 passed
        op = laplacian(grid)

        class Skewed:
            coef = op.coef

            def __init__(self, fault):
                self.grid, self.fault = grid, fault

            def apply(self, v):
                out = op.apply(v)
                return out + self.fault * np.roll(out, 1)

        res = grid_check(PARTS, Skewed(1e-12), np.random.default_rng(0))
        assert not res.ok, res.line()
        res = grid_check(PARTS, Skewed(0.0), np.random.default_rng(0))
        assert res.ok and res.worst <= 1e-15, res.line()

    @pytest.mark.parametrize("grid", [Grid((1.0,), (128,)),
                                      Grid((1.0, 1.0), (64, 64))],
                             ids=["benchmark_1d", "benchmark_2d"])
    def test_grid_checks_catch_planted_fault_on_huge_coefficient(self, grid):
        # the fields are drawn tiny on A = 1e304, so the errors must be
        # relative to their products, not to 1
        op = DiffusionOperator(MatrixField(grid, [1e304] * grid.dim, alpha=1e304))

        class Skewed:
            coef = op.coef

            def __init__(self, fault):
                self.grid, self.fault = grid, fault

            def apply(self, v):
                out = op.apply(v)
                return out + self.fault * np.roll(out, 1)

        for name in (SYMMETRY, PARTS):
            res = grid_check(name, Skewed(1e-10), np.random.default_rng(0))
            assert not res.ok, res.line()
            res = grid_check(name, Skewed(0.0), np.random.default_rng(0))
            assert res.ok, res.line()

    def test_integration_by_parts_at_a_cancelling_pair(self):
        # v is u's image under the operator projected out of a random field,
        # so <op u, v> is 0 to roundoff; an error relative to that product,
        # floored at 1, read 1.35e-12 here against the limit of 1e-12
        op = DiffusionOperator(MatrixField.identity(Grid((1.0,), (128,))))
        draw = np.random.default_rng(5)
        u, w = draw.standard_normal((2, 128))
        au = op.apply(u)
        v = w - np.sum(au * w) / np.sum(au * au) * au
        assert abs(np.sum(au * v)) <= 1e-15 * np.sum(np.abs(au * v))

        class Pairs:
            """A generator that draws u, v, u, v, ..."""
            fields = itertools.cycle([u, v])

            def standard_normal(self, shape):
                return next(self.fields).copy()

        res = grid_check(PARTS, op, Pairs())
        assert res.ok and res.worst <= 1e-15, res.line()


class TestFastInverse:
    @pytest.mark.parametrize("extents, shape, diag", [
        ((1.0,), (128,), None),
        ((1.0, 1.0), (64, 64), (1.0, 1.25)),
        ((1.0, 2.0), (24, 40), None),
    ], ids=["1d-identity", "2d-diagonal", "2d-nonsquare"])
    def test_exact_for_constant_coefficients(self, rng, extents, shape, diag):
        g = Grid(extents, shape)
        A = MatrixField.identity(g) if diag is None \
            else MatrixField(g, diag, alpha=min(diag))
        op = DiffusionOperator(A)
        r = rng.standard_normal(shape)
        np.testing.assert_allclose(op.apply(op.fast_inverse(r)), r, rtol=0,
                                   atol=1e-12 * np.max(np.abs(r)))

    def test_laplacian_built_once_per_grid(self, rng):
        g = Grid((1.0, 2.0), (24, 40))
        lap = laplacian(g)
        assert laplacian(Grid((1.0, 2.0), (24, 40))) is lap
        assert laplacian(Grid((1.0, 2.0), (24, 41))) is not lap
        fresh = DiffusionOperator(MatrixField.identity(g))
        f = rng.standard_normal(g.shape)
        assert np.array_equal(riesz_representative(g, f), fresh.fast_inverse(f))
        assert np.array_equal(lap.apply(f), fresh.apply(f))

    @pytest.mark.parametrize("extents, shape, diag", [
        ((1.0, 2.0), (24, 40), (1.0, 1.0)),
        ((1.0,), (3,), (1.7,)),
        ((1.0,), (20,), (1.7,)),
        ((1.0,), (129,), (1.7,)),
    ], ids=["2d-laplacian", "1d-n3", "1d-n20", "1d-n129"])
    def test_matches_dense_solve(self, rng, extents, shape, diag):
        # in 1D the Green's matrix product must also agree with the product
        # sine transforms it replaced, to roundoff
        g = Grid(extents, shape)
        op = DiffusionOperator(MatrixField(g, diag, alpha=min(diag)))
        f = rng.standard_normal(shape)
        z = op.fast_inverse(f)
        ref = np.linalg.solve(dense_operator(op), f.ravel())
        assert np.max(np.abs(z.ravel() - ref)) <= 1e-12 * np.max(np.abs(ref))
        sine = sine_transform_inverse(op, f)
        assert np.max(np.abs(z - sine)) <= 1e-14 * np.max(np.abs(sine))

    @pytest.mark.parametrize("extents, shape, diag", [
        ((1.0,), (128,), (1.0,)),
        ((1.0, 1.5), (40, 24), (1.0, 1.25)),
    ], ids=["1d", "2d"])
    def test_exact_inverse_cg_applies_no_stencil(self, rng, extents, shape,
                                                  diag):
        # CG with a shift carries L p instead of applying L
        g = Grid(extents, shape)
        op = DiffusionOperator(MatrixField(g, diag, alpha=min(diag)))
        shift = rng.uniform(0.0, 50.0, shape)
        shift[rng.random(shape) < 0.3] = 0.0
        rhs = rng.standard_normal(shape)
        applies = []
        stencil = op.apply
        op.apply = lambda v: applies.append(1) or stencil(v)
        tol = 1e-13
        x, iterations = cg_solve(op.fast_inverse, rhs, shift, tol=tol)
        assert applies == [] and iterations > 0
        norm = np.linalg.norm
        assert norm(rhs - (stencil(x) + shift * x)) <= 10 * tol * norm(rhs)
        ref = np.linalg.solve(dense_operator(op) + np.diag(shift.ravel()),
                              rhs.ravel())
        assert norm(x.ravel() - ref) <= 1e-12 * norm(ref)


class TestSobolevEstimator:
    def test_returned_ratio_is_self_consistent(self):
        g = Grid((1.0,), (64,))
        est = estimate_sobolev_constant(g, 6.0)
        # re-run one ascent pass from the bump start to recover the maximizer
        # and recompute its ratio independently
        lap = dense_operator(DiffusionOperator(MatrixField.identity(g)))
        xs = g.coords()[0]
        v = np.sin(np.pi * xs)
        v = v / h1_seminorm(g, v)
        for _ in range(est.iterations):
            z = np.linalg.solve(lap, np.abs(v) ** 4.0 * v)
            v = z / h1_seminorm(g, z)
        ratio = lp_norm(g, v, 6.0)
        assert est.value == pytest.approx(ratio, rel=1e-12)

    def test_refinement_converges_from_above(self):
        # the discrete constant approaches its limit from above: the discrete
        # gradient is softer than the continuum one, so coarse grids give
        # slightly larger ratios
        vals = [estimate_sobolev_constant(Grid((1.0,), (n,)), 6.0).value
                for n in (32, 64, 128)]
        assert vals[0] >= vals[1] >= vals[2]
        assert vals[0] - vals[2] <= 0.01 * vals[2]

    def test_against_reference_value(self):
        # reference computed on a 512-node grid of the same interval
        reference = 0.377365266165
        for n in (32, 64, 128):
            est = estimate_sobolev_constant(Grid((1.0,), (n,)), 6.0)
            assert est.value <= reference * 1.05

    def test_2d_against_reference_value(self):
        reference = 0.333967387305  # 64x64 run of the unit square
        est = estimate_sobolev_constant(Grid((1.0, 1.0), (24, 24)), 6.0)
        assert est.value <= reference * 1.05

    def test_sobolev_inequality_holds_at_estimate(self, rng):
        g = Grid((1.0, 1.0), (16, 16))
        est = estimate_sobolev_constant(g, 6.0)
        res = grid_check("discrete Sobolev inequality at estimated constant",
                         g, rng, p_star=6.0, constant=est.value)
        assert res.ok, res.line()

    def test_p_validation(self):
        with pytest.raises(DomainError):
            estimate_sobolev_constant(Grid((1.0,), (8,)), 2.0)

    def test_stagnation_reports_best_found(self):
        # the ascent needs 6 iterations to reach SOBOLEV_TOL on this grid
        est = estimate_sobolev_constant(Grid((1.0,), (32,)), 6.0, max_iter=1)
        assert not est.converged
        assert est.value > 0.0


class TestFieldIO:
    def test_roundtrip_1d(self, tmp_path, rng):
        g = Grid((1.0,), (17,))
        f = rng.standard_normal(17)
        path = os.path.join(tmp_path, "field.csv")
        write_field_csv(g, f, path)
        back = read_field_csv(path)
        assert back.grid.shape == g.shape
        assert np.array_equal(back.values, f)

    def test_roundtrip_2d_and_grid_check(self, tmp_path, rng):
        g = Grid((1.0, 2.0), (5, 8))
        f = rng.standard_normal((5, 8))
        path = os.path.join(tmp_path, "field2.csv")
        write_field_csv(g, f, path)
        back = read_field_csv(path, grid=g)
        assert np.array_equal(back.values, f)
        with pytest.raises(FieldValidationError):
            read_field_csv(path, grid=Grid((1.0, 2.0), (5, 9)))

    def test_bytes_match_csv_module(self, tmp_path, rng):
        # one value per csv row, written by the csv module, is the format
        g = Grid((1.0, 2.0), (5, 8))
        vals = rng.standard_normal((5, 8))
        vals[0, :4] = (-0.0, 1e-300, 123456789.0, -5e-324)
        path = os.path.join(tmp_path, "field.csv")
        write_field_csv(g, vals, path)
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow([str(n) for n in g.shape] + [repr(h) for h in g.h])
        for val in vals.ravel():
            writer.writerow([repr(float(val))])
        with open(path, "rb") as fh:
            assert fh.read() == buf.getvalue().encode()

    def test_malformed_header(self, tmp_path):
        path = os.path.join(tmp_path, "bad.csv")
        with open(path, "w") as fh:
            fh.write("5,8,0.1\n0.0\n")
        with pytest.raises(FieldValidationError):
            read_field_csv(path)

    def test_nan_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "nan.csv")
        with open(path, "w") as fh:
            fh.write("3,0.25\n0.0\nnan\n1.0\n")
        with pytest.raises(FieldValidationError):
            read_field_csv(path)

    def test_expression_catalog(self):
        g = Grid((1.0, 1.0), (7, 7))
        c = field_from_expression(g, {"kind": "constant", "value": 2.5})
        assert np.all(c.values == 2.5)
        x, y = g.coords()
        prod = field_from_expression(g, {"kind": "coordinate_product",
                                         "scale": 3.0})
        assert np.allclose(prod.values, 3.0 * x * y)
        bump = field_from_expression(g, {"kind": "sine_bump",
                                         "amplitude": 2.0})
        assert np.allclose(bump.values,
                           2.0 * np.sin(np.pi * x) * np.sin(np.pi * y))
        with pytest.raises(FieldValidationError):
            field_from_expression(g, {"kind": "unknown"})


class TestRieszInterplay:
    def test_inner_product_with_representative(self, rng):
        g = Grid((1.0,), (40,))
        f = rng.standard_normal(40)
        z = riesz_representative(g, f)
        assert np.sum(f * z) * g.node_measure \
            == pytest.approx(h1_seminorm(g, z) ** 2, rel=1e-9)
