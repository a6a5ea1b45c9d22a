import copy
import json
import os
import re
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from conftest import dense_operator, grid_check, load_benchmark
from quadgrad import solver
from quadgrad.config import build_experiment
from quadgrad.errors import (ConfigError, DomainError, FieldValidationError,
                             MaxOuterIterations, NewtonStall)
from quadgrad.grid import (DiffusionOperator, Grid, MatrixField, ScalarField,
                           energy_norm, gradient, h1_seminorm, node_average,
                           read_field_csv)
from quadgrad.nonlinearity import (g_delta, k_delta, remainder, sign_k,
                                   transformed_terms, truncate)
from quadgrad.solver import (
    IterationRecord,
    SolverConfig,
    fixed_point_residual,
    inner_coefficients,
    inner_solve,
    k_continuation,
    norm_identity_gap,
    original_residual,
    outer_fixed_point,
)


def make_exp(n=64, f_amp=1.0, a0_value=0.2, model=None, delta="delta0",
             dim=1, **solver_kw):
    problem = {
        "grid": {"extents": [1.0] * dim, "n": [n] * dim},
        "A": {"kind": "identity"},
        "f": {"expr": {"kind": "sine_bump", "amplitude": f_amp}}
        if f_amp else {"expr": {"kind": "constant", "value": 0.0}},
        "a0": {"expr": {"kind": "constant", "value": a0_value}},
        "H": model or {"kind": "shape_times_quadratic", "shape": "tanh",
                       "coeff": 0.4},
        "alpha": 1.0, "gamma": 0.5, "c0": 0.2, "q": 1.8, "N": 3,
    }
    solver = {"delta": delta, "k_schedule": [200.0], "rho": 0.5,
              "outer_tol": 1e-10, "inner_tol": 1e-12, "max_outer": 300}
    solver.update(solver_kw)
    return build_experiment({"problem": problem,
                             "constants": {"C_N": "estimate"},
                             "solver": solver})


def top_height(exp):
    """The last truncation height of the experiment's schedule."""
    return exp.solver_cfg.k_schedule[-1]


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(delta=0.5, rho=0.0)
        with pytest.raises(DomainError):
            SolverConfig(delta=0.5, rho=1.2)
        with pytest.raises(DomainError):
            SolverConfig(delta=-0.1)
        with pytest.raises(DomainError):
            SolverConfig(delta=0.5, k_schedule=(0.0,))
        with pytest.raises(DomainError, match="truncation schedule"):
            SolverConfig(delta=0.5, k_schedule=())

    def test_the_schedule_is_the_one_height_field(self):
        assert "k" not in {f.name for f in fields(SolverConfig)}
        assert SolverConfig(delta=0.5).k_schedule == (100.0,)
        # a config's one height is a one-entry schedule; an empty one is refused
        assert make_exp(n=16).solver_cfg.k_schedule == (200.0,)
        with pytest.raises(DomainError, match="truncation schedule"):
            make_exp(n=16, k_schedule=[])

    def test_grid_argument_leaves_the_document(self):
        cfg = load_benchmark("benchmark_2d.json")
        before = copy.deepcopy(cfg)
        exp = build_experiment(cfg, n=[10, 12])
        assert exp.grid.shape == (10, 12) and cfg == before
        with pytest.raises(ConfigError, match="problem.grid.n must be an integer"):
            build_experiment(cfg, n=[10, 12.5])


class TestInnerSolve:
    def test_poisson_oracle(self):
        # zero iterate, no nonlinearity, no zeroth-order data: plain Poisson
        exp = make_exp(n=128, f_amp=0.0, a0_value=0.0,
                       model={"kind": "zero"}, delta=0.5)
        grid = exp.grid
        data = replace(exp.data, f=np.ones(grid.shape))
        W, info = inner_solve(np.zeros(grid.shape), data, exp.solver_cfg,
                              top_height(exp))
        xs = grid.coords()[0]
        assert np.max(np.abs(W - xs * (1 - xs) / 2)) <= 1e-10
        assert info.residual <= 1e-12 * info.rhs_l2 * 1.01

    def test_zero_data_zero_solution(self):
        exp = make_exp(f_amp=0.0, a0_value=0.0, model={"kind": "zero"},
                       delta=0.5)
        W, info = inner_solve(np.zeros(exp.grid.shape), exp.data,
                              exp.solver_cfg, top_height(exp))
        assert np.all(W == 0.0)
        assert info.iterations == 0

    def test_uniqueness_start_independence(self, rng):
        exp = make_exp(n=48)
        w = 0.05 * np.sin(2 * np.pi * exp.grid.coords()[0])
        W1, _ = inner_solve(w, exp.data, exp.solver_cfg, top_height(exp))
        W2, _ = inner_solve(w, exp.data, exp.solver_cfg, top_height(exp),
                            x0=rng.standard_normal(exp.grid.shape))
        gap = h1_seminorm(exp.grid, W1 - W2)
        assert gap <= 1e-8

    def test_negative_coefficient_rejected(self):
        # extremal model with delta below the growth constant: K dips negative
        exp = make_exp(model={"kind": "shape_times_quadratic",
                              "shape": "sign", "coeff": 0.5}, delta=0.6)
        xs = exp.grid.coords()[0]
        steep = 0.5 * np.sin(np.pi * xs)
        with pytest.raises(DomainError, match="zeroth-order coefficient"):
            inner_coefficients(exp.data, steep, 0.1, 200.0)

    def test_newton_budget_exhaustion(self):
        exp = make_exp(max_inner=0)
        with pytest.raises(NewtonStall):
            inner_solve(np.zeros(exp.grid.shape), exp.data, exp.solver_cfg,
                        top_height(exp))

    def test_energy_identity(self):
        # testing the discrete equation with its own solution: the energy
        # product plus the (nonnegative) zeroth-order pairing equals the load
        exp = make_exp(n=48)
        cfg, k = exp.solver_cfg, top_height(exp)
        data = exp.data
        xs = exp.grid.coords()[0]
        w = 0.1 * np.sin(np.pi * xs)
        W, info = inner_solve(w, data, cfg, k)
        b, rhs = inner_coefficients(data, w, cfg.delta, k)
        energy = float(np.sum(W * data.op.apply(W)))
        zero_pair = float(np.sum(b * sign_k(W, k) * W))
        load = float(np.sum(rhs * W))
        assert zero_pair >= 0.0
        tol = 10.0 * (cfg.inner_tol + cfg.cg_tol) * (1.0 + info.rhs_l2) \
            * max(1.0, float(np.max(np.abs(W))))
        assert energy + zero_pair == pytest.approx(load, abs=tol * 100)


class TestEstimateCheck:
    def test_zero_data_zero_slack(self):
        exp = make_exp(f_amp=0.0, a0_value=0.0, model={"kind": "zero"},
                       delta=0.5)
        z = np.zeros(exp.grid.shape)
        assert solver._estimate_slack(h1_seminorm(exp.grid, z),
                                      h1_seminorm(exp.grid, z),
                                      exp.data, 0.5) == 0.0

    def test_linear_bound_without_constants(self):
        # a0 = 0 leaves the data without constants (|a0|_q must be positive),
        # so the bound is the linear part alone, evaluated in the same order
        exp = make_exp(n=48, a0_value=0.0, delta=0.5)
        assert exp.data.constants is None
        _, trace = outer_fixed_point(exp.data, exp.solver_cfg, top_height(exp))
        norms, C_N = exp.data.norms, exp.data.C_N
        assert norms["f_Hm1"] > 0.0 and norms["a0_N2"] == 0.0
        for rec in trace.records:
            dw = rec.grad_norm_w
            bound = norms["f_Hm1"] + 0.5 * C_N**2 * norms["f_N2"] * dw \
                + C_N**2 * norms["a0_N2"] * dw
            assert rec.estimate_slack == bound - exp.data.A.alpha * rec.grad_norm_W

    def test_ball_preservation(self):
        # inputs inside the energy ball map to outputs inside the ball
        exp = make_exp(n=48)
        data, cfg = exp.data, exp.solver_cfg
        Z = data.ball_radius
        assert Z is not None
        xs = exp.grid.coords()[0]
        for scale in (0.0, 0.3, 0.9):
            w = np.sin(np.pi * xs)
            w *= scale * Z / h1_seminorm(exp.grid, w)
            assert h1_seminorm(exp.grid, w) <= Z * (1 + 1e-12)
            W, info = inner_solve(w, data, cfg, top_height(exp))
            eps = 10.0 * (cfg.inner_tol + cfg.cg_tol) * (1.0 + info.rhs_l2)
            assert h1_seminorm(exp.grid, W) <= Z + eps
            slack = solver._estimate_slack(h1_seminorm(exp.grid, w),
                                           h1_seminorm(exp.grid, W),
                                           data, cfg.delta)
            assert slack >= -eps


class TestOuterIteration:
    def test_zero_source_immediate(self):
        exp = make_exp(f_amp=0.0, a0_value=0.0, model={"kind": "zero"},
                       delta=0.5)
        w, trace = outer_fixed_point(exp.data, exp.solver_cfg, top_height(exp))
        assert np.all(w.values == 0.0)
        assert trace.converged
        assert len(trace.records) == 2  # the converging step plus the pinning one

    def test_matches_linear_solution_for_tiny_data(self):
        # with a tiny source the quadratic terms are second order and the
        # fixed point lands on the linear solution to within outer_tol
        amp = 1e-3
        exp = make_exp(n=64, f_amp=amp, a0_value=0.0, model={"kind": "zero"},
                       delta=0.5, outer_tol=1e-6)
        w, trace = outer_fixed_point(exp.data, exp.solver_cfg, top_height(exp))
        lin = np.linalg.solve(dense_operator(exp.data.op), exp.data.f)
        gap = h1_seminorm(exp.grid, w.values - lin)
        assert gap <= 1e-6

    def test_ball_invariance_along_run(self):
        exp = make_exp(n=64)
        w, trace = outer_fixed_point(exp.data, exp.solver_cfg, top_height(exp))
        assert trace.converged
        assert all(r.in_ball for r in trace.records)
        assert all(r.estimate_slack >= -trace.eps_solver for r in trace.records)

    def test_fixed_point_residual_bound(self):
        exp = make_exp(n=64, k_schedule=[5000.0])
        w, trace = outer_fixed_point(exp.data, exp.solver_cfg, top_height(exp))
        assert trace.residual <= 3.0 * exp.solver_cfg.outer_tol

    def test_delta_below_gamma_rejected(self):
        exp = make_exp()
        cfg = SolverConfig(delta=0.3)
        with pytest.raises(DomainError):
            outer_fixed_point(exp.data, cfg, 200.0)

    def test_budget_exhaustion_keeps_trace(self):
        exp = make_exp(max_outer=3, rho=1.0, outer_tol=1e-14)
        with pytest.raises(MaxOuterIterations) as err:
            outer_fixed_point(exp.data, exp.solver_cfg, top_height(exp))
        (trace,) = err.value.traces
        assert len(trace.records) == 3 and not trace.converged
        rows = [r.to_dict() for r in trace.records]
        assert all(r["increment"] > 0 for r in rows)


class TestContinuation:
    def test_zero_case_increments_vanish(self):
        exp = make_exp(f_amp=0.0, a0_value=0.0, model={"kind": "zero"},
                       delta=0.5, k_schedule=[1.0, 10.0, 100.0])
        w, diag, traces = k_continuation(exp.data, exp.solver_cfg,
                                         n_ladder=(0.5, 1.0))
        assert all(inc == 0.0 for inc in diag.increments)
        assert np.all(diag.tail_energy == 0.0)

    def test_schedule_must_increase(self):
        with pytest.raises(DomainError):
            exp = make_exp(k_schedule=[10.0, 5.0])
            k_continuation(exp.data, exp.solver_cfg)

    def test_saturated_truncation_reproduces_solution(self):
        # every height above max K gives the identical discrete problem
        exp = make_exp(n=48, k_schedule=[1000.0, 4000.0])
        w, diag, traces = k_continuation(exp.data, exp.solver_cfg)
        assert diag.increments[0] <= 1e-13

    def test_lower_heights_mix_and_the_top_two_stay_relaxed(self):
        # the top two heights are the relaxed solves bit for bit; the lower
        # ones reach their fixed points in fewer Picard iterations
        exp = make_exp(n=48, k_schedule=[5.0, 25.0, 200.0, 5000.0])
        data, cfg = exp.data, exp.solver_cfg
        n_ladder = (0.05, 0.1, 0.2, 0.4)
        w, diag, traces = k_continuation(data, cfg, n_ladder=n_ladder)
        relaxed = [outer_fixed_point(data, cfg, k) for k in cfg.k_schedule]
        for (_, plain), trace in zip(relaxed[:2], traces[:2]):
            assert trace.converged
            assert len(trace.records) < len(plain.records)
        for (_, plain), trace in zip(relaxed[2:], traces[2:]):
            assert [r.to_dict() for r in trace.records] \
                == [r.to_dict() for r in plain.records]
            assert (trace.residual, trace.eps_solver) \
                == (plain.residual, plain.eps_solver)
        assert np.array_equal(w.values, relaxed[-1][0].values)
        top_two = [v.values for v, _ in relaxed[2:]]
        assert diag.increments[-1] == energy_norm(
            exp.grid, gradient(exp.grid, top_two[0] - top_two[1]))
        for col, values in zip((2, 3), top_two):
            for row, n in enumerate(n_ladder):
                tail = gradient(exp.grid, remainder(values, n))
                assert diag.tail_energy[row, col] \
                    == energy_norm(exp.grid, tail) ** 2

    def test_without_ball_radius_every_height_stays_relaxed(self):
        # an explicit delta above delta0 has no ball to guard the mixing
        exp = make_exp(n=48, delta=8.0, k_schedule=[5.0, 25.0, 200.0])
        data, cfg = exp.data, exp.solver_cfg
        assert data.ball_radius is None
        _, _, traces = k_continuation(data, cfg)
        for k, trace in zip(cfg.k_schedule, traces):
            _, plain = outer_fixed_point(data, cfg, k)
            assert [r.to_dict() for r in trace.records] \
                == [r.to_dict() for r in plain.records]

    def test_benchmark_diagnostics(self):
        exp = make_exp(n=64, k_schedule=[5.0, 25.0, 200.0, 5000.0])
        w, diag, traces = k_continuation(exp.data, exp.solver_cfg,
                                         n_ladder=(0.05, 0.1, 0.2, 0.4))
        # increments nonincreasing across the schedule
        assert all(b <= a * (1 + 1e-9) + 1e-15
                   for a, b in zip(diag.increments, diag.increments[1:]))
        # tail energies nonincreasing in the height, zero above max |w|
        E = diag.tail_energy
        assert np.all(E[1:, :] <= E[:-1, :] * (1 + 1e-12) + 1e-15)
        max_w = diag.max_abs[-1]
        for nidx, height in enumerate((0.05, 0.1, 0.2, 0.4)):
            if height > max_w:
                assert E[nidx, -1] == 0.0

    def test_failure_carries_partial_diagnostics(self):
        exp = make_exp(n=48, k_schedule=[5.0, 25.0], max_outer=2,
                       outer_tol=1e-14)
        with pytest.raises(MaxOuterIterations) as err:
            k_continuation(exp.data, exp.solver_cfg, n_ladder=(0.1,))
        (partial,) = err.value.traces
        assert partial.k == 5.0
        assert len(partial.records) == 2 and not partial.converged

    def test_inner_failure_carries_finished_and_partial_traces(
            self, monkeypatch):
        # stall the third inner solve of the second height
        calls = []

        def stalling(w, data, cfg, k, **kw):
            calls.append(k)
            if calls.count(25.0) == 3:
                raise NewtonStall("stalled", residual=1.0, iterations=40)
            return inner_solve(w, data, cfg, k, **kw)

        monkeypatch.setattr(solver, "inner_solve", stalling)
        exp = make_exp(n=48, k_schedule=[5.0, 25.0])
        with pytest.raises(NewtonStall) as err:
            k_continuation(exp.data, exp.solver_cfg, n_ladder=(0.1,))
        exc = err.value
        finished, partial = exc.traces
        assert finished.k == 5.0 and finished.converged
        assert len(finished.records) == calls.count(5.0)
        assert partial.k == 25.0 and len(partial.records) == 2
        assert not partial.converged
        assert (exc.residual, exc.iterations) == (1.0, 40)


class TestTruncationMonotonicity:
    def test_heights_nest_and_saturate(self):
        # T_k(K) grows pointwise with the height and equals K beyond max K
        exp = make_exp(n=48)
        data, cfg = exp.data, exp.solver_cfg
        xs = exp.grid.coords()[0]
        w = 0.2 * np.sin(np.pi * xs)
        a_quad, grad_sq = data.node_quadratic_forms(w)
        K = transformed_terms(w, a_quad, grad_sq, cfg.delta, data.model)[0]
        prev = None
        for k in (0.01, 0.1, 1.0, 10.0):
            tk = truncate(K, k)
            if prev is not None:
                assert np.all(tk >= prev)
            prev = tk
        assert np.array_equal(truncate(K, float(np.max(K)) + 1.0), K)


class TestResiduals:
    def test_zero_everything(self):
        exp = make_exp(f_amp=0.0, a0_value=0.0, model={"kind": "zero"},
                       delta=0.5)
        z = np.zeros(exp.grid.shape)
        assert fixed_point_residual(z, exp.data, 0.5, k=10.0) == 0.0
        assert fixed_point_residual(z, exp.data, 0.5, k=None) == 0.0
        assert original_residual(z, exp.data, 0.5) == 0.0

    def test_untruncated_residual_after_saturated_solve(self):
        exp = make_exp(n=64, k_schedule=[5000.0])
        w, trace = outer_fixed_point(exp.data, exp.solver_cfg, top_height(exp))
        res = fixed_point_residual(w.values, exp.data, exp.solver_cfg.delta,
                                   k=None)
        assert res <= 3.0 * exp.solver_cfg.outer_tol

    def test_original_residual_refines(self):
        res = []
        hs = []
        for n in (32, 64, 128):
            exp = make_exp(n=n, k_schedule=[5000.0])
            w, _ = outer_fixed_point(exp.data, exp.solver_cfg, top_height(exp))
            res.append(original_residual(w.values, exp.data,
                                         exp.solver_cfg.delta))
            hs.append(exp.grid.h[0])
        order = np.polyfit(np.log(hs), np.log(res), 1)[0]
        assert order >= 0.9

    def test_norm_identity_exact_chain(self):
        g = Grid((1.0,), (48,))
        xs = g.coords()[0]
        u = 0.7 * np.sin(np.pi * xs)
        lhs, rhs, gap = norm_identity_gap(g, u, 0.8, exact_chain=True)
        assert gap <= 1e-10 * max(1.0, rhs)

    def test_norm_identity_refines(self):
        gaps, hs = [], []
        for n in (32, 64, 128):
            g = Grid((1.0,), (n,))
            xs = g.coords()[0]
            u = 0.7 * np.sin(np.pi * xs)
            _, _, gap = norm_identity_gap(g, u, 0.8, exact_chain=False)
            gaps.append(gap)
            hs.append(g.h[0])
        assert np.polyfit(np.log(hs), np.log(gaps), 1)[0] >= 0.9


class TestExtremalModel:
    def test_upper_extremal_shape_solves(self):
        # h(s) = gamma*sign(s) saturates the growth bound: the transformed
        # coefficient b touches zero where the iterate is positive, which is
        # the hardest admissible case for the inner solve
        exp = make_exp(n=48, model={"kind": "shape_times_quadratic",
                                    "shape": "sign", "coeff": 0.5},
                       k_schedule=[200.0, 5000.0])
        w, diag, traces = k_continuation(exp.data, exp.solver_cfg)
        assert all(t.converged for t in traces)
        assert traces[-1].residual <= 3.0 * exp.solver_cfg.outer_tol
        assert all(r.in_ball for t in traces for r in t.records)
        b, _ = inner_coefficients(exp.data, w.values,
                                  exp.solver_cfg.delta, 5000.0)
        assert float(np.min(b)) >= 0.0


class TestVariableCoefficient2D:
    def test_per_cell_matrix_field(self, rng):
        exp = build_experiment(load_benchmark("benchmark_2d.json"), n=[10, 12])
        with pytest.raises(FieldValidationError,
                           match=re.escape("(11, 13, 2) is not (2,)")):
            MatrixField(exp.grid, rng.uniform(1.0, 2.0, (11, 13, 2)), alpha=1.0)
        # replacing A by another constant diagonal rebuilds the operator
        A = MatrixField(exp.grid, [1.1, 1.3], alpha=1.0)
        data = replace(exp.data, A=A)
        assert data.op.coef == (1.1, 1.3) and exp.data.op.coef == (1.0, 1.25)
        res = grid_check("discrete integration by parts", data.op, rng)
        assert res.ok, res.line()


class TestNewtonCG:
    @pytest.mark.parametrize("dim, n", [(1, 48), (2, 16)], ids=["1d", "2d"])
    def test_stencil_applied_once_per_residual(self, monkeypatch, dim, n):
        # CG carries the stencil's image of its search direction, and each
        # inner solve takes its start's image from the previous one, so the
        # stencil runs once per line-search trial and never inside CG
        exp = make_exp(n=n, dim=dim)
        applies, cg_applies = [], []
        stencil, cg = DiffusionOperator.apply, solver.cg_solve

        def counted_apply(self, v):
            applies.append(1)
            return stencil(self, v)

        def counted_cg(*args, **kwargs):
            before = len(applies)
            result = cg(*args, **kwargs)
            cg_applies.append(len(applies) - before)
            return result

        monkeypatch.setattr(DiffusionOperator, "apply", counted_apply)
        monkeypatch.setattr(solver, "cg_solve", counted_cg)
        _, trace = outer_fixed_point(exp.data, exp.solver_cfg, top_height(exp))
        assert trace.converged and trace.residual <= 1e-8
        newton = sum(r.inner_iterations for r in trace.records)
        cg_iterations = sum(r.cg_iterations for r in trace.records)
        assert len(cg_applies) == newton and not any(cg_applies)
        assert sum(r.ls_halvings for r in trace.records) == 0
        # one per Newton step (the line search takes the full step here) and
        # the final fixed-point residual; none at an inner solve's start
        assert len(applies) == newton + 1
        assert cg_iterations >= newton

    @pytest.mark.parametrize("dim, n", [(1, 48), (2, 16)], ids=["1d", "2d"])
    def test_cg_forcing_relative_to_rhs(self, monkeypatch, dim, n):
        # each Newton step's CG is asked for a residual of
        # min(cg_tol, inner_tol/100) |rhs(w)|, while Newton stops on the true
        # residual at inner_tol |rhs(w)|
        exp = make_exp(n=n, dim=dim)
        cfg = exp.solver_cfg
        steps, results = [], []
        cg, inner = solver.cg_solve, solver.inner_solve

        def recording_cg(inverse, rhs, shift, tol):
            steps[-1].append((tol, float(np.linalg.norm(rhs))))
            return cg(inverse, rhs, shift, tol=tol)

        def recording_inner(*args, **kwargs):
            steps.append([])
            W, info = inner(*args, **kwargs)
            results.append(info)
            return W, info

        monkeypatch.setattr(solver, "cg_solve", recording_cg)
        monkeypatch.setattr(solver, "inner_solve", recording_inner)
        _, trace = outer_fixed_point(exp.data, cfg, top_height(exp))
        assert trace.converged and len(results) == len(trace.records)
        forcing = min(cfg.cg_tol, 0.01 * cfg.inner_tol)
        for info, calls in zip(results, steps):
            assert len(calls) == info.iterations
            assert info.residual <= cfg.inner_tol * info.rhs_l2
            for tol, res in calls:
                want = max(1e-15, forcing * info.rhs_l2 / res)
                assert tol == pytest.approx(want, rel=1e-12)


class TestInnerCoefficients:
    @pytest.mark.parametrize("name, n", [("benchmark_1d.json", [40]),
                                         ("benchmark_2d.json", [12, 10])],
                             ids=["1d", "2d"])
    def test_one_pass_matches_the_separate_functions(self, rng, name, n):
        # b against the point reference k_delta at every node, rhs against
        # g_delta bit for bit
        exp = build_experiment(load_benchmark(name), n=n)
        data, delta = exp.data, exp.solver_cfg.delta
        shape = exp.grid.shape
        # delta|w| from 1e-3 to 10, both signs, a fifth of the nodes zero
        w = rng.choice([-1.0, 1.0], shape) \
            * 10.0 ** rng.uniform(-3.0, 1.0, shape) / delta
        w[rng.random(shape) < 0.2] = 0.0
        x = delta * np.abs(w)
        assert np.any(x == 0) and np.any((x > 0) & (x < 0.1)) and np.any(x > 0.1)
        grad = gradient(exp.grid, w)
        zeta = np.stack(node_average(exp.grid, grad), axis=-1)
        K = np.array([k_delta(np.diag(data.A.values), w[i], zeta[i], delta,
                              data.model)
                      for i in np.ndindex(shape)]).reshape(shape)
        f, a0 = data.f, data.a0
        rhs_ref = (1.0 + x) * f + a0 * w + a0 * g_delta(w, delta) * np.sign(w)
        for k in (5.0, 1e5):
            b, rhs = inner_coefficients(data, w, delta, k)
            b_grad, rhs_grad = inner_coefficients(data, w, delta, k, grad)
            assert np.array_equal(b, b_grad) and np.array_equal(rhs, rhs_grad)
            np.testing.assert_allclose(b, np.maximum(truncate(K, k), 0.0),
                                       rtol=1e-12, atol=1e-13)
            assert np.array_equal(rhs, rhs_ref)


class TestPlainArrays:
    def test_one_level_builds_one_field(self, monkeypatch):
        # inside a level the iterates and inner solutions are plain arrays:
        # the returned solution is the only field built (and validated)
        exp = build_experiment(load_benchmark("benchmark_1d.json"))
        cfg = exp.solver_cfg
        built, post_init = [], ScalarField.__post_init__

        def counting(field):
            built.append(field)
            post_init(field)

        monkeypatch.setattr(ScalarField, "__post_init__", counting)
        w, trace = outer_fixed_point(exp.data, cfg, cfg.k_schedule[0])
        assert trace.converged and len(trace.records) > 1
        assert len(built) == 1 and built[0] is w


class TestOuterLoopEnergies:
    @pytest.mark.parametrize("dim, n", [(1, 48), (2, 16)], ids=["1d", "2d"])
    def test_reported_energies_are_the_fields_energies(self, monkeypatch,
                                                       dim, n):
        # the loop takes its energies from carried edge gradients
        exp = make_exp(n=n, dim=dim)
        pairs = []
        inner = solver.inner_solve

        def recording(w, *args, **kwargs):
            W, info = inner(w, *args, **kwargs)
            pairs.append((w, W))
            return W, info

        monkeypatch.setattr(solver, "inner_solve", recording)
        _, trace = outer_fixed_point(exp.data, exp.solver_cfg, top_height(exp))
        assert trace.converged and len(pairs) == len(trace.records)
        rho = exp.solver_cfg.rho

        def energy(v):
            return h1_seminorm(exp.grid, v)

        for rec, (w, W) in zip(trace.records, pairs):
            defect = energy(W - w)
            step = defect if rec is trace.records[-1] else rho * defect
            for got, want in ((rec.grad_norm_w, energy(w)),
                              (rec.grad_norm_W, energy(W)),
                              (rec.increment, step)):
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_trace_row_is_the_dataclass_row(self):
        rec = IterationRecord(m=3, grad_norm_w=0.1, grad_norm_W=np.float64(0.2),
                              increment=1e-11, estimate_slack=-0.0,
                              inner_iterations=1, cg_iterations=4, rhs_l2=2.5,
                              in_ball=None)
        assert json.dumps(rec.to_dict(), sort_keys=True) \
            == json.dumps(asdict(rec), sort_keys=True)


REFERENCE_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                             "perfbench", "reference")


class TestAndersonMixing:
    # Picard iterations of one Anderson-mixed cold solve at the top height of
    # the benchmark schedules, the final unrelaxed application included; the
    # relaxed loop takes 42 (1d) and 38 (2d) there
    PICARD = {"1d": 14, "2d": 13}

    def test_benchmark_fixed_point(self, anderson_solve):
        label, data, cfg, w, trace = anderson_solve
        assert trace.converged and len(trace.records) == self.PICARD[label]
        assert all(r.in_ball is True for r in trace.records)
        assert trace.residual <= 3.0 * cfg.outer_tol
        ref = read_field_csv(os.path.join(REFERENCE_DIR, f"solution_w_{label}.csv"),
                             w.grid)
        assert float(np.max(np.abs(w.values - ref.values))) <= 10.0 * cfg.outer_tol

    @pytest.mark.parametrize("name", ["benchmark_1d.json", "benchmark_2d.json"])
    def test_fallback_keeps_the_ball(self, name, monkeypatch):
        # a ball radius just above the first height's |Dw|: mixed iterates
        # that overshoot it are replaced by relaxed steps, which stay inside
        exp = build_experiment(load_benchmark(name))
        cfg, k = exp.solver_cfg, exp.solver_cfg.k_schedule[0]
        w, _ = outer_fixed_point(exp.data, cfg, k, anderson=True)
        relaxed = []
        step = solver._relaxed_step

        def counting(*args):
            relaxed.append(args)
            return step(*args)

        monkeypatch.setattr(solver, "_relaxed_step", counting)
        tight = replace(exp.data,
                        ball_radius=h1_seminorm(w.grid, w.values) * (1.0 + 1e-3))
        _, trace = outer_fixed_point(tight, cfg, k, anderson=True)
        # some steps fell back, the others mixed
        assert 0 < len(relaxed) < len(trace.records) - 1
        assert all(r.in_ball for r in trace.records)
        assert trace.converged and trace.residual <= 3.0 * cfg.outer_tol


class TestLeastSquaresFit:
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_matches_lstsq(self, rng, m):
        columns = rng.standard_normal((200, m))
        target = rng.standard_normal(200)
        gamma = solver._least_squares(list(columns.T), target)
        want = np.linalg.lstsq(columns, target, rcond=None)[0]
        assert np.allclose(gamma, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("cond", [1e6, 1e9, 3e9, 3e10, 1e12, 1e16])
    def test_refuses_every_fit_the_rank_test_refuses(self, rng, cond):
        # |R|_F |R^-1|_F bounds kappa_2 from above, so a fit whose smallest
        # singular value falls below DEGENERATE_FIT times the largest is
        # refused; the estimate may refuse somewhat better fits as well
        for m in (2, 5):
            u, _ = np.linalg.qr(rng.standard_normal((200, m)))
            v, _ = np.linalg.qr(rng.standard_normal((m, m)))
            columns = (u * np.geomspace(1.0, 1.0 / cond, m)) @ v.T
            rank = np.linalg.lstsq(columns, u[:, 0],
                                   rcond=solver.DEGENERATE_FIT)[2]
            gamma = solver._least_squares(list(columns.T), u[:, 0])
            if rank < m:
                assert gamma is None
            if cond <= 1e9:
                assert gamma is not None

    def test_repeated_defect_difference_takes_the_relaxed_step(self, rng):
        # seeded fault: the defects advance by one fixed difference, so the
        # history holds two equal columns and the fit is degenerate
        grid = Grid((1.0,), (32,))
        mix = solver._AndersonStep(grid, 0.5, np.inf,
                                   solver.IterationTrace(k=1.0))
        w = 0.1 * rng.standard_normal(grid.shape)
        base, diff = rng.standard_normal((2, *grid.shape))
        for i in range(3):
            W = w + base + i * diff
            grad_W, grad_D = gradient(grid, W), gradient(grid, W - w)
            args = (w, W, grad_W, grad_D, energy_norm(grid, grad_D))
            got = mix(*args)
        assert not mix.history
        (w_got, grad_got, *rest), (w_want, grad_want, *rest_want) = \
            got, solver._relaxed_step(grid, 0.5, *args)
        assert np.array_equal(w_got, w_want) and rest == rest_want
        assert all(map(np.array_equal, grad_got, grad_want))


class TestRemarkMode:
    def test_explicit_delta_below_delta0_uses_lower_zero(self):
        base = load_benchmark("benchmark_1d.json")
        exp0 = build_experiment(base, n=[48])
        d0 = exp0.report.delta0
        z0 = exp0.report.Z_delta0
        delta = 0.5 * (0.5 + d0)  # inside [gamma, delta0)
        base["solver"].update(delta=delta, k_schedule=[100.0])
        exp = build_experiment(base, n=[48])
        assert exp.delta_mode == "explicit"
        assert exp.data.ball_radius is not None
        assert exp.data.ball_radius < z0  # the smaller zero bounds tighter
        w, trace = outer_fixed_point(exp.data, exp.solver_cfg, top_height(exp))
        assert trace.converged
        assert h1_seminorm(w.grid, w.values) \
            <= exp.data.ball_radius + trace.eps_solver
