"""Manufactured-solution accuracy gate for the whole nonlinear solve.

Each benchmark keeps its A, H and a0, and gets a smooth exact solution
u* = eps * prod_i sin(pi x_i) on its unit box.  The source
f = -div(A Du*) - H(x, u*, Du*) - a0 u* is evaluated at the nodes from the
closed-form derivatives and enters the config as a CSV field, so u* solves
the continuous problem exactly.  The reconstructed u = transform_inverse(w,
delta) must then approach u* at the stencil's second order (Roache,
Verification and Validation in Computational Science and Engineering, 1998;
Salari & Knupp, SAND2000-1444).
"""

import math

import numpy as np
import pytest

from conftest import load_benchmark
from quadgrad.config import build_experiment
from quadgrad.grid import Grid, field_from_expression, write_field_csv
from quadgrad.nonlinearity import transform_inverse
from quadgrad.solver import k_continuation

EPS = {1: 0.1, 2: 0.06}
NODES = {1: (31, 63, 127), 2: (15, 31, 63)}
ORDER_WINDOW = (1.8, 2.2)
# max |u - u*| < ERROR_CONSTANT * h^2 on every grid; the measured ratios
# are 0.279-0.280 (1D) and 0.147 (2D) on all three grids
ERROR_CONSTANT = {1: 0.3, 2: 0.16}


def manufactured(problem, grid, eps, entries=None):
    """u* and f at the nodes; ``entries`` replaces A's diagonal in f only."""
    if entries is None:
        spec = problem["A"]
        entries = spec["entries"] if spec.get("kind") == "diagonal" \
            else [spec.get("scale", 1.0)] * grid.dim
    sines = [np.sin(math.pi * x) for x in grid.coords()]
    u = eps * np.prod(sines, axis=0)
    du = [eps * math.pi * np.cos(math.pi * x)
          * np.prod(sines[:i] + sines[i + 1:], axis=0)
          for i, x in enumerate(grid.coords())]
    # each axis contributes -a_i d_ii u* = a_i pi^2 u*
    div_term = sum(entries) * math.pi ** 2 * u
    a_quad = sum(a * d * d for a, d in zip(entries, du))
    grad_sq = sum(d * d for d in du)
    h_spec = problem["H"]
    if h_spec["kind"] == "shape_times_quadratic":
        assert h_spec["shape"] == "tanh"
        h_val = h_spec["coeff"] * np.tanh(u) * a_quad
    else:
        assert h_spec["kind"] == "mu_gradsq"
        h_val = h_spec["mu"] * grad_sq
    a0 = field_from_expression(grid, problem["a0"]["expr"]).values
    return u, div_term - h_val - a0 * u


def max_errors(tmp_path, name, entries=None):
    """max |u - u*| and h on each grid of the benchmark's refinement."""
    cfg = load_benchmark(name)
    problem = cfg["problem"]
    dim = len(problem["grid"]["n"])
    assert problem["grid"]["extents"] == [1.0] * dim
    errors, hs = [], []
    for n in NODES[dim]:
        grid = Grid(problem["grid"]["extents"], (n,) * dim)
        u_star, f = manufactured(problem, grid, EPS[dim], entries)
        write_field_csv(grid, f, tmp_path / "f.csv")
        problem["grid"]["n"] = [n] * dim
        problem["f"] = {"csv": "f.csv"}
        exp = build_experiment(cfg, base_dir=str(tmp_path))
        w, _, _ = k_continuation(exp.data, exp.solver_cfg)
        u = transform_inverse(w.values, exp.solver_cfg.delta)
        errors.append(float(np.max(np.abs(u - u_star))))
        hs.append(grid.h[0])
    return np.array(errors), np.array(hs)


def gate(errors, hs, dim):
    """(passes, observed orders, error / h^2): every order in the window and
    every error below the stated constant times h^2."""
    orders = np.log(errors[:-1] / errors[1:]) / np.log(hs[:-1] / hs[1:])
    ratios = errors / hs ** 2
    lo, hi = ORDER_WINDOW
    ok = bool(np.all((lo <= orders) & (orders <= hi))
              and np.all(ratios < ERROR_CONSTANT[dim]))
    return ok, orders, ratios


@pytest.mark.parametrize("name, dim", [("benchmark_1d.json", 1),
                                       ("benchmark_2d.json", 2)])
def test_second_order_against_manufactured_solution(tmp_path, name, dim):
    ok, orders, ratios = gate(*max_errors(tmp_path, name), dim)
    assert ok, f"orders {orders}, error / h^2 {ratios}"


def test_gate_fails_on_a_wrong_coefficient(tmp_path):
    # f built with A = diag(1, 1) instead of diag(1, 1.25): u* no longer
    # solves the discretized problem's limit, and the error stops shrinking.
    # Swapping the two entries would not do: -div(A Du*) = (a_1 + a_2) pi^2 u*
    # for this u*, the same f either way.
    ok, orders, ratios = gate(*max_errors(tmp_path, "benchmark_2d.json",
                                          entries=(1.0, 1.0)), 2)
    assert not ok, f"orders {orders}, error / h^2 {ratios}"
