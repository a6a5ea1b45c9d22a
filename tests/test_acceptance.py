"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import os
import time

import numpy as np
import pytest

from conftest import config_path, golden_minimize, growth_constant_mp, \
    load_benchmark, random_admissible_constants
from quadgrad.cli import main
from quadgrad.config import build_experiment, experiment_from_file
from quadgrad.constants import (
    delta1,
    phi,
    phi_at_min,
    solve_delta0,
    z_delta,
    zeros_y,
)
from quadgrad.grid import (
    Grid,
    field_from_expression,
    hminus1_norm,
    read_field_csv,
)
from quadgrad.nonlinearity import (
    HModel,
    transform_forward,
    transform_inverse,
)
from quadgrad.solver import (
    k_continuation,
    norm_identity_gap,
    original_residual,
    outer_fixed_point,
)
from quadgrad.validate import (
    check_g_envelope,
    check_g_growth,
    check_g_identity,
    check_k_nonnegative,
    check_k_two_sided,
    model_samples,
)

INV_SQRT12 = 0.288675134594812882254574390251
REFERENCE_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                             "perfbench", "reference")

CATALOG = [
    HModel(kind="zero", gamma_cert=0.5, c0_cert=0.2),
    HModel(kind="shape_times_quadratic", shape="tanh", coeff=0.4,
           gamma_cert=0.5, c0_cert=0.2),
    HModel(kind="shape_times_quadratic", shape="sign", coeff=0.5,
           gamma_cert=0.5, c0_cert=0.2),
    HModel(kind="mu_gradsq", mu=0.15, gamma_cert=0.5, c0_cert=0.3),
]


def report(criterion, ok, detail=""):
    line = f"[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def run_1d():
    exp = experiment_from_file(config_path("benchmark_1d.json"))
    t0 = time.monotonic()
    w, diag, traces = k_continuation(exp.data, exp.solver_cfg,
                                     n_ladder=exp.n_ladder)
    return exp, w, diag, traces, time.monotonic() - t0


@pytest.fixture(scope="session")
def run_2d():
    exp = experiment_from_file(config_path("benchmark_2d.json"))
    t0 = time.monotonic()
    w, diag, traces = k_continuation(exp.data, exp.solver_cfg,
                                     n_ladder=exp.n_ladder)
    return exp, w, diag, traces, time.monotonic() - t0


def test_criterion_01_constants_engine():
    rng = np.random.default_rng(42)
    t0 = time.monotonic()
    worst_g = worst_phi = worst_root = 0.0
    for _ in range(200):
        c = random_admissible_constants(rng)
        assert 0.0 < c.theta < 1.0
        G = c.G
        G_ref = growth_constant_mp(c)
        worst_g = max(worst_g, abs(G - G_ref) / G_ref)
        d = float(rng.uniform(0.0, 1.0)) * delta1(c)
        zd = z_delta(d, c)
        xm = golden_minimize(lambda X: phi(d, X, c),
                             0.0, 2.0 * zd + 1.0)
        closed = phi_at_min(d, c)
        scale = max(1.0, abs(closed))
        worst_phi = max(worst_phi, abs(closed - phi(d, xm, c)) / scale)
        # the criterion's root gate is absolute; request the tolerance that
        # implies it through the solver's max(1, |f|_dual) scaling
        d0, zd0 = solve_delta0(c, tol=1e-13 / max(1.0, c.norm_f_Hm1))
        assert c.gamma <= d0 < delta1(c)
        worst_root = max(worst_root, abs(phi(d0, zd0, c)))
    elapsed = time.monotonic() - t0
    ok = worst_g <= 1e-14 and worst_phi <= 1e-12 and worst_root <= 1e-12 \
        and elapsed < 5.0
    report(1, ok, f"G vs mpmath {worst_g:.2e}, min-form {worst_phi:.2e}, "
                  f"root value {worst_root:.2e}, {elapsed:.2f}s")


def test_criterion_02_pointwise_bound_suite():
    rng = np.random.default_rng(7)
    t0 = time.monotonic()
    ok = True
    details = []
    for model in CATALOG:
        samples = model_samples(model, 0.5, rng)
        r1 = check_k_two_sided(samples, rng)
        r2 = check_k_nonnegative(samples, rng)
        ok = ok and r1.ok and r2.ok
        details.append(f"{model.kind}:{min(r1.worst, r2.worst):.1e}")
    r3 = check_g_identity(rng)
    r4 = check_g_envelope(rng)
    exp = experiment_from_file(config_path("benchmark_1d.json"),
                               for_solve=False)
    c = exp.data.constants
    r5 = check_g_growth(c, rng)
    elapsed = time.monotonic() - t0
    ok = ok and r3.ok and r4.ok and r5.ok and elapsed < 5.0
    report(2, ok, ", ".join(details) + f", identity {r3.worst:.1e}, "
                  f"envelopes ok={r4.ok}/{r5.ok}, {elapsed:.2f}s")


def test_criterion_03_transform():
    exp = experiment_from_file(config_path("benchmark_1d.json"),
                               for_solve=False)
    c = exp.data.constants
    d0, _ = solve_delta0(c)
    gamma = c.gamma
    u = np.linspace(-20.0, 20.0, 2001)
    worst = 0.0
    for d in (gamma / 2.0, gamma, d0):
        w = transform_forward(u, d)
        worst = max(worst, float(np.max(np.abs(transform_inverse(w, d) - u))))
    gaps, hs = [], []
    for n in (64, 128, 256):
        g = Grid((1.0,), (n,))
        xs = g.coords()[0]
        smooth = 0.7 * np.sin(np.pi * xs)
        _, _, gap = norm_identity_gap(g, smooth, gamma, exact_chain=False)
        gaps.append(gap)
        hs.append(g.h[0])
    order = float(np.polyfit(np.log(hs), np.log(gaps), 1)[0])
    ok = worst <= 1e-12 and order >= 0.9
    report(3, ok, f"roundtrip {worst:.2e}, identity order {order:.2f}")


def test_criterion_04_linear_oracle():
    cfg = {
        "problem": {
            "grid": {"extents": [1.0], "n": [128]},
            "A": {"kind": "identity"},
            "f": {"expr": {"kind": "constant", "value": 1.0}},
            "a0": {"expr": {"kind": "constant", "value": 0.0}},
            "H": {"kind": "zero"},
            "alpha": 1.0, "gamma": 0.5, "c0": 0.0, "q": 1.8, "N": 3,
        },
        "constants": {"C_N": "estimate"},
        "solver": {"delta": 0.5, "k_schedule": [10000.0], "rho": 0.5,
                   "outer_tol": 1e-12, "inner_tol": 1e-12, "max_outer": 400},
    }
    exp = build_experiment(cfg)
    w, trace = outer_fixed_point(exp.data, exp.solver_cfg,
                                 exp.solver_cfg.k_schedule[-1])
    u = transform_inverse(w.values, 0.5)
    xs = exp.grid.coords()[0]
    h = exp.grid.h[0]
    err = float(np.max(np.abs(u - xs * (1.0 - xs) / 2.0)))
    g256 = Grid((1.0,), (256,))
    f256 = field_from_expression(g256, {"kind": "constant", "value": 1.0})
    dual_err = abs(hminus1_norm(g256, f256.values) - INV_SQRT12)
    ok = err <= 2.0 * h * h and dual_err <= 1e-3
    report(4, ok, f"pipeline Linf {err:.2e} vs 2h^2 {2*h*h:.2e}, "
                  f"dual-norm gap {dual_err:.2e}")


def _ball_and_residual(exp, diag, traces, elapsed, label):
    # the shipped data must pass both smallness checks with the discrete
    # constants for the ball radius to mean anything
    admissible = exp.report is not None \
        and exp.report.smallness_A1.holds and exp.report.smallness_A3.holds
    eps = max(t.eps_solver for t in traces)
    Z = exp.data.ball_radius
    in_ball = all(r.grad_norm_w <= Z + eps and r.grad_norm_W <= Z + eps
                  for t in traces for r in t.records)
    res_ok = all(t.residual <= 3.0 * exp.solver_cfg.outer_tol for t in traces)
    return (admissible and in_ball and res_ok and elapsed < 60.0,
            f"{label}: smallness={admissible}, ball ok={in_ball}, max residual "
            f"{max(t.residual for t in traces):.2e}, {elapsed:.1f}s")


def test_criterion_05_ball_invariance(run_1d, run_2d):
    exp1, _, diag1, traces1, t1 = run_1d
    exp2, _, diag2, traces2, t2 = run_2d
    ok1, d1 = _ball_and_residual(exp1, diag1, traces1, t1, "1d")
    ok2, d2 = _ball_and_residual(exp2, diag2, traces2, t2, "2d")
    report(5, ok1 and ok2, d1 + "; " + d2)


def test_benchmark_solutions_match_reference(run_1d, run_2d):
    # the committed benchmark references pin both solutions to 1e-12
    for label, (exp, w, _, _, _) in (("1d", run_1d), ("2d", run_2d)):
        ref = read_field_csv(
            os.path.join(REFERENCE_DIR, f"solution_w_{label}.csv"), exp.grid)
        dev = float(np.max(np.abs(w.values - ref.values)))
        assert dev <= 1e-12, f"{label}: max |w - w_ref| = {dev:.3e}"


def test_benchmark_iteration_counts(run_1d, run_2d):
    # a change that only saves work must leave the trajectory where it is,
    # and one that adds linear work must say so here; the three lower
    # heights are Anderson-mixed, the top one keeps the relaxed trajectory
    for run, picard, newton, cg in ((run_1d, [13, 13, 14, 42], 91, 233),
                                    (run_2d, [10, 12, 13, 38], 77, 205)):
        traces = run[3]
        assert [len(t.records) for t in traces] == picard
        assert sum(r.inner_iterations
                   for t in traces for r in t.records) == newton
        assert sum(r.cg_iterations for t in traces for r in t.records) <= cg


def test_warm_started_newton_steps_per_picard(run_1d):
    # each inner solve starts from the previous inner solution, which
    # consecutive Picard iterates barely move
    traces = run_1d[3]
    records = [r for t in traces for r in t.records]
    newton = sum(r.inner_iterations for r in records)
    assert newton / len(records) <= 1.5, f"{newton}/{len(records)}"


def test_criterion_06_estimate_chain(run_1d, run_2d):
    worst = np.inf
    total = 0
    for exp, _, _, traces, _ in (run_1d, run_2d):
        eps = max(t.eps_solver for t in traces)
        for t in traces:
            for r in t.records:
                worst = min(worst, r.estimate_slack + eps)
                total += 1
    ok = worst >= 0.0
    report(6, ok, f"min slack+eps {worst:.2e} over {total} inner solves")


def test_criterion_07_continuation_diagnostics(run_1d, run_2d):
    ok = True
    details = []
    for label, (exp, w, diag, traces, _) in (("1d", run_1d), ("2d", run_2d)):
        inc = diag.increments
        last3 = inc[-3:]
        mono_inc = all(b <= a * (1.0 + 1e-9) + 1e-15
                       for a, b in zip(last3, last3[1:]))
        E = diag.tail_energy
        mono_n = bool(np.all(E[1:, :] <= E[:-1, :] * (1 + 1e-12) + 1e-15))
        max_w = diag.max_abs[-1]
        exact_zero = all(
            E[nidx, -1] == 0.0
            for nidx, height in enumerate(diag.n_ladder) if height > max_w)
        covered = any(height > max_w for height in diag.n_ladder)
        ok = ok and mono_inc and mono_n and exact_zero and covered
        details.append(f"{label}: incs {['%.1e' % v for v in last3]}, "
                       f"tails mono={mono_n}, exact zero={exact_zero}")
    report(7, ok, "; ".join(details))


def test_criterion_08_equivalence_refinement():
    base = load_benchmark("benchmark_1d.json")
    base["solver"]["k_schedule"] = [5000.0]
    res, hs = [], []
    for n in (64, 128, 256):
        exp = build_experiment(base, n=[n])
        w, diag, traces = k_continuation(exp.data, exp.solver_cfg)
        res.append(original_residual(w.values, exp.data, exp.solver_cfg.delta))
        hs.append(exp.grid.h[0])
    order = float(np.polyfit(np.log(hs), np.log(res), 1)[0])
    ok = order >= 0.9 and res[-1] < res[0]
    report(8, ok, f"residuals {['%.2e' % r for r in res]}, order {order:.2f}")


def test_criterion_09_frontier_structure():
    exp = experiment_from_file(config_path("benchmark_1d.json"),
                               for_solve=False)
    c = exp.data.constants
    d0, zd0 = solve_delta0(c)
    ds = np.linspace(c.gamma, delta1(c), 60)
    phis = [phi_at_min(float(d), c) for d in ds]
    zs = [z_delta(float(d), c) for d in ds]
    signs = [p < 0 for p in phis]
    one_crossing = sum(a != b for a, b in zip(signs, signs[1:])) == 1
    z_decreasing = all(a > b for a, b in zip(zs, zs[1:]))
    ordering = True
    for d in ds:
        d = float(d)
        if d < d0 and phi_at_min(d, c) < 0.0:
            ym, yp = zeros_y(d, c)
            ordering = ordering and (0.0 < ym < zd0 < yp)
    ok = one_crossing and z_decreasing and ordering
    report(9, ok, f"single crossing={one_crossing}, Z decreasing="
                  f"{z_decreasing}, zero ordering={ordering}")


def test_criterion_10_honest_failure(tmp_path):
    out3 = os.path.join(tmp_path, "smallness")
    code3 = main(["solve", "--config", config_path("fail_smallness.json"),
                  "--out", out3])
    no_solve = not os.path.exists(out3)
    out4 = os.path.join(tmp_path, "nonconvergence")
    code4 = main(["solve", "--config", config_path("fail_nonconvergence.json"),
                  "--out", out4])
    with open(os.path.join(out4, "trace.jsonl")) as fh:
        rows = [json.loads(line) for line in fh]
    complete = len(rows) == 6 and all("increment" in r for r in rows)
    ok = code3 == 3 and no_solve and code4 == 4 and complete
    report(10, ok, f"smallness exit {code3} (no outputs: {no_solve}), "
                   f"nonconvergence exit {code4} with {len(rows)} trace rows")
