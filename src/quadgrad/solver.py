"""Truncated fixed-point solver for the transformed problem.

Structure of one solve at truncation height k:

  inner:  given the current iterate w, freeze the nonnegative coefficient
          b = truncate(K_delta(x, w, Dw), k) and solve the monotone semilinear
          problem  -div(A DW) + b * sign_k(W) = rhs(w)  by damped semismooth
          Newton (unique solution, start-independent).  Each Newton step
          solves operator-plus-diagonal by conjugate gradients preconditioned
          with the exact sine-transform inverse of the mean-coefficient
          operator (``DiffusionOperator.fast_inverse``);
  outer:  Picard with relaxation w <- (1-rho) w + rho W from w = 0, each inner
          solve warm-started from the previous inner solution W, which
          consecutive iterates barely move once the iteration settles; declared
          converged when the energy increment drops below outer_tol; the
          existence argument behind the scheme is non-constructive, so
          non-convergence within the budget is an honestly reported outcome,
          never retried silently;
  ladder: re-solve along an increasing truncation schedule and record tail
          energies and increments as convergence diagnostics.

Every inner solve is followed by the a priori estimate check: the energy of
the output is bounded by the profile value at the input's energy, an exact
discrete inequality when the constants are the discrete ones.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import kernels
from .errors import DomainError, MaxOuterIterations, NewtonStall, TransformOverflowError
from .grid import (
    DiffusionOperator,
    Grid,
    MatrixField,
    ScalarField,
    cg_solve,
    h1_seminorm,
    nodal_gradient,
)
from .nonlinearity import (
    HModel,
    g_delta,
    k_delta_field,
    remainder,
    sign,
    sign_k,
    transform_forward,
    transform_inverse,
    truncate,
)


@dataclass
class SolverConfig:
    """Knobs of the fixed-point solve; delta is the resolved numeric value."""

    delta: float
    k: float = 100.0
    rho: float = 0.5
    outer_tol: float = 1e-9
    inner_tol: float = 1e-11
    cg_tol: float = 1e-12
    max_outer: int = 200
    max_inner: int = 40
    k_schedule: tuple = ()

    def __post_init__(self):
        if not (0.0 < self.rho <= 1.0):
            raise DomainError(f"relaxation must lie in (0, 1], got {self.rho}")
        if self.delta <= 0:
            raise DomainError(f"delta must be positive, got {self.delta}")
        if self.k <= 0:
            raise DomainError(f"truncation height must be positive, got {self.k}")
        for name in ("outer_tol", "inner_tol", "cg_tol"):
            if not (getattr(self, name) > 0):
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("max_outer", "max_inner"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be nonnegative, got {getattr(self, name)}")


@dataclass
class SolveData:
    """Grid-level problem data plus the discrete constants feeding the checks."""

    grid: Grid
    A: MatrixField
    f: ScalarField
    a0: ScalarField
    model: HModel
    alpha: float
    gamma: float
    c0: float
    norm_f_N2: float = 0.0
    norm_f_Hm1: float = 0.0
    norm_a0_N2: float = 0.0
    norm_a0_q: float = 0.0
    C_N: float = 0.0
    theta: float = 0.0
    G: float = 0.0
    ball_radius: float | None = None
    op: DiffusionOperator = None
    _node_A: np.ndarray = None

    def __post_init__(self):
        if self.op is None:
            self.op = DiffusionOperator(self.A)
        if self._node_A is None:
            self._node_A = self.A.node_values()

    def node_quadratic_forms(self, w_vals):
        """A(x) Dw.Dw and |Dw|^2 at the nodes, central-difference gradient."""
        comps = nodal_gradient(ScalarField(self.grid, w_vals))
        grad_sq = sum(c * c for c in comps)
        na = self._node_A
        d = self.grid.dim
        a_quad = np.zeros(self.grid.shape)
        for i in range(d):
            for j in range(d):
                a_quad += na[..., i, j] * comps[i] * comps[j]
        return a_quad, grad_sq


@dataclass
class IterationRecord:
    m: int
    grad_norm_w: float
    grad_norm_W: float
    increment: float
    slack: float
    inner_iterations: int
    rhs_l2: float
    in_ball: bool | None

    def to_dict(self):
        """The trace row: every field, with ``slack`` as ``estimate_slack``."""
        row = asdict(self)
        row["estimate_slack"] = row.pop("slack")
        return row

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass
class IterationTrace:
    """Per-iteration records of one outer solve plus ladder diagnostics."""

    k: float
    records: list = field(default_factory=list)
    converged: bool = False
    residual: float | None = None
    eps_solver: float = 0.0

    def rows(self):
        return [r.to_json() for r in self.records]


def transformed_rhs(data: SolveData, w_vals, delta):
    """(1 + delta|w|) f + a0 w + a0 g_delta(w) sign(w) at the nodes."""
    f, a0 = data.f.values, data.a0.values
    return (1.0 + delta * np.abs(w_vals)) * f + a0 * w_vals \
        + a0 * g_delta(w_vals, delta) * sign(w_vals)


def zeroth_order_coefficient(data: SolveData, w_vals, delta, k):
    """b = truncate(K_delta(x, w, Dw), k), validated nonnegative."""
    a_quad, grad_sq = data.node_quadratic_forms(w_vals)
    kv = k_delta_field(w_vals, a_quad, grad_sq, delta, data.model)
    b = truncate(kv, k)
    floor = -1e-12 * (data.c0 + delta) * max(float(np.max(a_quad)), 1.0)
    if float(np.min(b)) < floor:
        raise DomainError(
            f"zeroth-order coefficient dips to {float(np.min(b)):g} < 0: "
            f"delta = {delta:g} below the growth constant gamma = {data.gamma:g}?"
        )
    return np.maximum(b, 0.0)


@dataclass
class InnerResult:
    iterations: int
    residual: float
    rhs_l2: float


def inner_solve(w: ScalarField, data: SolveData, cfg: SolverConfig,
                x0=None):
    """Solve -div(A DW) + b sign_k(W) = rhs(w) by damped semismooth Newton.

    The zeroth-order term is monotone nondecreasing, so the solution is
    unique and independent of the start.  The Newton matrix is the operator
    plus a nonnegative diagonal, solved matrix-free by conjugate gradients
    preconditioned with the operator's mean-coefficient inverse.
    """
    delta, k = cfg.delta, cfg.k
    try:
        with np.errstate(over="raise", invalid="raise"):
            b = zeroth_order_coefficient(data, w.values, delta, k)
            rhs = transformed_rhs(data, w.values, delta)
    except FloatingPointError as exc:
        raise TransformOverflowError(
            "the transformed coefficients K_delta(w) and rhs(w) overflow double "
            f"precision at delta = {delta:g} ({exc})") from exc
    rhs_l2 = float(np.sqrt(np.sum(rhs * rhs)))
    W = np.zeros(data.grid.shape) if x0 is None else np.array(x0, dtype=float)
    op = data.op

    def residual_vec(v):
        return op.apply(v) + b * np.clip(k * v, -1.0, 1.0) - rhs

    target = cfg.inner_tol * max(rhs_l2, 1e-300)
    r = residual_vec(W)
    res = float(np.sqrt(np.sum(r * r)))
    for it in range(cfg.max_inner):
        if res <= target:
            return ScalarField(data.grid, W), InnerResult(it, res, rhs_l2)
        diag = b * k * (np.abs(W) <= 1.0 / k)

        def jac(v, diag=diag):
            return op.apply(v) + diag * v

        # forcing term: tighten the linear solve as the residual approaches
        # the target, so the Newton floor sits below it
        step_tol = min(cfg.cg_tol, max(1e-15, 0.01 * target / res))
        step = cg_solve(jac, -r, tol=step_tol, precond=op.fast_inverse)
        t = 1.0
        for _ in range(40):
            W_trial = W + t * step
            r_trial = residual_vec(W_trial)
            res_trial = float(np.sqrt(np.sum(r_trial * r_trial)))
            if res_trial <= (1.0 - 1e-4 * t) * res:
                W, r, res = W_trial, r_trial, res_trial
                break
            t *= 0.5
        else:
            raise NewtonStall(
                f"line search exhausted at residual {res:g}", residual=res
            )
    if res <= target:
        return ScalarField(data.grid, W), InnerResult(cfg.max_inner, res, rhs_l2)
    raise NewtonStall(
        f"inner Newton out of budget ({cfg.max_inner} iterations) at residual "
        f"{res:g} (target {target:g})", residual=res,
    )


def estimate_check(w: ScalarField, W: ScalarField, data: SolveData,
                   delta: float) -> float:
    """Slack of the a priori energy estimate: profile bound minus alpha|DW|.

    Nonnegative (up to solver tolerance) for every exact inner solve because
    the discrete Hoelder and Sobolev steps are exact with the discrete
    constants.
    """
    return _estimate_slack(h1_seminorm(w), h1_seminorm(W), data, delta)


def _estimate_slack(dw, dW, data: SolveData, delta: float) -> float:
    """``estimate_check`` from the energies |Dw| and |DW|."""
    bound = data.norm_f_Hm1 \
        + delta * data.C_N**2 * data.norm_f_N2 * dw \
        + data.C_N**2 * data.norm_a0_N2 * dw
    if data.norm_a0_q > 0.0:
        bound += data.G * data.C_N ** (2.0 + data.theta) * data.norm_a0_q \
            * dw ** (1.0 + data.theta)
    return bound - data.alpha * dW


def fixed_point_residual(v: ScalarField, data: SolveData, delta: float,
                         k: float | None = None) -> float:
    """Normalized weak residual of the discrete truncated equation.

    With k = None the gradient term enters untruncated and with the exact
    sign, matching the limit equation the truncation ladder approaches.
    """
    a_quad, grad_sq = data.node_quadratic_forms(v.values)
    kv = k_delta_field(v.values, a_quad, grad_sq, delta, data.model)
    if k is None:
        zo = kv * sign(v.values)
    else:
        zo = truncate(kv, k) * sign_k(v.values, k)
    rhs = transformed_rhs(data, v.values, delta)
    r = data.op.apply(v.values) + zo - rhs
    r_norm = float(np.sqrt(np.sum(r * r)))
    rhs_norm = float(np.sqrt(np.sum(rhs * rhs)))
    if rhs_norm == 0.0:
        return r_norm
    return r_norm / rhs_norm


def original_residual(w: ScalarField, data: SolveData, delta: float) -> float:
    """Weak residual of the untransformed problem at u reconstructed from w."""
    u_vals = transform_inverse(w.values, delta)
    a_quad, grad_sq = data.node_quadratic_forms(u_vals)
    h_vals = data.model.evaluate(u_vals, a_quad, grad_sq)
    rhs = h_vals + data.f.values + data.a0.values * u_vals
    r = data.op.apply(u_vals) - rhs
    r_norm = float(np.sqrt(np.sum(r * r)))
    rhs_norm = float(np.sqrt(np.sum(rhs * rhs)))
    if rhs_norm == 0.0:
        return r_norm
    return r_norm / rhs_norm


def norm_identity_gap(u: ScalarField, delta: float, exact_chain: bool = False):
    """Gap between the weighted gradient norm of u and the energy of w.

    The substitution satisfies |e^(delta|u|) Du|_2 = |Dw|_2 in the continuum.
    With ``exact_chain`` the per-edge weight is the divided difference of the
    forward map (the discrete chain rule), making the identity hold to
    roundoff; with the default endpoint-average weight the gap measures the
    discretization error and vanishes under refinement.
    """
    g = u.grid
    w_vals = transform_forward(u.values, delta)
    rhs = h1_seminorm(ScalarField(g, w_vals))
    plan = kernels.stencil_plan(g.shape)
    pu = kernels.zero_padded(u.values, plan)
    pw = kernels.zero_padded(w_vals, plan)
    total = 0.0
    for h, (hi, lo) in zip(g.h, plan.edges):
        u_lo, u_hi = pu[lo], pu[hi]
        w_lo, w_hi = pw[lo], pw[hi]
        du = (u_hi - u_lo) / h
        if exact_chain:
            with np.errstate(divide="ignore", invalid="ignore"):
                weight = np.where(
                    u_hi == u_lo,
                    np.exp(delta * np.abs(u_lo)),
                    (w_hi - w_lo) / np.where(u_hi == u_lo, 1.0, u_hi - u_lo),
                )
        else:
            weight = 0.5 * (np.exp(delta * np.abs(u_lo)) + np.exp(delta * np.abs(u_hi)))
        total += float(np.sum((weight * du) ** 2))
    lhs = math.sqrt(total * g.node_measure)
    return lhs, rhs, abs(lhs - rhs)


def outer_fixed_point(data: SolveData, cfg: SolverConfig, k: float | None = None):
    """Relaxed Picard iteration on the inner solution map, started at zero.

    Every inner solve after the first starts Newton from the previous inner
    solution.

    Returns (w_k, trace); raises MaxOuterIterations carrying the partial trace
    when the increment never drops below outer_tol.
    """
    if cfg.delta < data.gamma:
        raise DomainError(
            f"delta = {cfg.delta:g} below gamma = {data.gamma:g}: the inner "
            "zeroth-order coefficient would lose its sign"
        )
    k = float(k if k is not None else cfg.k)
    run_cfg = replace(cfg, k=k)
    trace = IterationTrace(k=k)
    w = ScalarField.zeros(data.grid)
    norm_w = h1_seminorm(w)
    max_rhs = 0.0
    final = False
    W = None
    for m in range(cfg.max_outer + 1):
        W, inner = inner_solve(w, data, run_cfg,
                               x0=None if W is None else W.values)
        norm_W = h1_seminorm(W)
        defect = h1_seminorm(ScalarField(data.grid, W.values - w.values))
        if final:
            # one unrelaxed application pins the reported solution to the map
            norm_next, increment = norm_W, defect
        else:
            max_rhs = max(max_rhs, inner.rhs_l2)
            trace.eps_solver = 10.0 * (cfg.inner_tol + cfg.cg_tol) * (1.0 + max_rhs)
            w_next = ScalarField(
                data.grid, (1.0 - cfg.rho) * w.values + cfg.rho * W.values)
            norm_next = h1_seminorm(w_next)
            increment = cfg.rho * defect
        in_ball = None
        if data.ball_radius is not None:
            in_ball = norm_next <= data.ball_radius + trace.eps_solver
        trace.records.append(IterationRecord(
            m=m, grad_norm_w=norm_w, grad_norm_W=norm_W, increment=increment,
            slack=_estimate_slack(norm_w, norm_W, data, cfg.delta),
            inner_iterations=inner.iterations, rhs_l2=inner.rhs_l2,
            in_ball=in_ball,
        ))
        if final:
            trace.converged = True
            trace.residual = fixed_point_residual(W, data, cfg.delta, k=k)
            return W, trace
        w, norm_w = w_next, norm_next
        # defect <= tol implies the relaxed increment is below tol as well;
        # gating on the defect keeps the reported fixed-point residual tight
        final = defect <= cfg.outer_tol
        if not final and m + 1 >= cfg.max_outer:
            break
    raise MaxOuterIterations(
        f"no convergence within {cfg.max_outer} outer iterations "
        f"(last increment {trace.records[-1].increment:g} > {cfg.outer_tol:g})",
        trace=trace,
    )


@dataclass
class LadderDiagnostics:
    """Truncation-ladder convergence evidence."""

    k_schedule: tuple
    n_ladder: tuple
    tail_energy: np.ndarray        # E[n_idx, k_idx] = |D remainder_n(w_k)|^2
    increments: list               # |D(w_{k_i} - w_{k_i+1})|, len = len(ks)-1
    truncated_increments: np.ndarray  # per (n, consecutive pair)
    residuals: list                # per-k residual of the truncated equation
    max_abs: list                  # per-k max |w_k|


def k_continuation(data: SolveData, cfg: SolverConfig, n_ladder=()):
    """Solve along the truncation schedule and collect diagnostics."""
    schedule = tuple(cfg.k_schedule) or (cfg.k,)
    if any(k2 <= k1 for k1, k2 in zip(schedule, schedule[1:])):
        raise DomainError(f"truncation schedule must increase, got {schedule}")
    n_ladder = tuple(n_ladder)
    solutions = []
    traces = []
    diag = LadderDiagnostics(
        k_schedule=schedule, n_ladder=n_ladder,
        tail_energy=np.zeros((len(n_ladder), len(schedule))),
        increments=[], truncated_increments=np.zeros(
            (len(n_ladder), max(len(schedule) - 1, 0))),
        residuals=[], max_abs=[],
    )
    for kidx, k in enumerate(schedule):
        try:
            w_k, trace = outer_fixed_point(data, cfg, k=k)
        except MaxOuterIterations as exc:
            exc.diagnostics = diag
            exc.partial_traces = traces
            raise
        solutions.append(w_k)
        traces.append(trace)
        diag.residuals.append(trace.residual)
        diag.max_abs.append(float(np.max(np.abs(w_k.values))))
        for nidx, n in enumerate(n_ladder):
            tail = ScalarField(data.grid, remainder(w_k.values, n))
            diag.tail_energy[nidx, kidx] = h1_seminorm(tail) ** 2
    for i in range(len(solutions) - 1):
        delta_w = ScalarField(
            data.grid, solutions[i].values - solutions[i + 1].values)
        diag.increments.append(h1_seminorm(delta_w))
        for nidx, n in enumerate(n_ladder):
            tn = ScalarField(data.grid,
                             truncate(solutions[i].values, n)
                             - truncate(solutions[i + 1].values, n))
            diag.truncated_increments[nidx, i] = h1_seminorm(tn)
    return solutions[-1], diag, traces
