"""Truncated fixed-point solver for the transformed problem.

Structure of one solve at truncation height k:

  inner:  given the current iterate w, freeze the nonnegative coefficient
          b = truncate(K_delta(x, w, Dw), k) and solve the monotone semilinear
          problem  -div(A DW) + b * sign_k(W) = rhs(w)  by damped semismooth
          Newton (unique solution, start-independent).  Each Newton step
          solves operator-plus-diagonal by conjugate gradients preconditioned
          with the operator's exact inverse (``DiffusionOperator.fast_inverse``),
          so CG applies no stencil;
  outer:  Picard with relaxation w <- (1-rho) w + rho W from w = 0, each inner
          solve warm-started from the previous inner solution W, which
          consecutive iterates barely move once the iteration settles; the
          edge gradients of W and W - w are carried to every energy; declared
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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import CriticalReport
from .errors import (DomainError, MaxOuterIterations, NewtonStall, SolverFailure,
                     TransformOverflowError)
from .grid import (
    DiffusionOperator,
    Grid,
    MatrixField,
    ScalarField,
    cg_solve,
    edge_values,
    energy_norm,
    gradient,
    node_average,
)
from .nonlinearity import (
    HModel,
    remainder,
    sign_k,
    transform_forward,
    transform_inverse,
    transformed_terms,
    truncate,
)


@dataclass
class SolverConfig:
    """Knobs of the fixed-point solve; delta is the resolved numeric value.

    ``outer_tol`` bounds the Picard defect |D(W - w)|, an absolute energy;
    ``inner_tol`` bounds the inner Newton residual over |rhs(w)|, and
    ``cg_tol`` each Newton step's CG residual over the same |rhs(w)|,
    tightened to inner_tol/100 when that is smaller; ``eps_solver`` in the
    trace allows for both.
    """

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
        ks = tuple(self.k_schedule)
        if any(k <= 0 for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
            raise DomainError(f"truncation schedule must be positive and increase, got {ks}")


@dataclass
class SolveData:
    """Grid-level problem data plus what the a priori estimate check reads.

    alpha is ``A.alpha``, gamma and c0 are ``model.gamma_cert`` and
    ``model.c0_cert``; ``norms`` is the experiment's dict of source norms,
    ``report`` its CriticalReport (theta, G) or None, and ``C_N`` is kept
    for the case without one.  ``op``, the stencil of A, is built from A
    with the data, so ``replace(data, A=...)`` rebuilds it.
    """

    grid: Grid
    A: MatrixField
    f: ScalarField
    a0: ScalarField
    model: HModel
    norms: dict
    C_N: float
    report: CriticalReport | None = None
    ball_radius: float | None = None
    op: DiffusionOperator = field(init=False)

    def __post_init__(self):
        self.op = DiffusionOperator(self.A)

    def node_quadratic_forms(self, w_vals, grad=None):
        """A Dw.Dw and |Dw|^2 at the nodes, central-difference gradient;
        ``grad`` is w's edge gradient if held.  A is diagonal, so the form is
        the sum over axes of its entry times the squared component."""
        if grad is None:
            grad = gradient(self.grid, w_vals)
        comps = node_average(self.grid, grad)
        squares = [c * c for c in comps]
        forms = [a_ii * c * c for a_ii, c in zip(self.A.values, comps)]
        return sum(forms[1:], forms[0]), sum(squares[1:], squares[0])


@dataclass
class IterationRecord:
    m: int
    grad_norm_w: float
    grad_norm_W: float
    increment: float
    estimate_slack: float
    inner_iterations: int
    cg_iterations: int
    rhs_l2: float
    in_ball: bool | None
    ls_halvings: int = 0

    def to_dict(self):
        """The trace row: every field under its own name."""
        return dict(vars(self))


@dataclass
class IterationTrace:
    """Per-iteration records of one outer solve plus ladder diagnostics."""

    k: float
    records: list = field(default_factory=list)
    converged: bool = False
    residual: float | None = None
    eps_solver: float = 0.0


def _rhs_from(data: SolveData, w_vals, one_p, g, sgn):
    """(1 + delta|w|) f + a0 w + a0 g_delta(w) sign(w) from its pointwise
    terms 1 + delta|w|, g_delta(w) and sign(w)."""
    f, a0 = data.f.values, data.a0.values
    return one_p * f + a0 * w_vals + a0 * g * sgn


def inner_coefficients(data: SolveData, w_vals, delta, k, grad=None):
    """The frozen coefficients of one inner problem, from one pointwise pass
    (``transformed_terms``): b = truncate(K_delta(x, w, Dw), k), validated
    nonnegative up to roundoff and then clipped at zero, and the right-hand
    side (1 + delta|w|) f + a0 w + a0 g_delta(w) sign(w).  ``grad`` is the
    per-edge gradient of w, if already computed."""
    model = data.model
    a_quad, grad_sq = data.node_quadratic_forms(w_vals, grad)
    kv, g, one_p, sgn = transformed_terms(w_vals, a_quad, grad_sq, delta, model)
    b = truncate(kv, k)
    floor = -1e-12 * (model.c0_cert + delta) * max(float(a_quad.max()), 1.0)
    if float(b.min()) < floor:
        raise DomainError(
            f"zeroth-order coefficient dips to {float(b.min()):g} < 0: "
            f"delta = {delta:g} below the growth constant gamma = "
            f"{model.gamma_cert:g}?"
        )
    return np.maximum(b, 0.0), _rhs_from(data, w_vals, one_p, g, sgn)


@dataclass
class InnerResult:
    """Work and outcome of one inner solve.  ``image`` is the stencil applied
    to the returned W, which the next inner solve takes with W as its start."""

    iterations: int
    residual: float
    rhs_l2: float
    cg_iterations: int
    ls_halvings: int
    image: np.ndarray


def inner_solve(w: np.ndarray, data: SolveData, cfg: SolverConfig,
                x0=None, grad=None, image=None):
    """Solve -div(A DW) + b sign_k(W) = rhs(w) by damped semismooth Newton;
    w and the returned W are nodal arrays.

    The zeroth-order term is monotone nondecreasing, so the solution is
    unique and independent of the start.  The Newton matrix is the operator
    plus a nonnegative diagonal, solved matrix-free by conjugate gradients
    preconditioned with the operator's exact inverse; CG carries the
    operator's image of its search direction and applies no stencil.  Each
    step's CG is asked for a residual of min(cg_tol, inner_tol/100) |rhs|
    (an inexact Newton forcing term, Dembo, Eisenstat and Steihaug 1982),
    while Newton stops on the true residual, |r| <= inner_tol |rhs|.

    ``x0`` is the start (zero if omitted) and ``image`` its stencil image,
    the ``InnerResult.image`` of the solve that returned it; the stencil is
    then applied once per line-search trial and never to the start.
    ``grad`` is the per-edge gradient of w when the caller carries it.  The
    result counts the Newton steps, the CG iterations of all of them and the
    line-search halvings.
    """
    delta, k = cfg.delta, cfg.k
    try:
        with np.errstate(over="raise", invalid="raise"):
            b, rhs = inner_coefficients(data, w, delta, k, grad)
    except FloatingPointError as exc:
        raise TransformOverflowError(
            "the transformed coefficients K_delta(w) and rhs(w) overflow double "
            f"precision at delta = {delta:g} ({exc})") from exc
    rhs_l2 = math.sqrt((rhs * rhs).sum())
    op = data.op
    if x0 is None:
        W = np.zeros(data.grid.shape)
        LW = np.zeros(data.grid.shape)
    else:
        W = np.array(x0, dtype=float)
        LW = op.apply(W) if image is None else image

    def residual_vec(v, lv):
        r = lv + b * np.minimum(np.maximum(k * v, -1.0), 1.0)
        r -= rhs
        return r

    target = cfg.inner_tol * max(rhs_l2, 1e-300)
    forcing = min(cfg.cg_tol, 0.01 * cfg.inner_tol) * rhs_l2
    r = residual_vec(W, LW)
    res = math.sqrt(np.vdot(r, r))
    cg_iterations = halvings = 0
    for it in range(cfg.max_inner + 1):
        if res <= target:
            return W, InnerResult(it, res, rhs_l2, cg_iterations, halvings, LW)
        if it == cfg.max_inner:
            raise NewtonStall(
                f"inner Newton out of budget ({cfg.max_inner} iterations) at "
                f"residual {res:g} (target {target:g})", residual=res,
                iterations=cfg.max_inner)
        diag = b * k * (np.abs(W) <= 1.0 / k)
        step, its = cg_solve(op.fast_inverse, -r, diag,
                             tol=max(1e-15, forcing / res))
        cg_iterations += its
        t = 1.0
        for _ in range(40):
            W_trial = W + t * step
            LW_trial = op.apply(W_trial)
            r_trial = residual_vec(W_trial, LW_trial)
            res_trial = math.sqrt(np.vdot(r_trial, r_trial))
            if res_trial <= (1.0 - 1e-4 * t) * res:
                W, LW, r, res = W_trial, LW_trial, r_trial, res_trial
                break
            t *= 0.5
            halvings += 1
        else:
            raise NewtonStall(
                f"line search exhausted at residual {res:g}", residual=res,
                iterations=it)


def _estimate_slack(dw, dW, data: SolveData, delta: float) -> float:
    """Slack of the a priori energy estimate, profile bound minus alpha|DW|,
    from the energies dw = |Dw| of the input and dW = |DW| of the output.

    Nonnegative (up to solver tolerance) for every exact inner solve because
    the discrete Hoelder and Sobolev steps are exact with the discrete
    constants.
    """
    norms, C_N, rep = data.norms, data.C_N, data.report
    bound = norms["f_Hm1"] \
        + delta * C_N**2 * norms["f_N2"] * dw \
        + C_N**2 * norms["a0_N2"] * dw
    if rep is not None:  # a report exists only when |a0|_q > 0
        bound += rep.G * C_N ** (2.0 + rep.theta) * norms["a0_q"] \
            * dw ** (1.0 + rep.theta)
    return bound - data.A.alpha * dW


def fixed_point_residual(v: ScalarField, data: SolveData, delta: float,
                         k: float | None = None) -> float:
    """Normalized weak residual of the discrete truncated equation.

    With k = None the gradient term enters untruncated and with the exact
    sign, matching the limit equation the truncation ladder approaches.
    """
    a_quad, grad_sq = data.node_quadratic_forms(v.values)
    kv, g, one_p, sgn = transformed_terms(v.values, a_quad, grad_sq, delta,
                                          data.model)
    if k is None:
        zo = kv * sgn
    else:
        zo = truncate(kv, k) * sign_k(v.values, k)
    rhs = _rhs_from(data, v.values, one_p, g, sgn)
    return _relative_norm(data.op.apply(v.values) + zo - rhs, rhs)


def original_residual(w: ScalarField, data: SolveData, delta: float) -> float:
    """Weak residual of the untransformed problem at u reconstructed from w."""
    u_vals = transform_inverse(w.values, delta)
    a_quad, grad_sq = data.node_quadratic_forms(u_vals)
    h_vals = data.model.evaluate(u_vals, a_quad, grad_sq)
    rhs = h_vals + data.f.values + data.a0.values * u_vals
    return _relative_norm(data.op.apply(u_vals) - rhs, rhs)


def _relative_norm(r, rhs) -> float:
    """|r| / |rhs|, or |r| when rhs vanishes."""
    r_norm = float(np.sqrt(np.sum(r * r)))
    rhs_norm = float(np.sqrt(np.sum(rhs * rhs)))
    return r_norm / rhs_norm if rhs_norm else r_norm


def norm_identity_gap(u: ScalarField, delta: float, exact_chain: bool = False):
    """Gap between the weighted gradient norm of u and the energy of w.

    The substitution satisfies |e^(delta|u|) Du|_2 = |Dw|_2 in the continuum.
    With ``exact_chain`` the per-edge weight is the divided difference of the
    forward map (the discrete chain rule), making the identity hold to
    roundoff; with the default endpoint-average weight the gap measures the
    discretization error and vanishes under refinement.
    """
    g = u.grid
    w = transform_forward(u.values, delta)
    rhs = energy_norm(g, gradient(g, w))
    total = 0.0
    for h, (u_hi, u_lo), (w_hi, w_lo) in zip(g.h, edge_values(u.values),
                                             edge_values(w)):
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


def outer_fixed_point(data: SolveData, cfg: SolverConfig):
    """Relaxed Picard iteration on the inner solution map at the truncation
    height ``cfg.k``, started at zero.

    The iterates w, the inner solutions W and their edge gradients are plain
    arrays; only the returned solution is wrapped in a ``ScalarField``.
    Every inner solve after the first starts Newton from the previous inner
    solution and its stencil image.  Each iteration takes the per-edge
    gradients of W and W - w once; every energy and, by linearity, the
    gradient of the relaxed iterate (for the next K_delta) come from them.
    The defect is differenced before its gradient, so it stays accurate
    relative to itself as it vanishes.

    Returns (w_k, trace).  Raises MaxOuterIterations when the increment never
    drops below outer_tol; it and any SolverFailure of an inner solve leave
    with ``traces == [trace]``, this level's partial trace.
    """
    gamma = data.model.gamma_cert
    if cfg.delta < gamma:
        raise DomainError(
            f"delta = {cfg.delta:g} below gamma = {gamma:g}: the inner "
            "zeroth-order coefficient would lose its sign"
        )
    grid, k = data.grid, float(cfg.k)
    trace = IterationTrace(k=k)
    w = np.zeros(grid.shape)
    grad_w = gradient(grid, w)
    norm_w = energy_norm(grid, grad_w)
    max_rhs = 0.0
    final = False
    W = image = None
    for m in range(cfg.max_outer + 1):
        try:
            W, inner = inner_solve(w, data, cfg, x0=W, grad=grad_w, image=image)
        except SolverFailure as exc:
            exc.traces = [trace]
            raise
        image = inner.image
        grad_W = gradient(grid, W)
        grad_D = gradient(grid, W - w)
        norm_W = energy_norm(grid, grad_W)
        defect = energy_norm(grid, grad_D)
        if final:
            # one unrelaxed application pins the reported solution to the map
            norm_next, increment = norm_W, defect
        else:
            max_rhs = max(max_rhs, inner.rhs_l2)
            trace.eps_solver = 10.0 * (cfg.inner_tol + cfg.cg_tol) * (1.0 + max_rhs)
            w_next = (1.0 - cfg.rho) * w + cfg.rho * W
            # D w_next = DW - (1 - rho) D(W - w): the gradient is linear
            grad_next = tuple(gW - (1.0 - cfg.rho) * gD
                              for gW, gD in zip(grad_W, grad_D))
            norm_next = energy_norm(grid, grad_next)
            increment = cfg.rho * defect
        in_ball = None
        if data.ball_radius is not None:
            in_ball = norm_next <= data.ball_radius + trace.eps_solver
        trace.records.append(IterationRecord(
            m=m, grad_norm_w=norm_w, grad_norm_W=norm_W, increment=increment,
            estimate_slack=_estimate_slack(norm_w, norm_W, data, cfg.delta),
            inner_iterations=inner.iterations,
            cg_iterations=inner.cg_iterations, rhs_l2=inner.rhs_l2,
            in_ball=in_ball, ls_halvings=inner.ls_halvings,
        ))
        if final:
            w_k = ScalarField(grid, W)
            trace.converged = True
            trace.residual = fixed_point_residual(w_k, data, cfg.delta, k=k)
            return w_k, trace
        w, grad_w, norm_w = w_next, grad_next, norm_next
        # defect <= tol implies the relaxed increment is below tol as well;
        # gating on the defect keeps the reported fixed-point residual tight
        final = defect <= cfg.outer_tol
        if not final and m + 1 >= cfg.max_outer:
            break
    raise MaxOuterIterations(
        f"no convergence within {cfg.max_outer} outer iterations "
        f"(last increment {trace.records[-1].increment:g} > {cfg.outer_tol:g})",
        traces=[trace],
    )


@dataclass
class LadderDiagnostics:
    """Truncation-ladder evidence; each height's k and residual are in its trace."""

    n_ladder: tuple
    tail_energy: np.ndarray        # E[n_idx, k_idx] = |D remainder_n(w_k)|^2
    increments: list               # |D(w_{k_i} - w_{k_i+1})|, len = len(ks)-1
    max_abs: list                  # per-k max |w_k|


def k_continuation(data: SolveData, cfg: SolverConfig, n_ladder=()):
    """Solve along the truncation schedule and collect diagnostics.

    A SolverFailure leaves with ``traces``: the finished heights' traces,
    then the failing height's partial one.
    """
    schedule = tuple(cfg.k_schedule) or (cfg.k,)
    n_ladder = tuple(n_ladder)
    grid = data.grid
    solutions = []
    traces = []
    diag = LadderDiagnostics(
        n_ladder=n_ladder,
        tail_energy=np.zeros((len(n_ladder), len(schedule))),
        increments=[], max_abs=[],
    )
    for kidx, k in enumerate(schedule):
        try:
            w_k, trace = outer_fixed_point(data, replace(cfg, k=k))
        except SolverFailure as exc:
            exc.traces = traces + exc.traces
            raise
        solutions.append(w_k)
        traces.append(trace)
        diag.max_abs.append(float(np.max(np.abs(w_k.values))))
        for nidx, n in enumerate(n_ladder):
            tail = gradient(grid, remainder(w_k.values, n))
            diag.tail_energy[nidx, kidx] = energy_norm(grid, tail) ** 2
    for i in range(len(solutions) - 1):
        delta_w = solutions[i].values - solutions[i + 1].values
        diag.increments.append(energy_norm(grid, gradient(grid, delta_w)))
    return solutions[-1], diag, traces
