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
          never retried silently.  Callers that need only the discrete
          fixed point, not the paper's trajectory, may ask for type-II
          Anderson mixing instead (Walker and Ni, SIAM J. Numer. Anal. 49
          (2011) 1715; Toth and Kelley, SIAM J. Numer. Anal. 53 (2015) 805),
          which falls back to the relaxed step whenever the mixed iterate
          would leave the ball |Dw| <= Z;
  ladder: solve an increasing truncation schedule from the top down and
          record tail energies and increments as convergence diagnostics.
          The top height keeps the relaxed trajectory from w = 0 and gives
          the reported solution.  The heights below it show only the limit
          k -> infinity, so only their discrete fixed points matter: they
          are Anderson-mixed, each started from the solution one height
          above it when that lies in the ball.  The final increment then
          compares a mixed solve with a relaxed one, so it carries the
          relaxed solve's stopping error (below outer_tol) even where both
          heights pose the same problem.

Every inner solve is followed by the a priori estimate check: the energy of
the output is bounded by the profile value at the input's energy, an exact
discrete inequality when the constants are the discrete ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .constants import ProblemConstants
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

    ``k_schedule`` holds the truncation heights, nonempty, positive and
    increasing; a single solve at one height is a one-entry schedule.
    ``outer_tol`` bounds the Picard defect |D(W - w)|, an absolute energy;
    ``inner_tol`` bounds the inner Newton residual over |rhs(w)|, and
    ``cg_tol`` each Newton step's CG residual over the same |rhs(w)|,
    tightened to inner_tol/100 when that is smaller; ``eps_solver`` in the
    trace allows for both.
    """

    delta: float
    rho: float = 0.5
    outer_tol: float = 1e-9
    inner_tol: float = 1e-11
    cg_tol: float = 1e-12
    max_outer: int = 200
    max_inner: int = 40
    k_schedule: tuple = (100.0,)

    def __post_init__(self):
        if not (0.0 < self.rho <= 1.0):
            raise DomainError(f"relaxation must lie in (0, 1], got {self.rho}")
        if self.delta <= 0:
            raise DomainError(f"delta must be positive, got {self.delta}")
        for name in ("outer_tol", "inner_tol", "cg_tol"):
            if not (getattr(self, name) > 0):
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("max_outer", "max_inner"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be nonnegative, got {getattr(self, name)}")
        ks = tuple(self.k_schedule)
        if not ks or any(b <= a for a, b in zip((0.0, *ks), ks)):
            raise DomainError(f"truncation schedule must be positive and increase, got {ks}")


@dataclass
class SolveData:
    """Grid-level problem data plus what the a priori estimate check reads.

    ``f`` and ``a0`` are nodal arrays, like a field ``model.mu``; alpha is
    ``A.alpha``, gamma and c0 are ``model.gamma_cert`` and
    ``model.c0_cert``.  The estimate's linear terms read ``norms``, the
    experiment's source norms, and ``C_N``; ``constants``, its
    ProblemConstants, is None when f or a0 vanishes, q lies outside the
    theta window or C_N <= 0.  ``op``, the stencil of A, is built from A
    with the data, so ``replace(data, A=...)`` rebuilds it.
    """

    grid: Grid
    A: MatrixField
    f: np.ndarray
    a0: np.ndarray
    model: HModel
    norms: dict
    C_N: float
    constants: ProblemConstants | None = None
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
    return one_p * data.f + data.a0 * w_vals + data.a0 * g * sgn


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


# the Newton matrix's diagonal where no node lies within 1/k of zero
_NO_SHIFT = np.float64(0.0)


@dataclass
class InnerResult:
    """Work and outcome of one inner solve.  ``image`` is the stencil applied
    to the returned W and ``grad`` its per-edge gradient; the next inner
    solve takes this result as ``start`` with W as its start."""

    iterations: int
    residual: float
    rhs_l2: float
    cg_iterations: int
    ls_halvings: int
    image: np.ndarray
    grad: tuple


def inner_solve(w: np.ndarray, data: SolveData, cfg: SolverConfig, k: float,
                x0=None, grad=None, start=None):
    """Solve -div(A DW) + b sign_k(W) = rhs(w) at the truncation height k
    by damped semismooth Newton; w and the returned W are nodal arrays.

    The zeroth-order term is monotone nondecreasing, so the solution is
    unique and independent of the start.  The Newton matrix is the operator
    plus a nonnegative diagonal, solved matrix-free by conjugate gradients
    preconditioned with the operator's exact inverse; CG carries the
    operator's image of its search direction and applies no stencil.  Each
    step's CG is asked for a residual of min(cg_tol, inner_tol/100) |rhs|
    (an inexact Newton forcing term, Dembo, Eisenstat and Steihaug 1982),
    while Newton stops on the true residual, |r| <= inner_tol |rhs|.

    ``x0`` is the start (zero if omitted) and ``start`` the ``InnerResult``
    of the solve that returned it, whose ``image`` and ``grad`` are x0's
    stencil image and edge gradient; the stencil is then applied once per
    line-search trial and never to the start.  The accepted trial's stencil
    pass also hands back its edge differences, which over h are the
    returned W's gradient; a solve that returns its start passes
    ``start.grad`` through.  ``grad`` is the per-edge gradient of w when the
    caller carries it.  The result counts the Newton steps, the CG
    iterations of all of them and the line-search halvings.
    """
    delta = cfg.delta
    try:
        with np.errstate(over="raise", invalid="raise"):
            b, rhs = inner_coefficients(data, w, delta, k, grad)
            rhs_l2 = math.sqrt((rhs * rhs).sum())
    except FloatingPointError as exc:
        raise TransformOverflowError(
            "the transformed coefficients K_delta(w) and rhs(w) overflow double "
            f"precision at delta = {delta:g} ({exc})") from exc
    grid, op = data.grid, data.op
    # W's edge gradient where held, and the accepted trial's edge differences
    grad_W = diffs = None
    if x0 is None:
        W = np.zeros(grid.shape)
        LW = np.zeros(grid.shape)
    else:
        W = np.asarray(x0, dtype=float)
        if start is None:
            LW = op.apply(W)
        else:
            LW, grad_W = start.image, start.grad

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
            if diffs is not None:
                grad_W = tuple(d / h for d, h in zip(diffs, grid.h))
            elif grad_W is None:
                grad_W = gradient(grid, W)
            return W, InnerResult(it, res, rhs_l2, cg_iterations, halvings,
                                  LW, grad_W)
        if it == cfg.max_inner:
            raise NewtonStall(
                f"inner Newton out of budget ({cfg.max_inner} iterations) at "
                f"residual {res:g} (target {target:g})", residual=res,
                iterations=cfg.max_inner)
        # the semismooth slope of sign_k; no node within 1/k leaves it zero
        near = np.abs(W) <= 1.0 / k
        diag = b * k * near if near.any() else _NO_SHIFT
        step, its = cg_solve(op.fast_inverse, -r, diag,
                             tol=max(1e-15, forcing / res))
        cg_iterations += its
        t = 1.0
        for _ in range(40):
            W_trial = W + t * step
            trial_diffs = []
            LW_trial = op.apply(W_trial, trial_diffs)
            r_trial = residual_vec(W_trial, LW_trial)
            res_trial = math.sqrt(np.vdot(r_trial, r_trial))
            if res_trial <= (1.0 - 1e-4 * t) * res:
                W, LW, r, res = W_trial, LW_trial, r_trial, res_trial
                diffs = trial_diffs
                break
            t *= 0.5
            halvings += 1
        else:
            raise NewtonStall(
                f"line search exhausted at residual {res:g}", residual=res,
                iterations=it)


def _estimate_slack(dw, dW, data: SolveData, delta: float) -> float:
    """Slack of the a priori energy estimate, profile bound minus alpha|DW|,
    from the energies dw = |Dw| of the input and dW = |DW| of the output;
    its term curvature * dw^(1+theta) enters only with ``data.constants``.

    Nonnegative (up to solver tolerance) for every exact inner solve because
    the discrete Hoelder and Sobolev steps are exact with the discrete
    constants.
    """
    norms, C_N, c = data.norms, data.C_N, data.constants
    bound = norms["f_Hm1"] \
        + delta * C_N**2 * norms["f_N2"] * dw \
        + C_N**2 * norms["a0_N2"] * dw
    if c is not None:
        bound += c.curvature * dw ** (1.0 + c.theta)
    return bound - data.A.alpha * dW


def fixed_point_residual(w: np.ndarray, data: SolveData, delta: float,
                         k: float | None = None) -> float:
    """Normalized weak residual of the discrete truncated equation.

    With k = None the gradient term enters untruncated and with the exact
    sign, matching the limit equation the truncation ladder approaches.
    """
    a_quad, grad_sq = data.node_quadratic_forms(w)
    kv, g, one_p, sgn = transformed_terms(w, a_quad, grad_sq, delta, data.model)
    if k is None:
        zo = kv * sgn
    else:
        zo = truncate(kv, k) * sign_k(w, k)
    rhs = _rhs_from(data, w, one_p, g, sgn)
    return _relative_norm(data.op.apply(w) + zo - rhs, rhs)


def original_residual(w: np.ndarray, data: SolveData, delta: float) -> float:
    """Weak residual of the untransformed problem at u reconstructed from w."""
    u_vals = transform_inverse(w, delta)
    a_quad, grad_sq = data.node_quadratic_forms(u_vals)
    h_vals = data.model.evaluate(u_vals, a_quad, grad_sq)
    rhs = h_vals + data.f + data.a0 * u_vals
    return _relative_norm(data.op.apply(u_vals) - rhs, rhs)


def _relative_norm(r, rhs) -> float:
    """|r| / |rhs|, or |r| when rhs vanishes."""
    r_norm = float(np.sqrt(np.sum(r * r)))
    rhs_norm = float(np.sqrt(np.sum(rhs * rhs)))
    return r_norm / rhs_norm if rhs_norm else r_norm


def norm_identity_gap(grid: Grid, u: np.ndarray, delta: float,
                      exact_chain: bool = False):
    """Gap between the weighted gradient norm of u and the energy of w.

    The substitution satisfies |e^(delta|u|) Du|_2 = |Dw|_2 in the continuum.
    With ``exact_chain`` the per-edge weight is the divided difference of the
    forward map (the discrete chain rule), making the identity hold to
    roundoff; with the default endpoint-average weight the gap measures the
    discretization error and vanishes under refinement.
    """
    w = transform_forward(u, delta)
    rhs = energy_norm(grid, gradient(grid, w))
    total = 0.0
    for h, (u_hi, u_lo), (w_hi, w_lo) in zip(grid.h, edge_values(u),
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
    lhs = math.sqrt(total * grid.node_measure)
    return lhs, rhs, abs(lhs - rhs)


def _relaxed_step(grid, rho, w, W, grad_W, grad_D, defect):
    """w <- (1 - rho) w + rho W, with its gradient DW - (1 - rho) D(W - w)
    by linearity, its energy and the increment rho |D(W - w)|."""
    w_next = (1.0 - rho) * w + rho * W
    grad_next = tuple(gW - (1.0 - rho) * gD for gW, gD in zip(grad_W, grad_D))
    return w_next, grad_next, energy_norm(grid, grad_next), rho * defect


# history depth of the Anderson-mixed outer loop
ANDERSON_DEPTH = 5
# a fit whose condition estimate exceeds 1 / DEGENERATE_FIT is degenerate
DEGENERATE_FIT = 1e-10


class _WindowFit:
    """Least-squares fits over a window of at most ``depth`` columns, from QR
    factors updated as a column enters and the oldest leaves (Walker and Ni
    2011, section 4): the window's columns, oldest first, are Q^T R with the
    rows of Q orthonormal and R upper triangular.  Q is allocated once, at
    the first column.

    A fit is degenerate when the entering column has no component
    orthogonal to the window, or when the condition estimate
    |R|_F |R^-1|_F, an upper bound of kappa_2, exceeds 1 / DEGENERATE_FIT;
    this refuses at least every window whose singular values fall below
    DEGENERATE_FIT times the largest.
    """

    def __init__(self, depth):
        self.R = np.zeros((depth, depth))
        self.Q = None
        self.m = 0

    def push(self, column, target):
        """Enter ``column`` as the newest and return the coefficients gamma
        minimizing |target - sum_i gamma_i column_i| over the window, or None
        when the fit is degenerate.  The column enters by two classical
        Gram-Schmidt passes against the rows of Q."""
        m, R = self.m, self.R
        if self.Q is None:
            self.Q = np.empty((len(R), column.size))
        if m:
            Q = self.Q[:m]
            s = Q @ column
            column = column - s @ Q
            s2 = Q @ column
            column -= s2 @ Q
            R[:m, m] = s + s2
        R[m, m] = norm = math.sqrt(float(np.vdot(column, column)))
        if not norm > 0.0:
            return None
        np.divide(column, norm, out=self.Q[m])
        self.m = m = m + 1
        R = R[:m, :m]
        inv = np.linalg.inv(R)
        fro = math.sqrt(float(np.vdot(R, R)))
        if fro * math.sqrt(float(np.vdot(inv, inv))) > 1.0 / DEGENERATE_FIT:
            return None
        return inv @ (self.Q[:m] @ target)

    def drop_oldest(self):
        """Remove the oldest column.  The rest of R is upper Hessenberg;
        Givens rotations restore its triangular form, and their product G
        turns Q into the factor of the remaining columns."""
        m = self.m
        H = self.R[:m, 1:m].tolist()
        G = np.eye(m).tolist()
        for i in range(m - 1):
            a, b = H[i][i], H[i + 1][i]
            r = math.hypot(a, b)
            c, s = a / r, b / r
            for rows in (H, G):
                top, bottom = rows[i], rows[i + 1]
                rows[i] = [c * x + s * y for x, y in zip(top, bottom)]
                rows[i + 1] = [c * y - s * x for x, y in zip(top, bottom)]
            H[i][i], H[i + 1][i] = r, 0.0
        self.Q[:m - 1] = np.array(G[:m - 1]) @ self.Q[:m]
        self.R[:m - 1, :m - 1] = H[:m - 1]
        self.m = m - 1


class _AndersonStep:
    """Type-II Anderson mixing of depth ``ANDERSON_DEPTH`` and mixing factor
    1 on the inner solution map W = T(w) (Walker and Ni 2011):

        w_next = W - sum_i gamma_i dW_i,

    over the last differences dW_i of the inner solutions, with gamma the
    least-squares fit of the defect f = W - w by the differences df_i of the
    defects in the energy inner product (edge gradients times
    sqrt(node_measure)).  The fit's QR factors are kept and updated as the
    window moves (``_WindowFit``), not rebuilt at every step.  Without
    history the step is W itself.  A degenerate fit, or a mixed iterate
    whose |Dw| exceeds the ball radius plus the level's current
    ``eps_solver``, takes the relaxed step with factor rho instead and
    restarts the history.
    """

    def __init__(self, grid, rho, radius, trace):
        self.grid, self.radius, self.trace = grid, radius, trace
        self.relaxed = partial(_relaxed_step, grid, rho)
        self.scale = math.sqrt(grid.node_measure)
        self.last = None      # (W, Df) of the previous iterate
        self.history = []     # dW_i, oldest first; the df_i are in self.fit
        self.fit = _WindowFit(ANDERSON_DEPTH)

    def __call__(self, w, W, grad_W, grad_D, defect):
        Df = np.concatenate([g.ravel() for g in grad_D]) * self.scale
        last, self.last = self.last, (W, Df)
        w_next = W.copy()
        if last is not None:
            if len(self.history) == ANDERSON_DEPTH:
                del self.history[0]
                self.fit.drop_oldest()
            self.history.append(W - last[0])
            gamma = self.fit.push(Df - last[1], Df)
            if gamma is None:
                return self._fallback(w, W, grad_W, grad_D, defect)
            for g, dW in zip(gamma, self.history):
                w_next -= g * dW
        grad_next = gradient(self.grid, w_next)
        norm_next = energy_norm(self.grid, grad_next)
        if not norm_next <= self.radius + self.trace.eps_solver:
            return self._fallback(w, W, grad_W, grad_D, defect)
        increment = energy_norm(self.grid, gradient(self.grid, w_next - w))
        return w_next, grad_next, norm_next, increment

    def _fallback(self, w, W, grad_W, grad_D, defect):
        self.history.clear()
        self.fit.m = 0
        return self.relaxed(w, W, grad_W, grad_D, defect)


def outer_fixed_point(data: SolveData, cfg: SolverConfig, k: float,
                      anderson=False, w0=None):
    """Relaxed Picard iteration on the inner solution map at the truncation
    height k, started at ``w0``, zero if omitted; the first inner solve
    starts Newton from w0 as well.  With ``anderson`` true and a ball radius
    to guard it, the step is Anderson mixing (``_AndersonStep``) instead;
    the rule is chosen once, before the first iteration.

    The iterates w, the inner solutions W and their edge gradients are plain
    arrays; only the returned solution is wrapped in a ``ScalarField``.
    Every inner solve after the first starts Newton from the previous inner
    solution, its stencil image and its edge gradient.  The gradient of W
    comes with W from the inner solve (``InnerResult.grad``), so each
    iteration takes one per-edge gradient itself, of the defect W - w;
    every energy and, by linearity, the gradient of the relaxed iterate (for
    the next K_delta) come from the two.  The defect is differenced before
    its gradient, so it stays accurate relative to itself as it vanishes.

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
    grid, k = data.grid, float(k)
    trace = IterationTrace(k=k)
    if anderson and data.ball_radius is not None:
        step = _AndersonStep(grid, cfg.rho, data.ball_radius, trace)
    else:
        step = partial(_relaxed_step, grid, cfg.rho)
    w = np.zeros(grid.shape) if w0 is None else w0
    grad_w = gradient(grid, w)
    norm_w = energy_norm(grid, grad_w)
    max_rhs = 0.0
    final = False
    W, inner = w0, None
    for m in range(cfg.max_outer + 1):
        try:
            W, inner = inner_solve(w, data, cfg, k, x0=W, grad=grad_w, start=inner)
        except SolverFailure as exc:
            exc.traces = [trace]
            raise
        grad_W = inner.grad
        grad_D = gradient(grid, W - w)
        norm_W = energy_norm(grid, grad_W)
        defect = energy_norm(grid, grad_D)
        if final:
            # one unrelaxed application pins the reported solution to the map
            norm_next, increment = norm_W, defect
        else:
            max_rhs = max(max_rhs, inner.rhs_l2)
            trace.eps_solver = 10.0 * (cfg.inner_tol + cfg.cg_tol) * (1.0 + max_rhs)
            w_next, grad_next, norm_next, increment = step(
                w, W, grad_W, grad_D, defect)
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
            trace.residual = fixed_point_residual(W, data, cfg.delta, k=k)
            return w_k, trace
        w, grad_w, norm_w = w_next, grad_next, norm_next
        # defect <= tol implies the step's increment is small as well;
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


def k_continuation(data: SolveData, cfg: SolverConfig, n_ladder=(),
                   relaxed_heights=1):
    """Solve along the truncation schedule from the top height down and
    collect diagnostics; each height is one ``outer_fixed_point`` solve.

    The top ``relaxed_heights`` heights keep the paper's relaxed trajectory
    from w = 0; the heights below them are Anderson-mixed
    (``_AndersonStep``, guarded by the ball radius; relaxed without one),
    since only their discrete fixed points enter the diagnostics.  A mixed
    height starts from the solution one height above it when that solution
    has |Dw| <= ball_radius, and from w = 0 otherwise.  By default only the
    top height, which gives the reported solution, stays relaxed; the final
    increment then compares a mixed solve with a relaxed one and carries
    the relaxed solve's stopping error.

    Solutions, traces and diagnostics come back in schedule order.  A
    SolverFailure leaves with ``traces``: the finished heights' traces in
    schedule order, then the failing height's partial one.
    """
    schedule = tuple(cfg.k_schedule)
    n_ladder = tuple(n_ladder)
    grid, radius = data.grid, data.ball_radius
    solutions = []
    traces = []
    diag = LadderDiagnostics(
        n_ladder=n_ladder,
        tail_energy=np.zeros((len(n_ladder), len(schedule))),
        increments=[], max_abs=[],
    )
    mixed = len(schedule) - relaxed_heights
    for kidx in reversed(range(len(schedule))):
        # the last record's |DW| is the energy of the solution one height up
        w0 = None
        if kidx < mixed and traces and radius is not None \
                and traces[0].records[-1].grad_norm_W <= radius:
            w0 = solutions[0].values
        try:
            w_k, trace = outer_fixed_point(data, cfg, schedule[kidx],
                                           anderson=kidx < mixed, w0=w0)
        except SolverFailure as exc:
            exc.traces = traces + exc.traces
            raise
        solutions.insert(0, w_k)
        traces.insert(0, trace)
        diag.max_abs.insert(0, float(np.max(np.abs(w_k.values))))
        for nidx, n in enumerate(n_ladder):
            tail = gradient(grid, remainder(w_k.values, n))
            diag.tail_energy[nidx, kidx] = energy_norm(grid, tail) ** 2
    for i in range(len(solutions) - 1):
        delta_w = solutions[i].values - solutions[i + 1].values
        diag.increments.append(energy_norm(grid, gradient(grid, delta_w)))
    return solutions[-1], diag, traces
