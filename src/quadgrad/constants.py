"""Critical-constant engine for the smallness analysis.

Everything here is scalar arithmetic on the problem data: the coercivity
constant alpha, the growth constant gamma, the integrability exponent q of the
zeroth-order coefficient, the Sobolev exponent p and constant C_N, and the
norms of the data f and a0.  The config decides p and the exponent of those
norms.  From these the engine derives

  * theta          -- the superlinear exponent of the zeroth-order correction,
  * C(lambda)      -- the computable envelope constant of that correction,
  * G, delta1      -- the growth constant and the largest admissible
                      substitution parameter,
  * Phi_delta      -- a one-parameter family of convex-parabola-like profiles
                      whose sign controls the a priori gradient bound,
  * delta0, Z_d0   -- the unique parameter where the profile acquires a double
                      zero, and the location of that zero (the energy-ball
                      radius used by the solver), both in closed form,
  * Y_delta^-/+    -- the two distinct zeros of the profile below delta0,
                      found by bisection to the relative tolerance `root_tol`
                      (the only quantity that tolerance affects).

theta and G are properties of ``ProblemConstants``, so every engine function
takes that one set, as in ``z_delta(delta, c)``.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BracketError,
    DeltaOutOfRange,
    DomainError,
    ExponentOutOfRange,
    NonpositiveDelta1,
    NoTwoZeros,
    SmallnessViolated,
)

DEFAULT_ROOT_TOL = 1e-12
BISECT_STEPS = 200  # halvings of one bracket at most


def compute_theta(q, sobolev_exponent):
    """Exponent theta = p(q-1)/q - 2 in (0,1) of the Sobolev exponent p.

    theta lies in (0, 1) exactly when p/(p-2) < q, and also q < p/(p-3)
    when p > 3; the config decides p (2N/(N-2) unless it gives its own).
    """
    q, p = float(q), float(sobolev_exponent)
    theta = p * (q - 1.0) / q - 2.0 if q > 1.0 else math.nan
    if not (0 < theta < 1):
        window = "for no q"
        if p > 2:
            hi = p / (p - 3) if p > 3 else math.inf
            window = f"only for q in ({p / (p - 2):g}, {hi:g})"
        raise ExponentOutOfRange(
            f"theta = p(q-1)/q - 2 lies in (0, 1) {window} when p = {p:g}; "
            f"got q = {q:g}")
    return theta


def c_lambda_bound(lam):
    """Envelope constant sup{1, 2^(1+lam) / (lam * e)} for lam in (0,1).

    This computable upper bound is used in place of the (unknown) best
    constant throughout; it is conservative, shrinking the admissible region.
    Accepts scalars or arrays.
    """
    arr = np.asarray(lam, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise ExponentOutOfRange(f"lambda must lie in (0, 1), got {lam}")
    out = np.maximum(1.0, 2.0 ** (1.0 + arr) / (arr * math.e))
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class ProblemConstants:
    """Scalar data feeding the critical-constant formulas.

    `sobolev_exponent` is the p of theta = p(q-1)/q - 2, decided by the
    config together with the exponent of the norms.  theta is checked when
    built; G is computed when first read, where a nonpositive delta1 raises.
    """

    alpha: float
    gamma: float
    q: float
    norm_f_N2: float
    norm_f_Hm1: float
    norm_a0_N2: float
    norm_a0_q: float
    C_N: float
    sobolev_exponent: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if self.gamma <= 0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        if self.C_N <= 0:
            raise DomainError(f"C_N must be positive, got {self.C_N}")
        if self.norm_f_Hm1 < 0 or self.norm_f_N2 < 0 or self.norm_a0_N2 < 0:
            raise DomainError("norms must be nonnegative")
        # degenerate data is rejected distinctly: delta1 and Z_delta divide by
        # these norms, so zero values poison every downstream formula
        if self.norm_f_N2 == 0:
            raise DomainError("f must not vanish: its integral norm is zero")
        if self.norm_a0_q <= 0:
            raise DomainError("a0 must not vanish: its L^q norm is zero")
        self.theta  # evaluated now to refuse a q outside the window

    @cached_property
    def theta(self):
        return compute_theta(self.q, self.sobolev_exponent)

    @cached_property
    def G(self):
        return compute_G(self, self.theta)

    @cached_property
    def curvature(self):
        """G*C_N^(2+theta)*|a0|_q, the coefficient of X^(1+theta) in phi."""
        return self.G * self.C_N ** (2.0 + self.theta) * self.norm_a0_q


def delta1(c: ProblemConstants) -> float:
    """Largest substitution parameter with nonnegative leftover coercivity."""
    num = c.alpha - c.C_N**2 * c.norm_a0_N2
    if num <= 0:
        raise NonpositiveDelta1(
            f"alpha - C_N^2*|a0| = {num:g} <= 0: no admissible substitution range"
        )
    return num / (c.C_N**2 * c.norm_f_N2)


def compute_G(c: ProblemConstants, theta: float) -> float:
    """Growth constant delta1^theta * C(theta) of the correction envelope."""
    return delta1(c) ** theta * c_lambda_bound(theta)


def leftover_coercivity(delta: float, c: ProblemConstants) -> float:
    """Linear slope L_delta = alpha - C_N^2*|a0|_{N/2} - delta*C_N^2*|f|_{N/2}."""
    return c.alpha - c.C_N**2 * c.norm_a0_N2 - delta * c.C_N**2 * c.norm_f_N2


@dataclass(frozen=True)
class SmallnessVerdict:
    holds: bool
    margin: float


def check_smallness(c: ProblemConstants):
    """Evaluate both smallness conditions with their margins.

    The first condition demands strictly positive leftover coercivity at
    delta = gamma; the second asks that the profile minimum at gamma be
    nonpositive, and its margin is minus that minimum (minus |f|_dual when
    the first condition fails).  Returns (A1, A3) verdicts.
    """
    m1 = leftover_coercivity(c.gamma, c)
    # 0.0 - x rather than -x: an exactly zero margin stays +0.0
    m3 = 0.0 - (phi_at_min(c.gamma, c) if m1 > 0.0 else c.norm_f_Hm1)
    return SmallnessVerdict(m1 > 0.0, m1), SmallnessVerdict(m3 >= 0.0, m3)


def smallness_error(a1, a3) -> SmallnessViolated:
    """The error for the first failing condition of the smallness verdicts
    (A1, A3) that ``check_smallness`` returns."""
    if not a1.holds:
        return SmallnessViolated(
            f"first smallness condition fails: margin {a1.margin:g} <= 0")
    return SmallnessViolated(
        "second smallness condition fails: profile minimum at gamma is "
        f"{-a3.margin:g} > 0")


def phi(delta: float, X: float, c: ProblemConstants) -> float:
    """Profile value G*C^(2+theta)*|a0|_q*X^(1+theta) - L_delta*X + |f|_dual."""
    if X < 0:
        raise DomainError(f"profile argument must be nonnegative, got X = {X}")
    if delta < 0:
        raise DomainError(f"substitution parameter must be nonnegative, got {delta}")
    return c.curvature * X ** (1.0 + c.theta) - leftover_coercivity(delta, c) * X \
        + c.norm_f_Hm1


def _leftover_or_raise(delta, c):
    """L_delta clamped at the delta1 boundary (roundoff guard), else an error."""
    L = leftover_coercivity(delta, c)
    if L < 0:
        if L >= -1e-12 * c.alpha:
            return 0.0
        raise DeltaOutOfRange(
            f"delta = {delta:g} exceeds delta1 = {delta1(c):g}: leftover "
            "coercivity is negative and the minimizer formula is meaningless"
        )
    return L


def z_delta(delta: float, c: ProblemConstants) -> float:
    """Unique minimizer of the profile on the nonnegative axis."""
    if delta < 0:
        raise DeltaOutOfRange(f"substitution parameter must be nonnegative, got {delta}")
    L = _leftover_or_raise(delta, c)
    return (L / ((1.0 + c.theta) * c.curvature)) ** (1.0 / c.theta)


def _depth_scale(c: ProblemConstants) -> float:
    """D = ((1+theta)*G*C^(2+theta)*|a0|_q)^(1/theta) of the profile minimum."""
    theta = c.theta
    return ((1.0 + theta) * c.G * c.C_N ** (2.0 + theta) * c.norm_a0_q) ** (1.0 / theta)


def phi_at_min(delta: float, c: ProblemConstants) -> float:
    """Closed-form minimum |f|_dual - theta/(1+theta)*L_delta^((1+theta)/theta)/D."""
    L = _leftover_or_raise(delta, c)
    theta = c.theta
    return c.norm_f_Hm1 - theta / (1.0 + theta) * L ** ((1.0 + theta) / theta) \
        / _depth_scale(c)


def _bisect(below, lo, hi, width=0.0):
    """Bracket [lo, hi] of the point where ``below`` turns false, halved
    while its midpoint lies strictly inside and it is wider than ``width``,
    for at most BISECT_STEPS halvings; ``below(lo)`` is taken to hold and
    ``below(hi)`` not to."""
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi or hi - lo <= width:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def solve_delta0(c: ProblemConstants, tol: float = DEFAULT_ROOT_TOL):
    """Closed-form parameter at which the profile minimum crosses zero.

    The minimum (see `phi_at_min`) vanishes at the slope
    L* = ((1+theta)/theta * |f|_dual * D)^(theta/(1+theta)), and L_delta is
    affine in delta, so delta0 = (alpha - C_N^2*|a0|_{N/2} - L*) /
    (C_N^2*|f|_{N/2}), at least gamma.  delta0 is then rounded up to the
    first float where the minimum is nonnegative (`_bisect` of the last step
    down to adjacent floats), so the profile at delta0 has no two distinct
    zeros.  Returns (delta0, Z_delta0).
    The minimum at gamma may exceed zero by tol * max(1, |f|_dual) before the
    second smallness condition counts as failed; delta0 is gamma when it is
    nonnegative.
    """
    a1, a3 = check_smallness(c)
    f_gamma = -a3.margin  # the profile minimum at gamma
    if not a1.holds or f_gamma > tol * max(1.0, c.norm_f_Hm1):
        raise smallness_error(a1, a3)
    if c.norm_f_Hm1 <= 0.0:
        raise BracketError(
            f"dual norm of f is {c.norm_f_Hm1:g} <= 0, so the profile minimum "
            "never turns positive; constants are corrupted"
        )
    if f_gamma >= 0.0:
        return c.gamma, z_delta(c.gamma, c)
    L_star = ((1.0 + c.theta) / c.theta * c.norm_f_Hm1 * _depth_scale(c)) \
        ** (c.theta / (1.0 + c.theta))
    d1 = delta1(c)
    d0 = max(c.gamma, d1 - L_star / (c.C_N**2 * c.norm_f_N2))
    # round up: one ulp of delta moves L_delta by far less than one of its own
    # ulps when delta0 << delta1, so double the step until the minimum is
    # nonnegative (it is |f|_dual > 0 at delta1), then bisect the last step
    lo, hi, step = d0, d0, math.ulp(d0)
    while phi_at_min(hi, c) < 0.0:
        if hi >= d1:
            raise BracketError(
                f"profile minimum still negative at delta1 = {d1!r}; "
                "constants are corrupted"
            )
        lo, hi, step = hi, min(d0 + step, d1), 2.0 * step
    _, hi = _bisect(lambda d: phi_at_min(d, c) < 0.0, lo, hi)
    return hi, z_delta(hi, c)


def zeros_y(delta: float, c: ProblemConstants, tol: float = DEFAULT_ROOT_TOL):
    """Two distinct zeros of the profile for gamma <= delta < delta0.

    `_bisect` halves [0, Z_delta] and [Z_delta, X_hi], where X_hi doubles
    until the profile turns positive, down to a width of 0.1*tol*max(1,
    upper end); each zero is its bracket's midpoint.  Raises NoTwoZeros when
    the minimum is not strictly negative (delta at or above the double-zero
    parameter).
    """
    zd = z_delta(delta, c)
    f_min = phi_at_min(delta, c)
    if f_min >= 0.0:
        raise NoTwoZeros(
            f"profile minimum at delta = {delta:g} is {f_min:g} >= 0: "
            "no two distinct zeros exist"
        )

    # the midpoint of the last bracket sits within 0.1*tol (relative) of the
    # sign change, so a 10*tol neighbourhood brackets it
    lo, hi = _bisect(lambda x: phi(delta, x, c) >= 0.0, 0.0, zd,
                     0.1 * tol * max(1.0, zd))
    y_minus = 0.5 * (lo + hi)
    hi = max(2.0 * zd, 1.0)
    f_hi = phi(delta, hi, c)
    while f_hi <= 0.0:
        hi *= 2.0
        if not math.isfinite(hi):
            raise BracketError("profile never turns positive above its minimum")
        f_hi = phi(delta, hi, c)
    lo, hi = _bisect(lambda x: phi(delta, x, c) < 0.0, zd, hi,
                     0.1 * tol * max(1.0, hi))
    return y_minus, 0.5 * (lo + hi)


@dataclass
class CriticalReport:
    """Derived quantities plus smallness verdicts, JSON-serializable.

    When a smallness condition fails the report is partial: ``delta0`` and
    ``Z_delta0`` are None and no zero pairs are computed.
    """

    theta: float
    c_theta: float
    G: float
    delta1: float
    delta0: float | None
    Z_delta0: float | None
    smallness_A1: SmallnessVerdict
    smallness_A3: SmallnessVerdict
    root_tol: float
    C_N: float
    C_N_source: str
    y_zeros: dict = field(default_factory=dict)

    @property
    def admissible(self):
        """Both smallness conditions hold."""
        return self.smallness_A1.holds and self.smallness_A3.holds

    def to_dict(self):
        d = asdict(self)
        del d["y_zeros"]
        if self.y_zeros:
            d["y_zeros"] = {
                str(k): [v if math.isfinite(v) else None for v in pair]
                for k, pair in self.y_zeros.items()
            }
        return d


def critical_report(c: ProblemConstants, C_N_source: str = "user",
                    tol: float = DEFAULT_ROOT_TOL,
                    y_deltas=()) -> CriticalReport:
    """Run the whole constants pipeline and package the result.

    The pipeline stops after the smallness verdicts when one of them fails,
    leaving a partial report (see ``CriticalReport``).
    """
    a1, a3 = check_smallness(c)
    report = CriticalReport(
        theta=c.theta,
        c_theta=c_lambda_bound(c.theta),
        G=c.G,
        delta1=delta1(c),
        delta0=None,
        Z_delta0=None,
        smallness_A1=a1,
        smallness_A3=a3,
        root_tol=tol,
        C_N=c.C_N,
        C_N_source=C_N_source,
    )
    if not report.admissible:
        return report
    report.delta0, report.Z_delta0 = solve_delta0(c, tol=tol)
    for d in y_deltas:
        try:
            report.y_zeros[float(d)] = zeros_y(d, c, tol=tol)
        except (NoTwoZeros, DeltaOutOfRange):
            report.y_zeros[float(d)] = (math.nan, math.nan)
    return report
