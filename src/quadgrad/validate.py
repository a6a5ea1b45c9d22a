"""Seeded sampling validators for the pointwise bounds and grid identities.

Each check returns a ``CheckResult`` rather than raising: the verify command
treats failures as data, prints one line per check, and maps any failure to
its own exit code.  Relative slack scales with the magnitude of the bound
being tested, never with an absolute epsilon, because the underlying
inequalities are exact in real arithmetic while double precision is not.
The checks whose bounds scale with the model constants or the exponents
evaluate in extended arithmetic: a bound that overflows gives an infinite or
NaN margin, which fails unless it is +inf, without a floating-point warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext

import numpy as np

from .constants import ProblemConstants, c_lambda_bound
from .grid import (
    DiffusionOperator,
    Grid,
    ScalarField,
    gradient,
    h1_seminorm,
    inner_l2,
    lp_norm,
    riesz_representative,
)
from .nonlinearity import HModel, g_delta, transformed_terms

REL_SLACK = 1e-12


@dataclass
class CheckResult:
    name: str
    ok: bool
    worst: float
    detail: str = ""

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}: worst margin {self.worst:.3e}{extra}"

    @classmethod
    def skipped(cls, name, why):
        """A check that could not run: it passes, with no margin."""
        return cls(name, True, math.nan, f"skipped: {why}")


def random_spd_matrices(rng, n, dim, alpha_min=0.5):
    """SPD matrices 2 m m^T + alpha_min I, m standard normal, so the
    smallest eigenvalue is >= alpha_min.

    Entry (i, k) of m m^T is sum_j m_ij m_kj, accumulated in j order from
    the j = 0 product.  The sampled reports of ``verify`` depend on that
    order to the last bit, so it is fixed here.
    """
    m = rng.standard_normal((n, dim, dim))
    cols = [m[:, :, j] for j in range(dim)]
    mats = cols[0][:, :, None] * cols[0][:, None, :]
    for col in cols[1:]:
        mats += col[:, :, None] * col[:, None, :]
    mats *= 2.0
    mats += alpha_min * np.eye(dim)
    return mats


def _quad_forms(mats, zetas):
    """Quadratic forms sum_ij (zeta_i M_ij) zeta_j per sample, summed in
    row-major (i, j) order from the (0, 0) term; the sampled reports of
    ``verify`` depend on that order to the last bit."""
    dim = zetas.shape[1]
    z = zetas.T
    out = z[0] * mats[:, 0, 0] * z[0]
    for i in range(dim):
        for j in range(dim):
            if i or j:
                out += z[i] * mats[:, i, j] * z[j]
    return out


def _sampled_model(model: HModel, rng, n) -> HModel:
    """The model with one mu per sample, drawn from its nodal values when mu
    is a field; a scalar mu draws nothing."""
    if np.ndim(model.mu) == 0:
        return model
    return replace(model, mu=rng.choice(np.ravel(model.mu), n))


def _sample_k_values(model, rng, n, delta):
    mats = random_spd_matrices(rng, n, 2)
    zetas = rng.standard_normal((n, 2)) * rng.uniform(0.0, 3.0, (n, 1))
    zetas[rng.random(n) < 0.02] = 0.0
    t = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 2, n)
    t[rng.random(n) < 0.05] = 0.0
    a_quad = _quad_forms(mats, zetas)
    grad_sq = np.einsum("ni,ni->n", zetas, zetas)
    kv = transformed_terms(t, a_quad, grad_sq, delta,
                           _sampled_model(model, rng, n))[0]
    return kv, a_quad, t


@np.errstate(over="ignore", invalid="ignore")
def check_k_two_sided(model: HModel, gamma, c0, rng, n=10_000,
                      delta=None) -> CheckResult:
    """Two-sided squeeze -(|delta-gamma|) A z.z <= K <= (c0+delta) A z.z."""
    delta = float(delta if delta is not None else rng.uniform(0.05, 3.0))
    kv, a_quad, _ = _sample_k_values(model, rng, n, delta)
    slack = REL_SLACK * (c0 + delta) * a_quad
    upper = (c0 + delta) * a_quad + slack - kv
    lower = kv + abs(delta - gamma) * a_quad + slack
    worst = float(min(upper.min(initial=np.inf), lower.min(initial=np.inf)))
    return CheckResult(
        f"two-sided gradient-term bound (delta={delta:.3g})", worst >= 0.0, worst
    )


@np.errstate(over="ignore", invalid="ignore")
def check_k_nonnegative(model: HModel, gamma, c0, rng, n=10_000,
                        delta=None) -> CheckResult:
    """One-sided bound 0 <= K <= (c0+delta) A z.z for delta >= gamma."""
    delta = float(delta if delta is not None else gamma * rng.uniform(1.0, 3.0))
    kv, a_quad, _ = _sample_k_values(model, rng, n, delta)
    slack = REL_SLACK * (c0 + delta) * a_quad
    worst = float(np.min(kv + slack))
    return CheckResult(
        f"nonnegativity of gradient term (delta={delta:.3g} >= gamma)",
        worst >= 0.0, worst,
    )


def check_g_identity(rng, n=10_000) -> CheckResult:
    """Algebraic identity linking t + g*sign(t) to the substitution factor."""
    t = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
    delta = 10.0 ** rng.uniform(-2, 1, n)
    lhs = t + g_delta(t, delta) * np.sign(t)
    rhs = (1.0 + delta * np.abs(t)) / delta * np.log1p(delta * np.abs(t)) * np.sign(t)
    scale = np.maximum(1.0, np.abs(rhs))
    worst = float(np.max(np.abs(lhs - rhs) / scale))
    return CheckResult("substitution identity for the correction term",
                       worst <= REL_SLACK, worst)


def check_g_envelope(rng, n=10_000) -> CheckResult:
    """0 <= g_delta(t) <= dstar^lam * C(lam) * |t|^(1+lam) for delta <= dstar."""
    lam = rng.uniform(0.05, 0.95, n)
    dstar = 10.0 ** rng.uniform(-2, 1, n)
    delta = dstar * rng.uniform(0.01, 1.0, n)
    t = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 3, n)
    g = g_delta(t, delta)
    env = dstar**lam * c_lambda_bound(lam) * np.abs(t) ** (1.0 + lam)
    slack = REL_SLACK * np.maximum(env, 1e-300)
    worst = float(min(np.min(g + slack), np.min(env + slack - g)))
    return CheckResult("correction-term envelope", worst >= 0.0, worst)


def check_g_growth(G, theta, delta1, rng, n=10_000) -> CheckResult:
    """0 <= g_delta(t) < G |t|^(1+theta) for 0 < delta <= delta1, t != 0."""
    delta = delta1 * rng.uniform(1e-3, 1.0, n)
    t = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 3, n)
    t[t == 0.0] = 1e-3
    g = g_delta(t, delta)
    env = G * np.abs(t) ** (1.0 + theta)
    slack = REL_SLACK * env
    worst = float(min(np.min(g), np.min(env + slack - g)))
    return CheckResult("growth-constant envelope", worst >= 0.0, worst)


@np.errstate(over="ignore", invalid="ignore")
def check_certificate(model: HModel, gamma, c0, rng, alpha_min=0.5) -> CheckResult:
    """Sampled growth certificate -c0 A x.x <= H sign(s) <= gamma A x.x."""
    n = 10_000
    mats = random_spd_matrices(rng, n, 2, alpha_min=alpha_min)
    xis = rng.standard_normal((n, 2)) * rng.uniform(0.0, 3.0, (n, 1))
    s = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 2, n)
    s[rng.random(n) < 0.05] = 0.0
    a_quad = _quad_forms(mats, xis)
    xi_sq = np.einsum("ni,ni->n", xis, xis)
    hs = _sampled_model(model, rng, n).evaluate(s, a_quad, xi_sq) * np.sign(s)
    slack = REL_SLACK * np.maximum(gamma, c0 + 1.0) * a_quad
    worst = float(min(np.min(gamma * a_quad + slack - hs),
                      np.min(hs + c0 * a_quad + slack)))
    return CheckResult(f"growth certificate of {model.kind}", worst >= 0.0, worst)


def check_h_vanishes_at_zero_gradient(model: HModel, rng) -> CheckResult:
    n = 2000
    s = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 2, n)
    h0 = model.evaluate(s, np.zeros(n), np.zeros(n))
    worst = float(np.max(np.abs(h0)))
    return CheckResult("nonlinearity vanishes at zero gradient", worst == 0.0, worst)


def _field_scale(op: DiffusionOperator) -> float:
    """2^-max(0, e - 500), e the binary exponent of the largest A/h^2.

    Random fields drawn times this keep the stencil image and the products
    of the grid checks in the double range however large A is; the factor
    is exactly 1 unless A/h^2 exceeds 2^500, so it changes no other draw.
    """
    top = max(c / (h * h) for c, h in zip(op.coef, op.grid.h))
    return math.ldexp(1.0, -max(0, math.frexp(top)[1] - 500))


def check_operator_symmetry(op: DiffusionOperator, rng) -> CheckResult:
    """<op u, v> = <u, op v> for random pairs, relative to the rounding scale.

    The scale is the sum of the absolute products in either dot product: the
    dot products themselves can cancel to nearly zero, which would make a
    relative error against them meaningless; its floor is the fields'
    factor squared, not 1, so it holds for fields drawn at any size.
    """
    g = op.grid
    scale_uv = _field_scale(op)
    worst = 0.0
    for _ in range(20):
        u = rng.standard_normal(g.shape) * scale_uv
        v = rng.standard_normal(g.shape) * scale_uv
        left_terms = op.apply(u) * v
        right_terms = u * op.apply(v)
        scale = max(scale_uv**2, float(np.sum(np.abs(left_terms))),
                    float(np.sum(np.abs(right_terms))))
        diff = abs(float(np.sum(left_terms)) - float(np.sum(right_terms)))
        worst = max(worst, diff / scale)
    return CheckResult("operator symmetry", worst <= 1e-14, worst)


def check_integration_by_parts(op: DiffusionOperator, rng) -> CheckResult:
    """<op u, v> equals the A-weighted energy product to roundoff."""
    g = op.grid
    scale_uv = _field_scale(op)
    worst = 0.0
    for _ in range(20):
        u = rng.standard_normal(g.shape) * scale_uv
        v = rng.standard_normal(g.shape) * scale_uv
        lhs = float(np.sum(op.apply(u) * v) * g.node_measure)
        gu, gv = gradient(g, u), gradient(g, v)
        rhs = sum(float(np.sum(c * a * b)) for c, a, b in zip(op.coef, gu, gv))
        rhs *= g.node_measure
        worst = max(worst, abs(lhs - rhs) / max(scale_uv**2, abs(rhs)))
    return CheckResult("discrete integration by parts", worst <= 1e-12, worst)


@np.errstate(over="ignore", invalid="ignore")
def check_holder(grid: Grid, exponents, rng) -> CheckResult:
    """Three-factor Hoelder inequality on the shared nodal quadrature, at
    the extremal triple f, |f|^(p1/p2), |f|^(p1/p3): an equality when
    1/p1 + 1/p2 + 1/p3 = 1, false when the sum is larger and the grid's
    total measure is below 1."""
    p1, p2, p3 = exponents
    worst = np.inf
    for _ in range(20):
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        # two fields drawn and left unused: later checks sample from here on
        rng.standard_normal((2,) + grid.shape)
        v = ScalarField(grid, np.abs(f.values) ** (p1 / p2))
        w = ScalarField(grid, np.abs(f.values) ** (p1 / p3))
        lhs = float(np.sum(np.abs(f.values * v.values * w.values))
                    * grid.node_measure)
        rhs = lp_norm(f, p1) * lp_norm(v, p2) * lp_norm(w, p3)
        worst = min(worst, rhs * (1.0 + REL_SLACK) - lhs)
    return CheckResult("discrete Hoelder inequality", worst >= 0.0, float(worst))


@np.errstate(over="ignore", invalid="ignore")
def check_sobolev_holds(grid: Grid, p, constant, rng) -> CheckResult:
    """|v|_p <= C_h |grad v|_2 for random fields, C_h the estimated constant."""
    worst = np.inf
    for _ in range(40):
        v = ScalarField(grid, rng.standard_normal(grid.shape))
        worst = min(worst,
                    constant * (1.0 + 1e-9) * h1_seminorm(v) - lp_norm(v, p))
    return CheckResult("discrete Sobolev inequality at estimated constant",
                       worst >= 0.0, float(worst))


def check_dual_norm(grid: Grid, rng) -> CheckResult:
    """<f, v> <= |f|_dual |grad v|_2, equality at the Riesz representative."""
    worst = np.inf
    for _ in range(10):
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        z = riesz_representative(f)
        dual = h1_seminorm(z)
        v = ScalarField(grid, rng.standard_normal(grid.shape))
        gap = dual * h1_seminorm(v) * (1.0 + 1e-10) - inner_l2(f, v)
        eq_gap = abs(inner_l2(f, z) - dual * dual) / max(dual**2, 1e-300)
        worst = min(worst, float(gap), float(1e-8 - eq_gap))
    return CheckResult("dual-norm duality and Riesz equality", worst >= 0.0,
                       float(worst))


def growth_constant_decimal(c: ProblemConstants, theta: float) -> float:
    """G = delta1^theta * max(1, 2^(1+theta)/(theta*e)) in 30-digit decimals.

    An evaluation independent of the double-precision engine, taken from the
    exact binary values of the inputs and summed in logarithms.
    """
    with localcontext() as ctx:
        ctx.prec = 30
        th = Decimal(theta)
        C2 = Decimal(c.C_N) ** 2
        d1 = (Decimal(c.alpha) - C2 * Decimal(c.norm_a0_N2)) \
            / (C2 * Decimal(c.norm_f_N2))
        log_envelope = (1 + th) * Decimal(2).ln() - 1 - th.ln()
        return float((th * d1.ln() + max(Decimal(0), log_envelope)).exp())


def constants_cross_checks(c: ProblemConstants, rng) -> list:
    """Engine identities on perturbed copies of the given constants."""
    from . import constants as cmod

    results = []
    worst_g = 0.0
    worst_phi = 0.0
    for i in range(50):
        scale = 10.0 ** rng.uniform(-0.5, 0.5)
        cc = replace(
            c, alpha=c.alpha * scale,
            norm_f_N2=c.norm_f_N2 * 10.0 ** rng.uniform(-0.3, 0.3),
            norm_a0_N2=min(c.norm_a0_N2, 0.5 * c.alpha * scale / c.C_N**2),
            norm_a0_q=c.norm_a0_q * 10.0 ** rng.uniform(-0.3, 0.3),
        )
        theta = cc.theta
        G1 = cmod.compute_G(cc, theta)
        if i < 5:  # the decimal reference costs about 0.2 ms a set
            G2 = growth_constant_decimal(cc, theta)
            worst_g = max(worst_g, abs(G1 - G2) / G2)
        d = rng.uniform(0.0, cmod.delta1(cc))
        closed = cmod.phi_at_min(d, cc, theta, G1)
        direct = cmod.phi(d, cmod.z_delta(d, cc, theta, G1), cc, theta, G1)
        worst_phi = max(worst_phi, abs(closed - direct) / max(1.0, abs(closed)))
    results.append(CheckResult("growth constant against 30-digit decimal",
                               worst_g <= 1e-14, worst_g))
    results.append(CheckResult("profile minimum closed form",
                               worst_phi <= 1e-12, worst_phi))
    return results
