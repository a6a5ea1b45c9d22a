"""Seeded sampling validators for the pointwise bounds and grid identities.

Each check returns a ``CheckResult`` rather than raising: the verify command
treats failures as data, prints one line per check, and maps any failure to
its own exit code.  Relative slack scales with the magnitude of the bound
being tested, never with an absolute epsilon, because the underlying
inequalities are exact in real arithmetic while double precision is not.
The checks whose bounds scale with the model constants or the exponents
evaluate in extended arithmetic: a bound that overflows gives an infinite or
NaN margin, which fails unless it is +inf, without a floating-point warning.
The model checks read gamma and c0 from the ``HModel`` and draw A >= alpha.
The five grid checks share one draw of random fields (``grid_checks``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext

import numpy as np

from . import constants as cmod
from .constants import ProblemConstants, c_lambda_bound
from .grid import (
    DiffusionOperator,
    energy_norm,
    gradient,
    h1_seminorm,
    lp_norm,
    riesz_representative,
)
from .nonlinearity import HModel, g_delta, transformed_terms

REL_SLACK = 1e-12
# pairs of random fields that the grid checks share, and how many of them
# the dual-norm check lifts by a Poisson solve
GRID_PAIRS, DUAL_PAIRS = 20, 10

# the checks that read the problem's constants, in the order verify runs them
G_GROWTH, G_DECIMAL, PHI_MIN = CONSTANTS_CHECKS = (
    "growth-constant envelope", "growth constant against 30-digit decimal",
    "profile minimum closed form")


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


def random_spd_matrices(rng, n, dim, alpha_min):
    """SPD matrices 2 m m^T + alpha_min I, m standard normal, so the
    smallest eigenvalue is >= alpha_min.

    Entry (i, k) of m m^T is sum_j m_ij m_kj, accumulated in j order from
    the j = 0 product.  The sampled reports of ``verify`` depend on that
    order to the last bit, so it is fixed here.
    """
    m = rng.standard_normal((n, dim, dim))
    mats = np.empty((n, dim, dim))
    for i in range(dim):
        for k in range(dim):
            entry = m[:, i, 0] * m[:, k, 0]
            for j in range(1, dim):
                entry += m[:, i, j] * m[:, k, j]
            mats[:, i, k] = entry
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


def _sample_k_values(model, alpha, rng, n, delta):
    mats = random_spd_matrices(rng, n, 2, alpha_min=alpha)
    zetas = rng.standard_normal((n, 2)) * rng.uniform(0.0, 3.0, (n, 1))
    zetas[rng.random(n) < 0.02] = 0.0
    t = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 2, n)
    t[rng.random(n) < 0.05] = 0.0
    a_quad = _quad_forms(mats, zetas)
    grad_sq = np.einsum("ni,ni->n", zetas, zetas)
    kv = transformed_terms(t, a_quad, grad_sq, delta,
                           _sampled_model(model, rng, n))[0]
    return kv, a_quad


@np.errstate(over="ignore", invalid="ignore")
def check_k_two_sided(model: HModel, alpha, rng, n=10_000,
                      delta=None) -> CheckResult:
    """Two-sided squeeze -(|delta-gamma|) A z.z <= K <= (c0+delta) A z.z."""
    gamma, c0 = model.gamma_cert, model.c0_cert
    delta = float(delta if delta is not None else rng.uniform(0.05, 3.0))
    kv, a_quad = _sample_k_values(model, alpha, rng, n, delta)
    slack = REL_SLACK * (c0 + delta) * a_quad
    upper = (c0 + delta) * a_quad + slack - kv
    lower = kv + abs(delta - gamma) * a_quad + slack
    worst = float(min(upper.min(initial=np.inf), lower.min(initial=np.inf)))
    return CheckResult(
        f"two-sided gradient-term bound (delta={delta:.3g})", worst >= 0.0, worst
    )


@np.errstate(over="ignore", invalid="ignore")
def check_k_nonnegative(model: HModel, alpha, rng, n=10_000,
                        delta=None) -> CheckResult:
    """One-sided bound 0 <= K <= (c0+delta) A z.z for delta >= gamma."""
    gamma = model.gamma_cert
    delta = float(delta if delta is not None else gamma * rng.uniform(1.0, 3.0))
    kv, a_quad = _sample_k_values(model, alpha, rng, n, delta)
    slack = REL_SLACK * (model.c0_cert + delta) * a_quad
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


def check_g_growth(c: ProblemConstants, rng, n=10_000) -> CheckResult:
    """0 <= g_delta(t) < G |t|^(1+theta) for 0 < delta <= delta1, t != 0."""
    delta = cmod.delta1(c) * rng.uniform(1e-3, 1.0, n)
    t = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 3, n)
    t[t == 0.0] = 1e-3
    g = g_delta(t, delta)
    env = c.G * np.abs(t) ** (1.0 + c.theta)
    slack = REL_SLACK * env
    worst = float(min(np.min(g), np.min(env + slack - g)))
    return CheckResult(G_GROWTH, worst >= 0.0, worst)


@np.errstate(over="ignore", invalid="ignore")
def check_certificate(model: HModel, alpha, rng) -> CheckResult:
    """Sampled growth certificate -c0 A x.x <= H sign(s) <= gamma A x.x."""
    gamma, c0 = model.gamma_cert, model.c0_cert
    n = 10_000
    mats = random_spd_matrices(rng, n, 2, alpha_min=alpha)
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

    The symmetry and integration-by-parts fields are drawn times this, so
    their stencil images and products stay in the double range however
    large A is; the factor is exactly 1 unless A/h^2 exceeds 2^500.
    """
    top = max(c / (h * h) for c, h in zip(op.coef, op.grid.h))
    return math.ldexp(1.0, -max(0, math.frexp(top)[1] - 500))


@np.errstate(over="ignore", invalid="ignore")
def grid_checks(op: DiffusionOperator, p_f, p_star, sobolev_constant,
                rng) -> list:
    """The five grid checks of ``verify``, in its order, on shared fields.

    GRID_PAIRS = 20 pairs (u, v) are drawn once, u0, v0, u1, v1, ..., and
    one pair at a time is alive:

    * operator symmetry, <op u, v> = <u, op v>: all 20 pairs;
    * discrete integration by parts, <op u, v> equal to the A-weighted
      energy product (both summed without the common node measure): all 20
      pairs, sharing op u and op v with symmetry;
    * the three-factor Hoelder inequality at exponents (p_f, p_star, p_star)
      and the extremal triple f, |f|^(p_f/p_star), |f|^(p_f/p_star): the 20
      u.  It is an equality when 1/p_f + 2/p_star = 1, false when the sum is
      larger and the grid's total measure is below 1;
    * the Sobolev inequality |w|_p_star <= C |grad w|_2, C the estimated
      constant: all 40 fields;
    * duality <f, v> <= |f|_dual |grad v|_2, with equality at the Riesz
      representative of f = u: the first DUAL_PAIRS = 10 pairs.

    Symmetry and integration by parts take the fields times ``_field_scale``
    and measure their errors against the sums of absolute products, floored
    at the factor squared: <op u, v> itself can cancel to nearly zero, which
    would make an error relative to it meaningless.
    """
    g, scale = op.grid, _field_scale(op)
    # the energy product of the scaled fields from the drawn fields' gradients
    energy_coef = [c * scale * scale for c in op.coef]
    sym = ibp = 0.0
    holder = sobolev = dual = np.inf
    for i in range(GRID_PAIRS):
        u = rng.standard_normal(g.shape)
        v = rng.standard_normal(g.shape)
        us, vs = u * scale, v * scale
        left = op.apply(us) * vs
        right = us * op.apply(vs)
        left_sum, left_abs = float(np.sum(left)), float(np.sum(np.abs(left)))
        sym = max(sym, abs(left_sum - float(np.sum(right))) / max(
            scale**2, left_abs, float(np.sum(np.abs(right)))))

        grad_u, grad_v = gradient(g, u), gradient(g, v)
        energy = [c * a * b for c, a, b in zip(energy_coef, grad_u, grad_v)]
        rhs = sum(float(np.sum(e)) for e in energy)
        rhs_abs = sum(float(np.sum(np.abs(e))) for e in energy)
        ibp = max(ibp, abs(left_sum - rhs) / max(scale**2, left_abs, rhs_abs))

        power = np.abs(u) ** (p_f / p_star)
        power_norm = lp_norm(g, power, p_star)
        lhs = float(np.sum(np.abs(u * power * power)) * g.node_measure)
        bound = lp_norm(g, u, p_f) * power_norm * power_norm
        # np.minimum keeps a NaN margin (an overflowed pair), which then fails
        holder = np.minimum(holder, bound * (1.0 + REL_SLACK) - lhs)

        h1_v = energy_norm(g, grad_v)
        for w, h1 in ((u, energy_norm(g, grad_u)), (v, h1_v)):
            sobolev = min(sobolev, sobolev_constant * (1.0 + 1e-9) * h1
                          - lp_norm(g, w, p_star))

        if i < DUAL_PAIRS:
            z = riesz_representative(g, u)
            norm = h1_seminorm(g, z)
            gap = norm * h1_v * (1.0 + 1e-10) \
                - float(np.sum(u * v) * g.node_measure)
            eq_gap = abs(float(np.sum(u * z) * g.node_measure) - norm * norm) \
                / max(norm**2, 1e-300)
            dual = min(dual, float(gap), float(1e-8 - eq_gap))
    return [
        CheckResult("operator symmetry", sym <= 1e-14, sym),
        CheckResult("discrete integration by parts", ibp <= 1e-12, ibp),
        CheckResult("discrete Hoelder inequality", bool(holder >= 0.0),
                    float(holder)),
        CheckResult("discrete Sobolev inequality at estimated constant",
                    sobolev >= 0.0, float(sobolev)),
        CheckResult("dual-norm duality and Riesz equality", dual >= 0.0,
                    float(dual)),
    ]


def growth_constant_decimal(c: ProblemConstants) -> float:
    """G = delta1^theta * max(1, 2^(1+theta)/(theta*e)) in 30-digit decimals.

    An evaluation independent of the double-precision engine, taken from the
    exact binary values of the inputs and summed in logarithms.
    """
    with localcontext() as ctx:
        ctx.prec = 30
        th = Decimal(c.theta)
        C2 = Decimal(c.C_N) ** 2
        d1 = (Decimal(c.alpha) - C2 * Decimal(c.norm_a0_N2)) \
            / (C2 * Decimal(c.norm_f_N2))
        log_envelope = (1 + th) * Decimal(2).ln() - 1 - th.ln()
        return float((th * d1.ln() + max(Decimal(0), log_envelope)).exp())


def constants_cross_checks(c: ProblemConstants, rng) -> list:
    """Engine identities on perturbed copies of the given constants."""
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
        if i < 5:  # the decimal reference costs about 0.2 ms a set
            G2 = growth_constant_decimal(cc)
            worst_g = max(worst_g, abs(cc.G - G2) / G2)
        d = rng.uniform(0.0, cmod.delta1(cc))
        closed = cmod.phi_at_min(d, cc)
        direct = cmod.phi(d, cmod.z_delta(d, cc), cc)
        worst_phi = max(worst_phi, abs(closed - direct) / max(1.0, abs(closed)))
    return [CheckResult(G_DECIMAL, worst_g <= 1e-14, worst_g),
            CheckResult(PHI_MIN, worst_phi <= 1e-12, worst_phi)]
