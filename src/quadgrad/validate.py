"""Seeded sampling validators for the pointwise bounds and grid identities.

Each check returns a ``CheckResult`` rather than raising: the verify command
treats failures as data, prints one line per check, and maps any failure to
its own exit code.  Relative slack scales with the magnitude of the bound
being tested, never with an absolute epsilon, because the underlying
inequalities are exact in real arithmetic while double precision is not.
The checks whose bounds scale with the model constants or the exponents
evaluate in extended arithmetic: a bound that overflows gives an infinite or
NaN margin, which fails unless it is +inf, without a floating-point warning.
The model checks read gamma and c0 from the ``HModel`` and draw A >= alpha;
``verify`` runs the growth certificate and both K checks on one draw
(``model_samples``), and the five grid checks on one draw of random fields
(``grid_checks``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext
from typing import NamedTuple

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


class ModelSamples(NamedTuple):
    """One draw of the model checks: values s, the forms A xi.xi and
    |xi|^2, and the model with one mu per sample when mu is a field."""
    s: np.ndarray
    a_quad: np.ndarray
    grad_sq: np.ndarray
    model: HModel


def model_samples(model: HModel, alpha, rng, n=10_000) -> ModelSamples:
    """The (A, xi, s) draw that the growth certificate and both K checks of
    ``verify`` share, in this order: n SPD matrices A >= alpha, gradients
    xi = N(0,1)^2 * U(0,3), values s = N(0,1) * 10^U(-3,2) with 5% of them
    set to 0, and for a field mu one nodal value per sample.  Only the forms
    are kept, so the matrices are freed on return."""
    mats = random_spd_matrices(rng, n, 2, alpha_min=alpha)
    xis = rng.standard_normal((n, 2)) * rng.uniform(0.0, 3.0, (n, 1))
    s = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 2, n)
    s[rng.random(n) < 0.05] = 0.0
    return ModelSamples(s, _quad_forms(mats, xis),
                        np.einsum("ni,ni->n", xis, xis),
                        _sampled_model(model, rng, n))


def _k_values(samples: ModelSamples, rng, delta):
    """K_delta and A z.z on the samples, with 2% of the gradients z set to 0
    by the check's own mask: A z.z and |z|^2 are then exactly 0 on those
    rows, as forming them from a zero z makes them."""
    flat = rng.random(len(samples.s)) < 0.02
    a_quad = np.where(flat, 0.0, samples.a_quad)
    grad_sq = np.where(flat, 0.0, samples.grad_sq)
    kv = transformed_terms(samples.s, a_quad, grad_sq, delta,
                           samples.model)[0]
    return kv, a_quad


def _k_result(name, margin, bound) -> CheckResult:
    """A K check's result from its margin per sample; the detail gives the
    smallest margin relative to the bound (c0+delta) A z.z where it is > 0,
    since the zero-gradient rows hold ``worst`` at 0."""
    live = bound > 0.0
    rel = np.min(margin[live] / bound[live], initial=np.inf)
    worst = float(np.min(margin, initial=np.inf))
    return CheckResult(name, worst >= 0.0, worst,
                       f"smallest relative slack {rel:.3e} where A z.z > 0")


@np.errstate(over="ignore", invalid="ignore")
def check_k_two_sided(model: HModel, alpha, rng, n=10_000,
                      delta=None, samples=None) -> CheckResult:
    """Two-sided squeeze -(|delta-gamma|) A z.z <= K <= (c0+delta) A z.z,
    on ``samples`` when given, else on a draw of its own."""
    gamma, c0 = model.gamma_cert, model.c0_cert
    delta = float(delta if delta is not None else rng.uniform(0.05, 3.0))
    if samples is None:
        samples = model_samples(model, alpha, rng, n)
    kv, a_quad = _k_values(samples, rng, delta)
    bound = (c0 + delta) * a_quad
    slack = REL_SLACK * bound
    margin = np.minimum(bound + slack - kv,
                        kv + abs(delta - gamma) * a_quad + slack)
    return _k_result(f"two-sided gradient-term bound (delta={delta:.3g})",
                     margin, bound)


@np.errstate(over="ignore", invalid="ignore")
def check_k_nonnegative(model: HModel, alpha, rng, n=10_000,
                        delta=None, samples=None) -> CheckResult:
    """One-sided bound 0 <= K <= (c0+delta) A z.z for delta >= gamma, on
    ``samples`` when given, else on a draw of its own."""
    gamma = model.gamma_cert
    delta = float(delta if delta is not None else gamma * rng.uniform(1.0, 3.0))
    if samples is None:
        samples = model_samples(model, alpha, rng, n)
    kv, a_quad = _k_values(samples, rng, delta)
    bound = (model.c0_cert + delta) * a_quad
    return _k_result(
        f"nonnegativity of gradient term (delta={delta:.3g} >= gamma)",
        kv + REL_SLACK * bound, bound)


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
    """0 <= g_delta(t) <= dstar^lam * C(lam) * |t|^(1+lam) for delta <= dstar.

    ``worst`` is the g >= 0 side's; the detail gives the largest sampled
    g / envelope, the envelope side's slack."""
    lam = rng.uniform(0.05, 0.95, n)
    dstar = 10.0 ** rng.uniform(-2, 1, n)
    delta = dstar * rng.uniform(0.01, 1.0, n)
    t = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 3, n)
    g = g_delta(t, delta)
    env = dstar**lam * c_lambda_bound(lam) * np.abs(t) ** (1.0 + lam)
    slack = REL_SLACK * np.maximum(env, 1e-300)
    worst = float(min(np.min(g + slack), np.min(env + slack - g)))
    return CheckResult("correction-term envelope", worst >= 0.0, worst,
                       f"largest g/envelope {np.max(g / env):.3e}")


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
def check_certificate(model: HModel, alpha, rng, samples=None) -> CheckResult:
    """Sampled growth certificate -c0 A x.x <= H sign(s) <= gamma A x.x, on
    ``samples`` when given, else on a draw of its own."""
    gamma, c0 = model.gamma_cert, model.c0_cert
    if samples is None:
        samples = model_samples(model, alpha, rng)
    s, a_quad, xi_sq, sampled = samples
    hs = sampled.evaluate(s, a_quad, xi_sq) * np.sign(s)
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
        CheckResult("discrete integration by parts", ibp <= 1e-14, ibp),
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
