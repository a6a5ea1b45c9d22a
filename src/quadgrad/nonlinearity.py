"""Pointwise nonlinearities: truncations, the exponential substitution, the
transformed quadratic-growth term, and the catalog of admissible gradient
nonlinearities.

The maps are field operations: they take numpy arrays (nodal values or
sampled points), broadcast elementwise and return numpy values.  The
gradient nonlinearity H(x, s, xi) is not a free callback: it comes from a
small closed catalog, each entry carrying a growth certificate
(-c0 * A(x) xi.xi <= H * sign(s) <= gamma * A(x) xi.xi) that a sampling
validator can check, because every downstream bound silently depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, DomainError, TransformOverflowError

# exp(x) overflows double precision just above 709; the guard stays below
OVERFLOW_LIMIT = 700.0

_SHAPES = {
    "sign": np.sign,
    "tanh": np.tanh,
}


def sign_k(s, k):
    """Lipschitz regularization of sign with knee at |s| = 1/k."""
    if k <= 0:
        raise DomainError(f"regularization slope k must be positive, got {k}")
    return np.minimum(np.maximum(np.multiply(k, s), -1.0), 1.0)


def truncate(s, k):
    """Truncation at height k: clamp to [-k, k]."""
    if k <= 0:
        raise DomainError(f"truncation height k must be positive, got {k}")
    return np.minimum(np.maximum(s, -k), k)


def remainder(s, n):
    """Remainder above height n: s - truncate(s, n)."""
    if n <= 0:
        raise DomainError(f"remainder height n must be positive, got {n}")
    return np.asarray(s, dtype=float) - np.clip(s, -n, n)


# Maclaurin coefficients of ((1+x)log(1+x) - x) / x^2 = sum_j (-x)^j/((j+2)(j+1))
_CORE_COEFFS = [1.0 / ((j + 2.0) * (j + 1.0)) for j in range(18)]


def _entropy_core(x, one_p=None, log1p_x=None):
    """(1+x)*log1p(x) - x for x >= 0, accurate (and nonnegative) near zero;
    ``one_p`` = 1 + x and ``log1p_x`` = log1p(x) when already computed."""
    x = np.asarray(x, dtype=float)
    if one_p is None:
        one_p, log1p_x = 1.0 + x, np.log1p(x)
    out = np.asarray(one_p * log1p_x - x)
    # below x ~ 0.1 the direct form cancels; a short series replaces it there
    small = x < 0.1
    xs = x[small]
    # Horner from the last coefficient: c - xs * 0 = c exactly
    acc = np.full(xs.shape, _CORE_COEFFS[-1])
    for c in reversed(_CORE_COEFFS[:-1]):
        np.subtract(c, np.multiply(xs, acc, out=acc), out=acc)
    out[small] = xs * xs * acc
    return out


def g_delta(t, delta):
    """Zeroth-order correction -|t| + (1/delta)(1+delta|t|)log(1+delta|t|).

    Nonnegative, even, vanishes only at t = 0, and grows superlinearly with
    exponent 1 + theta under the envelope constant computed by the constants
    engine.  Both arguments broadcast elementwise.
    """
    delta = np.asarray(delta, dtype=float)
    if np.any(delta <= 0):
        raise DomainError(f"substitution parameter must be positive, got {delta}")
    x = delta * np.abs(np.asarray(t, dtype=float))
    return _entropy_core(x) / delta


def transform_forward(u, delta):
    """Exponential substitution u -> (exp(delta|u|)-1)/delta * sign(u).

    Rejects delta*|u| > 700 outright: a saturated value would silently corrupt
    every estimate built on the transformed field.
    """
    if delta <= 0:
        raise DomainError(f"substitution parameter must be positive, got {delta}")
    x = delta * np.abs(np.asarray(u, dtype=float))
    if np.any(x > OVERFLOW_LIMIT):
        worst = float(np.max(x))
        raise TransformOverflowError(
            f"delta*|u| = {worst:g} exceeds {OVERFLOW_LIMIT:g}; forward "
            "transform would overflow"
        )
    return np.expm1(x) / delta * np.sign(u)


def transform_inverse(w, delta):
    """Inverse substitution w -> log(1+delta|w|)/delta * sign(w)."""
    if delta <= 0:
        raise DomainError(f"substitution parameter must be positive, got {delta}")
    x = delta * np.abs(np.asarray(w, dtype=float))
    return np.log1p(x) / delta * np.sign(w)


@dataclass(frozen=True)
class HModel:
    """Catalog entry for the gradient nonlinearity with certified growth.

    kinds:
      * ``zero``                  -- H = 0
      * ``shape_times_quadratic`` -- H = coeff * shape(s) * A(x) xi.xi with a
        bounded odd shape ("tanh", or the discontinuous extremal "sign")
      * ``mu_gradsq``             -- H = mu(x) * |xi|^2, mu a constant or a
        nodal array

    ``c0_cert`` / ``gamma_cert`` are the constants under which the two-sided
    growth bound is claimed; `analytic_certificate_ok` checks the claim in
    closed form where possible, `check_certificate` in quadgrad.validate
    checks it by seeded sampling.
    """

    kind: str
    coeff: float = 0.0
    shape: str = "tanh"
    mu: object = 0.0
    c0_cert: float = 0.0
    gamma_cert: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "shape_times_quadratic", "mu_gradsq"):
            raise CertificateError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == "shape_times_quadratic" and self.shape not in _SHAPES:
            raise CertificateError(f"unknown shape {self.shape!r}")
        if self.gamma_cert <= 0 or self.c0_cert < 0:
            raise CertificateError(
                "certificate requires gamma_cert > 0 and c0_cert >= 0"
            )

    @property
    def vanishes_at_zero_s(self):
        """Whether H(x, 0, xi) = 0 for all xi (false only for mu_gradsq)."""
        return self.kind != "mu_gradsq"

    def evaluate(self, s, a_quad, xi_sq):
        """H given s, the quadratic form A(x) xi.xi, and |xi|^2 (elementwise)."""
        if self.kind == "zero":
            return np.zeros_like(np.asarray(s, dtype=float))
        if self.kind == "shape_times_quadratic":
            return self.coeff * _SHAPES[self.shape](s) * np.asarray(a_quad)
        mu = self.mu
        return np.asarray(mu) * np.asarray(xi_sq)

    def analytic_certificate_ok(self, alpha):
        """Closed-form sufficiency check of the growth certificate.

        `alpha` is the coercivity floor of the matrices the model will meet.
        Conservative for mu_gradsq (uses A xi.xi >= alpha |xi|^2 only).
        """
        if self.kind == "zero":
            return True
        if self.kind == "shape_times_quadratic":
            if self.coeff >= 0:
                return self.coeff <= self.gamma_cert
            return -self.coeff <= self.c0_cert
        mu = np.asarray(self.mu, dtype=float)
        limit = alpha * min(self.gamma_cert, self.c0_cert)
        return bool(np.all(np.abs(mu) <= limit))


def k_delta(A, t, zeta, delta, model: HModel):
    """Transformed gradient nonlinearity at one point.

    ``A`` is a d x d SPD matrix, ``zeta`` a d-vector.  Nonnegative whenever
    delta >= gamma_cert; always squeezed between -(|delta-gamma|) and
    (c0+delta) times A zeta.zeta.  For a spatially varying mu, build the model
    with the scalar mu value at the point of interest.
    """
    if delta <= 0:
        raise DomainError(f"substitution parameter must be positive, got {delta}")
    A = np.asarray(A, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    one_p = 1.0 + delta * abs(t)
    a_quad = float(zeta @ A @ zeta)
    s = np.log1p(delta * abs(t)) / delta * np.sign(t)
    h_val = model.evaluate(s, a_quad / one_p**2, float(zeta @ zeta) / one_p**2)
    return delta / one_p * a_quad - one_p * float(h_val) * np.sign(t)


def transformed_terms(t, a_quad, grad_sq, delta, model: HModel):
    """Array evaluation of ``k_delta``, with ``g_delta``, 1 + delta|t| and
    sign(t), over nodal arrays.

    ``a_quad`` = A(x) Dw.Dw and ``grad_sq`` = |Dw|^2 evaluated at the nodes.
    delta|t|, 1 + delta|t|, log1p(delta|t|) and sign(t) are evaluated once;
    the second result equals ``g_delta(t, delta)`` bit for bit.  ``delta``
    broadcasts like ``t``, so a sampled check can draw one per point.
    """
    if (np.asarray(delta) <= 0).any():
        raise DomainError(f"substitution parameter must be positive, got {delta}")
    t = np.asarray(t, dtype=float)
    x = delta * np.abs(t)
    one_p, log1p_x, sgn = 1.0 + x, np.log1p(x), np.sign(t)
    one_p_sq = one_p**2
    h_val = model.evaluate(log1p_x / delta * sgn, a_quad / one_p_sq,
                           grad_sq / one_p_sq)
    k = delta / one_p * a_quad - one_p * h_val * sgn
    return k, _entropy_core(x, one_p, log1p_x) / delta, one_p, sgn
