import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadgrad.constants import c_lambda_bound
from quadgrad.errors import CertificateError, DomainError, TransformOverflowError
from quadgrad.nonlinearity import (
    _CORE_COEFFS,
    HModel,
    _entropy_core,
    g_delta,
    k_delta,
    remainder,
    sign_k,
    transform_forward,
    transform_inverse,
    transformed_terms,
    truncate,
)
from quadgrad.validate import (
    _quad_forms,
    check_certificate,
    check_k_nonnegative,
    check_k_two_sided,
    model_samples,
    random_spd_matrices,
)

G1_AT_1 = 0.386294361119890618834464242916  # 2 ln 2 - 1, mpmath 30 digits

ZERO = HModel(kind="zero", gamma_cert=0.5, c0_cert=0.2)
TANH = HModel(kind="shape_times_quadratic", shape="tanh", coeff=0.4,
              gamma_cert=0.5, c0_cert=0.2)
EXTREMAL = HModel(kind="shape_times_quadratic", shape="sign", coeff=0.5,
                  gamma_cert=0.5, c0_cert=0.2)
MU = HModel(kind="mu_gradsq", mu=0.15, gamma_cert=0.5, c0_cert=0.3)

CATALOG = [ZERO, TANH, EXTREMAL, MU]


def einsum_spd_matrices(rng, n, dim, alpha_min=0.5, spread=2.0):
    """``random_spd_matrices`` by numpy's einsum: the same draw, m m^T
    summed over j by einsum's own loop."""
    m = rng.standard_normal((n, dim, dim))
    mats = np.einsum("nij,nkj->nik", m, m) * spread
    mats += alpha_min * np.eye(dim)
    return mats


def broadcast_spd_matrices(rng, n, dim, alpha_min=0.5):
    """``random_spd_matrices`` by broadcast outer products of m's columns,
    summed in j order: the same draw and the same sums as the package's
    entry-by-entry loop, for any dim."""
    m = rng.standard_normal((n, dim, dim))
    cols = [m[:, :, j] for j in range(dim)]
    mats = cols[0][:, :, None] * cols[0][:, None, :]
    for col in cols[1:]:
        mats += col[:, :, None] * col[:, None, :]
    mats *= 2.0
    mats += alpha_min * np.eye(dim)
    return mats


def entropy_core_both_branches(x):
    """(1+x)log1p(x) - x with the series evaluated on every entry."""
    x = np.asarray(x, dtype=float)
    direct = (1.0 + x) * np.log1p(x) - x
    acc = np.zeros_like(x)
    for c in reversed(_CORE_COEFFS):
        acc = c - x * acc
    return np.where(x < 0.1, x * x * acc, direct)


class TestSign:
    def test_sign_k_values(self):
        assert sign_k(0.25, 2.0) == 0.5
        assert sign_k(1.0, 2.0) == 1.0
        assert sign_k(-0.5, 2.0) == -1.0  # knee point, both branches agree

    def test_sign_k_rejects_bad_slope(self):
        with pytest.raises(DomainError):
            sign_k(1.0, 0.0)
        with pytest.raises(DomainError):
            sign_k(1.0, -2.0)

    @given(st.floats(-50, 50), st.floats(0.1, 100))
    @settings(max_examples=80, deadline=None)
    def test_sign_k_bounded_monotone(self, s, k):
        v = sign_k(s, k)
        assert -1.0 <= v <= 1.0
        assert sign_k(s + 0.25, k) >= v

    @given(st.floats(-20, 20, allow_subnormal=False),
           st.floats(-20, 20, allow_subnormal=False), st.floats(0.5, 50))
    @settings(max_examples=80, deadline=None)
    def test_sign_k_lipschitz(self, s, t, k):
        assert abs(sign_k(s, k) - sign_k(t, k)) <= k * abs(s - t) * (1 + 1e-12)

    def test_sign_k_converges_to_sign(self):
        for s in (-2.0, -0.01, 0.03, 5.0):
            k = 1.0 / abs(s)
            assert sign_k(s, k) == np.sign(s)
            assert sign_k(s, 10 * k) == np.sign(s)


class TestTruncations:
    def test_truncate_values(self):
        assert truncate(-3.0, 1.0) == -1.0
        assert truncate(0.5, 1.0) == 0.5

    def test_remainder_values(self):
        assert remainder(1.5, 1.0) == 0.5
        assert remainder(0.3, 1.0) == 0.0
        assert remainder(-2.0, 1.0) == -1.0

    def test_split_identity(self, rng):
        s = rng.standard_normal(500) * 10.0
        n = 1.7
        recomposed = truncate(s, n) + remainder(s, n)
        assert np.allclose(recomposed, s, rtol=1e-15, atol=1e-15)


class TestCorrectionTerm:
    def test_zero_at_origin(self):
        for d in (0.01, 0.5, 3.0):
            assert g_delta(0.0, d) == 0.0

    def test_unit_value(self):
        assert g_delta(1.0, 1.0) == pytest.approx(G1_AT_1, rel=1e-14)

    def test_matches_high_precision(self):
        mpmath.mp.dps = 40
        worst = 0.0
        for t in (1e-8, 1e-4, 0.05, 0.3, 1.0, 7.0, 1e3):
            for d in (1e-2, 0.3, 1.0, 10.0):
                mine = g_delta(t, d)
                x = mpmath.mpf(d) * t
                ref = float((1 + x) * mpmath.log1p(x) / d - t)
                scale = max(1.0, ref)
                worst = max(worst, abs(mine - ref) / scale)
        assert worst <= 5e-15

    def test_core_matches_both_branch_form(self, rng):
        # the series runs only where it is used; every value stays the same
        x = np.concatenate([rng.uniform(0.0, 0.2, 400), rng.uniform(0.0, 40.0, 80),
                            [0.0, 0.1, np.nextafter(0.1, 0.0), np.nextafter(0.1, 1.0)]])
        rng.shuffle(x)
        for arr in (x, x.reshape(4, -1), np.array([]), np.array([0.5]),
                    np.array([0.05])):
            out = _entropy_core(arr)
            assert out.shape == arr.shape
            assert np.array_equal(out, entropy_core_both_branches(arr))
        for v in (0.0, 0.05, 0.1, 0.3, 7.0):
            out = _entropy_core(np.array(v))
            assert out.shape == ()
            assert out == entropy_core_both_branches(np.array(v))
            for d in (0.5, 3.0):
                ref = entropy_core_both_branches(d * abs(v)) / d
                scalar = g_delta(v, d)
                assert scalar == ref
                assert g_delta(np.array(v), d) == ref
        assert g_delta(np.array([]), 0.5).shape == (0,)

    def test_substitution_identity_pointwise(self):
        # algebraic identity: t + g*sign(t) equals the substitution image of t
        worst = 0.0
        for t in np.concatenate([np.linspace(-1e3, 1e3, 401), [-1e-6, 1e-6]]):
            for d in (1e-2, 0.3, 1.0, 10.0):
                lhs = t + g_delta(t, d) * np.sign(t)
                rhs = (1.0 + d * abs(t)) / d * math.log1p(d * abs(t)) * np.sign(t)
                # 1e-13 absolute where representable; roundoff floor beyond
                tol = max(1e-13, 10 * np.finfo(float).eps * abs(rhs))
                worst = max(worst, abs(lhs - rhs) - tol)
        assert worst <= 0.0

    def test_nonnegative_and_vanishing_only_at_zero(self, rng):
        t = rng.standard_normal(2000) * 10.0 ** rng.uniform(-6, 3, 2000)
        d = 10.0 ** rng.uniform(-2, 1, 2000)
        g = g_delta(t, d)
        assert np.all(g >= 0.0)
        assert np.all(g[t != 0.0] > 0.0)

    def test_envelope_bound(self, rng):
        # g_delta(t) <= dstar^lam C(lam) |t|^(1+lam) for all delta <= dstar
        for _ in range(5):
            lam = rng.uniform(0.05, 0.95)
            dstar = 10.0 ** rng.uniform(-1, 1)
            t = rng.standard_normal(2000) * 10.0 ** rng.uniform(-3, 3, 2000)
            d = dstar * rng.uniform(1e-3, 1.0, 2000)
            env = dstar**lam * c_lambda_bound(lam) * np.abs(t) ** (1.0 + lam)
            g = g_delta(t, d)
            assert np.all(g <= env * (1.0 + 1e-12) + 1e-300)
            nz = t != 0.0
            assert np.all(g[nz] < env[nz])


class TestTransforms:
    def test_fixed_point_at_zero(self):
        assert transform_forward(0.0, 0.7) == 0.0
        assert transform_inverse(0.0, 0.7) == 0.0

    def test_roundtrip(self):
        u = np.linspace(-20.0, 20.0, 801)
        for d in (0.25, 0.5, 6.928148758148104):  # gamma/2, gamma, delta0
            w = transform_forward(u, d)
            back = transform_inverse(w, d)
            assert np.max(np.abs(back - u)) <= 1e-12

    def test_chain_rule_factor(self):
        u = np.linspace(-8.0, 8.0, 101)
        for d in (0.3, 1.0):
            w = transform_forward(u, d)
            lhs = 1.0 + d * np.abs(w)
            rhs = np.exp(d * np.abs(u))
            assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-13

    def test_overflow_guard(self):
        with pytest.raises(TransformOverflowError):
            transform_forward(701.0, 1.0)
        with pytest.raises(TransformOverflowError):
            transform_forward(np.array([0.0, 1500.0]), 0.5)
        # inverse never overflows
        assert np.isfinite(transform_inverse(1e300, 1.0))

    @given(st.floats(-30, 30), st.floats(-30, 30), st.floats(0.05, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_odd(self, a, b, d):
        if a == b:
            return
        fa, fb = transform_forward(a, d), transform_forward(b, d)
        assert (fa < fb) == (a < b)
        assert transform_forward(-a, d) == pytest.approx(-fa, rel=1e-13, abs=5e-16)
        assert transform_inverse(-fa, d) == pytest.approx(-a, rel=1e-12, abs=5e-13)


class TestEffectiveSource:
    def test_transformed_source_identity(self, rng):
        # (1+d|w|) * (f + a0 u) recovers the three-term transformed source
        for _ in range(200):
            d = 10.0 ** rng.uniform(-1, 0.8)
            u = rng.standard_normal() * 3.0
            fv = rng.standard_normal()
            a0 = abs(rng.standard_normal())
            w = transform_forward(u, d)
            lhs = (1.0 + d * abs(w)) * (fv + a0 * u)
            rhs = (1.0 + d * abs(w)) * fv + a0 * w \
                + a0 * g_delta(w, d) * np.sign(w)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestHModelCatalog:
    def test_unknown_kind_rejected(self):
        with pytest.raises(CertificateError):
            HModel(kind="bogus")
        with pytest.raises(CertificateError):
            HModel(kind="shape_times_quadratic", shape="cubic")

    def test_vanishing_at_zero_gradient(self, rng):
        s = rng.standard_normal(100)
        for model in CATALOG:
            assert np.all(model.evaluate(s, np.zeros(100), np.zeros(100)) == 0.0)

    def test_analytic_certificates(self):
        assert TANH.analytic_certificate_ok(alpha=1.0)
        assert EXTREMAL.analytic_certificate_ok(alpha=1.0)
        assert MU.analytic_certificate_ok(alpha=1.0)
        bad = HModel(kind="shape_times_quadratic", shape="tanh", coeff=0.8,
                     gamma_cert=0.5, c0_cert=0.2)
        assert not bad.analytic_certificate_ok(alpha=1.0)
        bad_mu = HModel(kind="mu_gradsq", mu=0.5, gamma_cert=0.5, c0_cert=0.3)
        assert not bad_mu.analytic_certificate_ok(alpha=1.0)

    def test_sampled_certificate_flags_violation(self, rng):
        ok = check_certificate(MU, 1.0, rng)
        assert ok.ok
        bad = HModel(kind="mu_gradsq", mu=2.0, gamma_cert=0.5, c0_cert=0.3)
        res = check_certificate(bad, 1.0, rng)
        assert not res.ok

    def test_mu_zero_s_flag(self):
        assert not MU.vanishes_at_zero_s
        assert ZERO.vanishes_at_zero_s and TANH.vanishes_at_zero_s


class TestTransformedGradientTerm:
    def test_pure_quadratic_case(self):
        # no nonlinearity: only the first term survives
        val = k_delta(np.eye(2), 1.0, np.array([1.0, 0.0]), 1.0, ZERO)
        assert val == pytest.approx(0.5, rel=1e-14)

    def test_extremal_collapses_to_zero_at_gamma(self):
        A = np.array([[2.0, 0.3], [0.3, 1.0]])
        for t in (0.2, 1.0, 9.0):
            zeta = np.array([0.7, -1.2])
            val = k_delta(A, t, zeta, 0.5, EXTREMAL)
            scale = (EXTREMAL.c0_cert + 0.5) * float(zeta @ A @ zeta)
            assert abs(val) <= 1e-12 * scale

    def test_one_pass_matches_the_separate_functions(self, rng):
        t = rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-4.0, 1.5, 300)
        t[::7] = 0.0
        a_quad = rng.uniform(0.0, 5.0, 300)
        grad_sq = rng.uniform(0.0, 4.0, 300)
        for model in CATALOG:
            for d in (0.5, 3.0):
                _, g, one_p, sgn = transformed_terms(t, a_quad, grad_sq, d, model)
                assert np.array_equal(g, g_delta(t, d))
                assert np.array_equal(one_p, 1.0 + d * np.abs(t))
                assert np.array_equal(sgn, np.sign(t))

    def test_vanishes_on_zero_set(self):
        A = np.eye(2)
        for model in CATALOG:
            assert k_delta(A, 0.0, np.zeros(2), 0.7, model) == 0.0
        for model in (ZERO, TANH, EXTREMAL):
            assert k_delta(A, 3.0, np.zeros(2), 0.7, model) == 0.0

    def test_two_sided_bound_catalog(self, rng):
        for model in CATALOG:
            res = check_k_two_sided(model, 0.5, rng, n=10_000)
            assert res.ok, res.line()

    def test_nonnegative_above_gamma(self, rng):
        for model in CATALOG:
            res = check_k_nonnegative(model, 0.5, rng, n=10_000)
            assert res.ok, res.line()

    def test_two_sided_bound_flags_understated_c0(self):
        # H = -0.3 tanh(s) A xi.xi needs c0 >= 0.3; passing 0 must fail
        model = HModel(kind="shape_times_quadratic", shape="tanh", coeff=-0.3,
                       gamma_cert=0.5, c0_cert=0.3)
        bad = check_k_two_sided(replace(model, c0_cert=0.0), 0.5,
                                np.random.default_rng(3), delta=0.3)
        assert not bad.ok and bad.worst < -1.0, bad.line()
        good = check_k_two_sided(model, 0.5, np.random.default_rng(3),
                                 delta=0.3)
        assert good.ok, good.line()

    def test_nonnegativity_flags_delta_below_gamma(self):
        # the extremal model's K is negative for delta below its coefficient
        bad = check_k_nonnegative(EXTREMAL, 0.5, np.random.default_rng(3),
                                  delta=0.4)
        assert not bad.ok and bad.worst < -1.0, bad.line()
        good = check_k_nonnegative(EXTREMAL, 0.5, np.random.default_rng(3),
                                   delta=0.5)
        assert good.ok, good.line()

    def test_k_checks_show_their_slack_where_the_gradient_is_live(self, rng):
        # the zero-gradient rows hold worst at 0, so the detail gives the
        # smallest relative slack of the rest, which c0 = 0 turns negative
        model = HModel(kind="shape_times_quadratic", shape="tanh", coeff=-0.3,
                       gamma_cert=0.5, c0_cert=0.3)
        samples = model_samples(model, 0.5, rng)

        def slack(res):
            return float(res.detail.split("relative slack ")[1].split()[0])

        for check in (check_k_two_sided, check_k_nonnegative):
            res = check(model, 0.5, rng, samples=samples)
            assert res.ok and res.worst == 0.0 and slack(res) > 0.0, res.line()
        bad = check_k_two_sided(replace(model, c0_cert=0.0), 0.5, rng,
                                delta=0.3, samples=samples)
        assert not bad.ok and slack(bad) < 0.0, bad.line()

    def test_continuity_away_from_zero(self, rng):
        A = random_spd_matrices(rng, 1, 2, alpha_min=1.0)[0]
        t0, z0 = 0.8, np.array([0.3, -0.5])
        for model in (ZERO, TANH, MU):
            ref = k_delta(A, t0, z0, 0.9, model)
            for eps in (1e-3, 1e-6, 1e-9):
                val = k_delta(A, t0 + eps, z0 + eps, 0.9, model)
                assert abs(val - ref) <= 50.0 * eps * max(1.0, abs(ref))

    def test_continuity_into_joint_zero(self, rng):
        A = random_spd_matrices(rng, 1, 2, alpha_min=1.0)[0]
        for model in CATALOG:
            vals = []
            for eps in (1e-2, 1e-4, 1e-6):
                vals.append(abs(k_delta(A, eps, np.array([eps, -eps]),
                                        0.9, model)))
                vals.append(abs(k_delta(A, -eps, np.array([eps, eps]),
                                        0.9, model)))
            assert vals == sorted(vals, reverse=True) or max(vals) <= 1e-3
            assert vals[-1] <= 1e-11

    def test_composition_identity(self, rng):
        # the defining property of the transformed term: composing with the
        # substitution w = T(u), zeta = e^(d|u|) xi must reproduce
        #   d e^(d|u|) A xi.xi sign(u) - e^(d|u|) H(x, u, xi)
        # for every model; this ties k_delta to the raw nonlinearity without
        # reusing its own formula
        for model in CATALOG:
            for _ in range(60):
                d = 10.0 ** rng.uniform(-1, 0.5)
                u = rng.standard_normal() * 2.0
                if u == 0.0:
                    continue
                xi = rng.standard_normal(2)
                A = random_spd_matrices(rng, 1, 2, alpha_min=0.5)[0]
                w = transform_forward(u, d)
                exp_du = np.exp(d * abs(u))
                lhs = k_delta(A, w, exp_du * xi, d, model) * np.sign(u)
                a_quad = float(xi @ A @ xi)
                h_val = float(model.evaluate(u, a_quad, float(xi @ xi)))
                rhs = d * exp_du * a_quad * np.sign(u) - exp_du * h_val
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_field_version_matches_pointwise(self, rng):
        A = np.diag([1.0, 1.25])
        for model in CATALOG:
            # |t| from 1e-4 to 30, both signs, and exact zeros
            t = rng.choice([-1.0, 1.0], 50) * 10.0 ** rng.uniform(-4.0, 1.5, 50)
            t[::9] = 0.0
            zx = rng.standard_normal(50)
            zy = rng.standard_normal(50)
            a_quad = A[0, 0] * zx**2 + A[1, 1] * zy**2
            grad_sq = zx**2 + zy**2
            field_vals = transformed_terms(t, a_quad, grad_sq, 0.8, model)[0]
            for i in range(50):
                point = k_delta(A, float(t[i]), np.array([zx[i], zy[i]]),
                                0.8, model)
                assert field_vals[i] == pytest.approx(point, rel=1e-12,
                                                      abs=1e-13)


class TestSampledMatrices:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_spd_samples_match_einsum_reference(self, dim):
        # bit for bit, and leaving the generator where the reference does
        for seed in range(6):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            mats = random_spd_matrices(rng, 10_000, dim, 0.5)
            ref = einsum_spd_matrices(ref_rng, 10_000, dim)
            assert mats.tobytes() == ref.tobytes()
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_spd_samples_match_broadcast_reference(self, dim):
        # einsum sums in another order from dim 3 on; the outer products do not
        for seed in range(6):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            mats = random_spd_matrices(rng, 10_000, dim, 0.5)
            ref = broadcast_spd_matrices(ref_rng, 10_000, dim)
            assert mats.tobytes() == ref.tobytes()
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_quad_forms_match_einsum_reference(self, rng, dim):
        mats = einsum_spd_matrices(rng, 10_000, dim)
        zetas = rng.standard_normal((10_000, dim))
        zetas[::17] = 0.0
        ref = np.einsum("ni,nij,nj->n", zetas, mats, zetas)
        assert _quad_forms(mats, zetas).tobytes() == ref.tobytes()

    def test_model_samples_match_the_certificate_draw(self):
        # the draw check_certificate made inline, in its order, bit for bit;
        # zeroing a row's forms afterwards equals forming them from a zero xi
        n, mu = 5000, np.linspace(0.0, 0.15, 16).reshape(4, 4)
        for seed in range(3):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = model_samples(replace(MU, mu=mu), 0.5, rng, n)
            mats = random_spd_matrices(ref, n, 2, alpha_min=0.5)
            xis = ref.standard_normal((n, 2)) * ref.uniform(0.0, 3.0, (n, 1))
            s = ref.standard_normal(n) * 10.0 ** ref.uniform(-3, 2, n)
            s[ref.random(n) < 0.05] = 0.0
            assert got.model.mu.tobytes() == ref.choice(mu.ravel(), n).tobytes()
            assert rng.random() == ref.random()
            assert got.s.tobytes() == s.tobytes()
            flat = ref.random(n) < 0.02
            for keep in (np.ones(n, bool), ~flat):
                xis[~keep] = 0.0
                assert np.where(keep, got.a_quad, 0.0).tobytes() \
                    == _quad_forms(mats, xis).tobytes()
                assert np.where(keep, got.grad_sq, 0.0).tobytes() \
                    == np.einsum("ni,ni->n", xis, xis).tobytes()

    def test_symmetric_with_floor_eigenvalue_in_3d(self, rng):
        mats = random_spd_matrices(rng, 10_000, 3, alpha_min=0.7)
        assert np.array_equal(mats, mats.transpose(0, 2, 1))
        assert np.linalg.eigvalsh(mats).min() >= 0.7 * (1.0 - 1e-12)
