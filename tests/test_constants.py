import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadgrad.constants import (
    ProblemConstants,
    c_lambda_bound,
    check_smallness,
    compute_G,
    compute_theta,
    critical_report,
    delta1,
    phi,
    phi_at_min,
    solve_delta0,
    z_delta,
    zeros_y,
)
from quadgrad.errors import (
    BracketError,
    DeltaOutOfRange,
    DomainError,
    ExponentOutOfRange,
    NonpositiveDelta1,
    NoTwoZeros,
    SmallnessViolated,
)

from conftest import (
    constants_triplet,
    golden_minimize,
    growth_constant_mp,
    random_admissible_constants,
)

# frozen with mpmath at 30 digits
C_HALF = 2.08104038009155558543260977327
C_09 = 1.52552735787146571248959098805
G_EXAMPLE = 3.60446767092102220478172157051


class TestTheta:
    def test_exact_rational_examples(self):
        assert compute_theta(3, Fraction(9, 5)) == Fraction(2, 3)
        assert compute_theta(7, 4) == Fraction(1, 10)

    def test_boundary_q_rejected(self):
        with pytest.raises(ExponentOutOfRange):
            compute_theta(3, 2)

    def test_low_q_rejected(self):
        with pytest.raises(ExponentOutOfRange):
            compute_theta(3, 1.5)
        with pytest.raises(ExponentOutOfRange):
            compute_theta(5, 2.5)

    def test_low_dimension_needs_explicit_pair(self):
        with pytest.raises(ExponentOutOfRange):
            compute_theta(2, 1.8)
        theta = compute_theta(2, Fraction(9, 5), sobolev_exponent=6)
        assert theta == Fraction(2, 3)

    @given(st.sampled_from([3, 4, 5, 6, 7, 9, 12]), st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_range_property(self, N, frac):
        lo = N / 2.0
        hi = 2.0 * N / (6.0 - N) if N < 6 else 4.0 * N
        q = lo + frac * (hi - lo)
        if q <= lo or q >= hi:
            return
        assert 0.0 < compute_theta(N, q) < 1.0


class TestEnvelopeConstant:
    def test_half(self):
        assert c_lambda_bound(0.5) == pytest.approx(C_HALF, rel=1e-14)

    def test_point_nine(self):
        assert c_lambda_bound(0.9) == pytest.approx(C_09, rel=1e-14)

    def test_exceeds_one_on_grid(self):
        lams = np.linspace(0.01, 0.99, 197)
        assert np.all(2.0 ** (1.0 + lams) / (lams * math.e) > 1.0)
        assert np.all(c_lambda_bound(lams) > 1.0)

    def test_domain(self):
        for lam in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ExponentOutOfRange):
                c_lambda_bound(lam)


def _mk(alpha=1.0, C_N=1.0, na_p=0.1, nf=0.3, nfh=0.05, na_q=0.2,
        gamma=0.4, c0=0.0, N=3, q=1.8):
    return ProblemConstants(N=N, alpha=alpha, gamma=gamma, c0=c0, q=q,
                            norm_f_N2=nf, norm_f_Hm1=nfh, norm_a0_N2=na_p,
                            norm_a0_q=na_q, C_N=C_N)


class TestGrowthConstant:
    def test_example_value(self):
        c = _mk()
        assert delta1(c) == pytest.approx(3.0, rel=1e-14)
        assert compute_G(c, 0.5) == pytest.approx(G_EXAMPLE, rel=1e-13)

    def test_unit_leftover_gives_envelope(self):
        c = _mk(na_p=0.1, nf=0.9)  # delta1 = 1
        assert delta1(c) == pytest.approx(1.0, rel=1e-14)
        for theta in (0.1, 0.5, 0.9):
            assert compute_G(c, theta) == pytest.approx(
                c_lambda_bound(theta), rel=1e-14)

    def test_two_routes_agree(self, rng):
        for _ in range(100):
            c = random_admissible_constants(rng)
            theta = c.theta
            assert compute_G(c, theta) == pytest.approx(
                growth_constant_mp(c), rel=1e-14, abs=0.0)

    def test_nonpositive_leftover(self):
        c = _mk(na_p=1.2)  # C_N^2 * na_p exceeds alpha
        with pytest.raises(NonpositiveDelta1):
            compute_G(c, 0.5)
        with pytest.raises(NonpositiveDelta1):
            delta1(c)


class TestSmallness:
    def test_small_f_regime(self):
        base = _mk(nf=1e-6, nfh=1e-8)
        c, theta, G = constants_triplet(base)
        a1, a3 = check_smallness(c, theta, G)
        assert a1.holds and a3.holds

    def test_equality_margin_fails_first_condition(self):
        # leftover at gamma exactly zero: strict inequality demanded
        c = _mk(alpha=1.0, C_N=1.0, na_p=0.4, nf=1.5, gamma=0.4)
        theta = c.theta
        G = compute_G(c, theta)
        a1, _ = check_smallness(c, theta, G)
        assert a1.margin == pytest.approx(0.0, abs=1e-15)
        assert not a1.holds

    def test_large_a0_breaks_second_condition(self, rng):
        for _ in range(20):
            c = random_admissible_constants(rng)
            theta = c.theta
            scaled = ProblemConstants(
                N=c.N, alpha=c.alpha, gamma=c.gamma, c0=c.c0, q=c.q,
                norm_f_N2=c.norm_f_N2, norm_f_Hm1=c.norm_f_Hm1,
                norm_a0_N2=c.norm_a0_N2, norm_a0_q=100.0 * c.norm_a0_q,
                C_N=c.C_N)
            _, a3 = check_smallness(scaled, theta, compute_G(scaled, theta))
            assert not a3.holds


class TestProfile:
    def test_value_at_zero_is_dual_norm(self, rng):
        for _ in range(20):
            c = random_admissible_constants(rng)
            theta = c.theta
            G = compute_G(c, theta)
            for d in np.linspace(0.0, delta1(c), 7):
                assert phi(d, 0.0, c, theta, G) == c.norm_f_Hm1

    def test_family_shift_identity(self, rng):
        c = random_admissible_constants(rng)
        theta = c.theta
        G = compute_G(c, theta)
        for d in (0.1, 0.7, 1.3):
            for X in (0.0, 0.4, 2.5, 17.0):
                shift = phi(d, X, c, theta, G) - phi(0.0, X, c, theta, G)
                assert shift == pytest.approx(
                    d * c.C_N**2 * c.norm_f_N2 * X, rel=1e-9, abs=1e-12)

    def test_positive_at_delta1(self, rng):
        c = random_admissible_constants(rng)
        theta = c.theta
        G = compute_G(c, theta)
        d1 = delta1(c)
        for X in np.linspace(0.0, 20.0, 50):
            assert phi(d1, X, c, theta, G) > 0.0

    def test_negative_argument_rejected(self, benchmark_constants):
        c, theta, G = constants_triplet(benchmark_constants)
        with pytest.raises(DomainError):
            phi(0.5, -1.0, c, theta, G)


class TestMinimizer:
    def test_zero_at_delta1(self, rng):
        for _ in range(10):
            c = random_admissible_constants(rng)
            theta = c.theta
            G = compute_G(c, theta)
            z1 = z_delta(delta1(c), c, theta, G)
            assert abs(z1) <= 1e-15 * (1.0 + z_delta(0.0, c, theta, G))

    def test_strictly_decreasing(self, rng):
        c = random_admissible_constants(rng)
        theta = c.theta
        G = compute_G(c, theta)
        ds = np.linspace(0.0, delta1(c) * (1 - 1e-9), 40)
        zs = [z_delta(d, c, theta, G) for d in ds]
        assert all(a > b for a, b in zip(zs, zs[1:]))

    def test_stationarity(self, rng):
        for _ in range(20):
            c = random_admissible_constants(rng)
            theta = c.theta
            G = compute_G(c, theta)
            d = 0.5 * delta1(c)
            zd = z_delta(d, c, theta, G)
            curv = G * c.C_N ** (2.0 + theta) * c.norm_a0_q
            L = c.alpha - c.C_N**2 * c.norm_a0_N2 - d * c.C_N**2 * c.norm_f_N2
            deriv = (1.0 + theta) * curv * zd**theta - L
            assert abs(deriv) <= 1e-10 * max(1.0, abs(L))

    def test_min_value_matches_golden_section(self, rng):
        for _ in range(25):
            c = random_admissible_constants(rng)
            theta = c.theta
            G = compute_G(c, theta)
            d = random_fraction = float(rng.uniform(0.0, 1.0)) * delta1(c)
            zd = z_delta(d, c, theta, G)
            hi = 2.0 * zd + 1.0
            xm = golden_minimize(lambda X: phi(d, X, c, theta, G), 0.0, hi)
            closed = phi_at_min(d, c, theta, G)
            assert closed == pytest.approx(
                phi(d, xm, c, theta, G), rel=1e-12, abs=1e-12)

    def test_out_of_range(self, benchmark_constants):
        c, theta, G = constants_triplet(benchmark_constants)
        with pytest.raises(DeltaOutOfRange):
            z_delta(delta1(c) * 1.01, c, theta, G)


class TestDoubleZero:
    def test_equality_case_lands_on_gamma(self):
        base = _mk(gamma=0.4)
        theta = base.theta
        G = compute_G(base, theta)
        L_g = base.alpha - base.C_N**2 * base.norm_a0_N2 \
            - base.gamma * base.C_N**2 * base.norm_f_N2
        rhs = theta / (1.0 + theta) * L_g ** ((1.0 + theta) / theta) \
            / ((1.0 + theta) * G * base.C_N ** (2.0 + theta)
               * base.norm_a0_q) ** (1.0 / theta)
        c = _mk(gamma=0.4, nfh=rhs)  # second condition holds with equality
        d0, zd0 = solve_delta0(c, theta, G)
        assert d0 == pytest.approx(c.gamma, abs=1e-12)
        assert zd0 == pytest.approx(z_delta(c.gamma, c, theta, G), rel=1e-9)

    def test_upper_bracket_is_dual_norm(self, rng):
        for _ in range(10):
            c = random_admissible_constants(rng)
            theta = c.theta
            G = compute_G(c, theta)
            assert phi_at_min(delta1(c), c, theta, G) == pytest.approx(
                c.norm_f_Hm1, rel=1e-12)

    def test_min_value_increasing_in_delta(self, rng):
        c = random_admissible_constants(rng)
        theta = c.theta
        G = compute_G(c, theta)
        ds = np.linspace(c.gamma, delta1(c), 50)
        vals = [phi_at_min(d, c, theta, G) for d in ds]
        # strict increase up to roundoff: the superlinear term can plateau at
        # machine level just before delta1
        scale = max(1.0, abs(vals[0]))
        assert all(b >= a - 1e-13 * scale for a, b in zip(vals, vals[1:]))
        assert vals[-1] > vals[0]
        strict = sum(b > a for a, b in zip(vals, vals[1:]))
        assert strict >= 45

    def test_random_sets_give_bracketed_root(self, rng):
        for _ in range(50):
            c = random_admissible_constants(rng)
            theta = c.theta
            G = compute_G(c, theta)
            d0, zd0 = solve_delta0(c, theta, G)
            assert c.gamma <= d0 < delta1(c)
            assert abs(phi(d0, zd0, c, theta, G)) <= 1e-12 * max(1.0, c.norm_f_Hm1)

    def test_closed_form_root_is_rounded_up(self, rng):
        # delta0 sits on the nonnegative side of the root (so zeros_y refuses
        # it) and the profile at its minimizer vanishes to roundoff; the wide
        # sets put delta0 up to 10^4 below delta1, where one ulp of delta
        # moves L_delta by far less than one ulp of its own
        for i in range(7000):
            c = random_admissible_constants(rng, wide=i >= 5000)
            theta = c.theta
            G = compute_G(c, theta)
            d0, zd0 = solve_delta0(c, theta, G)
            assert phi_at_min(d0, c, theta, G) >= 0.0
            assert abs(phi(d0, zd0, c, theta, G)) <= 1e-14 * max(1.0, c.norm_f_Hm1)

    def test_smallness_failure_raises(self, rng):
        c = random_admissible_constants(rng)
        theta = c.theta
        G = compute_G(c, theta)
        bad = ProblemConstants(
            N=c.N, alpha=c.alpha, gamma=c.gamma, c0=c.c0, q=c.q,
            norm_f_N2=c.norm_f_N2, norm_f_Hm1=c.norm_f_Hm1,
            norm_a0_N2=c.norm_a0_N2, norm_a0_q=50.0 * c.norm_a0_q, C_N=c.C_N)
        with pytest.raises(SmallnessViolated):
            solve_delta0(bad, theta, compute_G(bad, theta))

    def test_zero_dual_norm_breaks_bracket(self):
        c = _mk(nfh=0.0)
        theta = c.theta
        G = compute_G(c, theta)
        with pytest.raises(BracketError):
            solve_delta0(c, theta, G)


class TestTwoZeros:
    def test_double_zero_has_no_pair(self, rng):
        c = random_admissible_constants(rng)
        theta = c.theta
        G = compute_G(c, theta)
        d0, _ = solve_delta0(c, theta, G)
        with pytest.raises(NoTwoZeros):
            zeros_y(d0, c, theta, G)

    def test_ordering_brackets_the_double_zero(self, rng):
        found = 0
        for _ in range(40):
            c = random_admissible_constants(rng)
            theta = c.theta
            G = compute_G(c, theta)
            d0, zd0 = solve_delta0(c, theta, G)
            if d0 <= c.gamma * (1.0 + 1e-9):
                continue
            d = 0.5 * (c.gamma + d0)
            if phi_at_min(d, c, theta, G) >= 0.0:
                continue
            ym, yp = zeros_y(d, c, theta, G)
            assert 0.0 < ym < zd0 < yp
            found += 1
        assert found >= 10

    def test_sign_change_across_each_zero(self, rng):
        tol = 1e-12
        for _ in range(20):
            c = random_admissible_constants(rng)
            theta = c.theta
            G = compute_G(c, theta)
            d0, _ = solve_delta0(c, theta, G)
            d = 0.5 * (c.gamma + d0)
            if d0 <= c.gamma * (1.0 + 1e-9) or phi_at_min(d, c, theta, G) >= 0.0:
                continue
            ym, yp = zeros_y(d, c, theta, G, tol=tol)
            eps = 10.0 * tol * max(1.0, yp)
            assert phi(d, max(ym - eps, 0.0), c, theta, G) > 0.0
            assert phi(d, 0.5 * (ym + yp), c, theta, G) < 0.0
            assert phi(d, yp + eps, c, theta, G) > 0.0


class TestReport:
    def test_roundtrip_and_invariants(self, benchmark_constants):
        rep = critical_report(benchmark_constants, C_N_source="estimate",
                              y_deltas=(0.6,))
        d = rep.to_dict()
        assert 0.0 < d["theta"] < 1.0
        assert benchmark_constants.gamma <= d["delta0"] < d["delta1"]
        assert d["smallness_A1"]["holds"] and d["smallness_A3"]["holds"]
        assert set(d["y_zeros"]) == {"0.6"}
        ym, yp = d["y_zeros"]["0.6"]
        assert 0.0 < ym < d["Z_delta0"] < yp

    def test_dict_lists_every_field(self, benchmark_constants):
        rep = critical_report(benchmark_constants)
        d = rep.to_dict()
        assert set(d) == set(rep.__dataclass_fields__) - {"y_zeros"}
        assert d["smallness_A3"] == {"holds": True,
                                     "margin": rep.smallness_A3.margin}

    def test_degenerate_norms_rejected_distinctly(self):
        with pytest.raises(DomainError, match="f must not vanish"):
            _mk(nf=0.0)
        with pytest.raises(DomainError, match="a0 must not vanish"):
            _mk(na_q=0.0)
