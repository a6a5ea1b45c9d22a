"""Seeded faults for the sampled ``verify`` checks: each check passes on the
correct code and fails once one plausible fault is planted in what it tests."""

import numpy as np
import pytest

from quadgrad import constants, validate
from quadgrad.grid import Grid, ScalarField
from quadgrad.nonlinearity import HModel

TANH = HModel(kind="shape_times_quadratic", coeff=0.4, shape="tanh",
              gamma_cert=0.5, c0_cert=0.2)


def _g_growth(rng, c):
    G = constants.compute_G(c, c.theta)
    return [validate.check_g_growth(G, c.theta, constants.delta1(c), rng)]


# check name, the checks to run, and the fault: the owner and name of the
# patched callable and a wrapper that corrupts it
CASES = [
    ("dual-norm duality and Riesz equality",
     lambda rng, c: [validate.check_dual_norm(Grid((1.0,), (48,)), rng)],
     validate, "riesz_representative",
     lambda lift: lambda f: ScalarField(f.grid, lift(f).values * (1.0 + 1e-6))),
    ("substitution identity for the correction term",
     lambda rng, c: [validate.check_g_identity(rng)],
     validate, "g_delta", lambda g: lambda t, d: g(t, d) * (1.0 + 1e-9)),
    # the envelope and growth bounds are loose (g stays below 0.4 of the
    # envelope), so only a fault of order one shows: here g without its -|t|
    ("correction-term envelope",
     lambda rng, c: [validate.check_g_envelope(rng)],
     validate, "g_delta", lambda g: lambda t, d: g(t, d) + np.abs(t)),
    ("growth-constant envelope", _g_growth,
     validate, "g_delta", lambda g: lambda t, d: g(t, d) + np.abs(t)),
    ("nonlinearity vanishes at zero gradient",
     lambda rng, c: [validate.check_h_vanishes_at_zero_gradient(TANH, rng)],
     HModel, "evaluate", lambda ev: lambda self, *args: ev(self, *args) + 1e-300),
    # L^1 x L^6 x L^6, whose reciprocals sum to 4/3, in place of the
    # L^(3/2) x L^6 x L^6 of the a priori estimate
    ("discrete Hoelder inequality",
     lambda rng, c: [validate.check_holder(Grid((1.0,), (128,)),
                                           (1.5, 6.0, 6.0), rng)],
     validate, "check_holder",
     lambda check: lambda grid, exponents, rng: check(grid, (1.0, 6.0, 6.0), rng)),
    ("growth constant against 30-digit decimal",
     lambda rng, c: validate.constants_cross_checks(c, rng),
     constants, "compute_G", lambda G: lambda c, th: G(c, th) * (1.0 + 1e-13)),
    ("profile minimum closed form",
     lambda rng, c: validate.constants_cross_checks(c, rng),
     constants, "phi_at_min", lambda p: lambda *args: p(*args) + 1e-11),
]


@pytest.mark.parametrize("name, run, owner, attr, fault", CASES,
                         ids=[case[0] for case in CASES])
def test_seeded_fault_fails_its_check(monkeypatch, benchmark_constants,
                                      name, run, owner, attr, fault):
    def result():
        results = run(np.random.default_rng(0), benchmark_constants)
        return next(res for res in results if res.name == name)

    res = result()
    assert res.ok, res.line()
    monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
    res = result()
    assert not res.ok, res.line()
