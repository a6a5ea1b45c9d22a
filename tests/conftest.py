import json
import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import settings

from quadgrad.constants import (
    ProblemConstants,
    c_lambda_bound,
    check_smallness,
    compute_theta,
)
from quadgrad.config import build_experiment
from quadgrad.grid import Grid, laplacian
from quadgrad.solver import outer_fixed_point
from quadgrad.validate import grid_checks

# reproducible property tests: same cases on every run
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

ADMISSIBLE_NQ = [(3, 1.7), (3, 1.9), (4, 2.5), (5, 3.3), (7, 4.0), (9, 5.5)]


def config_path(name):
    return os.path.abspath(os.path.join(CONFIG_DIR, name))


def load_benchmark(name):
    with open(config_path(name)) as fh:
        return json.load(fh)


def dense_operator(op):
    """The matrix of ``op`` on raveled nodal arrays, column j its image of the
    j-th unit vector: a reference for solves that shares no code with CG or
    the sine-transform inverse."""
    shape = op.grid.shape
    units = np.eye(int(np.prod(shape))).reshape((-1,) + shape)
    return np.stack([op.apply(e).ravel() for e in units], axis=1)


def grid_check(name, op, rng, p_f=1.5, p_star=6.0, constant=1.0):
    """The result named ``name`` of ``validate.grid_checks`` on ``op``, or on
    the Laplacian of ``op`` when it is a grid.  The exponents default to the
    L^(3/2) x L^6 x L^6 of the 3D a priori estimate, and ``constant`` is the
    Sobolev constant, 1 by default (above the 1D and 2D ones)."""
    op = laplacian(op) if isinstance(op, Grid) else op
    return next(res for res in grid_checks(op, p_f, p_star, constant, rng)
                if res.name == name)


def golden_minimize(fn, lo, hi, tol=1e-11):
    """Golden-section search, independent of any derivative formula."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol * (1.0 + abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def growth_constant_mp(c):
    """G = delta1^theta * max(1, 2^(1+theta)/(theta*e)) with mpmath at 30 digits."""
    with mpmath.workdps(30):
        th = mpmath.mpf(c.theta)
        C2 = mpmath.mpf(c.C_N) ** 2
        d1 = (c.alpha - C2 * c.norm_a0_N2) / (C2 * c.norm_f_N2)
        return float(d1**th * max(1, 2 ** (1 + th) / (th * mpmath.e)))


def random_admissible_constants(rng, wide=False):
    """Constant sets passing both smallness conditions by construction.

    Scales are kept moderate so the root-finding tolerances of the acceptance
    criteria are attainable in double precision.  `wide` draws delta1/gamma
    log-uniformly from [10^0.1, 10^4] instead of [1.2, 4], so delta0 can sit
    far below delta1.
    """
    N, q = ADMISSIBLE_NQ[rng.integers(len(ADMISSIBLE_NQ))]
    p = 2.0 * N / (N - 2)
    theta = compute_theta(q, p)
    alpha = rng.uniform(0.5, 4.0)
    C_N = rng.uniform(0.7, 3.0)
    gamma = rng.uniform(0.1, 2.0)
    rng.uniform(0.0, 2.0)  # the retired c0 draw, kept so later draws stay put
    na_p = rng.uniform(0.0, 0.8) * alpha / C_N**2
    d1 = gamma * (10.0 ** rng.uniform(0.1, 4.0) if wide else rng.uniform(1.2, 4.0))
    nf = (alpha - C_N**2 * na_p) / (C_N**2 * d1)
    G = d1**theta * c_lambda_bound(theta)
    L_gamma = alpha - C_N**2 * na_p - gamma * C_N**2 * nf
    z_target = rng.uniform(0.2, 5.0)
    na_q = L_gamma / ((1.0 + theta) * G * C_N ** (2.0 + theta) * z_target**theta)
    rhs_a3 = theta / (1.0 + theta) * L_gamma ** ((1.0 + theta) / theta) \
        / ((1.0 + theta) * G * C_N ** (2.0 + theta) * na_q) ** (1.0 / theta)
    nfh = rng.uniform(0.05, 0.999) * rhs_a3
    c = ProblemConstants(
        alpha=alpha, gamma=gamma, q=q, norm_f_N2=nf, norm_f_Hm1=nfh,
        norm_a0_N2=na_p, norm_a0_q=na_q, C_N=C_N, sobolev_exponent=p,
    )
    # construction can only fail by roundoff at the A3 boundary
    a1, a3 = check_smallness(c)
    assert a1.holds and a3.holds
    return c


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def benchmark_constants():
    """One fixed admissible constant set reused across modules."""
    return ProblemConstants(
        alpha=1.0, gamma=0.5, q=1.8,
        norm_f_N2=0.6764981463372095, norm_f_Hm1=0.22508464130490846,
        norm_a0_N2=0.198965068257161, norm_a0_q=0.1991371842263885,
        C_N=0.3773773087934581, sobolev_exponent=6.0,
    )


@pytest.fixture(scope="session", params=["1d", "2d"])
def anderson_solve(request):
    """One Anderson-mixed height at the top of a benchmark config's
    truncation schedule, solved once per session: (label, solve data,
    solver config, solution, trace)."""
    label = request.param
    exp = build_experiment(load_benchmark(f"benchmark_{label}.json"))
    cfg = exp.solver_cfg
    w, trace = outer_fixed_point(exp.data, cfg, cfg.k_schedule[-1], anderson=True)
    return label, exp.data, cfg, w, trace
