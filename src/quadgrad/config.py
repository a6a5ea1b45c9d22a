"""Experiment configuration: JSON schema, field assembly, norm recomputation.

A config is one JSON document with four blocks:

  problem   -- grid geometry, coefficient matrix, sources f and a0 (CSV path
               or expression-catalog entry), nonlinearity model, and the
               scalar constants (alpha, gamma, c0, q, N); only this module
               decides the exponents, 2N/(N-2) and N/2 or exponent_pair;
  constants -- provenance of the Sobolev constant: "estimate" for the grid
               estimator or "literature:<value>" for a user-supplied number;
  solver    -- fixed-point knobs, delta either "delta0" or an explicit value;
  report    -- output ladder heights and optional sweep parameters.

Each JSON object is read through `_block`, which refuses a key its reader
would ignore.  Norms entering the constants engine are always recomputed
from the discrete fields; declared values are advisory and cross-checked
(1% tolerance), which keeps the estimate chain internally consistent.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .constants import (
    DEFAULT_ROOT_TOL,
    CriticalReport,
    ProblemConstants,
    critical_report,
    smallness_error,
    zeros_y,
)
from .errors import (
    CertificateError,
    ConfigError,
    DomainError,
    ExponentOutOfRange,
    FieldValidationError,
    NoTwoZeros,
)
from .grid import (
    EXPRESSION_KEYS,
    Grid,
    MatrixField,
    estimate_sobolev_constant,
    field_from_expression,
    hminus1_norm,
    lp_norm,
    read_field_csv,
)
from .nonlinearity import HModel
from .solver import SolveData, SolverConfig

DEFAULT_SEED = 20240901


@dataclass
class Experiment:
    """Fully assembled experiment: data, solver knobs, optional constants."""

    raw: dict
    seed: int
    grid: Grid
    data: SolveData
    solver_cfg: SolverConfig | None
    report: CriticalReport | None
    delta_mode: str
    n_ladder: tuple
    out_dir: str | None
    from_csv: tuple
    constants_error: str | None = None
    exponents: dict | None = None


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _block(value, name, known, required=()) -> dict:
    """`value` as a config object that has every key of `required` and no key
    outside `known` and `required`; anything else is a ConfigError naming the
    key and the block.  A kinded block passes `known` as a dict from each
    kind to the keys it reads; a missing "kind" is the first one listed."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, got {value!r}")
    for key in required:
        if key not in value:
            raise ConfigError(f"missing key {key!r} in {name} block")
    if isinstance(known, dict):
        kind = value.get("kind", next(iter(known)))
        if not isinstance(kind, str) or kind not in known:
            raise ConfigError(f"unknown kind {kind!r} in {name} block")
        known = ("kind", *known[kind])
    unknown = value.keys() - {*known, *required}
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {name} block")
    return value


def _number(value, name, convert=float):
    """A finite JSON number, not bool or str, as `convert` (int: integral only)."""
    try:
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value) and (convert is float or value == int(value))):
            return convert(value)
    except OverflowError:  # an integer beyond the double range
        pass
    kind = "an integer" if convert is int else "a number"
    raise ConfigError(f"{name} must be {kind}, got {value!r}")


def _numbers(value, name, convert=float) -> tuple:
    """A list of numeric entries, each taken by `_number`, as a tuple."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(_number(v, name, convert) for v in value)


def _finite(name, compute, *args, **kwargs):
    """compute(*args, **kwargs); leaving the double range inside it is a
    ConfigError."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return compute(*args, **kwargs)
    except FloatingPointError as exc:
        raise ConfigError(f"{name} leaves the double-precision range ({exc})") from exc


def _solver_knobs(sspec: dict) -> dict:
    """SolverConfig keyword arguments except delta, type-checked; each knob
    takes the type and the default of its SolverConfig field."""
    knobs = {f.name: _number(sspec.get(f.name, f.default), f"solver.{f.name}",
                             type(f.default))
             for f in fields(SolverConfig) if f.name not in ("delta", "k_schedule")}
    knobs["k_schedule"] = _numbers(sspec.get("k_schedule", SolverConfig.k_schedule),
                                   "solver.k_schedule")
    return knobs


def _resolve_path(base_dir, path):
    if not isinstance(path, str):
        raise ConfigError(f"file path must be a string, got {path!r}")
    return os.path.join(base_dir, path)  # an absolute path discards base_dir


def _build_scalar_field(spec, grid, base_dir, name, from_csv) -> np.ndarray:
    """Validated nodal values of a field spec, a CSV path or an expression;
    the name of a field read from CSV is appended to `from_csv`."""
    _block(spec, name, ("csv", "expr"))
    if "csv" in spec and "expr" in spec:
        raise ConfigError(f"{name}.csv and {name}.expr exclude each other; "
                          "give one of the two")
    if "csv" in spec:
        path = _resolve_path(base_dir, spec["csv"])
        from_csv.append(name)
        try:
            return read_field_csv(path, grid).values
        except (FieldValidationError, OSError) as exc:
            # an unreadable or malformed file, or one written on another grid
            raise ConfigError(f"{name}.csv: {exc}") from exc
    if "expr" in spec:
        expr = _block(spec["expr"], f"{name}.expr", EXPRESSION_KEYS, ("kind",))
        for key, value in expr.items():
            if key != "kind":
                _number(value, f"{name}.expr.{key}")
        try:
            return _finite(f"{name}.expr", field_from_expression, grid, expr).values
        except (KeyError, TypeError, ValueError, FieldValidationError) as exc:
            # KeyError: a constant without its value
            raise ConfigError(f"malformed {name}.expr: {exc!r}") from exc
    raise ConfigError(f"{name} needs either a 'csv' path or an 'expr' entry")


def _build_matrix_field(spec, grid, alpha) -> MatrixField:
    """problem.A as its per-axis diagonal entries, the only A the stencil
    represents; an entry below alpha is left to ``MatrixField``."""
    kinds = {"identity": ("scale",), "diagonal": ("entries",)}
    kind = _block(spec, "problem.A", kinds).get("kind", "identity")
    d = grid.dim
    if alpha <= 0:
        raise ConfigError(f"problem.alpha must be positive, got {alpha:g}")
    try:
        if kind == "identity":
            entries = (_number(spec.get("scale", 1.0), "problem.A.scale"),) * d
        else:  # diagonal
            entries = _numbers(spec["entries"], "problem.A.entries")
            if len(entries) != d:
                raise ConfigError(
                    f"diagonal coefficient needs {d} entries, got {len(entries)}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed coefficient matrix spec: {exc}") from exc
    return MatrixField(grid, entries, alpha=alpha)


def _build_model(spec, grid, base_dir, gamma, c0, alpha, from_csv,
                 enforce_certificate=True) -> HModel:
    kinds = {"zero": (), "shape_times_quadratic": ("coeff", "shape"),
             "mu_gradsq": ("mu",)}
    kind = _block(spec, "problem.H", kinds, ("kind",))["kind"]
    try:
        if kind == "zero":
            model = HModel(kind="zero", gamma_cert=gamma, c0_cert=c0)
        elif kind == "shape_times_quadratic":
            coeff = _number(spec.get("coeff"), "problem.H.coeff")
            model = HModel(kind=kind, coeff=coeff, shape=spec.get("shape", "tanh"),
                           gamma_cert=gamma, c0_cert=c0)
        else:  # mu_gradsq
            mu_spec = spec.get("mu")
            if isinstance(mu_spec, dict):
                mu = _build_scalar_field(mu_spec, grid, base_dir, "H.mu", from_csv)
            else:
                mu = _number(mu_spec, "problem.H.mu")
            model = HModel(kind=kind, mu=mu, gamma_cert=gamma, c0_cert=c0)
    except (ValueError, TypeError, CertificateError) as exc:
        # CertificateError: a shape outside the catalog, or gamma/c0 out of range
        raise ConfigError(f"malformed nonlinearity spec: {exc}") from exc
    if enforce_certificate and not model.analytic_certificate_ok(alpha):
        raise ConfigError(
            "nonlinearity parameters violate the declared growth certificate "
            f"(gamma={gamma:g}, c0={c0:g}, alpha={alpha:g})"
        )
    return model


def build_experiment(cfg: dict, base_dir: str = ".", n=None,
                     for_solve: bool = True) -> Experiment:
    """Assemble and validate an experiment from a config dict.

    Every entry is checked, whatever the command.  ``n``, a list of node
    counts per axis, stands in for ``problem.grid.n`` and is checked the
    same way; the document itself is never written, so refinement studies
    rebuild one config at several resolutions.  ``solver_cfg`` is built
    whenever delta is known: an explicit value, or delta0 of admissible data.
    ``for_solve`` adds the two checks only a solve needs: delta0 mode refuses
    inadmissible data with ``SmallnessViolated``, and the nonlinearity must
    meet its growth certificate.  Without them, constants-only commands and
    ``verify`` can inspect configs that fail either.
    """
    _block(cfg, "top-level", ("constants", "solver", "report", "seed"), ("problem",))
    problem = _block(cfg["problem"], "problem", ("exponent_pair",), (
        "grid", "A", "f", "a0", "H", "alpha", "gamma", "c0", "q", "N"))
    gspec = _block(problem["grid"], "problem.grid", (), ("extents", "n"))
    sspec = _block(cfg.get("solver", {}), "solver",
                   [f.name for f in fields(SolverConfig)])
    cspec = _block(cfg.get("constants", {}), "constants",
                   ("C_N", "declared_norms", "root_tol"))
    rspec = _block(cfg.get("report", {}), "report", ("n_ladder", "y_deltas", "out_dir"))
    try:
        grid = Grid(_numbers(gspec["extents"], "problem.grid.extents"),
                    _numbers(gspec["n"] if n is None else n, "problem.grid.n", int))
    except FieldValidationError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc

    alpha, gamma, c0, q = (_number(problem[key], f"problem.{key}")
                           for key in ("alpha", "gamma", "c0", "q"))
    N = _number(problem["N"], "problem.N", int)
    if N < 1:
        raise ConfigError(f"problem.N must be a positive integer, got {N}")
    knobs = _solver_knobs(sspec)
    delta_spec = sspec.get("delta", "delta0")
    if delta_spec != "delta0":
        delta = _number(delta_spec, "solver.delta")
        if delta < gamma:
            raise DomainError(
                f"solver.delta = {delta:g} lies below gamma = {gamma:g}"
            )
    seed = _number(cfg.get("seed", DEFAULT_SEED), "seed", int)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    root_tol = _number(cspec.get("root_tol", DEFAULT_ROOT_TOL), "constants.root_tol")
    y_deltas = _numbers(rspec.get("y_deltas", ()), "report.y_deltas")
    n_ladder = _numbers(rspec.get("n_ladder", ()), "report.n_ladder")
    if any(n <= 0 for n in n_ladder):
        raise ConfigError(
            f"report.n_ladder heights must be positive, got {list(n_ladder)}")
    out_dir = rspec.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"report.out_dir must be a path, got {out_dir!r}")

    A = _build_matrix_field(problem["A"], grid, alpha)
    from_csv = []
    f = _build_scalar_field(problem["f"], grid, base_dir, "f", from_csv)
    a0 = _build_scalar_field(problem["a0"], grid, base_dir, "a0", from_csv)
    if np.any(a0 < 0):
        raise ConfigError("a0 must be nonnegative")
    model = _build_model(problem["H"], grid, base_dir, gamma, c0, alpha, from_csv,
                         enforce_certificate=for_solve)
    # the knobs' range rules apply whether or not delta is ever resolved;
    # gamma, which the model has checked positive, stands in for it
    knob_cfg = SolverConfig(delta=gamma, **knobs)

    pair = _block(problem.get("exponent_pair", {}), "problem.exponent_pair",
                  ("sobolev", "f_norm"))
    if N < 3 and not {"sobolev", "f_norm"} <= pair.keys():
        raise ConfigError(
            "N < 3 requires problem.exponent_pair with 'sobolev' and 'f_norm'")
    sobolev_exp = _number(pair.get("sobolev", 2.0 * N / (N - 2) if N >= 3 else None),
                          "problem.exponent_pair.sobolev")
    f_exp = _number(pair.get("f_norm", N / 2.0), "problem.exponent_pair.f_norm")

    norms = {key: _finite(f"norm {key}", norm, *args) for key, norm, *args in (
        ("f_N2", lp_norm, grid, f, f_exp), ("f_Hm1", hminus1_norm, grid, f),
        ("a0_N2", lp_norm, grid, a0, f_exp), ("a0_q", lp_norm, grid, a0, q))}
    declared = _block(cspec.get("declared_norms", {}), "constants.declared_norms",
                      norms.keys())
    for key, value in declared.items():
        value, ref = _number(value, f"constants.declared_norms.{key}"), norms[key]
        if abs(value - ref) > 0.01 * max(abs(ref), 1e-300):
            raise ConfigError(f"declared norm {key} = {value:g} deviates more than "
                              f"1% from the field-derived value {ref:g}")

    cn_spec = str(cspec.get("C_N", "estimate"))
    if cn_spec == "estimate":
        C_N = _finite("problem.exponent_pair.sobolev", estimate_sobolev_constant,
                      grid, sobolev_exp).value
    elif cn_spec.startswith("literature:"):
        try:
            C_N = _number(float(cn_spec.split(":", 1)[1]), "constants.C_N")
        except ValueError as exc:
            raise ConfigError(f"malformed C_N spec {cn_spec!r}") from exc
    else:
        raise ConfigError(
            f"constants.C_N must be 'estimate' or 'literature:<value>', got {cn_spec!r}"
        )

    constants = report = constants_error = None
    try:
        constants = ProblemConstants(
            alpha=alpha, gamma=gamma, q=q,
            norm_f_N2=norms["f_N2"], norm_f_Hm1=norms["f_Hm1"],
            norm_a0_N2=norms["a0_N2"], norm_a0_q=norms["a0_q"], C_N=C_N,
            sobolev_exponent=sobolev_exp,
        )
    except (DomainError, ExponentOutOfRange) as exc:
        constants_error = exc
    else:
        report = critical_report(constants, C_N_source=cn_spec, tol=root_tol,
                                 y_deltas=y_deltas)

    # building the data builds A's stencil: its 1/h^2 scaling and, in 2D,
    # each axis's sine eigenvalues must stay in the double range (their sum
    # is formed from halves, so it cannot overflow on its own)
    data = _finite("problem.A", SolveData, grid=grid, A=A, f=f, a0=a0,
                   model=model, norms=norms, C_N=C_N, constants=constants)

    admissible = report is not None and report.admissible
    ball_radius = solver_cfg = None
    if delta_spec == "delta0":
        if admissible:
            solver_cfg = replace(knob_cfg, delta=report.delta0)
            ball_radius = report.Z_delta0
        elif for_solve:
            if constants is None:
                raise ConfigError("solver.delta = 'delta0' needs admissible "
                                  f"constants: {constants_error}")
            raise smallness_error(report.smallness_A1, report.smallness_A3)
    else:
        solver_cfg = replace(knob_cfg, delta=delta)
        if admissible:
            if delta < report.delta0:
                try:
                    ball_radius, _ = zeros_y(delta, constants)
                except NoTwoZeros:
                    ball_radius = report.Z_delta0
            elif delta == report.delta0:
                ball_radius = report.Z_delta0

    data.ball_radius = ball_radius

    return Experiment(
        raw=cfg, seed=seed, grid=grid, data=data,
        solver_cfg=solver_cfg, report=report,
        delta_mode="delta0" if delta_spec == "delta0" else "explicit",
        out_dir=out_dir, n_ladder=n_ladder, from_csv=tuple(from_csv),
        constants_error=str(constants_error) if constants_error else None,
        exponents={"sobolev": sobolev_exp, "f_norm": f_exp, "q": q, "N": N},
    )


def experiment_from_file(path, for_solve: bool = True) -> Experiment:
    cfg = load_config(path)
    return build_experiment(cfg, base_dir=os.path.dirname(os.path.abspath(path)),
                            for_solve=for_solve)
