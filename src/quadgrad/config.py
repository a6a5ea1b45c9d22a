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

Norms entering the constants engine are always recomputed from the discrete
fields; declared values in the config are advisory and merely cross-checked
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
    zeros_y,
)
from .errors import (
    CertificateError,
    ConfigError,
    DomainError,
    ExponentOutOfRange,
    FieldValidationError,
    NoTwoZeros,
    SmallnessViolated,
)
from .grid import (
    Grid,
    MatrixField,
    ScalarField,
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
    problem_constants: ProblemConstants | None
    report: CriticalReport | None
    delta_mode: str
    knobs: dict
    n_ladder: tuple
    out_dir: str | None
    constants_error: str | None = None
    norms: dict | None = None
    exponents: dict | None = None


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _require(block: dict, key, context):
    if key not in block:
        raise ConfigError(f"missing key {key!r} in {context} block")
    return block[key]


def _object(value, name) -> dict:
    """A config block that must be a JSON object; anything else is a ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, got {value!r}")
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
    """SolverConfig keyword arguments except delta, type-checked.

    Each knob takes the type and the default of its SolverConfig field.
    """
    knobs = {f.name: _number(sspec.get(f.name, f.default), f"solver.{f.name}",
                             type(f.default))
             for f in fields(SolverConfig) if f.name not in ("delta", "k_schedule")}
    knobs["k_schedule"] = _numbers(sspec.get("k_schedule", ()),
                                   "solver.k_schedule")
    return knobs


def _resolve_path(base_dir, path):
    if not isinstance(path, str):
        raise ConfigError(f"file path must be a string, got {path!r}")
    full = path if os.path.isabs(path) else os.path.join(base_dir, path)
    if not os.path.exists(full):
        raise ConfigError(f"referenced file does not exist: {full}")
    return full


def _build_scalar_field(spec, grid, base_dir, name) -> ScalarField:
    _object(spec, name)
    if "csv" in spec:
        path = _resolve_path(base_dir, spec["csv"])
        try:
            return read_field_csv(path, grid)
        except FieldValidationError as exc:
            # a malformed file, or one written on another grid
            raise ConfigError(f"{name}.csv: {exc}") from exc
    if "expr" in spec:
        expr = _object(spec["expr"], f"{name}.expr")
        for key, value in expr.items():
            if key != "kind":
                _number(value, f"{name}.expr.{key}")
        try:
            return _finite(f"{name}.expr", field_from_expression, grid, expr)
        except (KeyError, TypeError, ValueError, FieldValidationError) as exc:
            # FieldValidationError: a kind outside the expression catalog
            raise ConfigError(f"malformed {name}.expr: {exc!r}") from exc
    raise ConfigError(f"{name} needs either a 'csv' path or an 'expr' entry")


def _build_matrix_field(spec, grid, alpha) -> MatrixField:
    """problem.A as its per-axis diagonal entries, the only A the stencil
    represents; an entry below alpha is left to ``MatrixField``."""
    kind = _object(spec, "problem.A").get("kind", "identity")
    d = grid.dim
    if alpha <= 0:
        raise ConfigError(f"problem.alpha must be positive, got {alpha:g}")
    try:
        if kind == "identity":
            entries = (_number(spec.get("scale", 1.0), "problem.A.scale"),) * d
        elif kind == "diagonal":
            entries = _numbers(spec["entries"], "problem.A.entries")
            if len(entries) != d:
                raise ConfigError(
                    f"diagonal coefficient needs {d} entries, got {len(entries)}")
        elif kind == "constant":
            matrix = np.array([_numbers(row, "problem.A.matrix")
                               for row in spec["matrix"]])
            if matrix.shape != (d, d) or np.any(matrix[~np.eye(d, dtype=bool)]):
                raise ConfigError(
                    f"constant coefficient matrix must be diagonal and {d}x{d}, "
                    f"as the {2 * d + 1}-point stencil requires; got {matrix.tolist()}")
            entries = np.diag(matrix)
        else:
            raise ConfigError(f"unknown coefficient matrix kind {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed coefficient matrix spec: {exc}") from exc
    return MatrixField(grid, entries, alpha=alpha)


def _build_model(spec, grid, base_dir, gamma, c0, alpha,
                 enforce_certificate=True) -> HModel:
    kind = _require(_object(spec, "problem.H"), "kind", "problem.H")
    try:
        if kind == "zero":
            model = HModel(kind="zero", gamma_cert=gamma, c0_cert=c0)
        elif kind == "shape_times_quadratic":
            coeff = _number(_require(spec, "coeff", "problem.H"), "problem.H.coeff")
            model = HModel(kind=kind, coeff=coeff, shape=spec.get("shape", "tanh"),
                           gamma_cert=gamma, c0_cert=c0)
        elif kind == "mu_gradsq":
            mu_spec = _require(spec, "mu", "problem.H")
            if isinstance(mu_spec, dict):
                mu = _build_scalar_field(mu_spec, grid, base_dir, "H.mu").values
            else:
                mu = _number(mu_spec, "problem.H.mu")
            model = HModel(kind=kind, mu=mu, gamma_cert=gamma, c0_cert=c0)
        else:
            raise ConfigError(f"unknown nonlinearity kind {kind!r}")
    except (ValueError, TypeError, CertificateError) as exc:
        # CertificateError: a shape outside the catalog, or gamma/c0 out of range
        raise ConfigError(f"malformed nonlinearity spec: {exc}") from exc
    if enforce_certificate and not model.analytic_certificate_ok(alpha):
        raise ConfigError(
            "nonlinearity parameters violate the declared growth certificate "
            f"(gamma={gamma:g}, c0={c0:g}, alpha={alpha:g})"
        )
    return model


def _check_declared_norms(declared: dict, computed: dict):
    for key, value in declared.items():
        if key not in computed:
            raise ConfigError(f"declared norm {key!r} is not a known norm")
        ref = computed[key]
        value = _number(value, f"constants.declared_norms.{key}")
        if abs(value - ref) > 0.01 * max(abs(ref), 1e-300):
            raise ConfigError(
                f"declared norm {key} = {value:g} deviates more than 1% from "
                f"the field-derived value {ref:g}"
            )


def build_experiment(cfg: dict, base_dir: str = ".",
                     overrides: dict | None = None,
                     for_solve: bool = True) -> Experiment:
    """Assemble and validate an experiment from a config dict.

    Every entry is checked, whatever the command.  `overrides` may replace the
    grid resolution ({"n": [..]}) and solver knobs without editing the
    document, which the refinement studies rely on.  ``solver_cfg`` is built
    whenever delta is known: an explicit value, or delta0 of admissible data.
    ``for_solve`` adds the two checks only a solve needs: delta0 mode refuses
    inadmissible data with ``SmallnessViolated``, and the nonlinearity must
    meet its growth certificate.  Without them, constants-only commands and
    ``verify`` can inspect configs that fail either.
    """
    if overrides:
        cfg = json.loads(json.dumps(cfg))
        if "n" in overrides:
            cfg["problem"]["grid"]["n"] = overrides["n"]
        for key, val in overrides.get("solver", {}).items():
            cfg.setdefault("solver", {})[key] = val
    _object(cfg, "config")
    problem = _object(_require(cfg, "problem", "top-level"), "problem")
    gspec = _object(_require(problem, "grid", "problem"), "problem.grid")
    sspec = _object(cfg.get("solver", {}), "solver")
    cspec = _object(cfg.get("constants", {}), "constants")
    rspec = _object(cfg.get("report", {}), "report")
    try:
        grid = Grid(_numbers(_require(gspec, "extents", "problem.grid"),
                             "problem.grid.extents"),
                    _numbers(_require(gspec, "n", "problem.grid"),
                             "problem.grid.n", int))
    except FieldValidationError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc

    alpha, gamma, c0, q = (_number(_require(problem, key, "problem"),
                                   f"problem.{key}")
                           for key in ("alpha", "gamma", "c0", "q"))
    N = _number(_require(problem, "N", "problem"), "problem.N", int)
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

    A = _build_matrix_field(_require(problem, "A", "problem"), grid, alpha)
    f = _build_scalar_field(_require(problem, "f", "problem"), grid, base_dir, "f")
    a0 = _build_scalar_field(_require(problem, "a0", "problem"), grid, base_dir, "a0")
    if np.any(a0.values < 0):
        raise ConfigError("a0 must be nonnegative")
    model = _build_model(_require(problem, "H", "problem"), grid, base_dir,
                         gamma, c0, alpha, enforce_certificate=for_solve)
    # the knobs' range rules apply whether or not delta is ever resolved;
    # gamma, which the model has checked positive, stands in for it
    knob_cfg = SolverConfig(delta=gamma, **knobs)

    pair = _object(problem.get("exponent_pair", {}), "problem.exponent_pair")
    if N < 3 and not {"sobolev", "f_norm"} <= pair.keys():
        raise ConfigError(
            "N < 3 requires problem.exponent_pair with 'sobolev' and 'f_norm'")
    sobolev_exp = _number(pair.get("sobolev", 2.0 * N / (N - 2) if N >= 3 else None),
                          "problem.exponent_pair.sobolev")
    f_exp = _number(pair.get("f_norm", N / 2.0), "problem.exponent_pair.f_norm")

    norms = {key: _finite(f"norm {key}", norm, *args) for key, norm, *args in (
        ("f_N2", lp_norm, f, f_exp), ("f_Hm1", hminus1_norm, f),
        ("a0_N2", lp_norm, a0, f_exp), ("a0_q", lp_norm, a0, q))}
    declared = _object(cspec.get("declared_norms", {}),
                       "constants.declared_norms")
    _check_declared_norms(declared, norms)

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

    if constants is not None:
        report = critical_report(constants, C_N_source=cn_spec, tol=root_tol,
                                 y_deltas=y_deltas)

    # building the data builds A's stencil: its 1/h^2 scaling and, in 2D,
    # each axis's sine eigenvalues must stay in the double range (their sum
    # is formed from halves, so it cannot overflow on its own)
    data = _finite("problem.A", SolveData, grid=grid, A=A, f=f, a0=a0,
                   model=model, norms=norms, C_N=C_N, report=report)

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
            a1, a3 = report.smallness_A1, report.smallness_A3
            if not a1.holds:
                raise SmallnessViolated(
                    f"first smallness condition fails: margin {a1.margin:g} <= 0")
            raise SmallnessViolated(
                "second smallness condition fails: profile minimum at gamma "
                f"is {-a3.margin:g} > 0")
    else:
        solver_cfg = replace(knob_cfg, delta=delta)
        if admissible:
            if delta < report.delta0:
                try:
                    ball_radius, _ = zeros_y(delta, constants, report.theta, report.G)
                except NoTwoZeros:
                    ball_radius = report.Z_delta0
            elif delta == report.delta0:
                ball_radius = report.Z_delta0

    data.ball_radius = ball_radius

    return Experiment(
        raw=cfg, seed=seed, grid=grid, data=data,
        solver_cfg=solver_cfg, problem_constants=constants, report=report,
        delta_mode="delta0" if delta_spec == "delta0" else "explicit",
        knobs=knobs, out_dir=out_dir,
        n_ladder=n_ladder,
        constants_error=str(constants_error) if constants_error else None,
        norms=norms,
        exponents={"sobolev": sobolev_exp, "f_norm": f_exp, "q": q, "N": N},
    )


def experiment_from_file(path, for_solve: bool = True) -> Experiment:
    cfg = load_config(path)
    return build_experiment(cfg, base_dir=os.path.dirname(os.path.abspath(path)),
                            for_solve=for_solve)
