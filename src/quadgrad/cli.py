"""Command-line entry points: constants | check | solve | sweep | verify.

Exit-code contract: 0 success, 2 config error or unwritable output,
3 smallness violation, 4 solver non-convergence, 5 invariant violation.
All reports are JSON (or CSV for fields and sweep tables) with deterministic
content for a fixed config and seed; no timestamps, sorted keys.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from . import validate
from .config import Experiment, build_experiment, experiment_from_file
from .constants import (
    critical_report,
    phi_at_min,
    smallness_error,
    z_delta,
    zeros_y,
)
from .errors import (
    ConfigError,
    FieldValidationError,
    QuadgradError,
    SmallnessViolated,
    SolverFailure,
)
from .grid import write_field_csv
from .nonlinearity import transform_inverse
from .solver import (
    fixed_point_residual,
    k_continuation,
    norm_identity_gap,
    original_residual,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SMALLNESS = 3
EXIT_NONCONVERGENCE = 4
EXIT_INVARIANT = 5

# exit code and stderr prefix of an error escaping a command; first match wins.
# The inputs are read by `config`, which maps their OSErrors to ConfigError,
# so an OSError here is an output location that cannot be written.
_EXIT_TABLE = (
    (SmallnessViolated, EXIT_SMALLNESS, "smallness violation"),
    (SolverFailure, EXIT_NONCONVERGENCE, "solver non-convergence"),
    (QuadgradError, EXIT_CONFIG, "config error"),
    (OSError, EXIT_CONFIG, "cannot write output"),
)


def _out_dir(args, exp: Experiment):
    """``--out``, else ``report.out_dir``, else None; created before any work,
    so that an unwritable location fails first."""
    out_dir = args.out or exp.out_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _dump_json(payload, out_dir, name):
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out_dir:
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text + "\n")
    return text


def _constants_experiment(args) -> Experiment:
    """Experiment of a constants-only command; its report may be partial."""
    exp = experiment_from_file(args.config, for_solve=False)
    if exp.report is None:
        raise ConfigError(f"constants not computable: {exp.constants_error}")
    return exp


def cmd_constants(args):
    exp = _constants_experiment(args)
    out_dir = _out_dir(args, exp)
    payload = {
        "report": exp.report.to_dict(),
        "norms": exp.data.norms,
        "exponents": exp.exponents,
        "seed": exp.seed,
    }
    print(_dump_json(payload, out_dir, "constants_report.json"))
    return EXIT_OK if exp.report.admissible else EXIT_SMALLNESS


def cmd_check(args):
    exp = _constants_experiment(args)
    out_dir = _out_dir(args, exp)
    a1, a3 = exp.report.smallness_A1, exp.report.smallness_A3
    payload = {
        "A1": {"holds": a1.holds, "margin": a1.margin},
        "A3": {"holds": a3.holds, "margin": a3.margin},
        "seed": exp.seed,
    }
    print(_dump_json(payload, out_dir, "smallness.json"))
    return EXIT_OK if exp.report.admissible else EXIT_SMALLNESS


def _write_trace(traces, out_dir):
    if not out_dir:
        return
    # one encoder for every row; the rows stream into the file buffer rather
    # than being joined first, which would raise the peak memory
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(os.path.join(out_dir, "trace.jsonl"), "w") as fh:
        fh.writelines(encode({**row.to_dict(), "k": trace.k}) + "\n"
                      for trace in traces for row in trace.records)


def _work_so_far(exc: QuadgradError):
    """' (so far: Picard P, Newton N, CG C)', the totals over a failed
    solve's traces; empty for an error that carries no trace."""
    if not isinstance(exc, SolverFailure) or not exc.traces:
        return ""
    records = [rec for t in exc.traces for rec in t.records]
    return (f" (so far: Picard {len(records)}, "
            f"Newton {sum(rec.inner_iterations for rec in records)}, "
            f"CG {sum(rec.cg_iterations for rec in records)})")


def _write_diagnostics(diag, ks, out_dir):
    if not out_dir:
        return
    with open(os.path.join(out_dir, "tail_energy.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n"] + [repr(k) for k in ks])
        for nidx, n in enumerate(diag.n_ladder):
            writer.writerow([repr(float(n))]
                            + [repr(float(v)) for v in diag.tail_energy[nidx]])
    with open(os.path.join(out_dir, "increments.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k_from", "k_to", "increment"])
        for (k1, k2), inc in zip(zip(ks, ks[1:]), diag.increments):
            writer.writerow([repr(k1), repr(k2), repr(inc)])


def cmd_solve(args):
    exp = experiment_from_file(args.config)
    out_dir = _out_dir(args, exp)
    data, cfg = exp.data, exp.solver_cfg
    try:
        w_star, diag, traces = k_continuation(data, cfg, n_ladder=exp.n_ladder)
    except SolverFailure as exc:
        _write_trace(exc.traces, out_dir)
        raise
    ks = [t.k for t in traces]
    _write_trace(traces, out_dir)
    _write_diagnostics(diag, ks, out_dir)
    w_vals = w_star.values
    u_vals = transform_inverse(w_vals, cfg.delta)
    if out_dir:
        write_field_csv(exp.grid, w_vals, os.path.join(out_dir, "solution_w.csv"))
        write_field_csv(exp.grid, u_vals, os.path.join(out_dir, "solution_u.csv"))
    lhs, rhs, gap = norm_identity_gap(exp.grid, u_vals, cfg.delta,
                                      exact_chain=True)
    ball_violation = any(
        rec.in_ball is False for t in traces for rec in t.records)
    slack_violation = any(
        rec.estimate_slack < -t.eps_solver for t in traces for rec in t.records)
    summary = {
        "delta": cfg.delta,
        "delta_mode": exp.delta_mode,
        "k_schedule": ks,
        "residual_truncated": [t.residual for t in traces],
        "residual_untruncated_final": fixed_point_residual(
            w_vals, data, cfg.delta, k=None),
        "residual_original": original_residual(w_vals, data, cfg.delta),
        "norm_identity": {"lhs": lhs, "rhs": rhs, "gap": gap},
        "grad_norm_w_final": traces[-1].records[-1].grad_norm_W,
        "ball_radius": data.ball_radius,
        "eps_solver": max(t.eps_solver for t in traces),
        "ball_violation": ball_violation,
        "slack_violation": slack_violation,
        "max_abs_w": diag.max_abs,
        "seed": exp.seed,
    }
    print(_dump_json(summary, out_dir, "residuals.json"))
    if ball_violation or slack_violation:
        print("invariant violation recorded in trace", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_sweep(args):
    exp = _constants_experiment(args)
    c, report = exp.data.constants, exp.report
    d0 = report.delta0
    out_dir = _out_dir(args, exp)
    rows = []
    if args.mode == "delta":
        for d in np.linspace(c.gamma, report.delta1, args.points):
            d = float(d)
            row = {"delta": d}
            try:
                row["Z_delta"] = float(z_delta(d, c))
                row["phi_min"] = float(phi_at_min(d, c))
                if d0 is not None and d < d0 and row["phi_min"] < 0:
                    ym, yp = zeros_y(d, c)
                    row["Y_minus"], row["Y_plus"] = float(ym), float(yp)
                row["status"] = "ok"
            except QuadgradError as exc:
                row["status"] = f"failed: {exc}"
            rows.append(row)
        fields = ["delta", "Z_delta", "phi_min", "Y_minus", "Y_plus", "status"]
    else:
        for sf in args.scales:
            for sa in args.scales:
                row = {"f_scale": sf, "a0_scale": sa}
                try:
                    scaled = critical_report(replace(
                        c, norm_f_N2=c.norm_f_N2 * sf, norm_f_Hm1=c.norm_f_Hm1 * sf,
                        norm_a0_N2=c.norm_a0_N2 * sa, norm_a0_q=c.norm_a0_q * sa),
                        tol=report.root_tol)
                    row["A1_margin"] = scaled.smallness_A1.margin
                    row["A3_margin"] = scaled.smallness_A3.margin
                    row["admissible"] = scaled.admissible
                    row["delta0"] = scaled.delta0
                    row["status"] = "ok"
                except QuadgradError as exc:
                    row["status"] = f"failed: {exc}"
                rows.append(row)
        fields = ["f_scale", "a0_scale", "A1_margin", "A3_margin",
                  "admissible", "delta0", "status"]
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join(
            "" if row.get(k) is None else
            (repr(row[k]) if isinstance(row.get(k), float) else str(row[k]))
            for k in fields))
    text = "\n".join(lines)
    if out_dir:
        with open(os.path.join(out_dir, "sweep.csv"), "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


CROSSCHECK = "equivalence cross-check"
ORDER_WINDOW = (1.5, 2.5)  # the observed orders of u that the cross-check accepts


def _equivalence_crosscheck(exp: Experiment):
    """Observed order of accuracy of u on three nested coarse grids (Roache,
    Verification and Validation in Computational Science and Engineering,
    1998): d1 and d2 are max |u_coarse - u_fine| at the shared nodes of the
    two consecutive pairs, and log2(d1 / d2) must lie in ORDER_WINDOW.  Only
    the discrete fixed points matter, not the paper's relaxed trajectory, so
    the coarse solves use Anderson mixing wherever a ball guards it."""
    skipped = partial(validate.CheckResult.skipped, CROSSCHECK)
    if exp.from_csv:
        # a field read from CSV is fixed to its own grid: no coarse version
        return skipped(f"{', '.join(exp.from_csv)} read from CSV, on the "
                       f"{exp.grid.shape} grid only")
    # (m + 1) 2^l - 1 nodes per axis for l = 0, 1, 2: each grid's nodes are
    # every other node of the next, and the finest has at most n / 4
    coarsest = [(n // 4 - 3) // 4 for n in exp.grid.shape]
    if min(coarsest) < 3:
        return skipped(f"the {exp.grid.shape} grid has no three nested coarse "
                       f"grids of at least 3 nodes per axis")
    # inadmissible data is the check command's verdict (exit 3)
    report = exp.report
    if exp.delta_mode == "delta0" and not report.admissible:
        return skipped(smallness_error(report.smallness_A1, report.smallness_A3))
    shapes = [tuple((m + 1) * 2**lvl - 1 for m in coarsest) for lvl in range(3)]
    us = []
    try:
        for shape in shapes:
            try:
                coarse = build_experiment(exp.raw, n=shape)
            except SmallnessViolated as exc:
                return skipped(f"{exc} on the {shape} grid")
            # one solve at the schedule's last height, with the check's own stop
            cfg = replace(coarse.solver_cfg, rho=0.5, outer_tol=1e-9, max_outer=500,
                          k_schedule=coarse.solver_cfg.k_schedule[-1:])
            w, _, _ = k_continuation(coarse.data, cfg, relaxed_heights=0)
            us.append(transform_inverse(w.values, cfg.delta))
    except QuadgradError as exc:
        return validate.CheckResult(CROSSCHECK, False, math.nan,
                                    f"solve failed: {exc}")
    shared = (slice(1, None, 2),) * len(shapes[0])
    d1, d2 = (float(np.max(np.abs(u - finer[shared])))
              for u, finer in zip(us, us[1:]))
    if d2 == 0.0:
        return skipped(f"u is the same on the {shapes[1]} and {shapes[2]} grids")
    order = math.log2(d1) - math.log2(d2) if d1 > 0.0 else -math.inf
    worst = min(order - ORDER_WINDOW[0], ORDER_WINDOW[1] - order)
    return validate.CheckResult(CROSSCHECK, worst >= 0.0, worst, (
        f"observed order {order:.3f} of u, max differences {d1:.3e} -> "
        f"{d2:.3e} at shared nodes, finest grid {shapes[2]}"))


def cmd_verify(args):
    try:
        exp = experiment_from_file(args.config, for_solve=False)
    except FieldValidationError as exc:
        print(validate.CheckResult(
            "field invariants", False, math.nan, str(exc)).line())
        return EXIT_INVARIANT
    seed = exp.seed if args.seed is None else args.seed
    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    out_dir = _out_dir(args, exp)
    rng = np.random.default_rng(seed)
    results = []
    data = exp.data
    model, alpha = data.model, data.A.alpha

    samples = validate.model_samples(model, alpha, rng)
    results.append(validate.check_certificate(model, alpha, rng, samples))
    if model.vanishes_at_zero_s:
        results.append(validate.check_h_vanishes_at_zero_gradient(model, rng))
    results.append(validate.check_k_two_sided(model, alpha, rng,
                                              samples=samples))
    results.append(validate.check_k_nonnegative(model, alpha, rng,
                                                samples=samples))
    results.append(validate.check_g_identity(rng))
    results.append(validate.check_g_envelope(rng))
    results.extend(validate.grid_checks(data.op, exp.exponents["f_norm"],
                                        exp.exponents["sobolev"], data.C_N, rng))
    if exp.report is not None:
        results.append(validate.check_g_growth(data.constants, rng))
        results.extend(validate.constants_cross_checks(data.constants, rng))
        results.append(_equivalence_crosscheck(exp))
    else:
        why = f"constants not computable: {exp.constants_error}"
        results.extend(validate.CheckResult.skipped(name, why)
                       for name in (*validate.CONSTANTS_CHECKS, CROSSCHECK))

    for res in results:
        print(res.line())
    # a skipped check's NaN margin is written as null: JSON has no NaN
    payload = [{**vars(r), "worst": r.worst if math.isfinite(r.worst) else None}
               for r in results]
    _dump_json({"checks": payload, "seed": seed}, out_dir, "verify_report.json")
    return EXIT_OK if all(r.ok for r in results) else EXIT_INVARIANT


def _positive(convert):
    """argparse type: ``convert`` of the text, refused unless finite and > 0."""
    def parse(text):
        value = convert(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(
                f"must be finite and positive, got {text}")
        return value
    parse.__name__ = convert.__name__
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quadgrad",
        description="critical constants, smallness checks, and fixed-point "
                    "solves for quasilinear problems with quadratic gradient "
                    "growth",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("constants", cmd_constants), ("check", cmd_check),
                     ("solve", cmd_solve), ("sweep", cmd_sweep),
                     ("verify", cmd_verify)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
        if name == "verify":
            # only verify samples; its --seed replaces the config's seed
            p.add_argument("--seed", type=int, default=None)
        if name == "sweep":
            p.add_argument("--mode", choices=("delta", "scales"),
                           default="delta")
            p.add_argument("--points", type=_positive(int), default=41)
            p.add_argument("--scales", type=_positive(float), nargs="+",
                           default=[0.25, 0.5, 1.0, 2.0, 4.0])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (QuadgradError, OSError) as exc:
        code, prefix = next((code, prefix) for kind, code, prefix in _EXIT_TABLE
                            if isinstance(exc, kind))
        print(f"{prefix}: {exc}{_work_so_far(exc)}", file=sys.stderr)
        return code


def console_main():
    sys.exit(main())
