import csv
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import config_path, load_benchmark
from quadgrad import cli, errors, solver, validate
from quadgrad.cli import main
from quadgrad.config import experiment_from_file
from quadgrad.grid import (DiffusionOperator, Grid, MatrixField,
                           field_from_expression, read_field_csv,
                           write_field_csv)
from quadgrad.nonlinearity import transform_inverse
from quadgrad.solver import k_continuation


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def _entry_paths(node, prefix=()):
    """Key/index paths of every entry below a JSON object, nested ones too."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _entry_paths(child, prefix + (key,))


_CONFIG_PATHS = list(_entry_paths(load_benchmark("benchmark_1d.json")))


def mutated_benchmark(path, value):
    """benchmark_1d with the entry at the key/index `path` set to `value`."""
    cfg = load_benchmark("benchmark_1d.json")
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return cfg


@pytest.fixture
def small_1d(tmp_path):
    cfg = load_benchmark("benchmark_1d.json")
    cfg["problem"]["grid"]["n"] = [48]
    cfg["solver"]["k_schedule"] = [200.0, 5000.0]
    return write_cfg(tmp_path, cfg)


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        assert main(["constants", "--config",
                     os.path.join(tmp_path, "nope.json")]) == 2

    def test_missing_referenced_file(self, tmp_path):
        cfg = load_benchmark("benchmark_1d.json")
        cfg["problem"]["f"] = {"csv": "missing.csv"}
        assert main(["constants", "--config", write_cfg(tmp_path, cfg)]) == 2

    def test_zero_source_rejected(self, tmp_path, capsys):
        cfg = load_benchmark("benchmark_1d.json")
        cfg["problem"]["f"] = {"expr": {"kind": "constant", "value": 0.0}}
        assert main(["constants", "--config", write_cfg(tmp_path, cfg)]) == 2
        assert "must not vanish" in capsys.readouterr().err

    def test_delta_below_gamma_rejected(self, tmp_path):
        cfg = load_benchmark("benchmark_1d.json")
        cfg["solver"]["delta"] = 0.25  # below gamma = 0.5
        # precondition violations surface as config errors
        assert main(["solve", "--config", write_cfg(tmp_path, cfg)]) == 2

    def test_check_passes_benchmarks(self, capsys):
        assert main(["check", "--config", config_path("benchmark_1d.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["A1"]["holds"] and payload["A3"]["holds"]
        assert payload["A1"]["margin"] > 0 and payload["A3"]["margin"] >= 0

    def test_check_smallness_failure(self, capsys):
        assert main(["check", "--config",
                     config_path("fail_smallness.json")]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["A1"]["holds"] and not payload["A3"]["holds"]

    def test_solve_rejects_smallness_failure_without_solving(self, tmp_path):
        out = os.path.join(tmp_path, "out")
        assert main(["solve", "--config", config_path("fail_smallness.json"),
                     "--out", out]) == 3
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["solve", "constants", "check",
                                         "verify"])
    @pytest.mark.parametrize("key, message", [
        ("out_dir", "must be a path"),
        ("n_ladder", "must be a list of numbers"),
    ], ids=["out_dir", "n_ladder"])
    def test_malformed_report_entry_beats_smallness_verdict(
            self, tmp_path, capsys, command, key, message):
        # every entry is checked before the data's admissibility is judged,
        # so a malformed one exits 2 on inadmissible data in every command
        cfg = load_benchmark("fail_smallness.json")
        cfg["report"][key] = 5
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: report.{key} {message}")

    @pytest.mark.parametrize("command", ["solve", "constants", "check",
                                         "verify"])
    @pytest.mark.parametrize("key, value, message", [
        ("rho", 2.0, "relaxation must lie in (0, 1]"),
        ("cg_tol", -1.0, "cg_tol must be positive"),
        ("k_schedule", [10, 5], "truncation schedule must be positive and increase"),
    ], ids=["rho", "cg_tol", "k_schedule"])
    def test_solver_knob_range_beats_smallness_verdict(
            self, tmp_path, capsys, command, key, value, message):
        # the knobs' range rules hold whether or not delta is ever resolved,
        # so inadmissible data exits 2 on a knob out of range in every command
        cfg = load_benchmark("fail_smallness.json")
        cfg.setdefault("solver", {})[key] = value
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("command", ["constants", "check", "solve", "sweep",
                                         "verify"])
    def test_nonpositive_ladder_height_exits_2(self, tmp_path, capsys, command):
        # refused with the config, before a solve runs any truncation level
        cfg = load_benchmark("benchmark_1d.json")
        cfg["report"]["n_ladder"] = [0.05, -1.0]
        out = os.path.join(tmp_path, "out")
        assert main([command, "--config", write_cfg(tmp_path, cfg),
                     "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: report.n_ladder heights must be positive")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["constants", "check", "solve", "sweep",
                                         "verify"])
    @pytest.mark.parametrize("N", [0, -2])
    def test_nonpositive_dimension_exits_2(self, tmp_path, capsys, command, N):
        # with an explicit pair no default exponent needs N, so the config
        # itself refuses it, in verify too
        cfg = load_benchmark("benchmark_1d.json")
        cfg["problem"]["N"] = N
        cfg["problem"]["exponent_pair"] = {"sobolev": 6.0, "f_norm": 1.5}
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert "[PASS]" not in captured.out and "[FAIL]" not in captured.out
        assert captured.err.startswith(
            f"config error: problem.N must be a positive integer, got {N}")

    @pytest.mark.parametrize("block, key, value", [
        ("grid", "n", ["abc"]),
        ("grid", "n", 128),
        ("problem", "alpha", None),
        ("solver", "k_schedule", "5"),
        ("solver", "cg_tol", -1.0),
        ("solver", "cg_tol", 0),
        ("solver", "max_outer", -1),
        ("solver", "inner_tol", float("nan")),
        ("problem", "alpha", True),
        ("problem", "alpha", "1.0"),
        ("problem", "N", 3.7),
        ("grid", "n", [48.5]),
    ], ids=["n-not-int", "n-not-list", "alpha-null", "k_schedule-string",
            "cg_tol-negative", "cg_tol-zero", "max_outer-negative",
            "inner_tol-nan", "alpha-bool", "alpha-string", "N-fraction",
            "n-fraction"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, block, key, value):
        cfg = load_benchmark("benchmark_1d.json")
        target = {"grid": cfg["problem"]["grid"], "problem": cfg["problem"],
                  "solver": cfg["solver"]}[block]
        target[key] = value
        assert main(["solve", "--config", write_cfg(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("path, value", [
        (("problem",), 5),
        (("solver",), 5),
        (("constants",), 5),
        (("report",), 5),
        (("problem", "A"), 5),
        (("problem", "H"), 5),
        (("problem", "f"), {"expr": 5}),
        (("report", "n_ladder"), 5),
        (("report", "out_dir"), 5),
        (("seed",), "abc"),
        (("problem", "f"), {"csv": 5}),
        (("problem", "a0"), {"expr": {"kind": "constant"}}),
        (("problem", "A"), {"kind": "diagonal", "entries": 5}),
        (("seed",), -1),
    ], ids=["problem", "solver", "constants", "report", "A", "H", "f-expr",
            "n_ladder", "out_dir", "seed", "csv-path", "expr-key",
            "A-entries", "seed-negative"])
    def test_mistyped_entry_exits_2(self, tmp_path, capsys, path, value):
        cfg = load_benchmark("benchmark_1d.json")
        target = cfg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert main(["solve", "--config", write_cfg(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["check", "constants", "solve",
                                         "sweep", "verify"])
    def test_nonpositive_delta1_exits_3(self, tmp_path, capsys, command):
        # alpha - C_N^2 |a0|_{N/2} <= 0: no substitution range, so the first
        # smallness condition fails as well
        cfg = load_benchmark("benchmark_1d.json")
        cfg["problem"]["a0"]["expr"]["value"] = 10.0
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("smallness violation:") and "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    @given(path=st.sampled_from(_CONFIG_PATHS),
           value=st.sampled_from([5, "x", None, [], {}, -1.0, True, 0, 1e308]))
    def test_mutated_config_keeps_exit_contract(self, path, value):
        cfg = load_benchmark("benchmark_1d.json")
        target = cfg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            code = main(["solve", "--config", write_cfg(tmp, cfg)])
        assert code in {0, 2, 3, 4, 5}

    @settings(max_examples=200, deadline=None)
    @given(command=st.sampled_from(["constants", "check", "sweep", "verify"]),
           path=st.sampled_from(_CONFIG_PATHS),
           value=st.sampled_from([5, "x", None, [], {}, -1.0, True, 0, 1e308]))
    def test_mutated_config_keeps_exit_contract_in_every_command(
            self, command, path, value):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_cfg(tmp, mutated_benchmark(path, value))
            code = main([command, "--config", cfg])
        assert code in {0, 2, 3, 4, 5}

    @pytest.mark.parametrize("path, value", [
        (("solver", "k_schedule"), 5),
        (("solver", "delta"), None),
        (("solver", "rho"), "x"),
        (("seed",), -1),
        (("problem", "f", "expr", "kind"), "bogus"),
        (("problem", "a0", "expr", "kind"), "bogus"),
        (("problem", "H"), {"kind": "mu_gradsq",
                            "mu": {"expr": {"kind": "bogus"}}}),
        (("problem", "H", "shape"), "cubic"),
    ], ids=["k_schedule", "delta", "rho", "seed", "f-kind", "a0-kind",
            "mu-kind", "H-shape"])
    def test_verify_rejects_malformed_entry(self, tmp_path, capsys, path,
                                            value):
        # malformed input is a config error, not a failed invariant
        cfg = write_cfg(tmp_path, mutated_benchmark(path, value))
        assert main(["verify", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("config error:") and "[FAIL]" not in out

    @pytest.mark.parametrize("command", ["constants", "check", "solve", "sweep",
                                         "verify"])
    @pytest.mark.parametrize("key, value, verify_exit", [
        ("alpha", 0.0, 2),
        ("A", {"kind": "constant", "matrix": [[1.0, 0.0, 0.0],
                                              [0.0, 1.25, 0.0]]}, 2),
        ("A", {"kind": "constant", "matrix": [[1.0, 0.2], [0.2, 1.25]]}, 2),
        ("A", {"kind": "constant", "matrix": [[1.0, 0.1], [0.0, 1.25]]}, 2),
        ("A", {"kind": "identity", "scale": 0.5}, 5),
    ], ids=["alpha-zero", "non-square", "symmetric-off-diagonal",
            "asymmetric", "below-alpha"])
    def test_coefficient_exit_codes(self, tmp_path, capsys, command, key,
                                    value, verify_exit):
        # a malformed A is a config error in every command; a well-formed A
        # below the declared alpha is a failed invariant in verify
        cfg = load_benchmark("benchmark_2d.json")
        cfg["problem"][key] = value
        expected = verify_exit if command == "verify" else 2
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == expected
        out, err = capsys.readouterr()
        if expected == 5:
            assert out.startswith("[FAIL] field invariants")
        else:
            assert err.startswith("config error:") and "[FAIL]" not in out

    @pytest.mark.parametrize("command", ["constants", "check", "sweep",
                                         "verify", "solve"])
    @pytest.mark.parametrize("index, value", [(1, 5.0), (0, 1e308)],
                             ids=["repeated", "huge-first"])
    def test_non_increasing_schedule_exits_2(self, tmp_path, capsys, command,
                                             index, value):
        cfg = mutated_benchmark(("solver", "k_schedule", index), value)
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: truncation schedule")

    @pytest.mark.parametrize("command", ["constants", "check", "sweep",
                                         "solve"])
    def test_seed_option_only_where_sampled(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", config_path("benchmark_1d.json"),
                  "--seed", "5"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_verify_records_the_seed_used(self, tmp_path, capsys):
        assert main(["verify", "--config", config_path("benchmark_1d.json"),
                     "--seed", "5", "--out", str(tmp_path)]) == 0
        with open(os.path.join(tmp_path, "verify_report.json")) as fh:
            assert json.load(fh)["seed"] == 5

    def test_verify_negative_seed_option_exits_2(self, capsys):
        assert main(["verify", "--config", config_path("benchmark_1d.json"),
                     "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("path, quantity", [
        (("problem", "f", "expr", "amplitude"), "norm f_N2"),
        (("problem", "a0", "expr", "value"), "norm a0_N2"),
        (("problem", "grid", "extents", 0), "f.expr"),
        (("problem", "N"), "exponent_pair.sobolev"),
        (("solver", "delta"), "K_delta"),
    ], ids=["f-amplitude", "a0-value", "extents", "N", "delta"])
    def test_overflowing_entry_names_the_quantity(self, tmp_path, capsys,
                                                  path, quantity):
        # RuntimeWarnings are errors in this suite, so none may escape either
        cfg = write_cfg(tmp_path, mutated_benchmark(path, 1e308))
        assert main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and quantity in err

    @pytest.mark.parametrize("command, code", [("solve", 2), ("verify", 5)])
    def test_overflowing_rhs_norm_is_a_transform_overflow(self, tmp_path,
                                                          capsys, command, code):
        # at delta = 20 delta0 an iterate's rhs(w) stays finite while its
        # squared norm does not; RuntimeWarnings are errors in this suite
        cfg = write_cfg(tmp_path, mutated_benchmark(("solver", "delta"), 138.563))
        assert main([command, "--config", cfg]) == code
        captured = capsys.readouterr()
        message = "the transformed coefficients K_delta(w) and rhs(w) overflow"
        if command == "solve":
            assert captured.err.startswith(f"config error: {message}")
        else:
            assert "[FAIL] equivalence cross-check" in captured.out
            assert message in captured.out

    @pytest.mark.parametrize("command", ["constants", "check", "solve", "sweep",
                                         "verify"])
    @pytest.mark.parametrize("edits, block, key", [
        ({("solver", "max_outter"): 3}, "solver", "max_outter"),
        ({("solver", "anderson"): 3}, "solver", "anderson"),
        ({("sed",): 1}, "top-level", "sed"),
        ({("problem", "Nn"): 3}, "problem", "Nn"),
        ({("problem", "grid", "extent"): [1.0]}, "problem.grid", "extent"),
        ({("problem", "exponent_pair"): {"sobolev": 6.0, "f_norm": 1.5,
                                         "p": 6.0}},
         "problem.exponent_pair", "p"),
        ({("problem", "A", "entries"): [2.0]}, "problem.A", "entries"),
        ({("problem", "H", "mu"): 0.1}, "problem.H", "mu"),
        ({("problem", "f", "cvs"): "f.csv"}, "f", "cvs"),
        ({("problem", "f", "expr", "amplitud"): 2.0}, "f.expr", "amplitud"),
        ({("problem", "a0", "expr", "amplitude"): 2.0}, "a0.expr", "amplitude"),
        ({("problem", "H"): {"kind": "mu_gradsq", "mu": {
            "expr": {"kind": "constant", "value": 0.1}, "scale": 2.0}}},
         "H.mu", "scale"),
        ({("constants",): {"C_n": "literature:0.01"},
          ("report",): {"n_laddr": [0.1]}}, "constants", "C_n"),
        ({("constants", "declared_norms"): {"f_hm1": 0.225}},
         "constants.declared_norms", "f_hm1"),
        ({("report", "n_laddr"): [0.1]}, "report", "n_laddr"),
    ], ids=["misspelt", "retired", "top-level", "problem", "grid",
            "exponent_pair", "A-other-kind", "H-other-kind", "f", "f-expr",
            "a0-expr-other-kind", "H-mu", "constants-and-report",
            "declared_norms", "report"])
    def test_unknown_solver_key_exits_2(self, tmp_path, capsys, command, edits,
                                        block, key):
        # an ignored key would leave the entry it meant at its default: a
        # misspelt C_N would estimate the constant the literature value gives
        cfg = load_benchmark("benchmark_1d.json")
        for path, value in edits.items():
            target = cfg
            for name in path[:-1]:
                target = target[name]
            target[path[-1]] = value
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert "[PASS]" not in captured.out and "[FAIL]" not in captured.out
        assert captured.err == (f"config error: unknown key(s) [{key!r}] in "
                                f"{block} block\n")

    @pytest.mark.parametrize("command", ["constants", "check", "solve", "sweep",
                                         "verify"])
    def test_k_beside_schedule_exits_2(self, tmp_path, capsys, command):
        # the schedule is the one spelling of the truncation heights
        cfg = mutated_benchmark(("solver", "k"), 7.0)
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: unknown key(s) ['k'] in solver block\n")

    @pytest.mark.parametrize("command", ["constants", "check", "solve", "sweep",
                                         "verify"])
    @pytest.mark.parametrize("k", [0, -1])
    def test_nonpositive_k_exits_2(self, tmp_path, capsys, command, k):
        # a single height is a one-entry schedule, held to the schedule's rules
        cfg = load_benchmark("benchmark_1d.json")
        cfg["solver"]["k_schedule"] = [k]
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: truncation schedule must be positive and increase, "
            f"got ({float(k)!r},)\n")

    @pytest.mark.parametrize("command", ["constants", "check", "solve", "sweep",
                                         "verify"])
    def test_csv_beside_expr_exits_2(self, tmp_path, capsys, command):
        # the CSV field would be read and the expression silently ignored
        cfg = load_benchmark("benchmark_1d.json")
        grid = Grid((1.0,), tuple(cfg["problem"]["grid"]["n"]))
        f = field_from_expression(grid, cfg["problem"]["f"]["expr"])
        write_field_csv(grid, f.values, os.path.join(tmp_path, "f.csv"))
        cfg["problem"]["f"] = {"csv": "f.csv", "expr": {"kind": "bogus"}}
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert "[PASS]" not in captured.out and "[FAIL]" not in captured.out
        assert captured.err == ("config error: f.csv and f.expr exclude each "
                                "other; give one of the two\n")

    @pytest.mark.parametrize("command", ["constants", "check", "solve", "sweep",
                                         "verify"])
    @pytest.mark.parametrize("p", [1000.0, 1e308], ids=["1000", "1e308"])
    def test_sobolev_ascent_out_of_range_exits_2(self, tmp_path, capsys,
                                                 command, p):
        # |v|^(p-2) underflows the ascent's iterate to zero, whose energy
        # normalisation is 0/0; RuntimeWarnings are errors in this suite
        cfg = mutated_benchmark(("problem", "exponent_pair"),
                                {"sobolev": p, "f_norm": 1.5})
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert "[FAIL]" not in captured.out
        assert captured.err.startswith(
            "config error: problem.exponent_pair.sobolev leaves the "
            "double-precision range")

    @pytest.mark.parametrize("command", ["constants", "check", "solve", "sweep",
                                         "verify"])
    @pytest.mark.parametrize("name", ["benchmark_2d.json", "fail_smallness.json"],
                             ids=["admissible", "inadmissible"])
    def test_huge_coefficient_names_problem_a(self, tmp_path, capsys, command,
                                              name):
        # a finite A whose stencil scaling 1/h^2 leaves the double range is
        # malformed input, also on data that fails the smallness conditions;
        # RuntimeWarnings are errors in this suite, so none may escape either
        cfg = load_benchmark(name)
        cfg["problem"]["A"] = {"kind": "identity", "scale": 1e308}
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert "[FAIL]" not in captured.out
        assert captured.err.startswith(
            "config error: problem.A leaves the double-precision range")

    def test_huge_coefficient_with_finite_eigenvalues_solves_in_2d(
            self, tmp_path, capsys):
        # each sine eigenvalue and the stencil scaling 1/h^2 stay in the
        # double range, only the sum of the two axes' eigenvalues would not;
        # RuntimeWarnings are errors in this suite, so none may escape either
        cfg = load_benchmark("benchmark_2d.json")
        cfg["problem"]["A"] = {"kind": "identity", "scale": 1e304}
        out = os.path.join(tmp_path, "out")
        assert main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", out]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["ball_violation"] is False

    @pytest.mark.parametrize("command", ["constants", "check", "solve", "sweep",
                                         "verify"])
    @pytest.mark.parametrize("content, message", [
        (None, "has grid (128,)"),
        ("64,0.015384615384615385\nabc\n", "could not convert"),
        ("", "malformed field header"),
        ("64,h\n0.5\n", "malformed field header"),
    ], ids=["other-grid", "non-numeric", "empty", "bad-header"])
    def test_malformed_csv_field_exits_2(self, tmp_path, capsys, command,
                                         content, message):
        cfg = load_benchmark("benchmark_1d.json")
        path = os.path.join(tmp_path, "f.csv")
        if content is None:
            # a well-formed file, written on a finer grid than the config's
            fine = Grid((1.0,), (128,))
            f = field_from_expression(fine, cfg["problem"]["f"]["expr"])
            write_field_csv(fine, f.values, path)
        else:
            with open(path, "w") as fh:
                fh.write(content)
        cfg["problem"]["grid"]["n"] = [64]
        cfg["problem"]["f"] = {"csv": "f.csv"}
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert "[FAIL]" not in captured.out
        assert captured.err.startswith("config error: f.csv: ")
        assert message in captured.err

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "cfg.json")
        with open(path, "wb") as fh:
            fh.write(b'{"seed": "\xff"}')
        assert main(["constants", "--config", path]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: cannot read config {path}: 'utf-8' codec")

    @pytest.mark.parametrize("command", ["constants", "check", "solve", "sweep",
                                         "verify"])
    @pytest.mark.parametrize("entry", ["directory", "not-utf8"])
    def test_unreadable_csv_field_exits_2(self, tmp_path, capsys, command,
                                          entry):
        path = os.path.join(tmp_path, "f.csv")
        if entry == "directory":
            os.mkdir(path)
        else:
            with open(path, "wb") as fh:
                fh.write(b"64,0.015384615384615385\n\xff\n")
        cfg = load_benchmark("benchmark_1d.json")
        cfg["problem"]["grid"]["n"] = [64]
        cfg["problem"]["f"] = {"csv": "f.csv"}
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert "[FAIL]" not in captured.out
        assert captured.err.startswith("config error: f.csv: ")
        assert path in captured.err

    @pytest.mark.parametrize("command", ["constants", "check", "solve", "sweep",
                                         "verify"])
    @pytest.mark.parametrize("via", ["--out", "report.out_dir"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch,
                                      command, via):
        # an existing file where the output directory should go: refused
        # before any work, so nothing is solved and nothing is printed
        solves = []

        def refusing(*args, **kwargs):
            solves.append(args)
            raise AssertionError("solved before the output was checked")

        monkeypatch.setattr(cli, "k_continuation", refusing)
        taken = os.path.join(tmp_path, "taken")
        open(taken, "w").close()
        cfg = load_benchmark("benchmark_1d.json")
        out = ["--out", taken]
        if via == "report.out_dir":
            cfg["report"]["out_dir"] = taken
            out = []
        assert main([command, "--config", write_cfg(tmp_path, cfg), *out]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not solves
        err = captured.err
        assert err.startswith("cannot write output: ") and err.count("\n") == 1
        assert repr(taken) in err

    @pytest.mark.parametrize("command", ["constants", "check", "solve", "sweep",
                                         "verify"])
    def test_constant_matrix_spelling_exits_2(self, tmp_path, capsys, command):
        # problem.A is "identity" or "diagonal"; the matrix spelling is
        # refused even where it writes a diagonal A
        cfg = load_benchmark("benchmark_2d.json")
        cfg["problem"]["A"] = {"kind": "constant",
                               "matrix": [[1.0, 0.0], [0.0, 1.25]]}
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert "[PASS]" not in captured.out
        assert captured.err == ("config error: unknown kind 'constant' in "
                                "problem.A block\n")

    @pytest.mark.parametrize("command", ["constants", "check", "solve", "sweep",
                                         "verify"])
    def test_negative_a0_exits_2(self, tmp_path, capsys, command):
        cfg = load_benchmark("benchmark_1d.json")
        cfg["problem"]["a0"] = {"expr": {"kind": "constant", "value": -0.2}}
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == "config error: a0 must be nonnegative\n"

    def test_delta0_solve_without_constants_exits_2(self, tmp_path, capsys):
        # a0 = 0 leaves no constants, so there is no delta0 to solve at
        cfg = load_benchmark("benchmark_1d.json")
        cfg["problem"]["a0"] = {"expr": {"kind": "constant", "value": 0.0}}
        out = os.path.join(tmp_path, "out")
        assert main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: solver.delta = 'delta0' needs admissible constants: "
            "a0 must not vanish")
        assert not os.path.exists(out)

    def test_solve_nonconvergence(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "out")
        assert main(["solve", "--config",
                     config_path("fail_nonconvergence.json"),
                     "--out", out]) == 4
        with open(os.path.join(out, "trace.jsonl")) as fh:
            rows = [json.loads(line) for line in fh]
        assert len(rows) == 6  # complete trace of the exhausted budget
        assert all(row["increment"] > 1e-12 for row in rows)
        # the stderr line ends with the work totals of the trace so far
        newton = sum(row["inner_iterations"] for row in rows)
        cg = sum(row["cg_iterations"] for row in rows)
        err = capsys.readouterr().err
        assert err.startswith("solver non-convergence:")
        assert err.endswith(
            f" (so far: Picard {len(rows)}, Newton {newton}, CG {cg})\n")

    def test_inner_failure_exits_4_with_trace(self, tmp_path, capsys):
        # one Newton step per inner solve finishes the first, mixed level of
        # benchmark_2d, then runs out of budget in the relaxed second one
        raw = load_benchmark("benchmark_2d.json")
        raw["solver"].update(max_inner=1, k_schedule=[5.0, 25.0])
        cfg = write_cfg(tmp_path, raw)
        out = os.path.join(tmp_path, "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 4
        assert capsys.readouterr().err.startswith("solver non-convergence:")
        exp = experiment_from_file(cfg)
        with pytest.raises(errors.NewtonStall) as err:
            k_continuation(exp.data, exp.solver_cfg, n_ladder=exp.n_ladder)
        *finished, partial = err.value.traces
        assert finished and all(t.converged for t in finished)
        assert not partial.converged
        with open(os.path.join(out, "trace.jsonl")) as fh:
            rows = [json.loads(line) for line in fh]
        assert len(rows) == sum(len(t.records) for t in err.value.traces)
        assert rows[-1]["k"] == partial.k

    def test_exhausted_line_search_exits_4_with_trace(self, tmp_path, capsys,
                                                      monkeypatch):
        # a zero Newton step never decreases the residual, so all 40
        # halvings are spent; the first steps are real so a trace exists
        real_cg, calls = solver.cg_solve, []

        def stalling_cg(inverse, rhs, shift, tol=1e-12, maxiter=None):
            calls.append(None)
            if len(calls) <= 20:
                return real_cg(inverse, rhs, shift, tol=tol, maxiter=maxiter)
            return np.zeros(rhs.shape), 0

        monkeypatch.setattr(solver, "cg_solve", stalling_cg)
        cfg = config_path("benchmark_1d.json")
        out = os.path.join(tmp_path, "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 4
        assert capsys.readouterr().err.startswith(
            "solver non-convergence: line search exhausted at residual")
        calls.clear()
        exp = experiment_from_file(cfg)
        with pytest.raises(errors.NewtonStall,
                           match="^line search exhausted") as err:
            k_continuation(exp.data, exp.solver_cfg, n_ladder=exp.n_ladder)
        *finished, partial = err.value.traces
        assert all(t.converged for t in finished) and not partial.converged
        assert err.value.residual > 0
        with open(os.path.join(out, "trace.jsonl")) as fh:
            rows = [json.loads(line) for line in fh]
        assert rows and len(rows) == sum(len(t.records) for t in err.value.traces)

    @pytest.mark.parametrize("name", ["benchmark_1d.json", "benchmark_2d.json"])
    @pytest.mark.parametrize("scale, amplitude", [(1e304, 1e-5), (1e300, 1e-20)])
    def test_cg_breakdown_exits_4(self, tmp_path, capsys, name, scale,
                                  amplitude):
        # on admissible data this small against A, the Newton residual's
        # preconditioned image underflows to 0, and conjugate gradients
        # with it: a failed solve, not a ZeroDivisionError
        cfg = load_benchmark(name)
        cfg["problem"]["A"] = {"kind": "identity", "scale": scale}
        cfg["problem"]["f"]["expr"]["amplitude"] = amplitude
        path = write_cfg(tmp_path, cfg)
        assert main(["constants", "--config", path]) == 0
        out = os.path.join(tmp_path, "out")
        capsys.readouterr()
        assert main(["solve", "--config", path, "--out", out]) == 4
        err = capsys.readouterr().err
        assert err.startswith(
            "solver non-convergence: conjugate gradients broke down")
        assert err.endswith(" (so far: Picard 0, Newton 0, CG 0)\n")
        assert os.path.exists(os.path.join(out, "trace.jsonl"))
        assert main(["verify", "--config", path]) == 5
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if "equivalence cross-check" in line)
        assert line.startswith("[FAIL]")
        assert "solve failed: conjugate gradients broke down" in line


def _subclasses(kind):
    for sub in kind.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("kind", [errors.QuadgradError,
                                  *_subclasses(errors.QuadgradError)],
                         ids=lambda kind: kind.__name__)
def test_every_error_class_has_its_exit_code(monkeypatch, capsys, kind):
    # a new error class must not fall through to "config error" unnoticed
    def fail(args):
        raise kind("boom")

    monkeypatch.setattr(cli, "cmd_constants", fail)
    code = main(["constants", "--config", "unused.json"])
    if issubclass(kind, errors.SmallnessViolated):
        want = 3, "smallness violation: boom"
    elif issubclass(kind, errors.SolverFailure):
        want = 4, "solver non-convergence: boom"
    else:
        want = 2, "config error: boom"
    assert (code, capsys.readouterr().err.strip()) == want


class TestConstantsCommand:
    def test_benchmark_report(self, capsys):
        assert main(["constants", "--config",
                     config_path("benchmark_1d.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        rep = payload["report"]
        assert 0.5 <= rep["delta0"] < rep["delta1"]
        assert rep["Z_delta0"] > 0
        assert rep["C_N_source"] == "estimate"
        assert payload["norms"]["f_N2"] > 0

    def test_smallness_failure_gives_partial_report(self, capsys):
        assert main(["constants", "--config",
                     config_path("fail_smallness.json")]) == 3
        rep = json.loads(capsys.readouterr().out)["report"]
        assert rep["delta0"] is None
        assert rep["smallness_A3"]["margin"] < 0

    def test_literature_constant_passthrough(self, tmp_path, capsys):
        cfg = load_benchmark("benchmark_1d.json")
        cfg["constants"]["C_N"] = "literature:0.38"
        assert main(["constants", "--config", write_cfg(tmp_path, cfg)]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        assert rep["C_N"] == 0.38
        assert rep["C_N_source"] == "literature:0.38"

    def test_requested_zero_pairs(self, tmp_path, capsys):
        cfg = load_benchmark("benchmark_1d.json")
        cfg["report"]["y_deltas"] = [0.6, 50.0]  # one inside, one beyond
        assert main(["constants", "--config", write_cfg(tmp_path, cfg)]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        ym, yp = rep["y_zeros"]["0.6"]
        assert 0.0 < ym < rep["Z_delta0"] < yp
        assert rep["y_zeros"]["50.0"] == [None, None]

    def test_determinism(self, tmp_path, capsys):
        out1 = os.path.join(tmp_path, "r1")
        out2 = os.path.join(tmp_path, "r2")
        for out in (out1, out2):
            assert main(["constants", "--config",
                         config_path("benchmark_1d.json"), "--out", out]) == 0
        capsys.readouterr()
        assert Path(out1, "constants_report.json").read_bytes() \
            == Path(out2, "constants_report.json").read_bytes()


class TestSolveCommand:
    def test_outputs_and_reload(self, small_1d, tmp_path, capsys):
        out = os.path.join(tmp_path, "out")
        assert main(["solve", "--config", small_1d, "--out", out]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ball_violation"] is False
        assert summary["slack_violation"] is False
        assert max(summary["residual_truncated"]) <= 3e-10 * 3
        w = read_field_csv(os.path.join(out, "solution_w.csv"))
        u = read_field_csv(os.path.join(out, "solution_u.csv"))
        assert np.allclose(u.values,
                           transform_inverse(w.values, summary["delta"]),
                           rtol=1e-12, atol=1e-15)
        with open(os.path.join(out, "trace.jsonl")) as fh:
            rows = [json.loads(line) for line in fh]
        assert {row["k"] for row in rows} == {200.0, 5000.0}
        assert all(row["ls_halvings"] == 0 for row in rows)
        # every diagnostics cell past the "n" label is a plain float repr
        for name in ("tail_energy.csv", "increments.csv"):
            with open(os.path.join(out, name), newline="") as fh:
                header, *body = list(csv.reader(fh))
            assert body
            assert header[0] == {"tail_energy.csv": "n",
                                 "increments.csv": "k_from"}[name]
            cells = header[1:] if name == "tail_energy.csv" else []
            cells += [cell for row in body for cell in row]
            for cell in cells:
                assert repr(float(cell)) == cell

    def test_without_heights_solves_at_the_default(self, tmp_path, capsys):
        # neither k nor k_schedule: the SolverConfig default, one height
        cfg = load_benchmark("benchmark_1d.json")
        cfg["problem"]["grid"]["n"] = [48]
        del cfg["solver"]["k_schedule"]
        assert main(["solve", "--config", write_cfg(tmp_path, cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["k_schedule"] == [100.0]

    def test_solve_determinism(self, small_1d, tmp_path, capsys):
        outs = []
        for tag in ("a", "b"):
            out = os.path.join(tmp_path, tag)
            assert main(["solve", "--config", small_1d, "--out", out]) == 0
            outs.append(out)
        capsys.readouterr()
        for name in ("solution_w.csv", "residuals.json", "trace.jsonl"):
            assert Path(outs[0], name).read_bytes() \
                == Path(outs[1], name).read_bytes()

    def test_invariant_violation_exits_5_with_trace(self, tmp_path, capsys):
        # a literature C_N of 0.1 shrinks the ball radius to 0.229, below
        # the solution's energy |Dw| = 0.2405
        cfg = load_benchmark("benchmark_1d.json")
        cfg["solver"]["delta"] = 1.0
        cfg["constants"]["C_N"] = "literature:0.1"
        out = os.path.join(tmp_path, "out")
        assert main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", out]) == 5
        captured = capsys.readouterr()
        assert captured.err.strip() == "invariant violation recorded in trace"
        summary = json.loads(captured.out)
        assert summary["ball_violation"] is True
        assert summary["slack_violation"] is True
        assert summary["ball_radius"] < summary["grad_norm_w_final"]
        with open(os.path.join(out, "trace.jsonl")) as fh:
            rows = [json.loads(line) for line in fh]
        assert any(row["in_ball"] is False for row in rows)

    def test_slack_judged_by_its_own_height_tolerance(self, small_1d,
                                                      monkeypatch, capsys):
        # a loose tolerance at the lowest height must not excuse a negative
        # slack at the top height beyond that height's own tolerance
        def faulty(*args, **kwargs):
            w, diag, traces = k_continuation(*args, **kwargs)
            traces[0].eps_solver *= 1e3
            traces[-1].records[-1].estimate_slack = -2.0 * traces[-1].eps_solver
            return w, diag, traces

        monkeypatch.setattr(cli, "k_continuation", faulty)
        assert main(["solve", "--config", small_1d]) == 5
        summary = json.loads(capsys.readouterr().out)
        assert summary["slack_violation"] is True
        assert summary["ball_violation"] is False


class TestSweepCommand:
    def test_delta_sweep_structure(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "sweep")
        assert main(["sweep", "--config", config_path("benchmark_1d.json"),
                     "--out", out, "--points", "41"]) == 0
        capsys.readouterr()
        with open(os.path.join(out, "sweep.csv")) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        col = {name: i for i, name in enumerate(header)}
        phis = [float(r[col["phi_min"]]) for r in rows]
        zs = [float(r[col["Z_delta"]]) for r in rows]
        signs = [p < 0 for p in phis]
        changes = sum(a != b for a, b in zip(signs, signs[1:]))
        assert changes == 1  # single crossing of the profile minimum
        assert all(a > b for a, b in zip(zs, zs[1:]))  # radius decreasing
        assert zs[-1] <= 1e-12 * zs[0]  # vanishing at the upper endpoint
        for r in rows:
            has_pair = r[col["Y_minus"]] != ""
            assert has_pair == (float(r[col["phi_min"]]) < 0)
            if has_pair:
                assert float(r[col["Y_minus"]]) < float(r[col["Y_plus"]])

    def test_scales_sweep(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "scales")
        assert main(["sweep", "--config", config_path("benchmark_1d.json"),
                     "--out", out, "--mode", "scales",
                     "--scales", "0.5", "1.0", "8.0"]) == 0
        capsys.readouterr()
        with open(os.path.join(out, "sweep.csv")) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        col = {name: i for i, name in enumerate(header)}
        assert len(rows) == 9
        adm = {(r[col["f_scale"]], r[col["a0_scale"]]): r[col["admissible"]]
               for r in rows}
        assert adm[("0.5", "0.5")] == "True"
        assert adm[("8.0", "8.0")] == "False"
        # every numeric cell is a plain float literal
        for r in rows:
            for name in ("f_scale", "a0_scale", "A1_margin", "A3_margin",
                         "delta0"):
                if r[col[name]]:
                    float(r[col[name]])

    @pytest.mark.parametrize("args", [
        ["--points", "-1"], ["--points", "0"],
        ["--mode", "scales", "--scales", "nan"],
        ["--mode", "scales", "--scales", "1.0", "inf"],
        ["--mode", "scales", "--scales", "0"],
        ["--mode", "scales", "--scales", "-2"],
    ], ids=["points-neg", "points-zero", "scales-nan",
            "scales-inf", "scales-zero", "scales-neg"])
    def test_bad_arguments_are_usage_errors(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", config_path("benchmark_1d.json")] + args)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


# a verify seed whose grid checks draw a pair with |<Au, v>| / sum |Au v|
# of 4.9e-6 on benchmark_2d
CANCELLING_SEED = "121"


class TestVerifyCommand:
    def test_benchmark_passes(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "verify")
        assert main(["verify", "--config", config_path("benchmark_1d.json"),
                     "--out", out]) == 0
        text = capsys.readouterr().out
        assert "[FAIL]" not in text
        with open(os.path.join(out, "verify_report.json")) as fh:
            payload = json.load(fh)
        assert all(c["ok"] for c in payload["checks"])

    def test_benchmark_2d_symmetry_at_cancelling_seed(self, capsys):
        # this seed draws a pair whose <Au, v> nearly cancels; the symmetry
        # check must measure its error against the rounding scale instead
        assert main(["verify", "--config", config_path("benchmark_2d.json"),
                     "--seed", CANCELLING_SEED]) == 0
        out = capsys.readouterr().out
        assert "[PASS] operator symmetry" in out
        assert "[PASS] discrete integration by parts" in out

    @pytest.mark.parametrize("seed, worst", [
        (None, 1.712562183700568e-17), (CANCELLING_SEED, 1.9921990764709578e-17),
    ], ids=["config-seed", "cancelling-seed"])
    def test_benchmark_2d_symmetry_margin_pinned(self, tmp_path, capsys, seed,
                                                 worst):
        # pinned to verify's draw order: the model checks' shared samples,
        # then the grid checks' pairs u0, v0, u1, v1, ...
        out = os.path.join(tmp_path, "out")
        argv = ["verify", "--config", config_path("benchmark_2d.json"),
                "--out", out] + (["--seed", seed] if seed else [])
        assert main(argv) == 0
        capsys.readouterr()
        with open(os.path.join(out, "verify_report.json")) as fh:
            checks = {c["name"]: c for c in json.load(fh)["checks"]}
        assert checks["operator symmetry"]["worst"] == worst

    @pytest.mark.parametrize("name", ["benchmark_1d.json", "benchmark_2d.json"],
                             ids=["1d", "2d"])
    @pytest.mark.parametrize("owner, attr, fault, check", [
        (validate, "riesz_representative",
         lambda lift: lambda grid, f: lift(grid, f) * (1.0 + 1e-6),
         "dual-norm duality and Riesz equality"),
        (DiffusionOperator, "apply",
         lambda apply: lambda self, v, *diffs: (av := apply(self, v, *diffs))
         + 1e-10 * np.roll(av, 1),
         "operator symmetry"),
    ], ids=["riesz-lift", "stencil"])
    def test_planted_grid_fault_exits_5(self, monkeypatch, capsys, name, owner,
                                        attr, fault, check):
        monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
        assert main(["verify", "--config", config_path(name)]) == 5
        assert f"[FAIL] {check}: " in capsys.readouterr().out

    def test_corrupted_matrix_reported(self, tmp_path, capsys):
        # a well-formed A that breaks the declared coercivity is a failed
        # invariant, reported as data
        cfg = load_benchmark("benchmark_2d.json")
        cfg["problem"]["A"] = {"kind": "diagonal", "entries": [1.0, 0.5]}
        assert main(["verify", "--config", write_cfg(tmp_path, cfg)]) == 5
        out = capsys.readouterr().out
        assert out.startswith("[FAIL] field invariants")
        assert "smallest diagonal entry 0.5 falls below" in out

    def test_inadmissible_data_skips_crosscheck_with_its_own_margin(
            self, capsys, monkeypatch):
        # the skip quotes the config's own A3 margin, the one check gives,
        # and builds no coarse grid
        path = config_path("fail_smallness.json")
        assert main(["check", "--config", path]) == 3
        a3 = json.loads(capsys.readouterr().out)["A3"]["margin"]
        monkeypatch.setattr(cli, "build_experiment", None)
        assert main(["verify", "--config", path]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if "equivalence cross-check" in line)
        assert line == ("[PASS] equivalence cross-check: worst margin nan "
                        "(skipped: second smallness condition fails: profile "
                        f"minimum at gamma is {-a3:g} > 0)")

    def test_crosscheck_names_the_refused_coarse_grid(self, monkeypatch):
        # admissible data whose coarse version is not: the skip says which
        # grid refused it
        build = cli.build_experiment

        def refusing(cfg, **kwargs):
            if kwargs["n"] == (15,):
                raise errors.SmallnessViolated("first smallness condition "
                                               "fails: margin -1 <= 0")
            return build(cfg, **kwargs)

        monkeypatch.setattr(cli, "build_experiment", refusing)
        exp = experiment_from_file(config_path("benchmark_1d.json"),
                                   for_solve=False)
        result = cli._equivalence_crosscheck(exp)
        assert result.ok and result.detail == (
            "skipped: first smallness condition fails: margin -1 <= 0 "
            "on the (15,) grid")

    def test_unrefinable_grid_skips_equivalence_crosscheck(self, tmp_path,
                                                           capsys):
        # an axis of 16 nodes has no three nested coarse grids of 3 or more
        # nodes within n / 4, so there is no refinement to compare
        cfg = load_benchmark("benchmark_2d.json")
        cfg["problem"]["grid"]["n"] = [16, 16]
        assert main(["verify", "--config", write_cfg(tmp_path, cfg)]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if "equivalence cross-check" in line)
        assert line.startswith("[PASS]") and "skipped" in line

    @pytest.mark.parametrize("edits", [
        {("problem", "q"): 1.5},  # the window of q is (1.5, 2) at p = 6
        {("problem", "a0"): {"expr": {"kind": "constant", "value": 0.0}},
         ("solver", "delta"): 1.0},
    ], ids=["q-outside-window", "a0-zero-explicit-delta"])
    def test_uncomputable_constants_list_skipped_checks(self, tmp_path, capsys,
                                                        edits):
        # the checks that need the constants are named as skipped, with the
        # reason the constants command gives, rather than left out
        cfg = load_benchmark("benchmark_1d.json")
        for (block, key), value in edits.items():
            cfg[block][key] = value
        path = write_cfg(tmp_path, cfg)
        assert main(["constants", "--config", path]) == 2
        reason = capsys.readouterr().err.split("constants not computable: ")[1]
        out = os.path.join(tmp_path, "out")
        assert main(["verify", "--config", path, "--out", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name in ("growth-constant envelope",
                     "growth constant against 30-digit decimal",
                     "profile minimum closed form", "equivalence cross-check"):
            (line,) = [line for line in lines if f"] {name}: " in line]
            assert line == (f"[PASS] {name}: worst margin nan (skipped: "
                            f"constants not computable: {reason.strip()})")

        # the report is standard JSON: a skipped check's margin is null
        def refuse(token):
            raise ValueError(f"nonstandard JSON constant {token}")

        with open(os.path.join(out, "verify_report.json")) as fh:
            checks = json.load(fh, parse_constant=refuse)["checks"]
        skipped = [c for c in checks if c["detail"].startswith("skipped: ")]
        assert len(skipped) == 4 and all(c["worst"] is None for c in skipped)

    @pytest.mark.parametrize("name", ["benchmark_1d.json", "benchmark_2d.json"],
                             ids=["1d", "2d"])
    @pytest.mark.parametrize("scale", [100.0, 1e3, 1e4])
    def test_equivalence_crosscheck_stiff_coefficient(self, tmp_path, capsys,
                                                      name, scale):
        # a stiff A leaves u small, not inaccurate: solve and check exit 0,
        # and the observed order stays near 2
        cfg = load_benchmark(name)
        cfg["problem"]["A"] = {"kind": "identity", "scale": scale}
        assert main(["verify", "--config", write_cfg(tmp_path, cfg)]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if "equivalence cross-check" in line)
        assert line.startswith("[PASS]") and "observed order" in line

    @pytest.mark.parametrize("name", ["benchmark_1d.json", "benchmark_2d.json"],
                             ids=["1d", "2d"])
    def test_equivalence_crosscheck_fails_a_first_order_scheme(
            self, monkeypatch, name):
        # A's last entry scaled by 1 + 2h on every coarse grid is an O(h)
        # inconsistency: the observed order falls to 0.56 (1D) and -0.15 (2D)
        build = cli.build_experiment

        def planted(cfg, **kwargs):
            coarse = build(cfg, **kwargs)
            A = coarse.data.A
            entries = A.values * np.r_[np.ones(A.grid.dim - 1),
                                       1.0 + 2.0 * A.grid.h[-1]]
            data = replace(coarse.data, A=MatrixField(A.grid, entries, A.alpha))
            return replace(coarse, data=data)

        monkeypatch.setattr(cli, "build_experiment", planted)
        exp = experiment_from_file(config_path(name), for_solve=False)
        result = cli._equivalence_crosscheck(exp)
        order = float(result.detail.split("observed order ")[1].split()[0])
        assert not result.ok and result.worst < 0 and order < 1.5

    @pytest.mark.parametrize("n, runs", [([59, 64], False), ([60, 60], True)],
                             ids=["59x64-skipped", "60x60-runs"])
    def test_equivalence_crosscheck_needs_60_nodes(self, tmp_path, n, runs):
        # the coarsest grid has (n // 4 - 3) // 4 nodes per axis, at least 3
        cfg = load_benchmark("benchmark_2d.json")
        cfg["problem"]["grid"]["n"] = n
        exp = experiment_from_file(write_cfg(tmp_path, cfg), for_solve=False)
        result = cli._equivalence_crosscheck(exp)
        assert result.ok
        assert ("finest grid (15, 15)" in result.detail) is runs
        assert result.detail.startswith("skipped: ") is not runs

    def test_equivalence_crosscheck_solves_are_accelerated(self, monkeypatch):
        # the cross-check needs only the discrete fixed points, so its coarse
        # solves mix with Anderson at rho = 1: at most 12 Picard iterations
        # each on benchmark_2d
        counts = []
        outer = solver.outer_fixed_point

        def counting(*args, **kwargs):
            w, trace = outer(*args, **kwargs)
            counts.append(len(trace.records))
            return w, trace

        monkeypatch.setattr(solver, "outer_fixed_point", counting)
        exp = experiment_from_file(config_path("benchmark_2d.json"),
                                   for_solve=False)
        result = cli._equivalence_crosscheck(exp)
        assert result.ok and "observed order" in result.detail
        assert len(counts) == 3 and max(counts) <= 15, counts

    @pytest.mark.parametrize("edits, height", [
        ({}, 100000.0),
        ({"k_schedule": [2000.0]}, 2000.0),
    ], ids=["schedule", "single-height"])
    def test_equivalence_crosscheck_solves_at_the_top_height(
            self, tmp_path, monkeypatch, edits, height):
        # one solve per coarse grid, at the schedule's last height, with the
        # cross-check's own rho, outer_tol and max_outer, not the config's
        solved = []
        outer = solver.outer_fixed_point

        def recording(data, cfg, k, **kwargs):
            solved.append((k, cfg.rho, cfg.outer_tol, cfg.max_outer))
            return outer(data, cfg, k, **kwargs)

        monkeypatch.setattr(solver, "outer_fixed_point", recording)
        cfg = load_benchmark("benchmark_2d.json")
        cfg["solver"].update(rho=0.7, outer_tol=1e-10, max_outer=300, **edits)
        exp = experiment_from_file(write_cfg(tmp_path, cfg), for_solve=False)
        assert cli._equivalence_crosscheck(exp).ok
        assert solved == [(height, 0.5, 1e-9, 500)] * 3

    @pytest.mark.parametrize("name", ["benchmark_1d.json", "benchmark_2d.json"])
    def test_huge_coefficient_verifies(self, tmp_path, capsys, name):
        # the grid checks draw their fields scaled to the stencil, so an A
        # that solves also verifies; RuntimeWarnings are errors in this suite.
        # u is of order 1e-307 there, and its observed order is still 2
        cfg = load_benchmark(name)
        cfg["problem"]["A"] = {"kind": "identity", "scale": 1e304}
        assert main(["verify", "--config", write_cfg(tmp_path, cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "[FAIL]" not in captured.out
        assert "[PASS] operator symmetry" in captured.out
        assert "[PASS] discrete integration by parts" in captured.out
        assert "[PASS] equivalence cross-check: worst margin " in captured.out
        assert "(observed order 2.0" in captured.out

    def test_violated_certificate_reported(self, tmp_path, capsys):
        cfg = load_benchmark("benchmark_2d.json")
        cfg["problem"]["grid"]["n"] = [24, 24]
        cfg["problem"]["H"] = {"kind": "mu_gradsq", "mu": 2.5}
        assert main(["verify", "--config", write_cfg(tmp_path, cfg)]) == 5
        text = capsys.readouterr().out
        assert "[FAIL] growth certificate" in text

    def test_model_checks_share_one_draw(self, monkeypatch, capsys):
        # the growth certificate and both K checks sample one set of
        # matrices A
        calls = []
        draw = validate.random_spd_matrices

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return draw(*args, **kwargs)

        monkeypatch.setattr(validate, "random_spd_matrices", counting)
        assert main(["verify", "--config", config_path("benchmark_2d.json")]) == 0
        capsys.readouterr()
        assert calls == [(10_000, 2)]

    def test_model_checks_fail_a_planted_mu_on_the_shared_draw(self, tmp_path,
                                                                capsys):
        # mu = 2 |xi|^2 exceeds gamma A xi.xi = 0.5 A xi.xi for every A near
        # alpha = 1, so each check on the shared samples must refute it
        cfg = load_benchmark("benchmark_2d.json")
        cfg["problem"]["H"] = {"kind": "mu_gradsq", "mu": 2.0}
        assert main(["verify", "--config", write_cfg(tmp_path, cfg)]) == 5
        out = capsys.readouterr().out
        for check in ("growth certificate of mu_gradsq",
                      "two-sided gradient-term bound",
                      "nonnegativity of gradient term"):
            line = next(line for line in out.splitlines() if check in line)
            assert line.startswith("[FAIL]") and "margin -" in line, line

    def test_k_checks_sample_a_above_alpha(self, tmp_path, capsys):
        # mu |xi|^2 meets the certificate only for A >= mu / min(gamma, c0):
        # mu = 0.18 is within alpha min(gamma, c0) = 0.2, so the data solves,
        # and the K checks must not draw A below alpha = 1 to refute it
        cfg = load_benchmark("benchmark_1d.json")
        cfg["problem"]["H"] = {"kind": "mu_gradsq", "mu": 0.18}
        path = write_cfg(tmp_path, cfg)
        assert experiment_from_file(path).data.model.analytic_certificate_ok(1.0)
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "[PASS] two-sided gradient-term bound" in out
        assert "[PASS] nonnegativity of gradient term" in out

    def test_verify_with_f_from_csv(self, tmp_path, capsys):
        # a CSV field has no coarse version, so the cross-check is skipped
        cfg = load_benchmark("benchmark_1d.json")
        grid = Grid((1.0,), tuple(cfg["problem"]["grid"]["n"]))
        f = field_from_expression(grid, cfg["problem"]["f"]["expr"])
        write_field_csv(grid, f.values, os.path.join(tmp_path, "f.csv"))
        cfg["problem"]["f"] = {"csv": "f.csv"}
        assert main(["verify", "--config", write_cfg(tmp_path, cfg)]) == 0
        text = capsys.readouterr().out
        assert "[PASS] equivalence cross-check" in text and "skipped" in text


class TestMuFromFile:
    def test_mu_field_via_csv(self, tmp_path, capsys):
        cfg = load_benchmark("benchmark_2d.json")
        cfg["problem"]["grid"]["n"] = [16, 16]
        cfg["solver"]["k_schedule"] = [2000.0]
        g = Grid((1.0, 1.0), (16, 16))
        x, y = g.coords()
        mu = 0.15 * np.sin(np.pi * x) * np.sin(np.pi * y)
        mu_path = os.path.join(tmp_path, "mu.csv")
        write_field_csv(g, mu, mu_path)
        cfg["problem"]["H"] = {"kind": "mu_gradsq", "mu": {"csv": "mu.csv"}}
        out = os.path.join(tmp_path, "out")
        assert main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", out]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ball_violation"] is False

    @pytest.mark.parametrize("source", ["expr", "csv"])
    def test_verify_samples_nodal_mu(self, tmp_path, capsys, source):
        # the sampled checks draw each sample's mu from the nodal values
        cfg = load_benchmark("benchmark_2d.json")
        cfg["problem"]["grid"]["n"] = [32, 32]
        g = Grid((1.0, 1.0), (32, 32))
        if source == "expr":
            mu = {"expr": {"kind": "constant", "value": 0.15}}
        else:
            bump = field_from_expression(g, {"kind": "sine_bump",
                                             "amplitude": 0.15})
            write_field_csv(g, bump.values, os.path.join(tmp_path, "mu.csv"))
            mu = {"csv": "mu.csv"}
        cfg["problem"]["H"] = {"kind": "mu_gradsq", "mu": mu}
        assert main(["verify", "--config", write_cfg(tmp_path, cfg)]) == 0
        out = capsys.readouterr().out
        assert "[PASS] growth certificate of mu_gradsq" in out
        assert "[PASS] nonnegativity of gradient term" in out
        assert "[FAIL]" not in out


class TestVerifyDeterminism:
    def test_byte_identical_reports_on_benchmark_2d(self, tmp_path, capsys):
        # the full config, whose model checks share one draw
        reports = []
        for tag in ("v1", "v2"):
            out = os.path.join(tmp_path, tag)
            assert main(["verify", "--config", config_path("benchmark_2d.json"),
                         "--out", out]) == 0
            with open(os.path.join(out, "verify_report.json"), "rb") as fh:
                reports.append(fh.read())
        capsys.readouterr()
        assert reports[0] == reports[1]

    def test_byte_identical_reports(self, tmp_path, capsys):
        cfg = load_benchmark("benchmark_1d.json")
        cfg["problem"]["grid"]["n"] = [32]
        path = write_cfg(tmp_path, cfg)
        outs = []
        for tag in ("v1", "v2"):
            out = os.path.join(tmp_path, tag)
            assert main(["verify", "--config", path, "--out", out]) == 0
            outs.append(out)
        capsys.readouterr()
        b = [Path(o, "verify_report.json").read_bytes() for o in outs]
        assert b[0] == b[1]


class TestLowDimensionMode:
    def test_explicit_exponent_pair(self, tmp_path, capsys):
        # the dimension-parametric engine with a user-supplied exponent pair
        cfg = load_benchmark("benchmark_1d.json")
        cfg["problem"]["N"] = 2
        cfg["problem"]["exponent_pair"] = {"sobolev": 6.0, "f_norm": 1.5}
        assert main(["constants", "--config", write_cfg(tmp_path, cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exponents"]["sobolev"] == 6.0
        assert 0.0 < payload["report"]["theta"] < 1.0

    def test_missing_pair_rejected(self, tmp_path, capsys):
        cfg = load_benchmark("benchmark_1d.json")
        cfg["problem"]["N"] = 2
        assert main(["constants", "--config", write_cfg(tmp_path, cfg)]) == 2
        assert "exponent_pair" in capsys.readouterr().err

    def test_explicit_pair_judged_by_theta_alone(self, tmp_path, capsys):
        # q = 1.4 lies below N/2 = 1.5, but inside the window (4/3, 8/5) of
        # the given p = 8
        cfg = load_benchmark("benchmark_1d.json")
        cfg["problem"]["q"] = 1.4
        cfg["problem"]["exponent_pair"] = {"sobolev": 8.0, "f_norm": 1.5}
        assert main(["constants", "--config", write_cfg(tmp_path, cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["theta"] == 8.0 * (1.4 - 1.0) / 1.4 - 2.0

    def test_q_outside_default_window_names_it(self, tmp_path, capsys):
        # N = 3 without a pair: p = 6, whose window is (6/4, 6/3)
        cfg = load_benchmark("benchmark_1d.json")
        cfg["problem"]["q"] = 1.5
        assert main(["constants", "--config", write_cfg(tmp_path, cfg)]) == 2
        assert "q in (1.5, 2) when p = 6; got q = 1.5" in capsys.readouterr().err


class TestDeclaredNorms:
    def test_consistent_declaration_passes(self, tmp_path, capsys):
        cfg = load_benchmark("benchmark_1d.json")
        cfg["constants"]["declared_norms"] = {"f_Hm1": 0.22508464130490846}
        assert main(["check", "--config", write_cfg(tmp_path, cfg)]) == 0
        capsys.readouterr()

    def test_inconsistent_declaration_rejected(self, tmp_path, capsys):
        cfg = load_benchmark("benchmark_1d.json")
        cfg["constants"]["declared_norms"] = {"f_Hm1": 0.3}
        assert main(["check", "--config", write_cfg(tmp_path, cfg)]) == 2
        assert "deviates" in capsys.readouterr().err


def test_cli_import_leaves_scipy_out():
    # numpy is the only declared dependency, although scipy may be installed
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.abspath(src), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, quadgrad.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
