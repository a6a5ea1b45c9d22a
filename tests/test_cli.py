import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import config_path, load_benchmark
from quadgrad.cli import main
from quadgrad.grid import read_field_csv
from quadgrad.nonlinearity import transform_inverse


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
                                         "verify"])
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
    ], ids=["k_schedule", "delta", "rho", "seed"])
    def test_verify_rejects_malformed_entry(self, tmp_path, capsys, path,
                                            value):
        # malformed input is a config error, not a failed invariant
        cfg = write_cfg(tmp_path, mutated_benchmark(path, value))
        assert main(["verify", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("config error:") and "[FAIL]" not in out

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

    def test_solve_nonconvergence(self, tmp_path):
        out = os.path.join(tmp_path, "out")
        assert main(["solve", "--config",
                     config_path("fail_nonconvergence.json"),
                     "--out", out]) == 4
        with open(os.path.join(out, "trace.jsonl")) as fh:
            rows = [json.loads(line) for line in fh]
        assert len(rows) == 6  # complete trace of the exhausted budget
        assert all(row["increment"] > 1e-12 for row in rows)


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
        b1 = open(os.path.join(out1, "constants_report.json"), "rb").read()
        b2 = open(os.path.join(out2, "constants_report.json"), "rb").read()
        assert b1 == b2


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
        with open(os.path.join(out, "tail_energy.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert header[0] == "n"

    def test_solve_determinism(self, small_1d, tmp_path, capsys):
        outs = []
        for tag in ("a", "b"):
            out = os.path.join(tmp_path, tag)
            assert main(["solve", "--config", small_1d, "--out", out]) == 0
            outs.append(out)
        capsys.readouterr()
        for name in ("solution_w.csv", "residuals.json", "trace.jsonl"):
            assert open(os.path.join(outs[0], name), "rb").read() == \
                open(os.path.join(outs[1], name), "rb").read()


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
                     "--seed", "2086932655"]) == 0
        assert "[PASS] operator symmetry" in capsys.readouterr().out

    def test_corrupted_matrix_reported(self, tmp_path, capsys):
        cfg = load_benchmark("benchmark_2d.json")
        cfg["problem"]["A"] = {"kind": "constant",
                               "matrix": [[1.0, 0.1], [0.0, 1.0]]}
        assert main(["verify", "--config", write_cfg(tmp_path, cfg)]) == 5
        assert "not exactly symmetric" in capsys.readouterr().out

    def test_violated_certificate_reported(self, tmp_path, capsys):
        cfg = load_benchmark("benchmark_2d.json")
        cfg["problem"]["grid"]["n"] = [24, 24]
        cfg["problem"]["H"] = {"kind": "mu_gradsq", "mu": 2.5}
        assert main(["verify", "--config", write_cfg(tmp_path, cfg)]) == 5
        text = capsys.readouterr().out
        assert "[FAIL] growth certificate" in text


class TestMuFromFile:
    def test_mu_field_via_csv(self, tmp_path, capsys):
        from quadgrad.grid import Grid, ScalarField, write_field_csv
        cfg = load_benchmark("benchmark_2d.json")
        cfg["problem"]["grid"]["n"] = [16, 16]
        cfg["solver"]["k_schedule"] = [2000.0]
        g = Grid((1.0, 1.0), (16, 16))
        x, y = g.coords()
        mu = ScalarField(g, 0.15 * np.sin(np.pi * x) * np.sin(np.pi * y))
        mu_path = os.path.join(tmp_path, "mu.csv")
        write_field_csv(mu, mu_path)
        cfg["problem"]["H"] = {"kind": "mu_gradsq", "mu": {"csv": "mu.csv"}}
        out = os.path.join(tmp_path, "out")
        assert main(["solve", "--config", write_cfg(tmp_path, cfg),
                     "--out", out]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ball_violation"] is False


class TestVerifyDeterminism:
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
        b = [open(os.path.join(o, "verify_report.json"), "rb").read()
             for o in outs]
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
