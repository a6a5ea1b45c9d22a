"""The benchmark tracer still attaches to the functions it hooks.

``perfbench/tracer.py`` wraps quadgrad functions by name; a rename or a
deletion there would silently zero a per-layer counter.  One small traced
``solve --out`` checks that the solver, CG and stencil layers, and the
setup and output functions the per-layer seconds name, are all seen, and
the harness's own self-test runs on every workload.
"""

import importlib.util
import json
import os
import subprocess
import sys

from conftest import load_benchmark
from quadgrad.cli import main

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                           "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer_of_a_solve(tmp_path, capsys):
    cfg = load_benchmark("benchmark_1d.json")
    cfg["problem"]["grid"]["n"] = [16]
    path = os.path.join(tmp_path, "cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    tracer = load_tracer()
    with tracer.Tracer() as tr:
        assert main(["solve", "--config", path,
                     "--out", os.path.join(tmp_path, "out")]) == 0
    capsys.readouterr()
    counts, seconds = tr.metrics()
    picard, newton = tr.record_totals()
    assert picard > 0 and newton > 0
    assert (counts["solver.picard_iters"], counts["solver.newton_steps"]) \
        == (picard, newton)
    for label in ("solver.inner_solve", "grid.DiffusionOperator.apply"):
        assert tr.calls(label) > 0, label
    # one CG per Newton step; an inlined or renamed cg_solve reads 0 here
    assert tr.calls("grid.cg_solve") == newton
    # the setup and output seconds hook these functions by name
    for label, metric in (("grid.hminus1_norm", "config.hm1_s"),
                          ("grid.estimate_sobolev_constant", "config.sobolev_s"),
                          ("grid.write_field_csv", "cli.output_s")):
        assert tr.calls(label) > 0 and seconds[metric] > 0, label


def test_perfbench_selftest_runs():
    # the harness drives quadgrad through its public names; a change that
    # breaks it fails here rather than in every benchmark operation, and
    # both the 1D and the 2D inverse run through it
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py"),
         "solve_1d", "solve_2d", "verify_2d"],
        cwd=os.path.join(os.path.dirname(__file__), os.pardir),
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.count(": ok,") == 3
