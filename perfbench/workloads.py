"""Workload definitions and their seeded config files.

solve_2d  -- the 64x64 diagonal-A solve: about 95% of its time is CG on the
             5-point stencil, so inner-solve, preconditioner and stencil
             changes show here.
solve_1d  -- the same four loops on 128 nodes: per-call overhead and the
             Picard/Newton counts dominate, stencil bandwidth barely matters.
verify_2d -- the runtime checks on the 2D config: cold single-level solves,
             Poisson CG in the dual-norm and Sobolev checks, sampled checks.
"""

from __future__ import annotations

import json
import random
import shutil

DEFAULT_SEED = 0
# other seeds scale the f and a0 amplitudes by a factor in 1 +- AMPLITUDE_SPREAD
AMPLITUDE_SPREAD = 0.10

WORKLOADS = {
    "solve_2d": {"command": "solve", "config": "configs/benchmark_2d.json",
                 "reference": "reference/solution_w_2d.csv"},
    "solve_1d": {"command": "solve", "config": "configs/benchmark_1d.json",
                 "reference": "reference/solution_w_1d.csv"},
    "verify_2d": {"command": "verify", "config": "configs/benchmark_2d.json",
                  "reference": None},
}


def write_config(source, seed, dest):
    """Copies the committed config, with f and a0 scaled for non-default seeds.

    The default seed copies the file byte for byte.  Returns the scale.
    """
    if seed == DEFAULT_SEED:
        shutil.copyfile(source, dest)
        return 1.0
    scale = random.Random(seed).uniform(1.0 - AMPLITUDE_SPREAD,
                                        1.0 + AMPLITUDE_SPREAD)
    with open(source) as fh:
        cfg = json.load(fh)
    for name in ("f", "a0"):
        expr = cfg["problem"][name]["expr"]
        key = "amplitude" if expr["kind"] == "sine_bump" else "value"
        expr[key] *= scale
    with open(dest, "w") as fh:
        json.dump(cfg, fh, indent=2)
    return scale
