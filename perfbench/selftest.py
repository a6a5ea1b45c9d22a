"""Self-test of the traced run.  From the repository root:

    python3 perfbench/selftest.py [workload ...]

For each workload (default: all) at the default seed, runs the operation
untraced and then traced, and fails unless the outputs pass the workload's
checks, the traced Picard and Newton totals equal the sums over the
``IterationTrace.records`` that ``k_continuation`` returned, and the traced
outputs (``solution_w.csv``; ``verify_report.json`` for verify) are
bit-identical to the untraced ones.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

ROOT = os.getcwd()
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

from worker import Runner, run_traced  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, write_config  # noqa: E402


def selftest(workload):
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(
            dir=os.path.join(ROOT, ".perfbench_work"), prefix="selftest-") \
            as work_dir:
        config = os.path.join(work_dir, "config.json")
        write_config(os.path.join(ROOT, WORKLOADS[workload]["config"]),
                     DEFAULT_SEED, config)
        runner = Runner(argparse.Namespace(workload=workload, config=config,
                                           seed=DEFAULT_SEED, work_dir=work_dir))
        layers = run_traced(runner, seconds=0)
    assert runner.failed == 0 and not runner.problems, runner.problems
    print(f"{workload}: ok, Picard/Newton {layers['solver.picard_iters']}/"
          f"{layers['solver.newton_steps']} match the trace records; traced "
          f"output bit-identical")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="workload",
                        help=f"one of {', '.join(sorted(WORKLOADS))}")
    names = parser.parse_args(argv).workloads or sorted(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}")
    for workload in names:
        selftest(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
