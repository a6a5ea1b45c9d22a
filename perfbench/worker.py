"""One benchmark run of one workload, in a fresh single-threaded process.

Started by ``run.py``; not meant to be called by hand.  Runs operations
through ``quadgrad.cli.main`` until the time budget is spent, checks every
output, and writes a JSON result file.  With ``--trace 1`` it alternates
untraced and traced operations and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np

import quadgrad
import quadgrad.cli as cli
from quadgrad import kernels

from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

CALIBRATION_REPS = 1500  # about 35 ms
SPREAD_SAMPLES = 15      # import and extra set-up samples per run
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import quadgrad.cli; "
                "print(time.perf_counter() - t0)")
REFERENCE_TOL = 1e-12


class Timed:
    """Times the calls of one function at one lookup site."""

    def __init__(self, owner, attr):
        self.samples = []
        self._owner, self._attr = owner, attr
        self._fn = getattr(owner, attr)

    def __enter__(self):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return self._fn(*args, **kwargs)
            finally:
                self.samples.append(perf_counter() - t0)

        setattr(self._owner, self._attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self._owner, self._attr, self._fn)


def read_field(path):
    with open(path) as fh:
        header = fh.readline().strip()
    return header, np.loadtxt(path, skiprows=1, ndmin=1)


def check_solve(rc, out_dir, reference):
    problems = []
    if rc != 0:
        return [f"solve exited with code {rc}"]
    with open(os.path.join(out_dir, "residuals.json")) as fh:
        summary = json.load(fh)
    for key in ("ball_violation", "slack_violation"):
        if summary[key] is not False:
            problems.append(f"{key} is {summary[key]!r}")
    header, w = read_field(os.path.join(out_dir, "solution_w.csv"))
    if not np.all(np.isfinite(w)):
        problems.append("solution_w.csv holds non-finite values")
    if reference is not None:
        ref_header, ref = read_field(reference)
        if header != ref_header or w.shape != ref.shape:
            problems.append(f"solution grid {header} differs from reference "
                            f"{ref_header}")
        else:
            dev = float(np.max(np.abs(w - ref)))
            if dev > REFERENCE_TOL:
                problems.append(f"max |w - w_ref| = {dev:.3e} > {REFERENCE_TOL:g}")
    return problems


def check_verify(rc, out_dir, stdout):
    problems = []
    if rc != 0:
        problems.append(f"verify exited with code {rc}")
    with open(os.path.join(out_dir, "verify_report.json")) as fh:
        checks = json.load(fh)["checks"]
    if not checks:
        problems.append("verify ran no checks")
    problems += [f"check failed: {c['name']}" for c in checks if not c["ok"]]
    lines = stdout.splitlines()
    if len(lines) != len(checks) or not all(ln.startswith("[PASS]") for ln in lines):
        problems.append("verify printed a line that is not PASS")
    return problems


class Runner:
    """One run's operation: CLI arguments, reference file, failure counts."""

    def __init__(self, args):
        self.spec = WORKLOADS[args.workload]
        self.config = args.config
        self.out_dir = os.path.join(args.work_dir, "out")
        # verify draws its samples from the config's own seed: the run's seed
        # varies the problem, not the sampling (see README.md, "Known defect")
        self.argv = [self.spec["command"], "--config", self.config,
                     "--out", self.out_dir]
        self.reference = None
        if args.seed == DEFAULT_SEED and self.spec["reference"]:
            self.reference = os.path.join(os.path.dirname(__file__),
                                          self.spec["reference"])
        self.setup_kwargs = {} if self.spec["command"] == "solve" \
            else {"for_solve": False}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, problems):
        """Counts one failed operation and keeps its first messages."""
        self.failed += 1
        self.problems += problems[:3]

    def op(self):
        """One CLI operation from config file to checked outputs.

        Returns (seconds, output bytes, problems); the output files stay in
        ``out_dir`` until the next operation.
        """
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += 1
        stdout = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(self.argv)
            if self.spec["command"] == "solve":
                problems = check_solve(rc, self.out_dir, self.reference)
            else:
                problems = check_verify(rc, self.out_dir, stdout.getvalue())
        except (Exception, SystemExit):  # a crash is a failed operation
            problems = [traceback.format_exc(limit=3)]
        seconds = perf_counter() - t0
        nbytes = sum(os.path.getsize(os.path.join(self.out_dir, name))
                     for name in (os.listdir(self.out_dir)
                                  if os.path.isdir(self.out_dir) else ()))
        if problems:
            self.fail(problems)
        return seconds, nbytes, problems

    def output_digest(self):
        """Bytes of the deterministic outputs, for bit-identity checks."""
        name = "solution_w.csv" if self.spec["command"] == "solve" \
            else "verify_report.json"
        with open(os.path.join(self.out_dir, name), "rb") as fh:
            return fh.read()


def import_probe():
    """Seconds to import quadgrad.cli in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=os.environ,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def calibrate():
    """Seconds for a fixed mix of small numpy operations and Python calls.

    It runs no quadgrad code, so it measures only how fast the host is at
    the moment: on a shared machine that speed drifts by 10-20% over tens of
    seconds, and the program's times drift with it.
    """
    v = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    w = np.linspace(0.0, 1.0, 128)
    total = 0.0
    t0 = perf_counter()
    for _ in range(CALIBRATION_REPS):
        ext = np.zeros((66, 66))
        ext[1:-1, 1:-1] = v
        d = np.diff(ext[:, 1:-1], axis=0)
        e = np.diff(np.concatenate(([0.0], w, [0.0])))
        total += float(np.vdot(d, d)) + float(np.vdot(e, e))
    return perf_counter() - t0


def run_plain(runner, seconds):
    """Operations until the time is spent.

    Import and extra set-up samples are taken between the operations at
    evenly spread times, so that they see the same mix of host load as the
    operations; a calibration sample is taken before each operation and each
    of those samples.
    """
    import_probe()  # warms the file cache
    imports, wall, cal = [], [], []
    start = perf_counter()
    deadline = start + seconds
    due = [start + seconds * k / SPREAD_SAMPLES for k in range(SPREAD_SAMPLES)]
    with Timed(cli, "experiment_from_file") as setup:
        while True:
            while due and perf_counter() >= due[0]:
                due.pop(0)
                cal.append(calibrate())
                imports.append(import_probe())
                cli.experiment_from_file(runner.config, **runner.setup_kwargs)
            cal.append(calibrate())
            wall.append(runner.op()[0])
            if perf_counter() + statistics.median(wall) > deadline:
                break
        for _ in due:
            cal.append(calibrate())
            imports.append(import_probe())
            cli.experiment_from_file(runner.config, **runner.setup_kwargs)
    return {"wall_s": wall, "setup_s": setup.samples, "import_s": imports,
            "calibration_s": cal}


def run_traced(runner, seconds):
    """Alternate untraced and traced operations; returns per-layer metrics."""
    plain, traced, counts, layer_s = [], [], None, {}
    deadline = perf_counter() + seconds
    while True:
        t_plain, _, bad_plain = runner.op()
        reference_output = None if bad_plain else runner.output_digest()
        with Tracer() as tracer:
            t_traced, nbytes, bad_traced = runner.op()
        if bad_plain or bad_traced:
            break
        plain.append(t_plain)
        traced.append(t_traced)
        op_counts, op_seconds = tracer.metrics()
        op_counts["cli.output_bytes"] = nbytes
        problems = trace_problems(tracer, op_counts, counts)
        if runner.output_digest() != reference_output:
            problems.append("traced output differs from untraced output")
        if problems:
            runner.fail(problems)
        counts = counts or op_counts
        for key, value in op_seconds.items():
            layer_s.setdefault(key, []).append(value)
        if perf_counter() + t_plain + t_traced > deadline:
            break
    metrics = dict(counts or {})
    metrics.update({k: statistics.median(v) for k, v in layer_s.items()})
    if plain:
        metrics["trace.overhead"] = statistics.median(traced) \
            / statistics.median(plain)
    return metrics


def trace_problems(tracer, counts, first_counts):
    problems = []
    picard, newton = tracer.record_totals()
    if (counts["solver.picard_iters"], counts["solver.newton_steps"]) \
            != (picard, newton):
        problems.append(
            f"traced Picard/Newton {counts['solver.picard_iters']}/"
            f"{counts['solver.newton_steps']} differ from the trace records "
            f"{picard}/{newton}")
    if first_counts is not None and counts != first_counts:
        problems.append("per-layer counts differ between traced operations")
    return problems


def machine():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "numba_used": kernels.USING_NUMBA,
        "quadgrad": quadgrad.__file__,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    runner = Runner(args)
    if args.trace:
        samples = {}
        layers = run_traced(runner, args.seconds)
    else:
        samples = run_plain(runner, args.seconds)
        layers = {}
    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "samples": samples,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "machine": machine(),
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
