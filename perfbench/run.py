"""quadgrad benchmark: runs a workload through ``quadgrad.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload solve_2d --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py                 # every workload, untraced

Each run starts a fresh single-threaded child process (``worker.py``) that
repeats the workload's operation for ``--seconds``, checks every output and
samples the import and set-up times in between.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps the package's functions and reports its per-layer
metrics.  The last line of standard output is one JSON object.  Metric names
and units come from ``BENCHMARK.json``; ``README.md`` next to this file
defines them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from workloads import DEFAULT_SEED, WORKLOADS, write_config

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170.0
# median time of worker.calibrate() on the machine the baseline was taken on
# (2-core Xeon sandbox); a constant of the benchmark, never re-measured
CALIBRATION_REF_S = 0.035


def child_env(root):
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_worker(root, env, workload, seed, seconds, trace, work_dir, timeout):
    config = os.path.join(work_dir, "config.json")
    scale = write_config(os.path.join(root, WORKLOADS[workload]["config"]),
                         seed, config)
    result_path = os.path.join(work_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--config", config, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir, "--result", result_path]
    # own process group, so that a timeout also ends an import probe
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload}: worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with code "
                           f"{proc.returncode}\n{out}{err}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["scale"] = scale
    return result


def high_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:  # below that the percentile would not exceed the median
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def summarize(name, unit, values, factor):
    """Text line: corrected median, then the raw median and spread."""
    line = f"  {name:<28} {statistics.median(values) * factor:.6g} {unit}  " \
           f"(raw median {statistics.median(values):.6g} of n={len(values)}"
    high = high_percentile(values)
    if high is not None:
        line += f", raw p{high[0]} {high[1]:.6g}"
    return line + ")"


def measure(root, spec, workload, seed, seconds, trace):
    """Runs one workload; returns (result dict for the JSON line, text lines)."""
    start = perf_counter()
    env = child_env(root)
    os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-",
                                dir=os.path.join(root, ".perfbench_work"))
    try:
        result = run_worker(root, env, workload, seed, seconds, trace, work_dir,
                            RUN_LIMIT_S - (perf_counter() - start))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    samples = result["samples"]
    attempted, failed = result["attempted"], result["failed"]
    lines = [f"workload {workload}  seed {seed}  amplitude scale "
             f"{result['scale']:.6f}  trace {trace}",
             "  machine " + json.dumps(result["machine"], sort_keys=True)]
    lines += [f"  problem: {p.strip()}" for p in result["problems"]]
    factor = 1.0
    if not trace:
        calibration = statistics.median(samples["calibration_s"])
        factor = CALIBRATION_REF_S / calibration
        lines.append(f"  host speed {factor:.4f} x reference: calibration "
                     f"{calibration:.6g} s median of "
                     f"n={len(samples['calibration_s'])}, reference "
                     f"{CALIBRATION_REF_S} s; times below are corrected")
    metrics = {}
    kind = "per_layer" if trace else "end_to_end"
    for m in spec[kind]:
        name, unit = m["name"], m["unit"]
        if name == "peak_rss_mb":
            value = result["peak_rss_mb"]
            lines.append(f"  {name:<28} {value:.6g} {unit}  (n=1)")
        elif trace:
            if name not in result["layers"]:
                continue
            value = result["layers"][name]
            lines.append(f"  {name:<28} {value:.10g} {unit}")
        else:
            if not samples.get(name):
                continue
            value = statistics.median(samples[name]) * factor
            lines.append(summarize(name, unit, samples[name], factor))
        metrics[name] = {"value": value, "unit": unit}
    lines.append(f"  {'fail_frac':<28} {failed / max(attempted, 1):.6g} "
                 f"({failed} of {attempted} operations failed)")
    return {"correct": failed == 0 and not result["problems"],
            "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    needed = sorted({os.path.join("src", "quadgrad", "cli.py"), "BENCHMARK.json"}
                    | {w["config"] for w in WORKLOADS.values()})
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"perfbench: run from the repository root; missing {missing}",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name], lines = measure(root, spec, name, args.seed,
                                           seconds, args.trace)
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
