"""nlqm benchmark: time to a checked result for three seeded workloads.

    python3 bench/run.py --workload atom-fock --seed 0 --seconds 40 --trace 0

Run it in a source checkout: the package is imported from ``src/`` next to
this directory (nothing needs installing).  ``--trace 0`` measures the end-to-end
metrics in fresh child processes, timed against a calibration loop that
shares their CPU (``calibrate.py``); ``--trace 1`` runs the same config in
process with every nlqm module boundary traced and reports per-layer metrics
plus the kernel sheet.  Both modes check every output.  The last line of
standard output is the JSON result; the lines before it are for people.
Scratch files go to ``.bench_work/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import lzma
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference")

# Children and the in-process runs alike get one BLAS thread: at d <= 10 the
# cost is Python overhead, and threads would only add contention noise.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
            "BLIS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
            "NUMEXPR_NUM_THREADS": "1"}
CHILD_TIMEOUT = 120.0
SETUP_SAMPLES = 15               # at least this many set-up samples
SETUP_PER_SAMPLE = 4             # taken after each run sample
COMPARE_TOL = "1e-9"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, unknown workload, ...)."""


# ---------------------------------------------------------------------------
# Environment, config and reference


def prepare(workload: str, seed: int, trace: int):
    if not os.path.isfile(os.path.join(SRC, "nlqm", "__init__.py")):
        raise BenchError(f"no nlqm source tree at {SRC}; run from a repository checkout")
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, SRC)
    import nlqm

    where = os.path.dirname(os.path.abspath(nlqm.__file__))
    if where != os.path.join(SRC, "nlqm"):
        raise BenchError(f"nlqm imported from {where}, not from {SRC}")
    import workloads

    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r} "
                         f"(known: {', '.join(workloads.WORKLOADS)})")
    work = os.path.join(WORK, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "reference"))
    cfg = workloads.make_config(workload, seed)
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    bundled = workloads.bundled_names(workload)
    for name in bundled:
        with lzma.open(os.path.join(REFERENCE, name + ".csv.xz")) as src, \
                open(os.path.join(work, "reference", name + ".csv"), "wb") as dst:
            shutil.copyfileobj(src, dst)
    names = [sc["name"] for sc in cfg["scenarios"]]
    return work, cfg_path, names, set(bundled)


def environment(seed: int) -> dict:
    import numpy as np

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas_env": BLAS_ENV, "seed": seed}


# ---------------------------------------------------------------------------
# Correctness gate


def _compare(a: str, b: str) -> bool:
    from nlqm import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(["compare", a, b, "--tol", COMPARE_TOL]) == 0


def check_outputs(out: str, names, bundled, work: str, rc: int) -> list:
    """Names of failed scenarios.

    A scenario fails when its report is missing, unreadable or not passed, or
    when its CSV is a bundled one that differs from the reference.  A nonzero
    exit code with no such scenario fails them all.
    """
    failed = []
    for name in names:
        try:
            with open(os.path.join(out, name + ".report.json")) as fh:
                ok = json.load(fh).get("passed") is True
        except (OSError, ValueError):
            ok = False
        if ok and name in bundled:
            ok = _compare(os.path.join(out, name + ".csv"),
                          os.path.join(work, "reference", name + ".csv"))
        if not ok:
            failed.append(name)
    return failed if rc == 0 or failed else list(names)


# ---------------------------------------------------------------------------
# End-to-end mode: fresh child processes, tracing off


def run_child(args, log: str):
    """Run ``python -m nlqm ARGS``.

    Returns (wall seconds, exit code, peak RSS MB, CPU seconds).
    """
    env = {k: v for k, v in os.environ.items() if k != "NLQM_OUT"}
    env.update(BLAS_ENV, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    with open(log, "w") as err:                      # the child's stdout and stderr
        t = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "nlqm", *args], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=err, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def end_to_end(cfg_path, names, bundled, work, seconds):
    import calibrate

    start = perf_counter()
    log = os.path.join(work, "child.log")
    failed = attempted = 0
    raw = {"wall_s": [], "cpu_s": [], "rate": [], "setup_wall_s": [], "setup_rate": []}
    runs, setup, rss, last = [], [], [], 0.0

    with calibrate.Calibrator() as cal:
        def setup_sample():
            nonlocal attempted, failed
            (wall, rc, _, cpu), rate = cal.measure(
                lambda: run_child(["list-experiments"], log))
            setup.append(calibrate.normalise(cpu, rate))
            raw["setup_wall_s"].append(wall)
            raw["setup_rate"].append(rate)
            attempted += 1
            failed += rc != 0

        run_child(["list-experiments"], log)         # fills __pycache__, warms the disk cache
        while not runs or perf_counter() - start + last < seconds:
            t_iter = perf_counter()
            out = os.path.join(work, f"out{len(runs)}")
            (wall, rc, peak, cpu), rate = cal.measure(
                lambda: run_child(["run", cfg_path, "--out", out], log))
            runs.append(calibrate.normalise(cpu, rate))
            raw["wall_s"].append(wall)
            raw["cpu_s"].append(cpu)
            raw["rate"].append(rate)
            rss.append(peak)
            bad = check_outputs(out, names, bundled, work, rc)
            attempted += len(names)
            failed += len(bad)
            if bad:
                report_failure(len(runs), rc, bad, log)
            shutil.rmtree(out, ignore_errors=True)
            # Set-up samples are spread over the run, like the run samples.
            for _ in range(SETUP_PER_SAMPLE):
                setup_sample()
            last = perf_counter() - t_iter
        while len(setup) < SETUP_SAMPLES:
            setup_sample()

    metrics = {
        "run_s": (statistics.median(runs), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "pass_ratio": (1.0 - failed / attempted, "ratio"),
    }
    detail = {
        "samples": len(runs), "setup_samples": len(setup),
        "scenarios_per_sample": len(names), "fail_ratio": failed / attempted,
        "reference_rate": calibrate.REFERENCE_RATE,
        "run_s": runs, "setup_s": setup, "peak_rss_mb": rss, **raw,
        "median_wall_s": statistics.median(raw["wall_s"]),
        "median_setup_wall_s": statistics.median(raw["setup_wall_s"]),
    }
    return metrics, attempted, failed, detail


def report_failure(sample, rc, bad, log: str) -> None:
    print(f"sample {sample}: exit code {rc}, failed: {', '.join(bad)}")
    with open(log) as fh:
        lines = [ln for ln in fh if "FAIL" in ln or "error" in ln.lower()]
    print("".join(lines[-20:]).rstrip())


# ---------------------------------------------------------------------------
# Trace mode: in-process runs, untraced and traced in pairs, then kernels


def _run_in_process(main, cfg_path: str, out: str) -> tuple:
    """(wall seconds, exit code) of ``nlqm run`` called in this process."""
    t = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["run", cfg_path, "--out", out])
    except Exception:
        # A traceback is a failed run, as a crashed child is in end-to-end mode.
        traceback.print_exc(file=sys.stdout)
        rc = 1
    return perf_counter() - t, rc


def _census_counts(out: str, names) -> tuple:
    """(seeds, converged) summed over the eigen-census reports of one run."""
    seeds = converged = 0
    for name in names:
        with open(os.path.join(out, name + ".report.json")) as fh:
            rep = json.load(fh)
        if rep.get("experiment") == "eigen-census" and "metrics" in rep:
            seeds += rep["metrics"]["seeds"]
            converged += rep["metrics"]["converged"]
    return seeds, converged


def traced(cfg_path, names, bundled, work, seconds, seed):
    import kernels
    import tracer
    from nlqm import cli

    start = perf_counter()
    reserve = 6.0                                    # the kernel sheet's usual cost
    failed = attempted = 0
    plain, layers, last = [], [], 0.0
    while not plain or perf_counter() - start + last + reserve < seconds:
        t_iter = perf_counter()
        out = os.path.join(work, f"plain{len(plain)}")
        wall, rc = _run_in_process(cli.main, cfg_path, out)
        bad = check_outputs(out, names, bundled, work, rc)
        shutil.rmtree(out, ignore_errors=True)

        tr = tracer.Tracer()
        main = tr.install()
        out = os.path.join(work, f"traced{len(plain)}")
        try:
            twall, trc = _run_in_process(main, cfg_path, out)
        finally:
            tr.uninstall()
        if tr.missing and not plain:
            print("not traced (absent from nlqm): " + ", ".join(tr.missing))
        bad += check_outputs(out, names, bundled, work, trc)
        attempted += 2 * len(names)
        failed += len(bad)
        if bad:
            print(f"pair {len(plain) + 1}: failed: {', '.join(bad)}")
        layer = tr.layer_metrics()
        seeds, converged = _census_counts(out, names) if not bad else (0, 0)
        layer.update({"spectra.seeds": seeds, "spectra.converged": converged,
                      "spectra.converged_ratio": converged / seeds if seeds else 0.0,
                      "trace.wall_s": twall, "trace.overhead_s": twall - wall})
        tr.dump(os.path.join(work, "spans.jsonl"))
        shutil.rmtree(out, ignore_errors=True)
        plain.append(wall)
        layers.append(layer)
        last = perf_counter() - t_iter

    metrics = {k: statistics.median(run[k] for run in layers) for k in layers[0]}
    sheet = kernels.kernel_sheet(seed)
    metrics.update(sheet)
    detail = {"pairs": len(plain), "untraced_wall_s": plain,
              "traced_wall_s": [run["trace.wall_s"] for run in layers],
              "baseline": kernels.baseline_lines(sheet)}
    return metrics, attempted, failed, detail


# ---------------------------------------------------------------------------


def unit_of(name: str) -> str:
    if name.endswith((".us", ".us_per_step")):
        return "us"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("ratio", "per_step")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        work, cfg_path, names, bundled = prepare(args.workload, args.seed, args.trace)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {len(names)} scenarios "
          f"({len(bundled)} bundled), trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        values, attempted, failed, detail = traced(cfg_path, names, bundled, work,
                                                   args.seconds, args.seed)
        metrics = {k: (v, unit_of(k)) for k, v in values.items()}
        for line in detail["baseline"]:
            print(line)
    else:
        metrics, attempted, failed, detail = end_to_end(cfg_path, names, bundled, work,
                                                        args.seconds)
        print(f"fail_ratio {detail['fail_ratio']:.6g} ({failed} of {attempted} failed)")
        print(f"raw medians: wall {detail['median_wall_s']:.4f} s per run, "
              f"{detail['median_setup_wall_s']:.4f} s per set-up "
              f"(calibration thread beside the child), kernel rate "
              f"{statistics.median(detail['rate']):.0f}/s against "
              f"{detail['reference_rate']:.0f}/s reference")
    for k, (v, unit) in metrics.items():
        print(f"  {k:48s} {v:14.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}}
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"environment": env, "detail": detail, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
