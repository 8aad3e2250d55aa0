"""Benchmark entry point: one run of one workload.

    python3 benchmarks/run.py --workload paper_table --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 the run first times SETUP_REPEATS fresh-interpreter CLI
start-ups, then runs the workload's closed loop in one more fresh
interpreter and reports the end-to-end metrics.  With --trace 1 it reports
the per-layer metrics of the traced invocations instead.  Metric names and
units come from BENCHMARK.json.  Times are rescaled by calibration.py.
Failed solutions are listed on stderr; the last stdout line is the result
object, the line before it the run's metadata.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import calibration
import workloads

SETUP_REPEATS = 5
RUN_BUDGET_S = 170  # a run ends within 180 s, builds included
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def pinned_env():
    """One thread for BLAS/OpenMP, the default single sweep worker, and the
    checkout's src/ as the only import path for the program."""
    env = dict(os.environ)
    env.pop("SINGULAR_FORGE_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    """HEAD of the checkout from .git, or None when it is not a git repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata():
    meta = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
    }
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            meta[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            meta[pkg] = None
    return meta


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise subprocess.TimeoutExpired("run", RUN_BUDGET_S)
    return left


def _child(script, spec, deadline):
    """Run a benchmark script in a fresh interpreter; its last stdout line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, script), json.dumps(spec)],
        env=pinned_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=_remaining(deadline),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{script} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(wl, deadline):
    """Rescaled start-up seconds of SETUP_REPEATS fresh interpreters."""
    spec = {"argv": wl.argv("unused"), "nonlinearities": wl.nonlinearities,
            "N": wl.N}
    probes = [json.loads(_child("setup_probe.py", spec, deadline))
              for _ in range(SETUP_REPEATS)]
    return [calibration.rescale(s, cal, cal) for s, cal in probes]


def apply_oracle(records):
    """Fail each solution whose sampled rows miss the mpmath oracle."""
    for rec in records:
        if rec["oracle"] is not None:
            rec["failures"][0] = workloads.oracle_problem(rec["oracle"])


def end_to_end(records, setup_s, peak_rss_mb):
    ops = [r["op_s"] for r in records]
    passed = sum(f is None for r in records for f in r["failures"])
    return {
        "setup_s": statistics.median(setup_s),
        "op_s_p50": statistics.median(ops),
        "solutions_per_s": passed / sum(ops),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(records, layers):
    """Layer times are raw, like the traced invocation time they share;
    the overhead compares rescaled times."""
    def median_of(key, traced):
        return statistics.median(r[key] for r in records
                                 if r["traced"] == traced)

    layers = dict(layers)
    layers["trace.op_s_p50"] = median_of("wall_s", True)
    layers["trace.overhead_s"] = (median_of("op_s", True)
                                  - median_of("op_s", False))
    return layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "singular_forge",
                                       "cli.py")):
        sys.exit(f"no program to measure: {ROOT}/src/singular_forge missing")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = bench["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_BUDGET_S
    wl = workloads.make(args.workload, args.seed)
    run_root = os.path.join(ROOT, ".bench_run")
    os.makedirs(run_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=run_root)
    spans_path = os.path.join(run_root,
                              f"{wl.name}-seed{args.seed}-spans.json")
    try:
        setup_s = None if args.trace else measure_setup(wl, deadline)
        worker = json.loads(_child("worker.py", {
            "root": ROOT, "workload": wl.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "run_dir": run_dir, "spans_path": spans_path,
        }, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.exit(f"run failed: {exc}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    records = worker["records"]
    apply_oracle(records)
    attempted = sum(len(r["failures"]) for r in records)
    failures = [f for r in records for f in r["failures"] if f]
    for problem in failures:
        print(f"FAILED {wl.name}: {problem}", file=sys.stderr)
    correct = not failures
    if args.trace:
        values = per_layer(records, worker["layers"])
        if not worker["outputs_identical"]:
            print("FAILED traced outputs differ from untraced outputs",
                  file=sys.stderr)
            correct = False
        if worker["missing_spans"]:
            print(f"WARNING no function found to trace for "
                  f"{worker['missing_spans']}", file=sys.stderr)
    else:
        values = end_to_end(records, setup_s, worker["peak_rss_mb"])

    meta = run_metadata()
    meta.update(workload=wl.name, seed=args.seed, argv=wl.args,
                invocations=len(records),
                failed_ratio=len(failures) / attempted,
                calibration_reference_s=calibration.REFERENCE_S)
    for key in ("op_s", "wall_s", "calibration_s"):
        meta[key] = [r[key] for r in records]
    if setup_s is not None:
        meta["setup_s"] = setup_s
    if args.trace:
        meta.update(spans=spans_path, missing_spans=worker["missing_spans"])
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))


if __name__ == "__main__":
    main()
