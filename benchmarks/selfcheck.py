"""Self-checks of the benchmark, printing every end-to-end metric on the way.

    python3 benchmarks/selfcheck.py [--seed 1] [--seconds 2]

1. Runs each workload untraced and prints its end-to-end metrics by name
   and unit, with the correctness verdict.
2. Runs each workload traced twice with the same seed.  The work counts
   must repeat exactly, no quadrature may run on paper_table or
   sweep_pairs, and each workload's dominant layer must take the share of
   a traced invocation stated in DOMINANT.
3. Negative control: the README's headline `construct` records a fit error
   in summary.json while exiting 0; the solution check must fail it.

Exits 1 when any check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import run
import workloads

REPEATED_COUNTS = (
    "nonlinearity.quad.calls",
    "nonlinearity.F.calls",
    "solver.picard_solve.iterations",
    "solver.select_rho0.probes",
    "kernels.convolve_cumulative.calls",
)
NO_QUADRATURE = ("paper_table", "sweep_pairs")
# workload -> (per-layer time, least share of trace.op_s_p50)
DOMINANT = {
    "quad_verify": ("nonlinearity.F_inv.s", 0.5),
    "sweep_pairs": ("kernels.convolve_cumulative.s", 0.5),
    "paper_table": ("cli.write_profile_csv.s", 0.3),
}
README_CONSTRUCT = ["construct", "--N", "5", "--family", "power_sum",
                    "--p", "2", "--r", "1", "--alpha", "1e-3", "--beta",
                    "1e-3", "--M", "4096"]


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} --trace {trace} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def negative_control():
    """Problems the solution check finds in the README construct's output."""
    out = os.path.join(run.ROOT, ".bench_run", "negative-control")
    try:
        subprocess.run(
            [sys.executable, "-m", "singular_forge.cli"] + README_CONSTRUCT
            + ["--out", out],
            env=run.pinned_env(), cwd=run.ROOT, capture_output=True,
            check=True, timeout=600,
        )
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            return workloads.check_construct_summary(json.load(fh))
    finally:
        shutil.rmtree(out, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    problems = []

    print(f"{'workload':<12} {'metric':<16} {'value':>14}  unit")
    for wl in workloads.WORKLOADS:
        res = bench(wl, args.seed, args.seconds, 0)
        for name, m in res["metrics"].items():
            print(f"{wl:<12} {name:<16} {m['value']:>14.6g}  {m['unit']}")
        print(f"{wl:<12} correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}")
        if not res["correct"]:
            problems.append(f"{wl}: outputs failed the correctness check")

    for wl in workloads.WORKLOADS:
        first, second = (bench(wl, args.seed, args.seconds, 1)["metrics"]
                         for _ in range(2))
        for key in REPEATED_COUNTS:
            a, b = first[key]["value"], second[key]["value"]
            if a != b:
                problems.append(f"{wl}: {key} {a} then {b}")
        quad = first["nonlinearity.quad.calls"]["value"]
        if wl in NO_QUADRATURE and quad != 0:
            problems.append(f"{wl}: {quad} quad calls, expected none")
        layer, least = DOMINANT[wl]
        share = first[layer]["value"] / first["trace.op_s_p50"]["value"]
        print(f"{wl:<12} {layer} is {share:.0%} of a traced invocation")
        if share < least:
            problems.append(f"{wl}: {layer} only {share:.0%}, "
                            f"expected at least {least:.0%}")

    found = negative_control()
    print(f"negative control (README construct): {found}")
    if not any(p.startswith("fit error") for p in found):
        problems.append("negative control: fit error not detected")

    for p in problems:
        print(f"FAILED {p}")
    print("selfcheck: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
