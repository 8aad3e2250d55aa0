"""One workload run in a fresh interpreter.

A closed loop of CLI invocations, each calling singular_forge.cli.main(argv)
in-process and starting when the previous one returned, until the run's
seconds are spent.  Every invocation's outputs are checked after its timed
region.  With tracing, untraced and traced invocations alternate (untraced
first), the traced ones record spans, and the first traced invocation's
output files must equal the first untraced one's byte for byte.

Usage: worker.py '<json spec>'; prints one JSON object as its last line.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

import calibration
import tracing
import workloads


def _digests(out_dir):
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _invoke(main, argv, tracer, invocation):
    """Exit code of one invocation and its wall seconds."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = main(argv)
            else:
                rc = tracer.invoke(invocation, main, argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash fails the invocation's solutions
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return rc, elapsed


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    import singular_forge
    from singular_forge import cli

    if not os.path.abspath(singular_forge.__file__).startswith(src + os.sep):
        sys.exit(f"singular_forge imported from {singular_forge.__file__}, "
                 f"not from {src}")

    wl = workloads.make(spec["workload"], spec["seed"])
    out = os.path.join(spec["run_dir"], "out")
    tracer = tracing.Tracer() if spec["trace"] else None
    records = []
    digests = {}
    calibration.kernel_seconds()  # first-call costs stay out of the runs
    deadline = time.perf_counter() + spec["seconds"]
    i = 0
    while i < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        cal_before = calibration.kernel_seconds()
        if traced:
            tracer.install()
        try:
            rc, elapsed = _invoke(cli.main, wl.argv(out),
                                  tracer if traced else None, i)
        finally:
            if traced:
                tracer.uninstall()
        cal_after = calibration.kernel_seconds()
        if os.path.isdir(out) and traced not in digests:
            digests[traced] = _digests(out)
        failures = wl.check(rc, out)
        oracle = None if any(failures) else wl.oracle_input(out)
        records.append({
            "wall_s": elapsed,
            "op_s": calibration.rescale(elapsed, cal_before, cal_after),
            "calibration_s": [cal_before, cal_after],
            "traced": traced, "failures": failures, "oracle": oracle,
        })
        shutil.rmtree(out, ignore_errors=True)
        i += 1

    result = {
        "records": records,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        with open(spec["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(tracer.span_dump(), fh)
        result["layers"] = tracer.layer_metrics()
        result["missing_spans"] = tracer.missing
        result["outputs_identical"] = (
            len(digests) == 2 and digests[False] == digests[True])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
