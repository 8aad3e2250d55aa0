"""Time one CLI start-up in a fresh interpreter: import singular_forge.cli,
build the parser, parse the workload's argv and classify the workload's
nonlinearities.  Prints the seconds taken and, timed after them, the
calibration kernel's seconds.

Usage: setup_probe.py '<json spec>'
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main():
    spec = json.loads(sys.argv[1])
    from singular_forge import cli
    from singular_forge.classification import classify
    from singular_forge.nonlinearity import from_spec

    cli.build_parser().parse_args(spec["argv"])
    for nl in spec["nonlinearities"]:
        if not classify(from_spec(nl), spec["N"]).in_scope:
            sys.exit(f"{nl} is out of scope")
    elapsed = time.perf_counter() - START
    import calibration

    calibration.kernel_seconds()  # first-call costs
    print(json.dumps([elapsed, calibration.kernel_seconds()]))


if __name__ == "__main__":
    main()
