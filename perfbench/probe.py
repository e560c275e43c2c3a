"""Set-up probe: time a fresh interpreter's import of chaocav and its inputs.

Run as ``python3 perfbench/probe.py WORKLOAD SEED`` from the repository
root. Prints the seconds from the first line of this file to the moment the
workload's argument lists are parsed and its coherent weights are built,
which is the work every invocation of the command line pays before its
first result.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main(name, seed):
    sys.path.insert(0, str(Path.cwd() / "src"))
    from chaocav import cli, coherent_weights

    workload = workloads.WORKLOADS[name]
    parser = cli.build_parser()
    for step in workload.steps:
        parser.parse_args(workloads.step_argv(workload, step, ".bench_out", seed))
        coherent_weights(step.alpha_field)
    return time.perf_counter() - T0


if __name__ == "__main__":
    print(repr(main(sys.argv[1], int(sys.argv[2]))))
