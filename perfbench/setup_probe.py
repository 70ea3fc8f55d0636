"""Set-up probe: import raysep, turn a workload config into a plan, exit.

``run.py`` times it from process spawn to the ``ready`` line, which is the
set-up a ``raysep bench`` user pays before the first cell: interpreter
start, imports, config and ``ExperimentPlan``.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED SIZE
"""

import sys

import envinfo


def main(argv) -> int:
    workload, seed, size = argv[0], int(argv[1]), argv[2]
    envinfo.pin_blas_threads()
    envinfo.import_checkout_raysep()
    from workloads import plan_from_config, workload_config

    plan_from_config(workload_config(workload, seed, size)[0])
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
