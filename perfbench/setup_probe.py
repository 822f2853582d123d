"""Set-up of one workload in a fresh interpreter, with no constant computed.

Imports the CLI module (which imports the whole package), then parses the
workload's specs and builds its spaces, as each invocation does before its
first computation.  run.py times this process from spawn to exit.

    python3 perfbench/setup_probe.py WORKLOAD
"""
import sys

import normgeo.cli  # noqa: F401  (the import every invocation pays)

from workloads import WORKLOADS, modules

if __name__ == "__main__":
    ng = modules()
    for op in WORKLOADS[sys.argv[1]]:
        op.setup(ng)
