"""One `normgeo` CLI invocation that counts its gauge calls.

    python3 perfbench/count_cli.py CLI-ARGS...

Every space the CLI builds is replaced (dataclasses.replace) by one whose
gauge and scalar_gauge fields count their calls and the points they are
given.  stdout is the CLI's own output; the counts go to stderr as the last
line, one JSON object.  run.py uses this for the untraced round of a traced
run, so the counts are exact for the same invocations the round times.
"""
import json
import sys
from dataclasses import replace

import numpy as np

import normgeo.cli as cli


def counting_space(space, counts: dict):
    gauge, scalar, dim = space.gauge, space.scalar_gauge, space.dim

    def counted_gauge(z):
        counts["gauge"] += 1
        counts["points"] += np.size(z) // dim
        return gauge(z)

    def counted_scalar(a, b):
        counts["scalar"] += 1
        return scalar(a, b)

    return replace(space, gauge=counted_gauge,
                   scalar_gauge=None if scalar is None else counted_scalar)


def main() -> int:
    counts = {"gauge": 0, "points": 0, "scalar": 0}
    build = cli.build_space
    cli.build_space = lambda spec: counting_space(build(spec), counts)
    code = cli.main(sys.argv[1:])
    print(json.dumps(counts), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
