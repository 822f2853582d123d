"""normgeo benchmark: workloads of CLI invocations, checked, with a trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  Every operation is one `normgeo` CLI
invocation in a fresh process, run one after another (a closed loop with
one client).  A round is the workload's invocations in an order drawn from
--seed.  With --trace 0 the run first times SETUP_REPEATS set-ups, then
makes whole rounds until --seconds have passed (at least one), checks
every output, and reports the end-to-end metrics as medians over rounds.
With --trace 1 it makes one round through count_cli.py, which counts the
gauge calls of each invocation, then the traced in-process replay of
tracing.py, and reports the per-layer metrics; the spans go to
perfbench/results/trace-<workload>-seed<N>.jsonl.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exits 2 without a result when the checkout has no package.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
MB = 1e6


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], env: dict) -> dict:
    """Run one process to its end; wall, CPU and peak RSS from wait4."""
    with tempfile.TemporaryFile(dir=RESULTS) as out, tempfile.TemporaryFile(dir=RESULTS) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=env,
                                stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss * 1024 / MB, "code": proc.returncode,
                "stdout": out.read().decode(), "stderr": err.read().decode()}


class Round:
    """One pass over a workload's invocations, with their checks."""

    def __init__(self, ops, env, launcher=("-m", "normgeo.cli")):
        self.results = []
        self.failed = 0
        self.problems: list[str] = []
        t0 = time.perf_counter()
        for op in ops:
            r = run_process(list(launcher) + op.argv(), env)
            self.results.append(r)
            if r["code"] != 0:
                self.failed += 1
                tail = r["stderr"].strip().splitlines()[-1:] or [""]
                print(f"FAILED ({r['code']}) {op.label}: {tail[0]}", file=sys.stderr)
                continue
            self.problems += op.check(r["stdout"])
        self.wall = time.perf_counter() - t0
        self.cpu = sum(r["cpu"] for r in self.results)
        self.rss_mb = max(r["rss_mb"] for r in self.results)


def compute_seconds(stdout: str):
    """The in-process compute time a JSON-printing invocation reports."""
    try:
        return float(json.loads(stdout)["timing"]["seconds"])
    except (ValueError, KeyError):
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "normgeo" / "cli.py").is_file():
        print(f"error: no normgeo package under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    env = child_env()
    ops = WORKLOADS[args.workload]
    rng = random.Random(args.seed)

    def shuffled():
        order = list(ops)
        rng.shuffle(order)
        return order

    if args.trace:
        sys.path.insert(0, str(ROOT / "src"))
        from tracing import traced_run
        order = shuffled()
        rounds = [Round(order, env, launcher=[str(HERE / "count_cli.py")])]
        cli_round = [(r["wall"], compute_seconds(r["stdout"])) for r in rounds[0].results]
        counts = {}
        for r in rounds[0].results:
            if r["code"] != 0:
                continue
            for key, n in json.loads(r["stderr"].strip().splitlines()[-1]).items():
                counts[key] = counts.get(key, 0) + n
        metrics = traced_run(order, args.seed, ROOT, cli_round, counts,
                             RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            r = run_process([str(HERE / "setup_probe.py"), args.workload], env)
            if r["code"] != 0:
                print(r["stderr"], file=sys.stderr)
                print("error: set-up failed", file=sys.stderr)
                return 1
            setups.append(r["wall"])
        rounds = []
        t0 = time.perf_counter()
        while not rounds or time.perf_counter() - t0 < args.seconds:
            rounds.append(Round(shuffled(), env))
        metrics = {
            "wall_s": {"value": statistics.median(r.wall for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.median(r.cpu for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r.rss_mb for r in rounds), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }

    attempted = sum(len(r.results) for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if attempted == failed:
        print("error: every operation failed", file=sys.stderr)
        return 1
    print(f"{args.workload}: {len(rounds)} round(s), {attempted} invocations, "
          f"{failed} failed, {len(problems)} check failures")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
