"""The traced run: per-layer metrics from an in-process replay.

Layers are the package's modules.  For the duration of the replay the
public functions are wrapped where callers look them up (module
attributes), so each call into a layer records a span (name, start, end,
parent).  No program file changes; the wrappers are removed afterwards.

Two passes, kept apart so that neither distorts the other's numbers:

  replay   the workload's invocations through the public functions, with
           spans.  Every maximize_pair/minimize_pair call is preceded by
           the same call at refine_iters=0 (a "search.scan" probe span), so
           scan and polish time can be told apart.
  probes   one call, at a small config on lp:p=1.5,dim=2, of each traced
           function the replay never reached, so that every metric is
           measured on every workload.  Such values move no end-to-end
           metric of that workload.

The gauge call counts and the CLI timings come from the round that run.py
makes through count_cli.py before the replay, one process per invocation.
"""
from __future__ import annotations

import json
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from workloads import LP2, POLYGON0, oracle_combines

GAUGE_POINTS = 1_000_000
GAUGE_REPEATS = 5
PROBE_GRID = 90
PROBE_ORACLE_GRID = 360
MB = 1e6

# constants function -> metric stem
CONSTANTS = {
    "sp_constant": "sp", "james": "james", "schaffer": "schaffer",
    "cnj_prime": "cnj_prime", "sqrt2_pair_residual": "sqrt2_residual",
    "cnj": "cnj", "zbaganu": "zbaganu", "t_and_T": "t_and_T", "eps0": "eps0",
    "delta": "delta", "gamma": "gamma", "gamma_profile": "gamma_profile",
    "rho": "rho", "compute_all": "compute_all",
}
LAYERS = ("spaces", "search", "constants", "verify", "oracle")


def _count(result) -> int:
    """Work a traced call reports: evaluations of its estimates, checks of a
    verification report, 0 otherwise."""
    if hasattr(result, "evaluations"):
        return int(result.evaluations)
    if isinstance(result, (tuple, list)):
        return sum(_count(r) for r in result)
    if hasattr(result, "checks"):
        return len(result.checks)
    return 0


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, phase, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase = "replay"
        self.table_bytes = 0

    def call(self, name, fn, args, kwargs, count=_count):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), 0.0, parent, self.phase, 0]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        span[5] = count(result)
        return result

    def wrap(self, name, fn, count=_count):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return traced

    def wrap_extremum(self, fn, search):
        """maximize_pair/minimize_pair: a scan-only probe, then the call."""
        def traced(space, objective, cfg=None, *args, **kwargs):
            base = cfg or search.SearchConfig.for_dim(space.dim)
            self.call("search.scan", fn,
                      (space, objective, replace(base, refine_iters=0)) + args, kwargs)
            return self.call("search.extremize", fn, (space, objective, cfg) + args, kwargs)
        return traced

    def wrap_pair_table(self, fn):
        def sized(table):
            if table is not None:
                size = table.plus.nbytes + table.minus.nbytes
                self.table_bytes = max(self.table_bytes, size)
            return 0
        return self.wrap("search.pair_table", fn, sized)


def _oracle_pairs(result) -> int:
    n = next(iter(result.values())).grid_size if isinstance(result, dict) else result.grid_size
    # pair_norm_extrema scans j >= i only; infsup scans the full square.
    return n * (n + 1) // 2 if isinstance(result, dict) else n * n


def install(tracer: Tracer, ng) -> list:
    """Wrap the public functions; returns what uninstall() restores."""
    patches = []
    for fname in CONSTANTS:
        patches.append((ng.constants, fname,
                        tracer.wrap(f"constants.{CONSTANTS[fname]}",
                                    getattr(ng.constants, fname))))
    for mod in (ng.constants, ng.verify):
        patches.append((mod, "pair_table", tracer.wrap_pair_table(ng.search.pair_table)))
    for fname in ("maximize_pair", "minimize_pair"):
        patches.append((ng.constants, fname,
                        tracer.wrap_extremum(getattr(ng.search, fname), ng.search)))
    patches.append((ng.constants, "infsup_pair",
                    tracer.wrap("search.infsup", ng.search.infsup_pair)))
    for fname, name in (("parse_space_spec", "spaces.parse"),
                        ("build_space", "spaces.build"),
                        ("battery_specs", "spaces.battery_specs")):
        patches.append((ng.spaces, fname, tracer.wrap(name, getattr(ng.spaces, fname))))
    patches.append((ng.verify, "run_checks",
                    tracer.wrap("verify.run_checks", ng.verify.run_checks)))
    patches.append((ng.oracle, "oracle_pair_norm_extrema",
                    tracer.wrap("oracle.pair_norm_extrema",
                                ng.oracle.oracle_pair_norm_extrema, _oracle_pairs)))
    patches.append((ng.oracle, "oracle_infsup",
                    tracer.wrap("oracle.infsup", ng.oracle.oracle_infsup, _oracle_pairs)))
    saved = [(mod, fname, getattr(mod, fname)) for mod, fname, _ in patches]
    for mod, fname, fn in patches:
        setattr(mod, fname, fn)
    return saved


def uninstall(saved) -> None:
    for mod, fname, fn in saved:
        setattr(mod, fname, fn)


def _probe_calls(ng):
    """name -> thunk calling the (wrapped) function once at the probe config."""
    con, search = ng.constants, ng.search
    space = ng.spaces.build_space(ng.spaces.parse_space_spec(LP2))
    cfg = search.SearchConfig(grid_per_dim=PROBE_GRID, refine_iters=20, multistart=2)
    plain = {stem: (lambda f=fname: getattr(con, f)(space, cfg))
             for fname, stem in CONSTANTS.items()}
    calls = {f"constants.{stem}": thunk for stem, thunk in plain.items()}
    calls.update({
        "constants.delta": lambda: con.delta(space, 1.0, cfg),
        "constants.gamma": lambda: con.gamma(space, 1.0, cfg),
        "constants.rho": lambda: con.rho(space, 1.0, cfg),
        "constants.gamma_profile": lambda: con.gamma_profile(space, [0.5, 1.0], cfg),
        "search.pair_table": lambda: con.pair_table(space, cfg),
        "search.extremize": lambda: con.maximize_pair(
            space, search.PairNormObjective(con.pair_cosine), cfg),
        "search.infsup": lambda: con.infsup_pair(
            space, search.PairNormObjective(con.geom_mean), cfg),
        "verify.run_checks": lambda: ng.verify.run_checks(space, cfg),
        "oracle.pair_norm_extrema": lambda: ng.oracle.oracle_pair_norm_extrema(
            space, oracle_combines(con), grid_size=PROBE_ORACLE_GRID, eta=cfg.eta),
        "oracle.infsup": lambda: ng.oracle.oracle_infsup(
            space, con.geom_mean, grid_size=PROBE_ORACLE_GRID, eta=cfg.eta),
    })
    return calls


def span_cost(samples: int = 20_000) -> float:
    """Seconds of bookkeeping one span adds around a call that does nothing."""
    tracer = Tracer()
    noop = tracer.wrap("x.noop", lambda: None)
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    return (time.perf_counter() - t0) / samples


def gauge_throughput(ng, seed: int) -> dict:
    """Million points per second of the lp and polygon gauges on one seeded
    batch; median of GAUGE_REPEATS timings."""
    pts = np.random.default_rng(seed).standard_normal((GAUGE_POINTS, 2))
    out = {}
    for key, text in (("lp", LP2), ("poly", POLYGON0)):
        gauge = ng.spaces.build_space(ng.spaces.parse_space_spec(text)).gauge
        times = []
        for _ in range(GAUGE_REPEATS):
            t0 = time.perf_counter()
            gauge(pts)
            times.append(time.perf_counter() - t0)
        out[key] = GAUGE_POINTS / statistics.median(times) / 1e6
    return out


def _net_durations(spans) -> list[float]:
    """Span durations less the scan-only probes nested inside them."""
    net = [s[2] - s[1] for s in spans]
    for i, s in enumerate(spans):
        if s[0] == "search.scan":
            parent = s[3]
            while parent is not None:
                net[parent] -= net[i]
                parent = spans[parent][3]
    return net


def _self_times(spans, net, idxs) -> dict:
    """Self time per layer over the given spans: net duration minus the net
    durations of child spans.  Scan-only probes count for no layer."""
    child = {}
    for i in idxs:
        parent = spans[i][3]
        if parent is not None and spans[i][0] != "search.scan":
            child[parent] = child.get(parent, 0.0) + net[i]
    out = {}
    for i in idxs:
        if spans[i][0] == "search.scan":
            continue
        layer = spans[i][0].split(".")[0]
        out[layer] = out.get(layer, 0.0) + net[i] - child.get(i, 0.0)
    return out


def src_lines(root: Path) -> int:
    return sum(1 for path in sorted((root / "src" / "normgeo").rglob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def traced_run(ops, seed: int, root: Path, cli_round: list, counts: dict,
               trace_path: Path) -> dict:
    """All per-layer metrics of one workload.

    cli_round holds, per op in `ops` order, (CLI wall s, CLI-reported
    in-process compute s or None); counts holds the round's gauge calls.
    """
    from workloads import modules
    ng = modules()
    throughput = gauge_throughput(ng, seed)

    tracer = Tracer()
    saved = install(tracer, ng)
    op_bounds = []
    try:
        t_start = time.perf_counter()
        for op in ops:
            n0 = len(tracer.spans)
            t0 = time.perf_counter()
            op.replay(ng)
            op_bounds.append((n0, len(tracer.spans), time.perf_counter() - t0))
        replay_wall = time.perf_counter() - t_start
        n_replay = len(tracer.spans)
        reached = {s[0] for s in tracer.spans}
        tracer.phase = "probe"
        for name, thunk in _probe_calls(ng).items():
            if name not in reached:
                thunk()
    finally:
        uninstall(saved)

    spans = tracer.spans
    net = _net_durations(spans)
    replay_idx = range(n_replay)
    probe_idx = range(n_replay, len(spans))

    def scan_time(idxs):
        return sum(net[i] for i in idxs if spans[i][0] == "search.scan")

    def source(name):
        """Replay spans of `name`, else the top-level probe spans of it."""
        idxs = [i for i in replay_idx if spans[i][0] == name]
        return idxs or [i for i in probe_idx if spans[i][0] == name and spans[i][3] is None]

    def total(name):
        return sum(net[i] for i in source(name))

    def work(name):
        return sum(spans[i][5] for i in source(name))

    # In-process compute per op, without the scan-only probes; the CLI's own
    # timing of the same call where it prints one (sweep does not).
    op_walls = [wall - scan_time(range(a, b)) for a, b, wall in op_bounds]
    replay_net = replay_wall - scan_time(replay_idx)
    covered = sum(net[i] for i in replay_idx if spans[i][3] is None)
    spans_kept = sum(1 for i in replay_idx if spans[i][0] != "search.scan")
    overhead = 100.0 * spans_kept * span_cost() / replay_net
    inproc = [c if c is not None else w for (_, c), w in zip(cli_round, op_walls)]
    cli_overhead = sum(w for w, _ in cli_round) - sum(inproc)

    scan = total("search.scan")
    m = {
        "spaces.gauge_lp.mpts_per_s": (throughput["lp"], "Mpts/s"),
        "spaces.gauge_poly.mpts_per_s": (throughput["poly"], "Mpts/s"),
        "spaces.gauge.calls": (counts["gauge"], "count"),
        "spaces.gauge.points_per_call": (counts["points"] / max(1, counts["gauge"]), "count"),
        "spaces.scalar_gauge.calls": (counts["scalar"], "count"),
        "spaces.build_s": (total("spaces.build"), "s"),
        "search.pair_table_s": (total("search.pair_table"), "s"),
        "search.pair_table_mb": (tracer.table_bytes / MB, "MB_computed"),
        "search.scan_s": (scan, "s"),
        "search.polish_s": (total("search.extremize") - scan, "s"),
        "search.infsup_s": (total("search.infsup"), "s"),
    }
    for stem in CONSTANTS.values():
        m[f"constants.{stem}_s"] = (total(f"constants.{stem}"), "s")
        if stem != "compute_all":
            m[f"constants.{stem}.evals"] = (work(f"constants.{stem}"), "count")
    m["verify.run_checks_s"] = (total("verify.run_checks"), "s")
    m["verify.checks"] = (work("verify.run_checks"), "count")
    oracle_s = total("oracle.pair_norm_extrema") + total("oracle.infsup")
    oracle_pairs = work("oracle.pair_norm_extrema") + work("oracle.infsup")
    m["oracle.pair_norm_extrema_s"] = (total("oracle.pair_norm_extrema"), "s")
    m["oracle.infsup_s"] = (total("oracle.infsup"), "s")
    m["oracle.mpairs_per_s"] = (oracle_pairs / oracle_s / 1e6, "Mpairs/s")
    self_replay = _self_times(spans, net, replay_idx)
    self_probe = _self_times(spans, net, probe_idx)
    for layer in LAYERS:
        value = self_replay[layer] if layer in self_replay else self_probe[layer]
        m[f"{layer}.self_s"] = (value, "s")
    m["cli.overhead_s"] = (cli_overhead, "s")
    m["src.lines"] = (src_lines(root), "count")
    m["trace.spans"] = (spans_kept, "count")
    m["trace.replay_s"] = (replay_net, "s")
    m["trace.coverage_pct"] = (100.0 * covered / replay_net, "%")
    m["trace.overhead_pct"] = (overhead, "%")

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w") as fh:
        for i, (name, t0, t1, parent, phase, count) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": t0 - t_start,
                                 "end": t1 - t_start, "parent": parent,
                                 "phase": phase, "count": count}) + "\n")
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in m.items()}
