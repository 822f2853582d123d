"""Command-line front end: constants, sweeps, verification, witness plots.

Output contract: JSON (default for constants/verify) or CSV (sweep/witness,
opt-in for constants).  All numbers are printed with 12 significant digits,
lowercase scientific below 1e-4, identically in JSON and CSV.  Identical
invocations produce byte-identical output except for the isolated timing key.

Exit codes: 0 success / all checks pass; 1 failed checks or a failed constant
computation; 2 usage or parse errors.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import constants as con
from .parallel import map_in_order
from .search import ConstantEstimate, SearchConfig, sphere_grid
from .spaces import NormSpec, battery_specs, build_space, parse_space_spec
from .verify import VerificationReport, run_checks


def fmt(v: float) -> str:
    """12 significant digits; %g renders |v| < 1e-4 in lowercase scientific."""
    return f"{float(v):.12g}"


def _jnum(v: float):
    f = float(v)
    if not math.isfinite(f):
        return "inf" if f > 0 else ("-inf" if f < 0 else "nan")
    return float(fmt(f))


def _estimate_dict(est: ConstantEstimate) -> dict:
    witness = {k: ([_jnum(c) for c in v] if isinstance(v, list) else _jnum(v))
               for k, v in est.witness_dict().items()}
    return {
        "value": _jnum(est.value),
        "witness": witness,
        "converged": bool(est.converged),
        "evaluations": int(est.evaluations),
    }


def _numbers(obj, *names) -> dict:
    """asdict(obj) with the named fields as JSON numbers."""
    return {**asdict(obj), **{k: _jnum(getattr(obj, k)) for k in names}}


def _report_dict(report: VerificationReport) -> dict:
    return {
        "space": report.space.spec.to_dict() if report.space.spec else {"dim": report.space.dim},
        "config": _numbers(report.cfg, "eta"),
        "constants": {k: _estimate_dict(v) for k, v in report.constants.items()},
        "checks": [_numbers(c, "lhs", "rhs", "slack") for c in report.checks],
        "labels": list(report.labels),
    }


# --------------------------------------------------------------------------
# Argument plumbing
# --------------------------------------------------------------------------

# --flag: (SearchConfig field, type, help)
_CFG_FLAGS = {
    "grid": ("grid_per_dim", int, "grid points per parameter"),
    "refine": ("refine_iters", int, "zoom levels per start"),
    "multistart": ("multistart", int,
                   "best grid cells kept per extremum; one per mirror class is refined"),
    "eta": ("eta", float, "degeneracy exclusion radius"),
}


def _add_cfg_flags(p: argparse.ArgumentParser) -> None:
    for flag, (_, kind, text) in _CFG_FLAGS.items():
        p.add_argument(f"--{flag}", type=kind, help=text)


def _config_for(dim: int, args) -> SearchConfig:
    updates = {name: getattr(args, flag) for flag, (name, _, _) in _CFG_FLAGS.items()
               if getattr(args, flag) is not None}
    return replace(SearchConfig.for_dim(dim), **updates)


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except Exception as exc:
        raise ValueError(f"could not parse value list {text!r}: {exc}") from exc


def _parse_range(text: str) -> list[float]:
    """a:b:step, endpoints inclusive up to rounding."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected a range a:b:step, got {text!r}")
    a, b, step = (float(v) for v in parts)
    if not all(math.isfinite(v) for v in (a, b, step)):
        raise ValueError(f"range {text!r} needs finite a, b and step")
    if step <= 0.0 or b < a:
        raise ValueError(f"empty or inverted range {text!r}")
    steps = (b - a) / step
    if not math.isfinite(steps):
        raise ValueError(f"range {text!r} has too many steps: (b - a)/step overflows")
    n = int(math.floor(steps + 1e-9)) + 1
    return [a + i * step for i in range(n)]


def _parse_battery(text: str) -> tuple[int, int]:
    """(seed, count) of a --battery spec seed=N,count=K: integers N >= 0 and
    K >= 1."""
    parts = [part.partition("=") for part in text.split(",")]
    kv = {key: int(value) for key, _, value in parts if value.isdecimal()}
    if len(parts) != 2 or set(kv) != {"seed", "count"} or kv["count"] < 1:
        raise ValueError(f"battery spec must be seed=N,count=K with integers N >= 0 and K >= 1, "
                         f"got {text!r}")
    return kv["seed"], kv["count"]


# --------------------------------------------------------------------------
# constants
# --------------------------------------------------------------------------

def cmd_constants(args) -> int:
    space = build_space(parse_space_spec(args.space))
    cfg = _config_for(space.dim, args)
    gamma_ts = _parse_float_list(args.gamma_t) if args.gamma_t else []
    delta_eps = _parse_float_list(args.delta_eps) if args.delta_eps else []
    rho_ts = _parse_float_list(args.rho_t) if args.rho_t else []
    if args.oracle and space.dim != 2:
        raise ValueError("--oracle requires a 2D space")
    if args.oracle and args.format == "csv":
        raise ValueError("--oracle requires --format json; the CSV output has no oracle section")
    if args.oracle and args.oracle_grid < 3:
        raise ValueError(f"--oracle-grid must be at least 3, got {args.oracle_grid}")

    t0 = time.perf_counter()
    found = con.compute_all(space, cfg, gamma_ts=gamma_ts, delta_eps=delta_eps, rho_ts=rho_ts,
                            oracle_grid=args.oracle_grid if args.oracle else None)
    ests, oracle_vals = found if args.oracle else (found, None)
    oracle_section = None
    if args.oracle:
        oracle_section = {"grid_size": args.oracle_grid}
        for name, ov in oracle_vals.items():
            oracle_section[name] = {
                "value": _jnum(ov.value),
                "optimizer_delta": _jnum(ests[name].value - ov.value),
            }
    elapsed = time.perf_counter() - t0

    if args.format == "csv":
        lines = ["name,value,converged,evaluations,x,y,t"]
        for name, est in ests.items():
            w = est.witness_dict()
            x = ";".join(fmt(c) for c in w.get("x", []))
            y = ";".join(fmt(c) for c in w.get("y", []))
            tv = fmt(w["t"]) if "t" in w else ""
            lines.append(f"{name},{fmt(est.value)},{str(est.converged).lower()},"
                         f"{est.evaluations},{x},{y},{tv}")
        print("\n".join(lines))
        return 0

    out = {
        "space": space.spec.to_dict(),
        "config": _numbers(cfg, "eta"),
        "constants": {name: _estimate_dict(est) for name, est in ests.items()},
    }
    if oracle_section is not None:
        out["oracle"] = oracle_section
    out["timing"] = {"seconds": _jnum(elapsed)}
    print(json.dumps(out, indent=2))
    return 0


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    chosen = [name for name, v in (("p", args.p), ("gamma-t", args.gamma_t),
                                   ("delta-eps", args.delta_eps)) if v]
    if len(chosen) != 1:
        raise ValueError("sweep needs exactly one of --p, --gamma-t, --delta-eps")

    if args.p:
        spec = parse_space_spec(args.space, allow_missing_p=True)
        if spec.family not in ("lp", "weighted-lp"):
            raise ValueError("--p sweeps require an lp or wlp space skeleton")
        values = _parse_range(args.p)
        bad = [v for v in values if v < 1.0]
        if bad:
            raise ValueError(f"p values must be >= 1, got {bad[0]:g}")
        lines = ["p,sp,sp_lower_bound,bound_ok"]
        for p in values:
            space = build_space(replace(spec, p=p))
            cfg = _config_for(space.dim, args)
            est = con.sp_constant(space, cfg)
            bound = 1.0 - 2.0 ** (-abs(2.0 / p - 1.0))
            ok = est.value >= bound - 1e-6
            lines.append(f"{fmt(p)},{fmt(est.value)},{fmt(bound)},{str(ok).lower()}")
        print("\n".join(lines))
        return 0

    space = build_space(parse_space_spec(args.space))
    cfg = _config_for(space.dim, args)
    values = _parse_range(args.gamma_t or args.delta_eps)
    for v in values:   # the whole range, before any row is computed
        con.check_modulus("gamma" if args.gamma_t else "delta", v)
    if args.gamma_t:
        lines = ["t,gamma"]
        for t in values:
            lines.append(f"{fmt(t)},{fmt(con.gamma(space, t, cfg).value)}")
    else:
        cache = con.pair_table(space, cfg)   # one table for every eps
        lines = ["eps,delta"]
        for e in values:
            lines.append(f"{fmt(e)},{fmt(con.delta(space, e, cfg, cache=cache).value)}")
    print("\n".join(lines))
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _verify_one(spec: NormSpec, args) -> tuple[dict, list[str]]:
    """One space of a verify run: its report as plain data, and the stderr
    line of each failed check."""
    space = build_space(spec)
    report = run_checks(space, _config_for(space.dim, args))
    fails = [f"FAIL {space.name}: {c.name} ({c.lhs:.9g} {c.relation} "
             f"{c.rhs:.9g} at slack {c.slack:g})" for c in report.failures()]
    return _report_dict(report), fails


def cmd_verify(args) -> int:
    if bool(args.space) == bool(args.battery):
        raise ValueError("verify needs exactly one of --space or --battery")

    t0 = time.perf_counter()
    if args.space:
        specs = [parse_space_spec(args.space)]
    else:
        specs = battery_specs(*_parse_battery(args.battery))
    reports = []
    any_failed = False
    for report, fails in map_in_order(_verify_one, specs, args):
        reports.append(report)
        for line in fails:
            any_failed = True
            print(line, file=sys.stderr)
    timing = {"seconds": _jnum(time.perf_counter() - t0)}
    # One space prints its report; a battery, the list of them.
    out = {**reports[0], "timing": timing} if args.space else {"battery": reports, "timing": timing}
    print(json.dumps(out, indent=2))
    return 1 if any_failed else 0


# --------------------------------------------------------------------------
# witness
# --------------------------------------------------------------------------

_WITNESS_OPS = {
    "sp": lambda s, c: con.sp_constant(s, c),
    "james": lambda s, c: con.james(s, c),
    "cnj": lambda s, c: con.cnj(s, c),
    "cnj_prime": lambda s, c: con.cnj_prime(s, c),
    "zbaganu": lambda s, c: con.zbaganu(s, c),
    "schaffer": lambda s, c: con.schaffer(s, c),
    "t": lambda s, c: con.t_constant(s, c),
    "T": lambda s, c: con.T_constant(s, c),
}


def cmd_witness(args) -> int:
    if args.constant not in _WITNESS_OPS:
        raise ValueError(f"unknown constant {args.constant!r}; "
                         f"valid names: {', '.join(sorted(_WITNESS_OPS))}")
    space = build_space(parse_space_spec(args.space))
    cfg = _config_for(space.dim, args)
    est = _WITNESS_OPS[args.constant](space, cfg)

    coords = ",".join(f"x{i}" for i in range(space.dim))
    lines = [f"label,{coords}"]

    def row(label, vec):
        lines.append(label + "," + ",".join(fmt(c) for c in vec))

    if space.dim == 2:
        for v in sphere_grid(space, 720).vectors:
            row("sphere", v)
    x = np.asarray(est.x, dtype=float)
    y = np.asarray(est.y, dtype=float)
    if est.t is not None:
        y = est.t * y   # scaled constants pair x with t*y
    row("x", x)
    row("y", y)
    row("x+y", x + y)
    row("x-y", x - y)
    print("\n".join(lines))
    return 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normgeo",
        description="Geometric constants of finite-dimensional normed spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="compute every constant of one space")
    p.add_argument("--space", required=True, help="space spec, e.g. lp:p=1.5,dim=2")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--gamma-t", help="comma list of t values for gamma")
    p.add_argument("--delta-eps", help="comma list of eps values for delta")
    p.add_argument("--rho-t", help="comma list of t values for rho")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the dense-grid oracle (2D only)")
    p.add_argument("--oracle-grid", type=int, default=3600, help="oracle grid points, >= 3")
    _add_cfg_flags(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("sweep", help="sweep a parameter, one CSV row per value")
    p.add_argument("--space", required=True)
    p.add_argument("--p", help="p range a:b:step over an lp/wlp skeleton")
    p.add_argument("--gamma-t", help="t range a:b:step for gamma")
    p.add_argument("--delta-eps", help="eps range a:b:step for delta")
    _add_cfg_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run every check; exit 0 iff none fail")
    p.add_argument("--space")
    p.add_argument("--battery", metavar="seed=N,count=K",
                   help="seeded random 2D polyhedral norm battery")
    _add_cfg_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("witness", help="emit sphere polyline and witness vectors as CSV")
    p.add_argument("--space", required=True)
    p.add_argument("--constant", required=True,
                   help="one of " + ", ".join(sorted(_WITNESS_OPS)))
    _add_cfg_flags(p)
    p.set_defaults(func=cmd_witness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.func(args)
        # Flush inside the try: output small enough to sit in the stream
        # buffer would otherwise hit a closed pipe only during interpreter
        # shutdown, past this handler.
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Reader (e.g. head) went away; swallow the shutdown flush too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
