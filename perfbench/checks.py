"""Output checks computed apart from the program.

Every norm here is evaluated by a formula of this file, never by the
program's gauges: the p-sum for lp spaces, and for a polygon the least
alpha + beta with z = alpha*u + beta*w over vertex pairs u, w of +-V
(alpha, beta >= 0).  Closed forms are those of the normed-space literature;
nothing is compared against a stored copy of an earlier output.

Each check returns a list of failure messages; an empty list is a pass.
"""
from __future__ import annotations

import json
import math

CLOSED_TOL = 1e-6      # closed forms, the tolerance of the repository's frozen values
WITNESS_TOL = 1e-9     # witnesses are printed at 12 significant digits
RANGE_TOL = 1e-9
SJ_TOL = 1e-3
ORACLE_TOL = 1e-3
EPS0_LP_TOL = 1e-2     # eps0 bisects delta(eps) <= 1e-7; lp1.5 has delta ~ eps^2
DELTA_ZERO = 1e-7      # eps0's flatness threshold
# delta's boundary solve admits grid pairs with | ||x-y|| - eps | <= 1e-8 as
# on the constraint (its documented root tolerance), so a witness may sit
# that far inside ||x-y|| >= eps.
DELTA_ROOT_TOL = 1e-8
SQRT2 = math.sqrt(2.0)


# --------------------------------------------------------------------------
# Norms
# --------------------------------------------------------------------------

def lp_norm(p: float):
    def norm(z):
        return math.fsum(abs(c) ** p for c in z) ** (1.0 / p)
    return norm


def polygon_norm(vertices):
    """Gauge of conv(+-V): min of alpha + beta over z = alpha*u + beta*w.

    Any such representation puts z/(alpha+beta) in the ball, so the minimum
    over all pairs is attained by the two hull vertices whose cone holds z.
    """
    pts = [tuple(map(float, v)) for v in vertices]
    pts += [(-x, -y) for x, y in pts]
    pairs = []
    for i, (ux, uy) in enumerate(pts):
        for wx, wy in pts[i + 1:]:
            det = ux * wy - uy * wx
            if abs(det) > 1e-12:
                pairs.append((ux, uy, wx, wy, det))

    def norm(z):
        zx, zy = float(z[0]), float(z[1])
        scale = max(abs(zx), abs(zy))
        best = math.inf
        for ux, uy, wx, wy, det in pairs:
            alpha = (zx * wy - zy * wx) / det
            beta = (ux * zy - uy * zx) / det
            if alpha >= -1e-12 * scale and beta >= -1e-12 * scale:
                best = min(best, alpha + beta)
        return best

    return norm


def norm_for(space: dict):
    """Independent norm for a space as printed by the CLI (its `space` key)."""
    if space["family"] == "lp":
        return lp_norm(float(space["p"]))
    if space["family"] == "poly-vertices":
        return polygon_norm(space["vertices"])
    raise ValueError(f"no independent norm for family {space['family']!r}")


def _add(u, v, s=1.0):
    return [a + s * b for a, b in zip(u, v)]


# --------------------------------------------------------------------------
# Witness recomputation
# --------------------------------------------------------------------------

_PAIR_OBJECTIVES = {
    "sp": lambda a, b: (a * a + b * b - 4.0) / (2.0 * a * b),
    "james": min,
    "schaffer": max,
    "cnj_prime": lambda a, b: (a * a + b * b) / 4.0,
    "sqrt2_residual": lambda a, b: (a - SQRT2) ** 2 + (b - SQRT2) ** 2,
    "T": lambda a, b: math.sqrt(a * b),
    "t": lambda a, b: math.sqrt(a * b),   # the inner sup at the outer witness
}


def _argument(name: str) -> float:
    return float(name[name.index("(") + 1:-1])


def witness_failures(label: str, norm, name: str, est: dict) -> list[str]:
    """Recompute one reported constant from its witness with `norm`."""
    w = est["witness"]
    if "x" not in w or "y" not in w:
        return [f"{label}: {name} reports no witness pair"]
    x, y = w["x"], w["y"]
    out = []
    for tag, v in (("x", x), ("y", y)):
        if abs(norm(v) - 1.0) > WITNESS_TOL:
            out.append(f"{label}: {name} witness {tag} has norm {norm(v)!r}, not 1")
    value = est["value"]
    base = name.split("(")[0]
    if base in _PAIR_OBJECTIVES:
        got = _PAIR_OBJECTIVES[base](norm(_add(x, y)), norm(_add(x, y, -1.0)))
    elif base in ("cnj", "zbaganu", "gamma", "rho"):
        t = float(w["t"]) if base in ("cnj", "zbaganu") else _argument(name)
        a, b = norm(_add(x, y, t)), norm(_add(x, y, -t))
        got = {"cnj": (a * a + b * b) / (2.0 * (1.0 + t * t)),
               "zbaganu": a * b / (1.0 + t * t),
               "gamma": (a * a + b * b) / 2.0,
               "rho": (a + b) / 2.0 - 1.0}[base]
    elif base == "delta":
        eps = _argument(name)
        gap = norm(_add(x, y, -1.0))
        if gap < eps - DELTA_ROOT_TOL - WITNESS_TOL:
            out.append(f"{label}: {name} witness has ||x-y|| = {gap!r} < eps")
        got = 1.0 - norm(_add(x, y)) / 2.0
    elif base == "eps0":
        # The witness is the last pair that found delta flat at eps0.
        gap = norm(_add(x, y, -1.0))
        if gap < value - WITNESS_TOL:
            out.append(f"{label}: eps0 witness has ||x-y|| = {gap!r} < eps0 = {value!r}")
        flat = 1.0 - norm(_add(x, y)) / 2.0
        if flat > DELTA_ZERO + WITNESS_TOL:
            out.append(f"{label}: eps0 witness has 1 - ||x+y||/2 = {flat!r} > 1e-7")
        return out
    else:
        return out + [f"{label}: no witness objective for {name!r}"]
    if abs(got - value) > WITNESS_TOL * max(1.0, abs(value)):
        out.append(f"{label}: {name} = {value!r} but its witness gives {got!r}")
    return out


def _near(label, name, got, want, tol=CLOSED_TOL) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{label}: {name} = {got!r}, closed form {want!r} (tolerance {tol:g})"]


def _universal(label, vals: dict) -> list[str]:
    """Ranges and identities every space satisfies."""
    out = []
    sp = vals.get("sp")
    if sp is not None and not -RANGE_TOL <= sp <= 0.5 + RANGE_TOL:
        out.append(f"{label}: S_P = {sp!r} outside [0, 1/2]")
    j = vals.get("james")
    if j is not None and not SQRT2 - RANGE_TOL <= j <= 2.0 + RANGE_TOL:
        out.append(f"{label}: J = {j!r} outside [sqrt2, 2]")
    s = vals.get("schaffer")
    if j is not None and s is not None and abs(s * j - 2.0) > SJ_TOL:
        out.append(f"{label}: S*J = {s * j!r}, not 2 within {SJ_TOL:g}")
    return out


# --------------------------------------------------------------------------
# Closed forms
# --------------------------------------------------------------------------

def hanner_delta(p: float, eps: float) -> float:
    """Modulus of convexity of lp, 1 < p <= 2: the root of
    (1 - d + eps/2)^p + |1 - d - eps/2|^p = 2, by bisection on d."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (1.0 - mid + eps / 2.0) ** p + abs(1.0 - mid - eps / 2.0) ** p > 2.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lp15_closed_forms(label, vals: dict) -> list[str]:
    """lp with p = 1.5 (p <= 2, any dim >= 2)."""
    p = 1.5
    c13 = 2.0 ** (1.0 / 3.0)
    want = {"sp": 1.0 - 2.0 ** (-1.0 / 3.0), "james": 2.0 ** (2.0 / 3.0),
            "T": 2.0 ** (2.0 / 3.0), "schaffer": c13, "cnj": c13,
            "cnj_prime": c13, "zbaganu": c13}
    out = []
    for name, w in want.items():
        out += _near(label, name, vals[name], w)
    if "gamma(1)" in vals:
        out += _near(label, "gamma(1)", vals["gamma(1)"], 2.0 * vals["cnj_prime"])
    for name, v in vals.items():
        if name.startswith("delta("):
            out += _near(label, name, v, hanner_delta(p, _argument(name)))
        elif name.startswith("rho("):
            t = _argument(name)
            out += _near(label, name, v, (1.0 + t ** p) ** (1.0 / p) - 1.0)
    if abs(vals["eps0"]) > EPS0_LP_TOL:
        out.append(f"{label}: eps0 = {vals['eps0']!r}, not near 0")
    return out


def hexagon_closed_forms(label, vals: dict) -> list[str]:
    """The regular hexagon norm."""
    want = {"sp": 0.25, "james": 1.5, "T": 1.5, "schaffer": 4.0 / 3.0,
            "cnj_prime": 1.25, "zbaganu": 1.25, "cnj": (3.0 + math.sqrt(5.0)) / 4.0,
            "t": 1.0 + 1.0 / math.sqrt(5.0), "eps0": 1.0,
            "gamma(0.5)": 13.0 / 8.0, "gamma(1)": 2.5, "rho(1)": 0.5,
            "delta(1.5)": 0.25,
            # eps0 = 1: the modulus vanishes up to eps = 1.
            "delta(0.5)": 0.0, "delta(1)": 0.0}
    out = []
    for name, w in want.items():
        out += _near(label, name, vals[name], w)
    return out


# --------------------------------------------------------------------------
# Per-invocation checks
# --------------------------------------------------------------------------

def check_constants(label: str, stdout: str, closed_forms) -> list[str]:
    """`constants` JSON: witnesses, universal ranges, closed forms, oracle gaps."""
    doc = json.loads(stdout)
    norm = norm_for(doc["space"])
    consts = doc["constants"]
    vals = {name: est["value"] for name, est in consts.items()}
    out = []
    for name, est in consts.items():
        out += witness_failures(label, norm, name, est)
    out += _universal(label, vals)
    if closed_forms is not None:
        out += closed_forms(label, vals)
    if "oracle" in doc:
        gaps = {k: v["optimizer_delta"] for k, v in doc["oracle"].items() if k != "grid_size"}
        if not gaps:
            out.append(f"{label}: oracle section is empty")
        for k, gap in gaps.items():
            if abs(gap) > ORACLE_TOL:
                out.append(f"{label}: oracle gap of {k} is {gap!r}")
    return out


def check_sweep_p(label: str, stdout: str, ps: list[float]) -> list[str]:
    """`sweep --p` CSV: one row per p, each S_P in [0, 1/2] and above the
    lp lower bound 1 - 2^(-|2/p - 1|)."""
    lines = stdout.strip().splitlines()
    if lines[0] != "p,sp,sp_lower_bound,bound_ok":
        return [f"{label}: unexpected sweep header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(ps):
        return [f"{label}: {len(rows)} sweep rows for {len(ps)} values of p"]
    out = []
    for (p_txt, sp_txt, *_), p in zip(rows, ps):
        if abs(float(p_txt) - p) > 1e-12:
            out.append(f"{label}: sweep row p = {p_txt}, expected {p!r}")
        sp = float(sp_txt)
        bound = 1.0 - 2.0 ** (-abs(2.0 / p - 1.0))
        if sp < bound - CLOSED_TOL:
            out.append(f"{label}: p = {p!r}: S_P = {sp!r} below the bound {bound!r}")
        out += _universal(f"{label} p={p!r}", {"sp": sp})
    return out


def check_battery(label: str, stdout: str, count: int) -> list[str]:
    """`verify --battery` JSON: every report passes, ranges, witnesses."""
    doc = json.loads(stdout)
    reports = doc["battery"]
    if len(reports) != count:
        return [f"{label}: {len(reports)} battery reports, expected {count}"]
    out = []
    for k, rep in enumerate(reports):
        sub = f"{label} #{k}"
        norm = norm_for(rep["space"])
        consts = rep["constants"]
        for name, est in consts.items():
            out += witness_failures(sub, norm, name, est)
        out += _universal(sub, {n: e["value"] for n, e in consts.items()})
        out += [f"{sub}: check {c['name']} failed" for c in rep["checks"]
                if c["status"] == "fail"]
    return out
