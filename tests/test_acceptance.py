"""Acceptance battery: one test and one printed pass/fail line per criterion.

Shared session fixtures compute the expensive artifacts once: verification
reports for the full 27-space battery, the geometric-mean supremum per space,
and the dense-grid reference sweep.  Run with -s to watch the lines appear;
without it pytest still shows them for any failing criterion.
"""

import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from normgeo import constants as con
from normgeo.oracle import oracle_pair_norm_extrema
from normgeo.search import SearchConfig
from normgeo.spaces import build_space, parse_space_spec
from normgeo.verify import run_checks

SQRT2 = math.sqrt(2.0)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion-{num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def battery_reports(battery_spaces):
    """Verification report for each of the 27 battery spaces."""
    return [(s, run_checks(s)) for s in battery_spaces]


@pytest.fixture(scope="session")
def battery_T(battery_t_and_T):
    """Geometric-mean supremum per battery space (not part of run_checks)."""
    return [T.value for _, T in battery_t_and_T]


@pytest.fixture(scope="session")
def battery_oracle(battery_spaces):
    """Refinement-free dense-grid references at 3600 points per angle.

    On the polygons the same scan also gives delta(2), the inf of
    1 - ||x+y||/2 over pairs with ||x-y|| = 2, and eps0, the sup of ||x-y||
    over pairs with ||x+y|| = 2, each up to a 1e-12 slack: the grid holds
    every hull vertex.  On a strictly convex norm only x = -y and x = y
    meet these constraints, and the exclusion radius eta drops them."""
    cfg = SearchConfig.for_dim(2)
    combines = {
        "sp": (con.pair_cosine, "sup"),
        "james": (con.min_norm, "sup"),
        "cnj_prime": (con.mean_square_quarter, "sup"),
        "schaffer": (con.max_norm, "inf"),
        "T": (con.geom_mean, "sup"),
    }
    flat = {
        "delta(2)": (lambda a, b: np.where(b >= 2.0 - 1e-12, 1.0 - a / 2.0, np.inf), "inf"),
        "eps0": (lambda a, b: np.where(a >= 2.0 - 1e-12, b, -np.inf), "sup"),
    }
    return [oracle_pair_norm_extrema(
        s, {**combines, **flat} if s.spec.family == "poly-vertices" else combines,
        grid_size=3600, eta=cfg.eta) for s in battery_spaces]


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_criterion_01_hilbert_sp_vanishes(l2):
    sp2 = con.sp_constant(l2).value
    sp3 = con.sp_constant(build_space(parse_space_spec("lp:p=2,dim=3"))).value
    ok = abs(sp2) <= 1e-6 and abs(sp3) <= 1e-6
    _line(1, ok, f"S_P dim2 = {sp2:.2e}, dim3 = {sp3:.2e} (|err| <= 1e-6)")


def test_criterion_02_extreme_lattice_norms(l1, linf):
    v1 = con.sp_constant(l1).value
    vi = con.sp_constant(linf).value
    ok = abs(v1 - 0.5) <= 1e-6 and abs(vi - 0.5) <= 1e-6
    _line(2, ok, f"S_P(l1) = {v1:.9f}, S_P(linf) = {vi:.9f} (1/2 +- 1e-6)")


def test_criterion_03_lp_lower_bound():
    worst = math.inf
    for p in (1.2, 1.5, 3.0, 4.0):
        space = build_space(parse_space_spec(f"lp:p={p},dim=2"))
        sp = con.sp_constant(space).value
        bound = 1.0 - 2.0 ** (-abs(2.0 / p - 1.0))
        worst = min(worst, sp - bound)
    ok = worst >= -1e-6
    _line(3, ok, f"min over p of S_P - bound = {worst:+.2e} (>= -1e-6)")


def test_criterion_04_battery_ranges(battery_reports):
    bad = []
    for space, rep in battery_reports:
        sp = rep.constants["sp"].value
        j = rep.constants["james"].value
        if not (-1e-6 <= sp <= 0.5 + 1e-6 and SQRT2 - 1e-3 <= j <= 2.0 + 1e-6):
            bad.append(space.name)
    _line(4, not bad,
          f"S_P and J ranges hold on {len(battery_reports)} spaces"
          + (f"; violations: {bad}" if bad else ""))


def test_criterion_05_product_bound(battery_reports):
    worst = math.inf
    bad = []
    for space, rep in battery_reports:
        j = rep.constants["james"].value
        sp = rep.constants["sp"].value
        cnjp = rep.constants["cnj_prime"].value
        worst = min(worst, j * sp - (cnjp - 1.0))
        if _check(rep, "thm41").status != "pass":
            bad.append(space.name)
    ok = worst >= -1e-3 and not bad
    _line(5, ok, f"min of J*S_P - (C'_NJ - 1) = {worst:+.3e} (>= -1e-3)"
          + (f"; check failures: {bad}" if bad else ""))


def test_criterion_06_modulus_bounds(battery_reports):
    bad = [(space.name, name)
           for space, rep in battery_reports
           for name in ("cor46", "cor48")
           if _check(rep, name).status != "pass"]
    _line(6, not bad,
          f"cor46 and cor48 pass on {len(battery_reports)} spaces"
          + (f"; failures: {bad}" if bad else ""))


def test_criterion_07_hilbert_suite(l2):
    errs = []
    cz = con.zbaganu(l2).value
    if abs(cz - 1.0) > 1e-4:
        errs.append(f"C_Z off by {cz - 1.0:+.2e}")
    ts = [i / 10.0 for i in range(11)]
    for t, est in zip(ts, con.gamma_profile(l2, ts)):
        if abs(est.value - (1.0 + t * t)) > 1e-6:
            errs.append(f"gamma({t}) off by {est.value - 1.0 - t * t:+.2e}")
    for eps in (0.5, 1.0, 1.5):
        expect = 1.0 - math.sqrt(1.0 - eps * eps / 4.0)
        got = con.delta(l2, eps).value
        if abs(got - expect) > 1e-5:
            errs.append(f"delta({eps}) off by {got - expect:+.2e}")
    r = con.rho(l2, 1.0).value
    if abs(r - (SQRT2 - 1.0)) > 1e-5:
        errs.append(f"rho(1) off by {r - SQRT2 + 1.0:+.2e}")
    _line(7, not errs, "C_Z, gamma, delta, rho match the inner-product closed forms"
          + (f"; {errs}" if errs else ""))


def test_criterion_08_product_identity(battery_reports):
    worst = 0.0
    for space, rep in battery_reports:
        prod = rep.constants["schaffer"].value * rep.constants["james"].value
        worst = max(worst, abs(prod - 2.0))
    _line(8, worst <= 1e-3, f"max |S*J - 2| = {worst:.3e} (<= 1e-3)")


def test_product_identity_tight(battery_reports):
    # S * J = 2 holds exactly for every 2D norm; the refinement reaches both
    # extrema closely enough to show it to 1e-6 on the whole battery, well
    # inside criterion 8's gate.
    worst = max(abs(rep.constants["schaffer"].value * rep.constants["james"].value - 2.0)
                for _, rep in battery_reports)
    assert worst <= 1e-6, f"max |S*J - 2| = {worst:.3e}"


def test_criterion_09_squareness_classification(battery_reports):
    errs = []
    for space, rep in battery_reports:
        j = rep.constants["james"].value
        sp = rep.constants["sp"].value
        if j <= 2.0 - 1e-3 and sp > 0.5 - 1e-4:
            errs.append(f"{space.name}: J = {j:.6f} but S_P = {sp:.6f}")
        if j > 2.0 - 1e-3:
            # The square-like spaces must sit at the extreme value with an
            # explicit witness pair whose pair norms both reach 2.
            if abs(sp - 0.5) > 1e-3:
                errs.append(f"{space.name}: S_P = {sp:.6f} not 1/2 +- 1e-3")
            wit = _check(rep, "prop56")
            if wit.status != "pass" or wit.lhs > 1e-3:
                errs.append(f"{space.name}: witness deviation "
                            f"{wit.lhs if wit.lhs is not None else 'n/a'}")
    _line(9, not errs, "threshold classification and extreme witnesses hold"
          + (f"; {errs}" if errs else ""))


def test_criterion_10_sqrt2_pair(battery_reports):
    worst = max(rep.constants["sqrt2_residual"].value
                for _, rep in battery_reports)
    _line(10, worst <= 1e-8, f"max residual = {worst:.2e} (<= 1e-8)")


def test_criterion_11_oracle_equivalence(battery_reports, battery_T,
                                         battery_oracle):
    worst = (0.0, "")
    for (space, rep), T, ref in zip(battery_reports, battery_T, battery_oracle):
        vals = {k: rep.constants[k].value
                for k in ("sp", "james", "cnj_prime", "schaffer")}
        vals["T"] = T
        for k, v in vals.items():
            gap = abs(v - ref[k].value)
            if gap > worst[0]:
                worst = (gap, f"{k} on {space.name}")
    _line(11, worst[0] <= 1e-3,
          f"max optimizer-vs-grid gap = {worst[0]:.3e} at {worst[1]} (<= 1e-3)")


def test_polygon_eps0_and_delta2_match_oracle(battery_spaces, battery_oracle):
    """eps0 and delta(2) come from the facets of the unit ball, not from a
    search; the dense grid finds the same longest segment on every battery
    polygon."""
    gaps = []
    for space, ref in zip(battery_spaces, battery_oracle):
        if "eps0" in ref:
            gaps.append(abs(con.eps0(space).value - ref["eps0"].value))
            gaps.append(abs(con.delta(space, 2.0).value - ref["delta(2)"].value))
    assert len(gaps) == 40 and max(gaps) <= 1e-12, max(gaps)


def test_criterion_12_battery_determinism():
    cmd = [sys.executable, "-c",
           "from normgeo.cli import main; raise SystemExit("
           "main(['verify', '--battery', 'seed=7,count=20']))"]
    runs = [subprocess.run(cmd, capture_output=True, text=True) for _ in range(2)]
    strip = lambda s: re.sub(r'"timing":\s*\{[^}]*\}', '"timing":{}', s)
    identical = strip(runs[0].stdout) == strip(runs[1].stdout)
    codes = [r.returncode for r in runs]
    json.loads(runs[0].stdout)  # well-formed
    ok = identical and codes == [0, 0]
    _line(12, ok, f"byte-identical modulo timing: {identical}, exit codes {codes}")
