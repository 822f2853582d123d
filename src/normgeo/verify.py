"""Numeric verification of the inequality network among the constants.

Every registered check runs on every space, in a fixed order, and reports
pass/fail/vacuous with the values and slack it used.  Checks whose hypothesis
does not apply report vacuous rather than silently passing.  Nothing is
clamped: a violated inequality at slack is a fail, and the battery acceptance
gate requires zero fails.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import constants
from .search import ConstantEstimate, SearchConfig, pair_table
from .spaces import Space

CHECK_NAMES = [
    "bounds_sp", "bounds_j", "thm41", "cor46", "cor48", "thm51",
    "thm54_label", "cor55_labels", "prop56", "hilbert_pair",
    "sj_identity", "cnj_j", "cz_le_cnj", "delta0_family", "hilbert_suite",
]

_GAMMA_TS = [i / 10.0 for i in range(1, 11)]

_SQRT2 = math.sqrt(2.0)
_SQRT5 = math.sqrt(5.0)
_GOLDEN = (1.0 + _SQRT5) / 2.0


@dataclass
class CheckResult:
    name: str
    paper_ref: str
    lhs: float
    rhs: float
    relation: str     # one of <=, >=, =, <=>
    slack: float
    status: str       # "pass" | "fail" | "vacuous"
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "paper_ref": self.paper_ref,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "slack": self.slack,
            "status": self.status,
            "note": self.note,
        }


@dataclass
class VerificationReport:
    space: Space
    cfg: SearchConfig
    checks: list[CheckResult]
    labels: list[str]
    constants: dict[str, ConstantEstimate] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == "fail"]


def _ineq(name: str, ref: str, lhs: float, rhs: float, relation: str,
          slack: float, note: str = "") -> CheckResult:
    if relation == "<=":
        ok = lhs <= rhs + slack
    elif relation == ">=":
        ok = lhs >= rhs - slack
    elif relation == "=":
        ok = abs(lhs - rhs) <= slack
    else:
        raise ValueError(f"unsupported relation {relation!r}")
    return CheckResult(name, ref, float(lhs), float(rhs), relation, slack,
                       "pass" if ok else "fail", note)


def run_checks(space: Space, cfg: SearchConfig | None = None) -> VerificationReport:
    """Compute the constants once, then evaluate every registered check."""
    cfg = cfg or SearchConfig.for_dim(space.dim)
    cache = pair_table(space, cfg)
    est = constants.pair_constants(space, cfg, cache)
    sp, jc, cnj, cnjp, cz, sk = (est[k].value for k in
                                 ("sp", "james", "cnj", "cnj_prime", "zbaganu", "schaffer"))
    est["sqrt2_residual"] = constants.guarded(
        "sqrt2_residual", lambda: constants.sqrt2_pair_residual(space, cfg, cache=cache))
    est["delta(0)"] = constants.guarded(
        "delta(0)", lambda: constants.delta(space, 0.0, cfg, cache=cache))
    res, d0 = est["sqrt2_residual"].value, est["delta(0)"].value
    gammas = constants.guarded("gamma", lambda: constants.gamma_profile(space, _GAMMA_TS, cfg))
    for t, g in zip(_GAMMA_TS, gammas):
        est[f"gamma({t:.12g})"] = g
    gvals = [g.value for g in gammas]

    checks: list[CheckResult] = []
    labels: list[str] = []

    # 1. 0 <= S_P <= 1/2
    c = _ineq("bounds_sp", "Prop 3.3", sp, 0.5, "<=", 1e-6,
              note=f"lower bound 0 holds with margin {sp:.3e}")
    if sp < -1e-6:
        c.status = "fail"
        c.note = f"lower bound violated: S_P = {sp:.6g} < 0 - 1e-6"
    checks.append(c)

    # 2. sqrt(2) <= J <= 2
    c = _ineq("bounds_j", "Lemma 2.12(ii)", jc, 2.0, "<=", 1e-6,
              note=f"lower bound sqrt(2) holds with margin {jc - _SQRT2:.3e} (slack 1e-3)")
    if jc < _SQRT2 - 1e-3:
        c.status = "fail"
        c.note = f"lower bound violated: J = {jc:.6g} < sqrt(2) - 1e-3"
    checks.append(c)

    # 3. J*S_P >= C'_NJ - 1 and 2*S_P >= C'_NJ - 1
    checks.append(_ineq("thm41", "Thm 4.1", min(jc * sp, 2.0 * sp), cnjp - 1.0,
                        ">=", 1e-3,
                        note=f"J*S_P = {jc * sp:.9g}, 2*S_P = {2.0 * sp:.9g}"))

    # 4. S_P >= (gamma(t) + t^2 - 3) / (2 + 2 t^2) on the t-grid
    bounds = [(g + t * t - 3.0) / (2.0 + 2.0 * t * t)
              for t, g in zip(_GAMMA_TS, gvals)]
    worst = bounds.index(max(bounds))
    checks.append(_ineq("cor46", "Cor 4.6", sp, bounds[worst], ">=", 1e-3,
                        note=f"tightest bound at t = {_GAMMA_TS[worst]:g} "
                             f"on the grid 0.1..1.0"))

    # 5. S_P >= (3 sqrt(C_Z) - 2)/C_Z - 1
    cor48_rhs = (3.0 * math.sqrt(cz) - 2.0) / cz - 1.0
    checks.append(_ineq("cor48", "Cor 4.8", sp, cor48_rhs, ">=", 1e-3,
                        note="bound uses the derivation form (3*sqrt(Cz)-2)/Cz - 1; "
                             "the displayed rendering 3*sqrt(Cz-2)/Cz - 1 is a "
                             "typographical variant and is not used"))

    # 6. (J < 2 - m) <=> (S_P < 1/2 - m'), margins 1e-3; vacuous on the boundary
    m = 1e-3
    if abs(jc - 2.0) <= m:
        ok = abs(sp - 0.5) <= 1e-3
        checks.append(CheckResult(
            "thm51", "Thm 5.1", jc, sp, "<=>", m,
            "vacuous" if ok else "fail",
            note=f"boundary |J - 2| <= 1e-3: equivalence not evaluated; "
                 f"S_P = 1/2 within 1e-3 {'holds' if ok else 'FAILS'}"))
    else:
        left = jc < 2.0 - m
        right = sp < 0.5 - m
        checks.append(CheckResult(
            "thm51", "Thm 5.1", jc, sp, "<=>", m,
            "pass" if left == right else "fail",
            note=f"J {'<' if left else '>='} 2 - 1e-3 and "
                 f"S_P {'<' if right else '>='} 1/2 - 1e-3"))

    # 7. S_P < (3 - sqrt(5))/4 implies J < golden ratio; label on success
    thresh54 = (3.0 - _SQRT5) / 4.0
    if sp < thresh54:
        c = _ineq("thm54_label", "Thm 5.4", jc, _GOLDEN, "<=", 1e-6,
                  note=f"hypothesis S_P = {sp:.6g} < (3-sqrt(5))/4 holds")
        if c.status == "pass":
            labels.append("uniform normal structure (Thm 5.4)")
        checks.append(c)
    else:
        checks.append(CheckResult(
            "thm54_label", "Thm 5.4", jc, _GOLDEN, "<=", 1e-6, "vacuous",
            note=f"hypothesis S_P < (3-sqrt(5))/4 = {thresh54:.6g} not met"))

    # 8. S_P < 1/2 gives the fixed-point label; S_P < 1/8 additionally asserts
    #    2*gamma(1) < 5 and gives the super-normal label
    g1 = gvals[-1]
    if sp < 0.5:
        labels.append("fixed point property (Cor 5.5 i)")
        if sp < 0.125:
            c = _ineq("cor55_labels", "Cor 5.5", 2.0 * g1, 5.0, "<=", 1e-3,
                      note=f"S_P = {sp:.6g} < 1/8; asserting 2*gamma(1) < 5")
            if c.status == "pass":
                labels.append("super-normal structure (Cor 5.5 ii)")
            checks.append(c)
        else:
            checks.append(CheckResult(
                "cor55_labels", "Cor 5.5", 2.0 * g1, 5.0, "<=", 1e-3, "pass",
                note="fixed point property label emitted; S_P >= 1/8 so the "
                     "super-normal assertion is not triggered"))
    else:
        checks.append(CheckResult(
            "cor55_labels", "Cor 5.5", 2.0 * g1, 5.0, "<=", 1e-3, "vacuous",
            note="S_P >= 1/2: no labels emitted"))

    # 9. Near-extremal S_P forces witness pair norms 2
    if sp >= 0.5 - 1e-6:
        wx, wy = est["sp"].x, est["sp"].y
        a = space.norm(wx + wy)
        b = space.norm(wx - wy)
        dev = max(abs(a - 2.0), abs(b - 2.0))
        checks.append(_ineq("prop56", "Prop 5.6", dev, 0.0, "=", 1e-3,
                            note=f"witness pair norms {a:.9g}, {b:.9g}"))
    else:
        checks.append(CheckResult(
            "prop56", "Prop 5.6", 0.0, 0.0, "=", 1e-3, "vacuous",
            note=f"S_P = {sp:.6g} < 1/2 - 1e-6: witness conclusion not applicable"))

    # 10. A pair with both pair norms sqrt(2) exists
    wx, wy = est["sqrt2_residual"].x, est["sqrt2_residual"].y
    checks.append(_ineq("hilbert_pair", "Prop 3.3 proof", res, 0.0, "<=", 1e-8,
                        note=f"minimizing pair has norms "
                             f"{space.norm(wx + wy):.9g}, {space.norm(wx - wy):.9g}"))

    # 11. S * J = 2
    checks.append(_ineq("sj_identity", "Cor 4.2 proof", sk * jc, 2.0, "=", 1e-3,
                        note=f"S = {sk:.9g}, J = {jc:.9g}"))

    # 12. C'_NJ >= J^2 / 2
    checks.append(_ineq("cnj_j", "Thm 5.1 proof", cnjp, jc * jc / 2.0, ">=", 1e-3))

    # 13. C_Z <= C_NJ
    checks.append(_ineq("cz_le_cnj", "Def 2.7", cz, cnj, "<=", 1e-6))

    # 14. Upper bounds on S_P scaled by 1/delta(0); vacuous when delta(0) = 0
    if d0 <= 1e-9:
        checks.append(CheckResult(
            "delta0_family", "Cor 4.2 + Thm 4.3 + Thm 4.4 + Thm 4.5",
            sp, math.inf, "<=", 1e-3, "vacuous",
            note=f"delta(0) = {d0:.3g}: each bound is +inf"))
    else:
        rho1 = compute("rho(1)", lambda: constants.rho(space, 1.0, cfg)).value
        family = [
            (cnjp - 1.0) / d0,
            (4.0 * rho1 * rho1 + 4.0 * rho1 - 3.0) / (8.0 * d0),
            min((g + 0.0 - 2.0 * t * t) / (2.0 * t * t * d0)
                for t, g in zip(_GAMMA_TS, gvals)),
            cz / (2.0 * d0),
        ]
        checks.append(_ineq(
            "delta0_family", "Cor 4.2 + Thm 4.3 + Thm 4.4 + Thm 4.5",
            sp, min(family), "<=", 1e-3,
            note=f"bounds {[f'{b:.6g}' for b in family]} with delta(0) = {d0:.6g}"))

    # 15. Euclidean-flagged spaces: S_P = 0, C_Z = 1, gamma(t) = 1 + t^2
    if space.is_euclidean:
        devs = [abs(sp), abs(cz - 1.0)]
        devs += [abs(g - (1.0 + t * t)) for t, g in zip(_GAMMA_TS, gvals)]
        checks.append(_ineq("hilbert_suite", "Thm 3.5 + Lemma 4.7 + Lemma 2.12(vi)",
                            max(devs), 0.0, "=", 1e-4,
                            note=f"max deviation over S_P, C_Z, gamma grid; "
                                 f"S_P dev {devs[0]:.3g}, C_Z dev {devs[1]:.3g}"))
    else:
        checks.append(CheckResult(
            "hilbert_suite", "Thm 3.5 + Lemma 4.7 + Lemma 2.12(vi)",
            0.0, 0.0, "=", 1e-4, "vacuous",
            note="space is not flagged Euclidean"))

    assert [c.name for c in checks] == CHECK_NAMES
    return VerificationReport(space=space, cfg=cfg, checks=checks,
                              labels=labels, constants=est)
