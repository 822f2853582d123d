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
from typing import NamedTuple

from . import constants
from .search import ConstantEstimate, SearchConfig, pair_table
from .spaces import Space


class Inequality(NamedTuple):
    paper_ref: str
    relation: str     # one of <=, >=, =, <=>
    slack: float


# The registered checks, in report order: each paper inequality's reference,
# relation and slack are stated here and nowhere else.
CHECKS = {
    "bounds_sp": Inequality("Prop 3.3", "<=", 1e-6),
    "bounds_j": Inequality("Lemma 2.12(ii)", "<=", 1e-6),
    "thm41": Inequality("Thm 4.1", ">=", 1e-3),
    "cor46": Inequality("Cor 4.6", ">=", 1e-3),
    "cor48": Inequality("Cor 4.8", ">=", 1e-3),
    "thm51": Inequality("Thm 5.1", "<=>", 1e-3),
    "thm54_label": Inequality("Thm 5.4", "<=", 1e-6),
    "cor55_labels": Inequality("Cor 5.5", "<=", 1e-3),
    "prop56": Inequality("Prop 5.6", "=", 1e-3),
    "hilbert_pair": Inequality("Prop 3.3 proof", "<=", 1e-8),
    "sj_identity": Inequality("Cor 4.2 proof", "=", 1e-3),
    "cnj_j": Inequality("Thm 5.1 proof", ">=", 1e-3),
    "cz_le_cnj": Inequality("Def 2.7", "<=", 1e-6),
    "delta0_family": Inequality("Cor 4.2 + Thm 4.3 + Thm 4.4 + Thm 4.5", "<=", 1e-3),
    "hilbert_suite": Inequality("Thm 3.5 + Lemma 4.7 + Lemma 2.12(vi)", "=", 1e-4),
}
CHECK_NAMES = list(CHECKS)

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


def _check(name: str, lhs: float, rhs: float, note: str = "",
           status: str | None = None) -> CheckResult:
    """The record of a registered check: pass or fail by its relation at
    its slack, unless the caller forces the status."""
    ref, relation, slack = CHECKS[name]
    if status is None:
        holds = {"<=": lhs <= rhs + slack, ">=": lhs >= rhs - slack, "=": abs(lhs - rhs) <= slack}
        status = "pass" if holds[relation] else "fail"
    return CheckResult(name, ref, float(lhs), float(rhs), relation, slack, status, note)


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
    low = sp < -1e-6
    checks.append(_check("bounds_sp", sp, 0.5,
                         f"lower bound violated: S_P = {sp:.6g} < 0 - 1e-6" if low
                         else f"lower bound 0 holds with margin {sp:.3e}",
                         "fail" if low else None))

    # 2. sqrt(2) <= J <= 2
    low = jc < _SQRT2 - 1e-3
    checks.append(_check("bounds_j", jc, 2.0,
                         f"lower bound violated: J = {jc:.6g} < sqrt(2) - 1e-3" if low
                         else f"lower bound sqrt(2) holds with margin {jc - _SQRT2:.3e} "
                              "(slack 1e-3)",
                         "fail" if low else None))

    # 3. J*S_P >= C'_NJ - 1 and 2*S_P >= C'_NJ - 1
    checks.append(_check("thm41", min(jc * sp, 2.0 * sp), cnjp - 1.0,
                         f"J*S_P = {jc * sp:.9g}, 2*S_P = {2.0 * sp:.9g}"))

    # 4. S_P >= (gamma(t) + t^2 - 3) / (2 + 2 t^2) on the t-grid
    bounds = [(g + t * t - 3.0) / (2.0 + 2.0 * t * t) for t, g in zip(_GAMMA_TS, gvals)]
    worst = bounds.index(max(bounds))
    checks.append(_check("cor46", sp, bounds[worst],
                         f"tightest bound at t = {_GAMMA_TS[worst]:g} on the grid 0.1..1.0"))

    # 5. S_P >= (3 sqrt(C_Z) - 2)/C_Z - 1
    checks.append(_check("cor48", sp, (3.0 * math.sqrt(cz) - 2.0) / cz - 1.0,
                         "bound uses the derivation form (3*sqrt(Cz)-2)/Cz - 1; the displayed "
                         "rendering 3*sqrt(Cz-2)/Cz - 1 is a typographical variant and is not "
                         "used"))

    # 6. (J < 2 - m) <=> (S_P < 1/2 - m), m the slack; vacuous on the boundary |J - 2| <= m
    m = CHECKS["thm51"].slack
    if abs(jc - 2.0) <= m:
        ok = abs(sp - 0.5) <= m
        checks.append(_check("thm51", jc, sp, "boundary |J - 2| <= 1e-3: equivalence not "
                             f"evaluated; S_P = 1/2 within 1e-3 {'holds' if ok else 'FAILS'}",
                             "vacuous" if ok else "fail"))
    else:
        left, right = jc < 2.0 - m, sp < 0.5 - m
        checks.append(_check("thm51", jc, sp, f"J {'<' if left else '>='} 2 - 1e-3 and "
                             f"S_P {'<' if right else '>='} 1/2 - 1e-3",
                             "pass" if left == right else "fail"))

    # 7. S_P < (3 - sqrt(5))/4 implies J < golden ratio; label on success
    thresh54 = (3.0 - _SQRT5) / 4.0
    if sp < thresh54:
        c = _check("thm54_label", jc, _GOLDEN, f"hypothesis S_P = {sp:.6g} < (3-sqrt(5))/4 holds")
        if c.status == "pass":
            labels.append("uniform normal structure (Thm 5.4)")
    else:
        c = _check("thm54_label", jc, _GOLDEN,
                   f"hypothesis S_P < (3-sqrt(5))/4 = {thresh54:.6g} not met", "vacuous")
    checks.append(c)

    # 8. S_P < 1/2 gives the fixed-point label; S_P < 1/8 additionally asserts
    #    2*gamma(1) < 5 and gives the super-normal label
    g2 = 2.0 * gvals[-1]
    if sp >= 0.5:
        c = _check("cor55_labels", g2, 5.0, "S_P >= 1/2: no labels emitted", "vacuous")
    else:
        labels.append("fixed point property (Cor 5.5 i)")
        if sp >= 0.125:
            c = _check("cor55_labels", g2, 5.0, "fixed point property label emitted; S_P >= "
                       "1/8 so the super-normal assertion is not triggered", "pass")
        else:
            c = _check("cor55_labels", g2, 5.0, f"S_P = {sp:.6g} < 1/8; asserting 2*gamma(1) < 5")
            if c.status == "pass":
                labels.append("super-normal structure (Cor 5.5 ii)")
    checks.append(c)

    # 9. Near-extremal S_P forces witness pair norms 2
    if sp >= 0.5 - 1e-6:
        a, b = space.norm(est["sp"].x + est["sp"].y), space.norm(est["sp"].x - est["sp"].y)
        checks.append(_check("prop56", max(abs(a - 2.0), abs(b - 2.0)), 0.0,
                             f"witness pair norms {a:.9g}, {b:.9g}"))
    else:
        checks.append(_check("prop56", 0.0, 0.0, f"S_P = {sp:.6g} < 1/2 - 1e-6: witness "
                             "conclusion not applicable", "vacuous"))

    # 10. A pair with both pair norms sqrt(2) exists
    wx, wy = est["sqrt2_residual"].x, est["sqrt2_residual"].y
    checks.append(_check("hilbert_pair", res, 0.0, "minimizing pair has norms "
                         f"{space.norm(wx + wy):.9g}, {space.norm(wx - wy):.9g}"))

    # 11. S * J = 2
    checks.append(_check("sj_identity", sk * jc, 2.0, f"S = {sk:.9g}, J = {jc:.9g}"))

    # 12. C'_NJ >= J^2 / 2
    checks.append(_check("cnj_j", cnjp, jc * jc / 2.0))

    # 13. C_Z <= C_NJ
    checks.append(_check("cz_le_cnj", cz, cnj))

    # 14. Upper bounds on S_P scaled by 1/delta(0): delta(0) = 0 exactly (x = y),
    #     so each bound is +inf and the check is vacuous
    checks.append(_check("delta0_family", sp, math.inf,
                         f"delta(0) = {d0:.3g}: each bound is +inf", "vacuous"))

    # 15. Euclidean-flagged spaces: S_P = 0, C_Z = 1, gamma(t) = 1 + t^2
    if space.is_euclidean:
        devs = [abs(sp), abs(cz - 1.0)] + [abs(g - (1.0 + t * t))
                                           for t, g in zip(_GAMMA_TS, gvals)]
        checks.append(_check("hilbert_suite", max(devs), 0.0, "max deviation over S_P, C_Z, "
                             f"gamma grid; S_P dev {devs[0]:.3g}, C_Z dev {devs[1]:.3g}"))
    else:
        checks.append(_check("hilbert_suite", 0.0, 0.0, "space is not flagged Euclidean",
                             "vacuous"))

    return VerificationReport(space=space, cfg=cfg, checks=checks,
                              labels=labels, constants=est)
