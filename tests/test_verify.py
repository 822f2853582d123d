import math
from dataclasses import replace

import pytest

from normgeo import constants
from normgeo.search import SearchConfig
from normgeo.spaces import build_space, parse_space_spec
from normgeo.verify import CHECK_NAMES, run_checks

# run_checks is the expensive end of the suite; reports are cached per space.

_REPORTS = {}


def report_for(space):
    if space.name not in _REPORTS:
        _REPORTS[space.name] = run_checks(space)
    return _REPORTS[space.name]


def by_name(report, name):
    return next(c for c in report.checks if c.name == name)


# --------------------------------------------------------------------------
# Registry shape
# --------------------------------------------------------------------------

def test_all_checks_present_in_order(l2):
    rep = report_for(l2)
    assert [c.name for c in rep.checks] == CHECK_NAMES
    assert len(CHECK_NAMES) == 15


def test_check_fields_populated(l15):
    rep = report_for(l15)
    for c in rep.checks:
        assert c.status in ("pass", "fail", "vacuous")
        assert c.relation in ("<=", ">=", "=", "<=>")
        assert c.paper_ref
        assert isinstance(c.slack, float)


def test_report_constants_exposed(l2):
    rep = report_for(l2)
    for key in ("sp", "james", "cnj", "cnj_prime", "zbaganu", "schaffer",
                "sqrt2_residual", "delta(0)"):
        assert key in rep.constants


# --------------------------------------------------------------------------
# Euclidean space: everything passes, all labels fire
# --------------------------------------------------------------------------

def test_l2_all_pass(l2):
    rep = report_for(l2)
    assert rep.passed
    assert rep.failures() == []


def test_l2_labels(l2):
    rep = report_for(l2)
    assert rep.labels == [
        "uniform normal structure (Thm 5.4)",
        "fixed point property (Cor 5.5 i)",
        "super-normal structure (Cor 5.5 ii)",
    ]


def test_l2_hilbert_suite_runs(l2):
    rep = report_for(l2)
    suite = by_name(rep, "hilbert_suite")
    assert suite.status == "pass"
    assert suite.lhs <= 1e-4


def test_l2_prop56_vacuous(l2):
    # S_P(l2) = 0 is far from the 1/2 threshold.
    assert by_name(report_for(l2), "prop56").status == "vacuous"


# --------------------------------------------------------------------------
# l1: boundary space
# --------------------------------------------------------------------------

def test_l1_passes_with_boundary_vacuous(l1):
    rep = report_for(l1)
    assert rep.passed
    assert by_name(rep, "thm51").status == "vacuous"
    assert by_name(rep, "delta0_family").status == "vacuous"


def test_l1_prop56_witness(l1):
    rep = report_for(l1)
    c = by_name(rep, "prop56")
    assert c.status == "pass"
    assert c.lhs <= 1e-3   # lhs is the worst witness-norm deviation from 2
    est = rep.constants["sp"]
    assert l1.norm(est.x + est.y) == pytest.approx(2.0, abs=1e-3)
    assert l1.norm(est.x - est.y) == pytest.approx(2.0, abs=1e-3)


def test_l1_no_labels(l1):
    assert report_for(l1).labels == []


def test_l1_hilbert_suite_vacuous(l1):
    assert by_name(report_for(l1), "hilbert_suite").status == "vacuous"


def test_delta0_family_vacuous_note(l1):
    c = by_name(report_for(l1), "delta0_family")
    assert "each bound is +inf" in c.note


def test_delta0_family_evaluates_when_delta0_positive(monkeypatch, l15, quick_cfg):
    """With delta(0) > 0 the family of bounds is computed, rho(1) included,
    and compared with S_P."""
    delta = constants.delta

    def positive_at_zero(space, eps, cfg=None, mode="geq", *, cache=None):
        est = delta(space, eps, cfg, mode, cache=cache)
        return replace(est, value=0.25) if eps == 0.0 else est

    monkeypatch.setattr(constants, "delta", positive_at_zero)
    c = by_name(run_checks(l15, quick_cfg), "delta0_family")
    assert c.status in ("pass", "fail")
    assert math.isfinite(c.rhs) and "delta(0) = 0.25" in c.note


# --------------------------------------------------------------------------
# Non-boundary, non-Euclidean space
# --------------------------------------------------------------------------

def test_l15_thm51_biconditional_runs(l15):
    rep = report_for(l15)
    c = by_name(rep, "thm51")
    assert c.status == "pass"
    assert c.relation == "<=>"


def test_l15_labels(l15):
    assert report_for(l15).labels == ["fixed point property (Cor 5.5 i)"]


def test_hexagon_passes(hexagon):
    rep = report_for(hexagon)
    assert rep.passed


def test_cor48_notes_rendering_discrepancy(l15):
    c = by_name(report_for(l15), "cor48")
    assert "typographical" in c.note


# --------------------------------------------------------------------------
# Value-level spot checks
# --------------------------------------------------------------------------

def test_bounds_checks_record_values(l15):
    rep = report_for(l15)
    sp = by_name(rep, "bounds_sp")
    assert 0.0 <= sp.lhs <= 0.5
    j = by_name(rep, "bounds_j")
    assert math.sqrt(2.0) - 1e-9 <= j.lhs <= 2.0


def test_sj_identity_values(l15):
    c = by_name(report_for(l15), "sj_identity")
    assert c.lhs == pytest.approx(2.0, abs=1e-3)
    assert c.rhs == 2.0


def test_cnj_j_inequality(l15):
    c = by_name(report_for(l15), "cnj_j")
    assert c.status == "pass"
    assert c.lhs >= c.rhs - 1e-9   # C'_NJ = J^2/2 exactly on lp


def test_cz_le_cnj(hexagon):
    c = by_name(report_for(hexagon), "cz_le_cnj")
    assert c.status == "pass"


def test_coarse_config_still_passes(l15):
    # A deliberately cheap run must stay internally consistent.
    rep = run_checks(l15, SearchConfig(grid_per_dim=240, refine_iters=60,
                                       multistart=8))
    assert rep.passed
