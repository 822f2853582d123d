import json
import math
import re

import pytest

from normgeo.cli import fmt, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# Number formatting
# --------------------------------------------------------------------------

def test_fmt_12_significant_digits():
    assert fmt(1.0 / 3.0) == "0.333333333333"
    assert fmt(2.0) == "2"
    assert fmt(math.sqrt(2.0)) == "1.41421356237"


def test_fmt_scientific_below_1e4():
    assert fmt(5e-5) == "5e-05"
    assert fmt(-3.2e-7) == "-3.2e-07"
    assert fmt(1.234e-4) == "0.0001234"


# --------------------------------------------------------------------------
# constants
# --------------------------------------------------------------------------

def test_constants_json_schema(capsys):
    code, out, _ = run_cli(capsys, "constants", "--space", "lp:p=1,dim=2",
                           "--grid", "240", "--refine", "60")
    assert code == 0
    rep = json.loads(out)
    assert list(rep) == ["space", "config", "constants", "timing"]
    assert rep["space"] == {"family": "lp", "dim": 2, "p": 1.0}
    assert rep["config"]["grid_per_dim"] == 240
    assert rep["config"]["refine_iters"] == 60
    for name in ("sp", "james", "cnj", "cnj_prime", "zbaganu", "schaffer",
                 "t", "T", "eps0"):
        entry = rep["constants"][name]
        assert set(entry) == {"value", "witness", "converged", "evaluations"}
    assert rep["constants"]["sp"]["value"] == pytest.approx(0.5, abs=1e-6)


def test_constants_csv_matches_json_values(capsys):
    args = ("--space", "lp:p=1.5,dim=2", "--grid", "240", "--refine", "60")
    code, out_json, _ = run_cli(capsys, "constants", *args)
    assert code == 0
    rep = json.loads(out_json)
    code, out_csv, _ = run_cli(capsys, "constants", *args, "--format", "csv")
    assert code == 0
    lines = out_csv.strip().split("\n")
    header = lines[0].split(",")
    assert header[:4] == ["name", "value", "converged", "evaluations"]
    for line in lines[1:]:
        name, value = line.split(",")[:2]
        assert value == fmt(rep["constants"][name]["value"])


def test_constants_requested_moduli(capsys):
    code, out, _ = run_cli(capsys, "constants", "--space", "lp:p=2,dim=2",
                           "--grid", "240", "--refine", "60",
                           "--gamma-t", "0.5", "--delta-eps", "1",
                           "--rho-t", "0.5")
    assert code == 0
    rep = json.loads(out)
    assert rep["constants"]["gamma(0.5)"]["value"] == pytest.approx(1.25, abs=1e-6)
    assert rep["constants"]["delta(1)"]["value"] == pytest.approx(
        1.0 - math.sqrt(0.75), abs=1e-5)
    assert rep["constants"]["rho(0.5)"]["value"] == pytest.approx(
        math.sqrt(1.25) - 1.0, abs=1e-5)


def test_constants_oracle_flag(capsys):
    code, out, _ = run_cli(capsys, "constants", "--space", "lp:p=1,dim=2",
                           "--grid", "240", "--refine", "60",
                           "--oracle", "--oracle-grid", "720")
    assert code == 0
    rep = json.loads(out)
    assert rep["oracle"]["grid_size"] == 720
    assert abs(rep["oracle"]["sp"]["optimizer_delta"]) < 1e-3


def test_constants_oracle_rejects_3d(capsys):
    code, _, err = run_cli(capsys, "constants", "--space", "lp:p=2,dim=3",
                           "--oracle")
    assert code == 2
    assert "2D" in err or "dim" in err


def test_constants_bad_space_exit_2(capsys):
    code, _, err = run_cli(capsys, "constants", "--space", "lp:p=0.5,dim=2")
    assert code == 2
    assert "p >= 1" in err


def test_constants_nonfinite_p_exit_2(capsys):
    code, out, err = run_cli(capsys, "constants", "--space", "lp:p=inf,dim=2")
    assert code == 2 and out == ""
    assert "finite p >= 1" in err


def test_constants_gauge_failing_axioms_exit_2(capsys):
    code, out, err = run_cli(capsys, "constants", "--space", "wlp:p=2,w=[1e999,1]")
    assert code == 2 and out == ""
    assert "fails the positivity axiom" in err


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def test_sweep_p_bound_column(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--space", "lp:dim=2",
                           "--p", "1.5:2.0:0.5", "--grid", "240", "--refine", "60")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,sp,sp_lower_bound,bound_ok"
    assert len(lines) == 3
    for line in lines[1:]:
        p, sp, bound, ok = line.split(",")
        assert ok == "true"
        assert float(sp) >= float(bound) - 1e-6


def test_sweep_gamma_l2(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--space", "lp:p=2,dim=2",
                           "--gamma-t", "0:1:0.5", "--grid", "240", "--refine", "60")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    for t_s, g_s in rows:
        t = float(t_s)
        assert float(g_s) == pytest.approx(1.0 + t * t, abs=1e-6)


def test_sweep_delta_l1_all_zero(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--space", "lp:p=1,dim=2",
                           "--delta-eps", "0:2:0.5", "--grid", "240", "--refine", "60")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 5
    for _, d_s in rows:
        assert abs(float(d_s)) < 1e-6


def test_sweep_requires_exactly_one_axis(capsys):
    code, _, err = run_cli(capsys, "sweep", "--space", "lp:p=2,dim=2")
    assert code == 2
    code, _, err = run_cli(capsys, "sweep", "--space", "lp:p=2,dim=2",
                           "--gamma-t", "0:1:0.5", "--delta-eps", "0:1:0.5")
    assert code == 2


def test_sweep_rejects_inverted_range(capsys):
    code, _, err = run_cli(capsys, "sweep", "--space", "lp:p=2,dim=2",
                           "--gamma-t", "1:0:0.1")
    assert code == 2
    assert "range" in err


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def test_verify_single_space(capsys):
    code, out, _ = run_cli(capsys, "verify", "--space", "lp:p=1.5,dim=2",
                           "--grid", "240", "--refine", "60")
    assert code == 0
    rep = json.loads(out)
    assert list(rep) == ["space", "config", "constants", "checks", "labels", "timing"]
    assert len(rep["checks"]) == 15
    statuses = {c["name"]: c["status"] for c in rep["checks"]}
    assert "fail" not in statuses.values()


def test_verify_battery_json(capsys):
    # Default grid: polyhedral Schaffer minima need the fine scan to localize.
    code, out, _ = run_cli(capsys, "verify", "--battery", "seed=3,count=2")
    assert code == 0
    rep = json.loads(out)
    assert list(rep) == ["battery", "timing"]
    assert len(rep["battery"]) == 2
    for entry in rep["battery"]:
        assert "timing" not in entry


def test_verify_battery_bad_spec(capsys):
    for bad in ("seed=7", "count=3", "seed=7,count=0", "seed=7,count=3,x=1"):
        code, _, err = run_cli(capsys, "verify", "--battery", bad)
        assert code == 2, bad


def test_verify_needs_one_target(capsys):
    code, _, _ = run_cli(capsys, "verify")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "--space", "lp:p=2,dim=2",
                         "--battery", "seed=1,count=1")
    assert code == 2


def test_verify_determinism(capsys):
    args = ("verify", "--space", "lp:p=1,dim=2", "--grid", "240", "--refine", "60")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    strip = lambda s: re.sub(r'"timing": \{[^}]*\}', '"timing": {}', s)
    assert strip(out1) == strip(out2)


# --------------------------------------------------------------------------
# witness
# --------------------------------------------------------------------------

def test_witness_l1_sp(capsys, l1):
    code, out, _ = run_cli(capsys, "witness", "--space", "lp:p=1,dim=2",
                           "--constant", "sp", "--grid", "240", "--refine", "60")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "label,x0,x1"
    sphere = [l for l in lines if l.startswith("sphere,")]
    assert len(sphere) == 720
    # The sphere polyline of l1 is the diamond |x0| + |x1| = 1.
    for row in sphere[:50]:
        _, x0, x1 = row.split(",")
        assert abs(float(x0)) + abs(float(x1)) == pytest.approx(1.0, abs=1e-9)
    labels = [l.split(",")[0] for l in lines[-4:]]
    assert labels == ["x", "y", "x+y", "x-y"]
    xp = lines[-2].split(",")[1:]
    xm = lines[-1].split(",")[1:]
    assert l1.norm([float(v) for v in xp]) == pytest.approx(2.0, abs=1e-3)
    assert l1.norm([float(v) for v in xm]) == pytest.approx(2.0, abs=1e-3)


def test_witness_unknown_constant(capsys):
    code, _, err = run_cli(capsys, "witness", "--space", "lp:p=1,dim=2",
                           "--constant", "nope")
    assert code == 2
    assert "sp" in err and "james" in err


def test_witness_scaled_constant_pairs_ty(capsys, l2):
    code, out, _ = run_cli(capsys, "witness", "--space", "lp:p=2,dim=2",
                           "--constant", "cnj", "--grid", "240", "--refine", "60")
    assert code == 0
    rows = {l.split(",")[0]: [float(v) for v in l.split(",")[1:]]
            for l in out.strip().split("\n")[1:] if not l.startswith("sphere")}
    x, y = rows["x"], rows["y"]
    assert [a + b for a, b in zip(x, y)] == pytest.approx(rows["x+y"])
    assert [a - b for a, b in zip(x, y)] == pytest.approx(rows["x-y"])


# --------------------------------------------------------------------------
# usage
# --------------------------------------------------------------------------

def test_unknown_subcommand_exit_2(capsys):
    assert main(["nonsense"]) == 2


def test_help_exit_0(capsys):
    assert main(["--help"]) == 0
