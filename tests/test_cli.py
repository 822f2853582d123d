import json
import math
import re

import pytest

import normgeo.cli as cli
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


# The oracle sections of `constants --space SPACE --oracle --oracle-grid 720`
# at the default search config, as printed when t's oracle had its own
# full-grid scan: one shared scan must print the same numbers.
_ORACLE_720 = {
    "polyv:v=[[1,0],[0.5,0.8660254037844386],[-0.5,0.8660254037844386]]": {
        "sp": (0.25, 0.0), "james": (1.5, 0.0), "cnj_prime": (1.25, 0.0),
        "schaffer": (1.33667657142, -0.00334323808376), "T": (1.5, 0.0),
        "t": (1.44733522538, -0.000121629880662)},
    ("polyv:v=[[0.7858313674021201,-0.5921664096036845],"
     "[0.14413548292338202,-0.8899193478079512],"
     "[0.13757045672648927,0.8785065645059619],"
     "[-0.272598308979969,0.8340155750102037],"
     "[0.681661001281639,-0.6936632744049768],"
     "[1.0017230951406,0.03323057755708036],"
     "[0.4436434705169979,-0.9259553524937753],"
     "[0.3627237032597195,-1.1938642851048182]]"): {
        "sp": (0.394840862696, 0.00205792127266),
        "james": (1.81515032282, 0.00128972848846),
        "cnj_prime": (1.65242981492, 0.00563227004834),
        "schaffer": (1.10196686552, -0.000912086117459),
        "T": (1.81790360733, 0.00309053273559),
        "t": (1.33287468853, 0.000341459812536)},
}


@pytest.mark.parametrize("space", list(_ORACLE_720), ids=["hexagon", "polygon0"])
def test_constants_oracle_section_pinned(capsys, space):
    code, out, _ = run_cli(capsys, "constants", "--space", space,
                           "--oracle", "--oracle-grid", "720")
    assert code == 0
    expected = {name: {"value": v, "optimizer_delta": d}
                for name, (v, d) in _ORACLE_720[space].items()}
    assert json.loads(out)["oracle"] == {"grid_size": 720, **expected}


def test_constants_oracle_rejects_3d(capsys):
    code, _, err = run_cli(capsys, "constants", "--space", "lp:p=2,dim=3",
                           "--oracle")
    assert code == 2
    assert "2D" in err or "dim" in err


def _no_computation(*args, **kwargs):
    raise AssertionError("the input should be rejected before any computation")


@pytest.mark.parametrize("grid", ["0", "-5", "2"])
def test_constants_oracle_grid_rejected_before_computing(capsys, monkeypatch, grid):
    monkeypatch.setattr(cli.con, "compute_all", _no_computation)
    code, out, err = run_cli(capsys, "constants", "--space", "lp:p=2,dim=2",
                             "--oracle", "--oracle-grid", grid)
    assert (code, out) == (2, "")
    assert err == f"error: --oracle-grid must be at least 3, got {grid}\n"


@pytest.mark.parametrize("flag, value, message, sweep", [
    ("--delta-eps", "3", "eps must lie in [0, 2], got 3.0", "3:3:1"),
    ("--gamma-t", "2", "gamma is defined for t in [0, 1], got 2.0", "2:2:1"),
    ("--rho-t", "-1", "rho is defined for finite t >= 0, got -1.0", None),
    ("--rho-t", "nan", "rho is defined for finite t >= 0, got nan", None),
    ("--rho-t", "inf", "rho is defined for finite t >= 0, got inf", None),
], ids=["delta-3", "gamma-2", "rho-neg", "rho-nan", "rho-inf"])
def test_constants_bad_modulus_rejected_before_computing(capsys, monkeypatch, flag, value,
                                                         message, sweep):
    """A modulus argument outside its domain exits 2 with the message that
    sweep prints for it, before the pair table is built."""
    if sweep is not None:
        code, out, err = run_cli(capsys, "sweep", "--space", "lp:p=2,dim=2", flag, sweep)
        assert (code, out, err) == (2, "", f"error: {message}\n")
    monkeypatch.setattr(cli.con, "pair_table", _no_computation)
    code, out, err = run_cli(capsys, "constants", "--space", "lp:p=2,dim=2", flag, value)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flag, text, message", [
    ("--delta-eps", "1:3:1", "eps must lie in [0, 2], got 3.0"),
    ("--gamma-t", "0.5:1.5:0.5", "gamma is defined for t in [0, 1], got 1.5"),
])
def test_sweep_range_rejected_before_computing(capsys, monkeypatch, flag, text, message):
    """A sweep range that leaves the modulus's domain exits 2 before any
    row is computed, not after the rows inside the domain."""
    for name in ("delta", "gamma", "pair_table"):
        monkeypatch.setattr(cli.con, name, _no_computation)
    code, out, err = run_cli(capsys, "sweep", "--space", "lp:p=2,dim=2", flag, text)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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
    assert "weighted-lp weight w[0] = inf is not finite" in err


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


@pytest.mark.parametrize("space, grid", [("lp:p=1.5,dim=2", 48), ("lp:p=1.5,dim=3", 8)])
def test_sweep_delta_shared_table_matches_delta(capsys, space, grid):
    # The sweep builds one pair table for every eps; each row is still the
    # value delta gives without a table.
    from normgeo import constants
    from normgeo.search import SearchConfig
    from normgeo.spaces import build_space, parse_space_spec

    code, out, _ = run_cli(capsys, "sweep", "--space", space, "--delta-eps", "0.5:1.5:0.5",
                           "--grid", str(grid), "--refine", "40", "--multistart", "4")
    assert code == 0
    built = build_space(parse_space_spec(space))
    cfg = SearchConfig(grid_per_dim=grid, refine_iters=40, multistart=4)
    expect = [f"{fmt(e)},{fmt(constants.delta(built, e, cfg).value)}" for e in (0.5, 1.0, 1.5)]
    assert out.strip().split("\n") == ["eps,delta"] + expect


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


@pytest.mark.parametrize("text, message", [
    ("1:inf:1", "range '1:inf:1' needs finite a, b and step"),
    ("1:2:nan", "range '1:2:nan' needs finite a, b and step"),
    ("-inf:2:1", "range '-inf:2:1' needs finite a, b and step"),
    ("-1e308:1e308:1e-10", "range '-1e308:1e308:1e-10' has too many steps"),
])
def test_parse_range_rejects_nonfinite(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        cli._parse_range(text)


@pytest.mark.parametrize("text", ["1:inf:1", "1:2:nan"])
def test_sweep_nonfinite_range_exit_2(capsys, text):
    code, out, err = run_cli(capsys, "sweep", "--space", "lp:dim=2", "--p", text)
    assert (code, out) == (2, "")
    assert err == f"error: range {text!r} needs finite a, b and step\n"


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


def test_verify_failing_space_exit_1(capsys, monkeypatch, quasi_half):
    """A failed check exits 1, names itself on stderr, and keeps its record
    in the JSON on stdout."""
    monkeypatch.setattr(cli, "build_space", lambda spec: quasi_half)
    code, out, err = run_cli(capsys, "verify", "--space", "lp:p=1,dim=2",
                             "--grid", "48", "--refine", "20", "--multistart", "2")
    assert code == 1
    failed = ["bounds_sp", "bounds_j", "thm41", "cor46", "prop56"]
    lines = err.strip().split("\n")
    assert [line.split(" (")[0] for line in lines] == [
        f"FAIL quasi(1/2): {name}" for name in failed]
    for line in lines:
        assert re.fullmatch(r"FAIL \S+: \w+ \(\S+ (<=|>=|=) \S+ at slack \S+\)", line), line
    rep = json.loads(out)
    assert [c["name"] for c in rep["checks"] if c["status"] == "fail"] == failed
    assert rep["labels"] == []


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


@pytest.mark.parametrize("constant, other", [("t", "maximize_pair"), ("T", "infsup_pair")])
def test_witness_t_or_T_computes_that_constant_alone(capsys, monkeypatch, constant, other):
    """witness --constant t runs t's inf-sup alone, and --constant T T's sup
    alone: the search of the other one is patched to fail."""
    monkeypatch.setattr(cli.con, other, _no_computation)
    code, out, _ = run_cli(capsys, "witness", "--space", "lp:p=1.5,dim=2", "--constant", constant,
                           "--grid", "96", "--refine", "20", "--multistart", "2")
    assert code == 0
    assert [l.split(",")[0] for l in out.strip().split("\n")[-4:]] == ["x", "y", "x+y", "x-y"]


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
