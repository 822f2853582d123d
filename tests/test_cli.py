import concurrent.futures
import json
import math
import multiprocessing
import os
import re
import signal
import tracemalloc

import numpy as np
import pytest

import normgeo.cli as cli
from normgeo.cli import fmt, main
from normgeo.parallel import run_split
from normgeo.search import NoStartError, SearchConfig
from normgeo.spaces import battery_specs, build_space, parse_space_spec


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


def test_constants_oracle_rejects_csv_before_computing(capsys, monkeypatch):
    monkeypatch.setattr(cli.con, "compute_all", _no_computation)
    code, out, err = run_cli(capsys, "constants", "--space", "lp:p=2,dim=2",
                             "--oracle", "--format", "csv")
    assert (code, out) == (2, "")
    assert err == "error: --oracle requires --format json; the CSV output has no oracle section\n"


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
    for bad in ("seed=7", "count=3", "seed=7,count=0", "seed=7,count=3,x=1",
                "seed=-1,count=1", "seed=1.5,count=1"):
        code, _, err = run_cli(capsys, "verify", "--battery", bad)
        assert code == 2, bad
        assert err == (f"error: battery spec must be seed=N,count=K with integers N >= 0 "
                       f"and K >= 1, got {bad!r}\n"), bad


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


# A battery spreads its spaces over a pool of w forked workers, w the CPUs
# of the affinity mask (at most one per space); this process only merges.
_BATTERY = ("verify", "--battery", "seed=3,count=4", "--grid", "96", "--refine", "30")
_SPECS = battery_specs(3, 4)
_NAMES = [build_space(spec).name for spec in _SPECS]


def run_battery(capsys, monkeypatch, workers):
    """verify on _BATTERY with `workers` CPUs in the affinity mask: exit
    code, stdout without its seconds line, stderr; no child may be left."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    code, out, err = run_cli(capsys, *_BATTERY)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, re.sub(r'\n *"seconds": \S+', "", out), err


def failing_checks(monkeypatch, fail_at):
    """Patch cli.run_checks: fail_at(index) may raise or kill before the
    space at that battery index is checked; every space checked reports a
    failed first check, so each prints a FAIL line."""
    run_checks = cli.run_checks

    def patched(space, cfg):
        fail_at(_SPECS.index(space.spec))
        report = run_checks(space, cfg)
        report.checks[0].status = "fail"
        return report

    monkeypatch.setattr(cli, "run_checks", patched)


def test_verify_battery_output_same_on_any_worker_count(capsys, monkeypatch):
    serial = run_battery(capsys, monkeypatch, 1)
    assert serial[0] in (0, 1) and len(json.loads(serial[1])["battery"]) == 4
    for workers in (2, 3):
        assert run_battery(capsys, monkeypatch, workers) == serial


@pytest.mark.parametrize("error, code", [(lambda m: NoStartError(0, m), 2),
                                         (RuntimeError, 1)])
@pytest.mark.parametrize("bad", [2, 1])   # a later or an earlier space of the battery
def test_verify_battery_failure_same_as_serial(capsys, monkeypatch, error, code, bad):
    """A space that raises ends the battery with the FAIL lines of the
    spaces before it and its error line, as the one-process run does; a
    worker's NoStartError comes back pickled, as a ValueError (exit 2)."""
    def fail_at(index):
        if index == bad:
            raise error(f"space {index} failed")

    failing_checks(monkeypatch, fail_at)
    serial = run_battery(capsys, monkeypatch, 1)
    assert serial[:2] == (code, "")
    assert [line.split(":")[0] for line in serial[2].splitlines()] == (
        [f"FAIL {name}" for name in _NAMES[:bad]] + ["error"])
    assert serial[2].endswith(f"error: space {bad} failed\n")
    for workers in (2, 3):
        assert run_battery(capsys, monkeypatch, workers) == serial


# What every pending space of a pool fails with once a worker is killed.
_BROKEN_POOL = ("A process in the process pool was terminated abruptly "
                "while the future was running or pending.")


def test_verify_battery_killed_worker_is_an_error(capsys, monkeypatch):
    """A worker killed by a signal ends the run with exit 1 and the pool's
    error line, after the FAIL lines of the spaces already in, which are
    the first FAIL lines of the serial run."""
    parent = os.getpid()

    def fail_at(index):
        if index == 1 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    failing_checks(monkeypatch, fail_at)
    serial_fails = run_battery(capsys, monkeypatch, 1)[2].splitlines()
    assert len(serial_fails) >= 4   # every space fails at least its first check
    code, out, err = run_battery(capsys, monkeypatch, 2)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert lines[-1] == f"error: {_BROKEN_POOL}"
    assert lines[:-1] == serial_fails[:len(lines) - 1]


def test_verify_battery_worker_exception_propagates(capsys, monkeypatch):
    """An exception main does not report leaves a worker as it leaves the
    one-process run."""
    def fail_at(index):
        if index == 1:
            1 / 0

    failing_checks(monkeypatch, fail_at)
    for workers in (1, 2):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            run_battery(capsys, monkeypatch, workers)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_verify_battery_interrupt_reaps_children(capsys, monkeypatch):
    """An interrupt of the main process, here sent by the worker that
    checks space 1, leaves no worker behind."""
    parent = os.getpid()

    def fail_at(index):
        if index == 1 and os.getpid() != parent:
            os.kill(parent, signal.SIGINT)

    failing_checks(monkeypatch, fail_at)
    with pytest.raises(KeyboardInterrupt):
        run_battery(capsys, monkeypatch, 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_one_space_or_one_cpu_builds_no_pool(capsys, monkeypatch):
    """With one CPU, or one space on several, the spaces are verified in
    this process and no worker is started."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "fork", no_pool)
    code, out, err = run_battery(capsys, monkeypatch, 1)
    assert code in (0, 1) and len(json.loads(out)["battery"]) == 4
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    code, out, _ = run_cli(capsys, "verify", "--space", "lp:p=1.5,dim=2",
                           "--grid", "96", "--refine", "30")
    assert code in (0, 1) and "checks" in json.loads(out)


# constants splits its searches (and the oracle) over w processes, w the
# CPUs of the affinity mask (at most one per task); this process takes every
# w-th task and a pool of w - 1 forked workers the rest.
_HEXAGON = "polyv:v=[[1,0],[0.5,0.8660254037844386],[-0.5,0.8660254037844386]]"
_SMALL = ("--grid", "96", "--refine", "30")
_MODULI = ("--delta-eps", "0.5,1", "--gamma-t", "0.5,1", "--rho-t", "1")


def run_constants(capsys, monkeypatch, cpus, *args):
    """constants on the hexagon with `cpus` CPUs in the affinity mask: exit
    code, stdout without its seconds line, stderr; no child may be left."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    code, out, err = run_cli(capsys, "constants", "--space", _HEXAGON, *_SMALL, *args)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, re.sub(r'\n *"seconds": \S+', "", out), err


def test_constants_output_same_on_any_cpu_count(capsys, monkeypatch):
    args = ("--oracle", "--oracle-grid", "720", *_MODULI)
    serial = run_constants(capsys, monkeypatch, 1, *args)
    rep = json.loads(serial[1])
    assert serial[0] == 0 and serial[2] == ""
    assert list(rep["oracle"]) == ["grid_size", "sp", "james", "cnj_prime", "schaffer", "T", "t"]
    assert list(rep["constants"])[6:] == ["t", "T", "eps0", "gamma(0.5)", "gamma(1)",
                                          "delta(0.5)", "delta(1)", "rho(1)"]
    for cpus in (2, 3):
        assert run_constants(capsys, monkeypatch, cpus, *args) == serial


@pytest.mark.parametrize("combine, key", [("_cnj_combine", "cnj"),
                                          ("_gamma_combine", "gamma(0.5)")])
def test_constants_failure_same_on_any_cpu_count(capsys, monkeypatch, combine, key):
    """A computation that fails names its constant and exits 1 at every CPU
    count.  A NaN gamma combine fails both gamma tasks; the first in task
    order is reported, whichever process ran it."""
    monkeypatch.setattr(cli.con, combine, _nan_combine)
    serial = run_constants(capsys, monkeypatch, 1, *_MODULI)
    assert serial[:2] == (1, "")
    assert serial[2].startswith(f"error: computation of '{key}' failed: no ")
    for cpus in (2, 3):
        assert run_constants(capsys, monkeypatch, cpus, *_MODULI) == serial


def test_constants_one_cpu_builds_no_pool(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "fork", no_pool)
    code, out, err = run_constants(capsys, monkeypatch, 1, "--oracle", "--oracle-grid", "360",
                                   *_MODULI)
    assert (code, err) == (0, "") and "oracle" in json.loads(out)


def _nan_combine(a, b, *t):
    return np.full(np.shape(a), np.nan)


def _values(ests):
    return {key: (est.value, list(est.x), list(est.y)) for key, est in ests.items()}


def test_compute_all_in_a_worker_builds_no_pool(monkeypatch):
    """compute_all called inside a pool's worker runs every task in that
    worker, however many CPUs its mask holds, and gets the same values."""
    space = build_space(parse_space_spec(_HEXAGON))
    cfg = SearchConfig(grid_per_dim=96, refine_iters=30)
    moduli = {"gamma_ts": (0.5,), "delta_eps": (1.0,), "rho_ts": (1.0,)}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = _values(cli.con.compute_all(space, cfg, **moduli))

    def in_worker():
        assert multiprocessing.parent_process() is not None
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker process started a pool")
        # This worker's own copies of the module attributes.
        concurrent.futures.ProcessPoolExecutor = os.fork = no_pool
        return _values(cli.con.compute_all(space, cfg, **moduli))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert run_split([lambda: None, in_worker]) == [None, serial]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_constants_grid_too_large_exit_2(capsys):
    """A grid whose lattice would not fit in memory exits 2 before anything
    large is allocated, naming the largest grid the dimension allows."""
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "constants", "--space", "lp:p=1.5,dim=4",
                                 "--grid", "120")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == ("error: grid_per_dim=120 lays out 214358881 points in dim 4, over the "
                   "limit of 1048576; the largest grid_per_dim dim 4 allows is 31\n")
    assert peak < 4e6


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
