"""The package names that the benchmark's traced run looks up.

perfbench/tracing.py wraps package functions where callers look them up
(module attributes) for its replay, and perfbench/count_cli.py replaces the
gauge fields of every Space it builds.  Renaming or re-signing one of those
functions makes the traced run fail; this checks every lookup in about a
second, at the benchmark's own probe config.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

from normgeo import constants, verify
from normgeo.search import SearchConfig
from normgeo.spaces import build_space, parse_space_spec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's tracing, workloads and count_cli modules, imported as
    perfbench/run.py imports them and dropped again afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import count_cli
    import tracing
    import workloads
    yield tracing, workloads, count_cli
    for name in ("checks", "workloads", "tracing", "count_cli"):
        sys.modules.pop(name, None)


def test_traced_probes_record_every_span(perfbench):
    """Every probe but search.extremize's own runs with the wrappers
    installed, and each probe name records a span: search.extremize's comes
    from the constants that call maximize_pair."""
    tracing, workloads, _ = perfbench
    ng = workloads.modules()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer, ng)
    try:
        calls = tracing._probe_calls(ng)
        for name, thunk in calls.items():
            if name != "search.extremize":
                thunk()
    finally:
        tracing.uninstall(saved)
    assert set(calls) - {span[0] for span in tracer.spans} == set()
    assert ng.constants.maximize_pair is ng.search.maximize_pair


def test_counting_space_counts_gauge_calls(perfbench):
    _, _, count_cli = perfbench
    counts = {"gauge": 0, "points": 0, "scalar": 0}
    space = count_cli.counting_space(build_space(parse_space_spec("lp:p=1.5,dim=2")), counts)
    assert space.gauge(np.ones((3, 2))).shape == (3,)
    assert counts == {"gauge": 1, "points": 3, "scalar": 0}


@pytest.mark.parametrize("entry", ["run_checks", "compute_all"])
def test_replays_reach_the_traced_extremum(monkeypatch, entry):
    """The traced run times the grid scan and the zoom through
    constants.maximize_pair and minimize_pair; when no replay reaches them
    it falls back to its direct search.extremize probe, which raises.
    verify.run_checks (the battery-verify replay) and compute_all (the
    constants replays) must each call one of them."""
    calls = []
    for name in ("maximize_pair", "minimize_pair"):
        def counted(*args, _fn=getattr(constants, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(constants, name, counted)
    space = build_space(parse_space_spec("lp:p=1.5,dim=2"))
    cfg = SearchConfig(grid_per_dim=90, refine_iters=20, multistart=2)
    {"run_checks": verify.run_checks, "compute_all": constants.compute_all}[entry](space, cfg)
    assert calls
