"""The benchmark's workloads: lists of `normgeo` CLI invocations.

Each invocation is described once and yields three things: its argv for a
fresh CLI process, an in-process replay through the package's public
functions (the same calls the CLI makes, for the traced run), and the check
of its output.  `ng` below is a namespace holding the package modules
(spaces, search, constants, verify, oracle); replays look functions up on
the modules at call time, so the traced run can wrap them.

The specs are fixed: the closed-form checks need known spaces, and the
battery is the program's own seeded input.  Every number is passed at full
precision; battery polygon #0 is written from its vertices with repr,
because NormSpec.to_string rounds to 6 digits.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import checks

LP2 = "lp:p=1.5,dim=2"
LP3 = "lp:p=1.5,dim=3"
HEXAGON = "polyv:v=[[1,0],[0.5,0.8660254037844386],[-0.5,0.8660254037844386]]"
# battery_specs(7, 20)[0]
POLYGON0 = ("polyv:v=[[0.7858313674021201,-0.5921664096036845],"
            "[0.14413548292338202,-0.8899193478079512],"
            "[0.13757045672648927,0.8785065645059619],"
            "[-0.272598308979969,0.8340155750102037],"
            "[0.681661001281639,-0.6936632744049768],"
            "[1.0017230951406,0.03323057755708036],"
            "[0.4436434705169979,-0.9259553524937753],"
            "[0.3627237032597195,-1.1938642851048182]]")
BATTERY_SEED = 7
BATTERY_COUNT = 20
ORACLE_GRID = 3600      # the CLI's --oracle-grid default

_CLOSED_FORMS = {LP2: checks.lp15_closed_forms, LP3: checks.lp15_closed_forms,
                 HEXAGON: checks.hexagon_closed_forms}


def _csv(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def oracle_combines(con) -> dict:
    """The pair-norm reductions `constants --oracle` cross-checks."""
    return {"sp": (con.pair_cosine, "sup"), "james": (con.min_norm, "sup"),
            "cnj_prime": (con.mean_square_quarter, "sup"),
            "schaffer": (con.max_norm, "inf"), "T": (con.geom_mean, "sup")}


@dataclass(frozen=True)
class Constants:
    """`normgeo constants --space SPACE [moduli] [--oracle]`."""

    space: str
    gamma_t: tuple = ()
    delta_eps: tuple = ()
    rho_t: tuple = ()
    oracle: bool = False

    @property
    def label(self) -> str:
        return f"constants {self.space[:24]}{' --oracle' if self.oracle else ''}"

    def argv(self) -> list[str]:
        out = ["constants", "--space", self.space]
        if self.oracle:
            out.append("--oracle")
        for flag, vals in (("--delta-eps", self.delta_eps), ("--gamma-t", self.gamma_t),
                           ("--rho-t", self.rho_t)):
            if vals:
                out += [flag, _csv(vals)]
        return out

    def setup(self, ng) -> None:
        ng.spaces.build_space(ng.spaces.parse_space_spec(self.space))

    def replay(self, ng) -> None:
        space = ng.spaces.build_space(ng.spaces.parse_space_spec(self.space))
        cfg = ng.search.SearchConfig.for_dim(space.dim)
        ng.constants.compute_all(space, cfg, gamma_ts=self.gamma_t,
                                 delta_eps=self.delta_eps, rho_ts=self.rho_t)
        if self.oracle:
            ng.oracle.oracle_pair_norm_extrema(space, oracle_combines(ng.constants),
                                               grid_size=ORACLE_GRID, eta=cfg.eta)
            ng.oracle.oracle_infsup(space, ng.constants.geom_mean,
                                    grid_size=ORACLE_GRID, eta=cfg.eta)

    def check(self, stdout: str) -> list[str]:
        return checks.check_constants(self.label, stdout, _CLOSED_FORMS.get(self.space))


@dataclass(frozen=True)
class SweepP:
    """`normgeo sweep --space SKELETON --p a:b:step` (S_P per p)."""

    skeleton: str
    a: float
    b: float
    step: float

    label = "sweep --p"

    def ps(self) -> list[float]:
        # The CLI's own range rule: a + i*step, endpoints inclusive.
        n = int((self.b - self.a) / self.step + 1e-9) + 1
        return [self.a + i * self.step for i in range(n)]

    def argv(self) -> list[str]:
        return ["sweep", "--space", self.skeleton, "--p", f"{self.a:g}:{self.b:g}:{self.step:g}"]

    def _spaces(self, ng):
        spec = ng.spaces.parse_space_spec(self.skeleton, allow_missing_p=True)
        for p in self.ps():
            yield ng.spaces.build_space(replace(spec, p=p))

    def setup(self, ng) -> None:
        for _ in self._spaces(ng):
            pass

    def replay(self, ng) -> None:
        for space in self._spaces(ng):
            ng.constants.sp_constant(space, ng.search.SearchConfig.for_dim(space.dim))

    def check(self, stdout: str) -> list[str]:
        return checks.check_sweep_p(self.label, stdout, self.ps())


@dataclass(frozen=True)
class Battery:
    """`normgeo verify --battery seed=N,count=K`."""

    seed: int
    count: int

    label = "verify --battery"

    def argv(self) -> list[str]:
        return ["verify", "--battery", f"seed={self.seed},count={self.count}"]

    def _spaces(self, ng):
        for spec in ng.spaces.battery_specs(self.seed, self.count):
            yield ng.spaces.build_space(spec)

    def setup(self, ng) -> None:
        for _ in self._spaces(ng):
            pass

    def replay(self, ng) -> None:
        for space in self._spaces(ng):
            ng.verify.run_checks(space, ng.search.SearchConfig.for_dim(space.dim))

    def check(self, stdout: str) -> list[str]:
        return checks.check_battery(self.label, stdout, self.count)


WORKLOADS = {
    "battery-verify": [Battery(BATTERY_SEED, BATTERY_COUNT)],
    "constants-2d": [
        Constants(LP2, gamma_t=(0.5, 1.0), delta_eps=(0.5, 1.0, 1.5), rho_t=(1.0,)),
        Constants(HEXAGON, gamma_t=(0.5, 1.0), delta_eps=(0.5, 1.0, 1.5), rho_t=(1.0,)),
        Constants(POLYGON0, delta_eps=(1.0,), oracle=True),
        SweepP("lp:dim=2", 1.0, 4.0, 0.25),
    ],
    "constants-3d": [Constants(LP3)],
}


def modules():
    """The package modules, as the namespace the replays take."""
    from types import SimpleNamespace

    from normgeo import constants, oracle, search, spaces, verify
    return SimpleNamespace(spaces=spaces, search=search, constants=constants,
                           verify=verify, oracle=oracle)
