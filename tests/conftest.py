import numpy as np
import pytest

from normgeo.search import SearchConfig
from normgeo.spaces import Space, battery_specs, build_space, parse_space_spec

# Spaces shared across test modules.  Session scope: building is cheap but the
# reports computed from them in test_acceptance are not.

BATTERY_LP = ("lp:p=1,dim=2", "lp:p=1.2,dim=2", "lp:p=1.5,dim=2",
              "lp:p=2,dim=2", "lp:p=3,dim=2", "lp:p=4,dim=2", "linf:dim=2")


@pytest.fixture(scope="session")
def l1():
    return build_space(parse_space_spec("lp:p=1,dim=2"))


@pytest.fixture(scope="session")
def l2():
    return build_space(parse_space_spec("lp:p=2,dim=2"))


@pytest.fixture(scope="session")
def linf():
    return build_space(parse_space_spec("linf:dim=2"))


@pytest.fixture(scope="session")
def l15():
    return build_space(parse_space_spec("lp:p=1.5,dim=2"))


@pytest.fixture(scope="session")
def hexagon():
    # Regular hexagon ball; corners off the coordinate axes.
    return build_space(parse_space_spec(
        "polyv:v=[[1,0],[0.5,0.8660254037844386],[-0.5,0.8660254037844386]]"))


@pytest.fixture(scope="session")
def battery_spaces():
    """The full acceptance battery: 20 seeded polyhedral + the lp family."""
    spaces = [build_space(s) for s in battery_specs(7, 20)]
    spaces += [build_space(parse_space_spec(s)) for s in BATTERY_LP]
    return spaces


@pytest.fixture(scope="session")
def battery_t_and_T(battery_spaces):
    """(t, T) per battery space at the default config, computed once for the
    acceptance criteria and the pinned t values."""
    from normgeo import constants as con
    return [con.t_and_T(s) for s in battery_spaces]


@pytest.fixture(scope="session")
def quasi_half():
    """(|x1|^(1/2) + |x2|^(1/2))^2: homogeneous but not convex, so not a norm.
    build_space would refuse it; the verification must fail on it."""
    def gauge(z):
        z = np.asarray(z, dtype=float)
        return (np.sqrt(np.abs(z[..., 0])) + np.sqrt(np.abs(z[..., 1]))) ** 2
    return Space(2, gauge, name="quasi(1/2)")


@pytest.fixture(scope="session")
def tiny_cfg():
    """The smallest config that still finds the gross violations of quasi_half."""
    return SearchConfig(grid_per_dim=48, refine_iters=20, multistart=2)


@pytest.fixture(scope="session")
def quick_cfg():
    """Coarse config for tests that only need rough values fast."""
    return SearchConfig(grid_per_dim=180, refine_iters=60, multistart=6)


def pair_norms(space, x, y):
    a = float(space.gauge(np.asarray(x) + np.asarray(y)))
    b = float(space.gauge(np.asarray(x) - np.asarray(y)))
    return a, b
