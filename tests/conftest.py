import numpy as np
import pytest
from scipy.optimize import linprog

from kkit.bodies import Cylinder, Ellipsoid, Intersection, PBall, Polytope
from kkit.linalg import Subspace


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture
def box3():
    """Unit cube, vertex order chosen so the facet x=1 has the smallest index set."""
    return Polytope(
        [
            [1, 1, 1],
            [1, 1, -1],
            [1, -1, 1],
            [1, -1, -1],
            [-1, 1, 1],
            [-1, 1, -1],
            [-1, -1, 1],
            [-1, -1, -1],
        ]
    )


@pytest.fixture
def square():
    return Polytope([[1, 1], [1, -1], [-1, -1], [-1, 1]])


def disk_cylinder(radius=1.0, half_height=2.0):
    """Truncated circular cylinder around the z axis."""
    xy = Subspace.coordinate(3, 0, 1)
    z = Subspace.coordinate(3, 2)
    infinite = Cylinder(Ellipsoid(np.eye(2) / radius**2), xy, z)
    segment = Polytope([[-half_height], [half_height]])
    slab = Cylinder(segment, z, xy)
    return Intersection([infinite, slab])


def random_spd(r, n, cond=10.0, scale=1.0):
    """Random SPD matrix with condition number at most cond."""
    Q, _ = np.linalg.qr(r.normal(size=(n, n)))
    lo, hi = 1.0 / np.sqrt(cond), np.sqrt(cond)
    w = np.exp(r.uniform(np.log(lo), np.log(hi), size=n))
    return scale * (Q * w) @ Q.T


def lp_gauge(vertices, v):
    """Polytope gauge as the linear program min sum(lam), vertices.T lam = v,
    lam >= 0 (HiGHS): the reference for Polytope's facet formula."""
    vertices = np.asarray(vertices, dtype=float)
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    res = linprog(
        np.ones(len(vertices)), A_eq=vertices.T, b_eq=v / nv, bounds=(0.0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(nv * res.fun)


def random_polytope(r, n, m=None):
    m = m or (2 * n + 4)
    V = r.normal(size=(m, n))
    V -= V.mean(axis=0)
    return Polytope(V)
