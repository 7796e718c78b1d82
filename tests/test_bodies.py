import numpy as np
import pytest
from scipy.spatial import ConvexHull

from kkit.bodies import (
    Body,
    Cylinder,
    Ellipsoid,
    Intersection,
    LinearImage,
    PBall,
    Polytope,
    SectionBody,
    fd_gradient,
    section_samples,
)
from kkit.errors import (
    DirectionInGeneratrix,
    MalformedBody,
    NotOnBoundary,
    UnboundedSection,
)
from kkit.linalg import Subspace, sphere_directions

from conftest import disk_cylinder, lp_gauge, random_polytope, random_spd, rng


def facet_gauge_oracle(vertices, v):
    """Brute force: smallest t with v in t*conv(vertices), via hull facets.

    t must satisfy a_F . v <= t for every facet functional a_F normalized to
    a_F . x = 1 on the facet, so the answer is the max.  Kept independent of
    the Polytope class internals.
    """
    hull = ConvexHull(vertices)
    normals, offsets = hull.equations[:, :-1], hull.equations[:, -1]
    functionals = -normals / offsets[:, None]
    return max(0.0, float(np.max(functionals @ v)))


def all_families(r):
    """One body per family, randomized."""
    Q = random_spd(r, 3, cond=8.0)
    A = r.normal(size=(3, 3)) + 2.0 * np.eye(3)
    families = {
        "ellipsoid": Ellipsoid(Q),
        "polytope": random_polytope(r, 3, 10),
        "pball": PBall(4.0, A),
        "cylinder": disk_cylinder(),
        "linear_image": LinearImage(A, Ellipsoid(np.eye(3))),
        "intersection": Intersection([Ellipsoid(np.eye(3) / 1.6), random_polytope(r, 3, 12)]),
    }
    return families


def test_gauge_frozen_examples():
    e = Ellipsoid(np.diag([1.0, 0.25]))
    assert abs(e.gauge([0.0, 2.0]) - 1.0) <= 1e-14
    p = PBall(4.0, np.eye(3))
    assert abs(p.gauge([1.0, 1.0, 0.0]) - 2.0**0.25) <= 1e-14
    box = Polytope([[1, 1], [1, -1], [-1, -1], [-1, 1]])
    assert abs(box.gauge([0.5, -1.0]) - 1.0) <= 1e-9
    li = LinearImage(np.diag([2.0, 1.0]), Ellipsoid(np.eye(2)))
    assert abs(li.gauge([2.0, 0.0]) - 1.0) <= 1e-14
    cyl = disk_cylinder()
    assert cyl.gauge([0.0, 0.0, 1.0]) == pytest.approx(0.5, abs=1e-14)
    assert Cylinder(
        Ellipsoid(np.eye(2)), Subspace.coordinate(3, 0, 1), Subspace.coordinate(3, 2)
    ).gauge([0.0, 0.0, 3.0]) == 0.0


def test_polytope_lp_matches_facet_oracle():
    r = rng(10)
    for n in (2, 3, 4):
        body = random_polytope(r, n, 3 * n + 2)
        for _ in range(60):
            v = r.normal(size=n) * np.exp(r.uniform(-2, 2))
            lp = lp_gauge(body.vertices, v)
            oracle = facet_gauge_oracle(body.vertices, v)
            assert abs(lp - oracle) <= 1e-9 * max(1.0, oracle)
            # the body's own gauge agrees too
            assert abs(body.gauge(v) - oracle) <= 1e-9 * max(1.0, oracle)


def test_gauge_homogeneity_and_subadditivity():
    r = rng(11)
    for name, body in all_families(r).items():
        n = body.dim
        V = r.normal(size=(400, n))
        W = r.normal(size=(400, n))
        t = np.exp(r.uniform(-3, 3, size=400))
        gv = body.gauge_many(V)
        gw = body.gauge_many(W)
        gtv = body.gauge_many(V * t[:, None])
        scale = np.maximum(1.0, gv)
        assert np.max(np.abs(gtv - t * gv) / (t * scale)) <= 1e-12, name
        gsum = body.gauge_many(V + W)
        assert np.max(gsum - (gv + gw)) <= 1e-9, name


def test_gauge_many_matches_gauge_pointwise():
    r = rng(12)
    for name, body in all_families(r).items():
        V = r.normal(size=(50, body.dim))
        g1 = body.gauge_many(V)
        g2 = np.array([body.gauge(v) for v in V])
        assert np.abs(g1 - g2).max() <= 1e-9, name


def test_ellipsoid_gauge_many_matches_row_loop():
    r = rng(12)
    for n in (1, 2, 3, 5):
        body = Ellipsoid(random_spd(r, n, cond=30.0))
        V = r.normal(size=(57, n))
        ref = np.array([np.sqrt(v @ body.Q @ v) for v in V])
        assert np.all(np.abs(body.gauge_many(V) - ref) <= 1e-12 * ref)
        assert body.gauge_many(np.empty((0, n))).shape == (0,)


def test_boundary_point_and_generatrix():
    cyl = Cylinder(
        Ellipsoid(np.eye(2)), Subspace.coordinate(3, 0, 1), Subspace.coordinate(3, 2)
    )
    p = cyl.boundary_point([3.0, 0.0, 5.0])
    assert abs(cyl.gauge(p) - 1.0) <= 1e-12
    with pytest.raises(DirectionInGeneratrix):
        cyl.boundary_point([0.0, 0.0, 1.0])
    # a stack of directions gives one boundary point per row, as single calls do,
    # and one direction in the generatrix fails the whole stack
    D = np.array([[3.0, 0.0, 5.0], [1.0, -2.0, 0.5], [0.0, 4.0, -1.0]])
    P = cyl.boundary_point(D)
    assert P.shape == D.shape
    assert np.array_equal(P, np.array([cyl.boundary_point(d) for d in D]))
    with pytest.raises(DirectionInGeneratrix):
        cyl.boundary_point(np.vstack([D, [0.0, 0.0, 1.0]]))


def test_support_functionals_are_supports():
    r = rng(13)
    for name, body in all_families(r).items():
        n = body.dim
        probe = sphere_directions(n, 128)
        g = body.gauge_many(probe)
        boundary = probe / g[:, None]
        for i in range(0, 128, 7):
            p = boundary[i]
            ell = body.support_functional(p)
            assert abs(ell @ p - 1.0) <= 1e-12, name
            vals = boundary @ ell
            assert vals.max() <= 1.0 + 1e-9, name


def test_support_many_matches_support_functional():
    r = rng(18)
    families = all_families(r)
    families["pball_p1"] = PBall(1.0, r.normal(size=(3, 3)) + 2.0 * np.eye(3))
    families["fd_fallback"] = AxisEllipsoid([1.0, 2.0, 3.0])
    column = Cylinder(
        Ellipsoid(np.eye(2)), Subspace.coordinate(3, 0, 1), Subspace.coordinate(3, 2)
    )
    families["section_of_intersection"] = SectionBody(
        Intersection([column, random_polytope(r, 3, 12)]), Subspace(r.normal(size=(3, 2)))
    )
    # square corners tie two facets each; every row keeps its own tie-break
    families["square"] = Polytope([[1, 1], [1, -1], [-1, -1], [-1, 1]])
    for name, body in families.items():
        corners = np.sign(r.normal(size=(4, body.dim)))
        dirs = np.vstack([sphere_directions(body.dim, 64), corners])
        P = dirs / body.gauge_many(dirs)[:, None]
        L = body.support_many(P)
        ref = np.array([body.support_functional(p) for p in P])
        assert L.shape == P.shape, name
        assert np.abs(L - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max()), name


def test_support_functional_requires_boundary():
    e = Ellipsoid(np.eye(2))
    with pytest.raises(NotOnBoundary):
        e.support_functional([0.5, 0.0])
    # one interior row fails the whole batch, also through nested bodies
    with pytest.raises(NotOnBoundary):
        e.support_many([[1.0, 0.0], [0.0, 1.0], [0.5, 0.0]])
    sec = SectionBody(disk_cylinder(), Subspace.coordinate(3, 0, 2))
    with pytest.raises(NotOnBoundary):
        sec.support_many([[1.0, 0.0], [0.0, 2.0], [0.0, 1.0]])


def test_polytope_support_tie_break_is_lexicographic():
    # vertex order puts facet x=1 on vertices {0,1} and y=1 on {0,3}
    sq = Polytope([[1, 1], [1, -1], [-1, -1], [-1, 1]])
    ell = sq.support_functional([1.0, 1.0])
    assert np.allclose(ell, [1.0, 0.0], atol=1e-12)


def test_fd_gradient_matches_analytic_supports():
    r = rng(14)
    Q = random_spd(r, 3, cond=6.0)
    e = Ellipsoid(Q)
    pb = PBall(3.0, r.normal(size=(3, 3)) + 2 * np.eye(3))
    for body in (e, pb):
        P = np.array([body.boundary_point(r.normal(size=3)) for _ in range(20)])
        ana = body.support_many(P)
        fd = fd_gradient(body.gauge_many, P)
        fd = fd / np.einsum("ij,ij->i", fd, P)[:, None]
        assert np.abs(ana - fd).max() <= 1e-7


def test_section_samples_invariants():
    r = rng(15)
    families = all_families(r)
    for name, body in families.items():
        X = Subspace(r.normal(size=(3, 2)))
        if name == "cylinder":
            # fixed plane keeps the generatrix out of the section
            X = Subspace.span([1.0, 0.0, 0.2], [0.0, 1.0, -0.1])
        calls = []
        raw = body._support_many
        body._support_many = lambda P: calls.append(len(P)) or raw(P)
        s = section_samples(body, X, m=64)
        amb = s.ambient_points
        g = body.gauge_many(amb)
        assert np.abs(g - 1.0).max() <= 1e-10, name
        # support functionals are computed only when read, in one batch
        assert not calls, name
        s.functionals
        assert calls == [64], name
        s.functionals
        assert calls == [64], name
        for t in range(64):
            lam = s.functionals[t]
            assert abs(lam @ s.points[t] - 1.0) <= 1e-12
            assert (s.points @ lam).max() <= 1.0 + 1e-9


def test_section_of_cylinder_through_generatrix_is_unbounded():
    cyl = Cylinder(
        Ellipsoid(np.eye(2)), Subspace.coordinate(3, 0, 1), Subspace.coordinate(3, 2)
    )
    with pytest.raises(UnboundedSection):
        section_samples(cyl, Subspace.coordinate(3, 0, 2), m=32)


def test_section_body_restricts_the_gauge():
    r = rng(16)
    body = PBall(4.0, r.normal(size=(4, 4)) + 2 * np.eye(4))
    W = Subspace(r.normal(size=(4, 3)))
    sec = SectionBody(body, W)
    for _ in range(30):
        u = r.normal(size=3)
        assert sec.gauge(u) == pytest.approx(body.gauge(W.frame @ u), abs=1e-14)


def test_malformed_bodies_are_rejected():
    with pytest.raises(MalformedBody):
        Ellipsoid(np.diag([1.0, -1.0]))
    with pytest.raises(MalformedBody):
        Ellipsoid(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(MalformedBody):
        Polytope([[1, 0], [2, 0], [1, 1], [2, 1]])  # origin outside
    with pytest.raises(MalformedBody):
        Polytope([[1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, -1, 0]])  # coplanar: no hull
    with pytest.raises(MalformedBody):
        PBall(0.5, np.eye(2))
    with pytest.raises(MalformedBody):
        PBall(2.0, np.zeros((2, 2)))
    with pytest.raises(MalformedBody):
        LinearImage(np.ones((2, 2)), Ellipsoid(np.eye(2)))
    with pytest.raises(MalformedBody):
        Intersection([Ellipsoid(np.eye(2))] * 17)


def test_one_dimensional_polytope_gauge():
    seg = Polytope([[-2.0], [4.0]])
    assert seg.gauge([4.0]) == pytest.approx(1.0, abs=1e-12)
    assert seg.gauge([-4.0]) == pytest.approx(2.0, abs=1e-12)
    assert seg.gauge_many(np.array([[1.0], [-1.0]])) == pytest.approx([0.25, 0.5])


def test_nonsymmetric_polytope_gauge_asymmetry():
    tri = Polytope([[2.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    assert tri.gauge([1.0, 0.0]) != pytest.approx(tri.gauge([-1.0, 0.0]), abs=1e-6)


class AxisEllipsoid(Body):
    """Defines only gauge_many: sqrt(sum (v_i / a_i)^2)."""

    def __init__(self, axes):
        self.axes = np.asarray(axes, dtype=float)
        self.dim = self.axes.size

    def gauge_many(self, V):
        return np.linalg.norm(np.asarray(V, dtype=float) / self.axes, axis=1)


def test_body_defined_by_gauge_many_alone():
    body = AxisEllipsoid([1.0, 2.0, 3.0])
    r = rng(17)
    for _ in range(20):
        d = r.normal(size=3)
        g = np.sqrt(np.sum((d / body.axes) ** 2))
        assert body.gauge(d) == pytest.approx(g, rel=1e-15)
        p = body.boundary_point(d)
        assert np.abs(p - d / g).max() <= 1e-15 * np.abs(d / g).max()
        # finite-difference fallback against the closed form p / a^2
        ell = body.support_functional(p)
        assert np.abs(ell - p / body.axes**2).max() <= 1e-8
