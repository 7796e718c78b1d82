import numpy as np
import pytest

import kkit.contracting as contracting_module
from kkit.bodies import Cylinder, Ellipsoid, PBall, Polytope
from kkit.contracting import (
    DirectionSearch,
    cylinder_contains,
    find_contracting_direction,
    is_contracting,
    shared_generatrix_cylinder,
)
from kkit.linalg import Subspace, subspace_angle

from conftest import disk_cylinder, random_spd, rng

XY = Subspace.coordinate(3, 0, 1)
Z = Subspace.coordinate(3, 2)


def q_complement(Q, X):
    """Ground-truth contracting direction for {v.Qv <= 1}: Q^-1 (X-perp)."""
    perp = X.orthogonal_complement()
    return Subspace(np.linalg.solve(Q, perp.frame))


def test_box_axis_is_exactly_contracting(box3):
    cert = is_contracting(box3, XY, Z)
    assert cert.holds and cert.violation == 0.0
    # stays exact on tilted planes: cube sections still project onto the square
    tilted = Subspace.span([1.0, 0.0, 0.4], [0.0, 1.0, 0.0])
    cert = is_contracting(box3, tilted, Z)
    assert cert.holds and cert.violation == 0.0


def test_box_overtilted_plane_violation_is_half(box3):
    # corner (-1,-1,1) projects along z onto the graph z=-1.5x at (-1,-1,1.5)
    X = Subspace.span([1.0, 0.0, -1.5], [0.0, 1.0, 0.0])
    cert = is_contracting(box3, X, Z)
    assert not cert.holds
    assert cert.violation == pytest.approx(0.5, abs=1e-12)


def test_ellipsoid_q_complement_ground_truth():
    r = rng(20)
    for _ in range(15):
        n = int(r.integers(3, 6))
        Q = random_spd(r, n, cond=20.0)
        k = int(r.integers(2, n))
        X = Subspace(r.normal(size=(n, k)))
        Y = q_complement(Q, X)
        cert = is_contracting(Ellipsoid(Q), X, Y)
        assert cert.holds and cert.violation <= 1e-10


def test_both_cylindricity_routes_agree():
    # containment in (B cut by X) + Y versus the gauge-projection test
    r = rng(21)
    for _ in range(30):
        Q = random_spd(r, 3, cond=10.0)
        body = Ellipsoid(Q)
        X = Subspace(r.normal(size=(3, 2)))
        good = q_complement(Q, X)
        bad = Subspace(good.frame + 0.5 * r.normal(size=(3, 1)))
        for Y in (good, bad):
            route1 = cylinder_contains(body, X, Y)
            route3 = is_contracting(body, X, Y).holds
            assert route1 == route3
        assert cylinder_contains(body, X, good)


def test_find_direction_on_diagonal_ellipsoid():
    body = Ellipsoid(np.diag([1.0, 2.0, 3.0]))
    res = find_contracting_direction(body, XY)
    assert res
    assert res.found[0].holds
    assert subspace_angle(res.found[0].direction, Z) <= 1e-3


def test_find_direction_on_tilted_plane_matches_truth():
    Q = np.diag([1.0, 2.0, 3.0])
    X = Subspace.span([1.0, 0.0, 0.2], [0.0, 1.0, 0.0])
    truth = q_complement(Q, X)
    res = find_contracting_direction(Ellipsoid(Q), X)
    assert res
    assert subspace_angle(res.found[0].direction, truth) <= 1e-3
    # the axis direction is wrong on this plane, and both routes say so
    assert not is_contracting(Ellipsoid(Q), X, Z).holds
    assert not cylinder_contains(Ellipsoid(Q), X, Z)


def test_octahedron_admits_a_continuum_of_directions():
    octa = Polytope(np.vstack([np.eye(3), -np.eye(3)]))
    # span(a,b,1) works iff |a|+|b| <= 1: e3 maps to (-a,-b,0)
    assert is_contracting(octa, XY, Subspace.span([0.5, 0.3, 1.0])).holds
    cert = is_contracting(octa, XY, Subspace.span([0.8, 0.4, 1.0]))
    assert not cert.holds
    assert cert.violation == pytest.approx(0.2, abs=1e-12)
    res = find_contracting_direction(octa, XY)
    assert len(res.found) >= 2
    for c in res.found:
        assert c.holds


def test_warm_start_short_circuits():
    body = Ellipsoid(np.diag([1.0, 2.0, 3.0]))
    opts = DirectionSearch(warm=(Z,), first_only=True)
    res = find_contracting_direction(body, XY, opts)
    assert len(res.found) == 1
    assert subspace_angle(res.found[0].direction, Z) == 0.0
    # warm candidates with wrong shape are ignored, not fatal
    opts = DirectionSearch(warm=(Subspace.coordinate(4, 3), XY, Z), first_only=True)
    res = find_contracting_direction(body, XY, opts)
    assert res and subspace_angle(res.found[0].direction, Z) == 0.0


def test_warm_certificate_errors_propagate(monkeypatch):
    # a numerically degenerate candidate (a line inside the plane) is skipped
    body = Ellipsoid(np.diag([1.0, 2.0, 3.0]))
    opts = DirectionSearch(warm=(Subspace.coordinate(3, 0), Z), first_only=True)
    assert subspace_angle(find_contracting_direction(body, XY, opts).found[0].direction, Z) == 0.0
    # any other failure of a warm certificate is raised, not turned into a
    # silent cold search
    real = contracting_module.is_contracting
    calls = []

    def broken_first(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise FloatingPointError("broken certificate")
        return real(*args, **kwargs)

    monkeypatch.setattr(contracting_module, "is_contracting", broken_first)
    with pytest.raises(FloatingPointError):
        find_contracting_direction(body, XY, DirectionSearch(warm=(Z,), first_only=True))


def test_pball_single_tilt_plane_is_contracting():
    # for X = {z = cx} the direction (-c^3, 0, 1) projects with
    # gauge^4(pr v) = (vx + c^3 vz)^4 / (1+c^4)^3 + vy^4 <= 1 by Holder
    body = PBall(4.0, np.eye(3))
    X = Subspace.span([1.0, 0.0, 0.3], [0.0, 1.0, 0.0])
    ystar = Subspace.span([-(0.3**3), 0.0, 1.0])
    cert = is_contracting(body, X, ystar)
    assert cert.holds and cert.violation <= 1e-9
    res = find_contracting_direction(body, X)
    assert res
    assert subspace_angle(res.found[0].direction, ystar) <= 1e-2
    # the naive axis direction misses by the classic margin
    axis = is_contracting(body, X, Z)
    assert axis.violation == pytest.approx((1 + 0.3**4) ** 0.25 - 1.0, abs=1e-5)


def test_pball_doubly_tilted_plane_has_no_direction():
    # brute-force oracle (dense max, simplex over directions): min-max
    # violation at this plane is 1.84e-3, so nothing certifies at 1e-7
    body = PBall(4.0, np.eye(3))
    X = Subspace.span([1.0, 0.0, 0.3], [0.0, 1.0, 0.2])
    res = find_contracting_direction(body, X)
    assert not res
    assert 1.4e-3 <= res.best_violation <= 2.4e-3


def test_truncated_cylinder_axis_certifies():
    body = disk_cylinder()
    cert = is_contracting(body, XY, Z)
    assert cert.holds and cert.violation <= 1e-9
    assert cylinder_contains(body, XY, Z)


def test_infinite_cylinder_flat_directions():
    body = Cylinder(Ellipsoid(np.eye(2)), XY, Z)
    cert = is_contracting(body, XY, Z)
    assert cert.holds and cert.violation <= 1e-9


def test_shared_generatrix_recovers_square_prism(box3):
    planes = [
        XY,
        Subspace.span([1.0, 0.0, 0.2], [0.0, 1.0, 0.0]),
        Subspace.span([1.0, 0.0, 0.0], [0.0, 1.0, -0.15]),
    ]
    cyl = shared_generatrix_cylinder(box3, planes, Z)
    assert cyl is not None
    r = rng(22)
    V = r.normal(size=(40, 3))
    sq = np.abs(V[:, :2]).max(axis=1)
    assert np.abs(cyl.gauge_many(V) - sq).max() <= 1e-9


def test_shared_generatrix_rejects_wrong_direction():
    body = Ellipsoid(np.diag([1.0, 2.0, 3.0]))
    tilted = Subspace.span([1.0, 0.0, 0.2], [0.0, 1.0, 0.0])
    assert shared_generatrix_cylinder(body, [XY, tilted], Z) is None
