import json
from pathlib import Path

import numpy as np
import pytest

import kkit.contracting as contracting_module
from kkit.bodies import Cylinder, Ellipsoid, Intersection, LinearImage, PBall, Polytope, SectionBody
from kkit.cli import load_body
from kkit.contracting import (
    certify_planes,
    cylinder_contains,
    find_contracting_direction,
    is_contracting,
    shared_generatrix_cylinder,
)
from kkit.errors import NonComplementary
from kkit.linalg import GrassmannChart, Subspace, projector, sphere_directions, subspace_angle

from conftest import disk_cylinder, random_polytope, random_spd, rng

XY = Subspace.coordinate(3, 0, 1)
Z = Subspace.coordinate(3, 2)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


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
    # a strictly convex body's near-argmin set is far narrower than
    # DEDUP_ANGLE, so its one minimizer is counted once
    assert len(res.found) == 1 and res.lower_bound <= res.best_violation
    assert subspace_angle(res.found[0].direction, truth) <= 1e-3
    # the axis direction is wrong on this plane, and both routes say so
    assert not is_contracting(Ellipsoid(Q), X, Z).holds
    assert not cylinder_contains(Ellipsoid(Q), X, Z)


def _sheared_cube():
    # the shear maps the cube's one xy direction, z, to (2, 0, 1)
    cube = Polytope([[a, b, c] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)])
    shear = [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    return LinearImage(shear, cube), Subspace.span([2.0, 0.0, 1.0])


def _steep_ellipsoid():
    # Q^-1 = R diag(1, 1, 16) R^T, R tilting z by atan(4) in the xz plane
    c, s = 1.0 / np.sqrt(17.0), 4.0 / np.sqrt(17.0)
    R = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    Q = np.linalg.inv(R @ np.diag([1.0, 1.0, 16.0]) @ R.T)
    return Ellipsoid(Q), q_complement(Q, XY)


@pytest.mark.parametrize("make", [_sheared_cube, _steep_ellipsoid])
def test_cold_search_reaches_directions_outside_the_start_box(make):
    # every complement of XY is a graph over z with unbounded coordinates;
    # these bodies contract only along one far outside |M| <= SEARCH_SPAN
    body, truth = make()
    M = GrassmannChart(Z, 1.0, transversal=XY).coords(truth)
    assert np.abs(M).max() > 1.2 * contracting_module.SEARCH_SPAN
    res = find_contracting_direction(body, XY)
    assert len(res.found) == 1 and res.lower_bound <= res.best_violation
    assert subspace_angle(res.found[0].direction, truth) <= 1e-4


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


def test_polytope_search_is_an_exact_finite_lp(monkeypatch):
    # vertex test points make the sampled violation exact, so the LP bound
    # meets the certificate and the solve ends after a few rounds
    octa = Polytope(np.vstack([np.eye(3), -np.eye(3)]))
    X = Subspace.span([1.0, 0.0, 0.25], [0.0, 1.0, 0.25])
    lp, solves = contracting_module._lp, []
    monkeypatch.setattr(contracting_module, "_lp", lambda *a: solves.append(a) or lp(*a))
    res = find_contracting_direction(octa, X)
    assert not res
    assert res.lower_bound == pytest.approx(res.best_violation, abs=1e-12)
    assert 0.1 <= res.best_violation and len(solves) <= 20


def test_lp_is_bit_for_bit_linprog(monkeypatch):
    # _lp calls scipy's private HiGHS binding; a scipy release that moves or
    # changes it must fail here rather than move the search's iterates
    from scipy.optimize import linprog

    golden = json.loads((GOLDEN / "classify_pball_region_tilted.json").read_text())
    X = Subspace(np.array(golden["witness"]["witness_plane"]).T)
    lp, lps = contracting_module._lp, []
    monkeypatch.setattr(contracting_module, "_lp", lambda *a: lps.append(a) or lp(*a))
    assert not find_contracting_direction(load_body(FIXTURES / "pball.json"), X)
    # the level LPs bound their last column below by 0, the master LPs do not
    levels = sum(bounds[-1] == (0.0, None) for *_, bounds in lps)
    assert 0 < levels < len(lps)
    infeasible = (np.ones(2), np.ones((1, 2)), np.array([-1.0]), [(0.0, None)] * 2)
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    for cost, A, b, bounds in lps + [infeasible]:
        res = linprog(cost, A_ub=A, b_ub=b, bounds=bounds, method="highs", options=tight)
        x = lp(cost, A, b, bounds)
        assert (x is None) == (res.status != 0)
        assert x is None or x.tobytes() == res.x.tobytes()
    assert lp(*infeasible) is None


def test_warm_start_short_circuits():
    body = Ellipsoid(np.diag([1.0, 2.0, 3.0]))
    res = find_contracting_direction(body, XY, warm=(Z,), first_only=True)
    assert len(res.found) == 1
    assert subspace_angle(res.found[0].direction, Z) == 0.0
    # warm candidates with wrong shape are ignored, not fatal
    warm = (Subspace.coordinate(4, 3), XY, Z)
    res = find_contracting_direction(body, XY, warm=warm, first_only=True)
    assert res and subspace_angle(res.found[0].direction, Z) == 0.0


def test_warm_certificate_errors_propagate(monkeypatch):
    # a numerically degenerate candidate (a line inside the plane) is skipped
    body = Ellipsoid(np.diag([1.0, 2.0, 3.0]))
    warm = (Subspace.coordinate(3, 0), Z)
    res = find_contracting_direction(body, XY, warm=warm, first_only=True)
    assert subspace_angle(res.found[0].direction, Z) == 0.0
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
        find_contracting_direction(body, XY, warm=(Z,), first_only=True)


def test_pball_single_tilt_plane_is_contracting():
    # for X = {z = cx} the direction (-c^3, 0, 1) projects with
    # gauge^4(pr v) = (vx + c^3 vz)^4 / (1+c^4)^3 + vy^4 <= 1 by Holder
    body = PBall(4.0, np.eye(3))
    X = Subspace.span([1.0, 0.0, 0.3], [0.0, 1.0, 0.0])
    ystar = Subspace.span([-(0.3**3), 0.0, 1.0])
    cert = is_contracting(body, X, ystar)
    assert cert.holds and cert.violation <= 1e-9
    res = find_contracting_direction(body, X)
    assert len(res.found) == 1 and res.lower_bound <= res.best_violation
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
    # the convex solve reaches the min-max, and its LP value bounds it
    assert res.lower_bound <= res.best_violation <= 1.850e-3


def test_mixed_fixture_plane_search_reaches_the_min_max():
    # the mixed fixture (unit ball cut by the cube of half-width 0.8) at the
    # region corner (-0.35, 0): the min-max violation is about 2.490e-2
    cube = Polytope([[a, b, c] for a in (-0.8, 0.8) for b in (-0.8, 0.8) for c in (-0.8, 0.8)])
    body = Intersection([Ellipsoid(np.eye(3)), cube])
    X = GrassmannChart(XY, 0.35).plane(np.array([[-0.35, 0.0]]))
    res = find_contracting_direction(body, X)
    assert not res
    assert 1e-3 <= res.lower_bound <= res.best_violation <= 2.50e-2


def test_cold_search_samples_the_coarse_set_once_per_descent(monkeypatch):
    # one convex solve per search: the coarse set is sampled once, and a
    # failed certificate adds its single worst point without a resample
    body = PBall(4.0, np.eye(3))
    X = Subspace.span([1.0, 0.0, 0.3], [0.0, 1.0, 0.2])
    coarse = len(sphere_directions(3, contracting_module.SEARCH_SAMPLES))
    coarse += len(contracting_module._plane_layers(X))
    sample = contracting_module._boundary_sample
    rows = []

    def counting_sample(body, dirs):
        rows.append(len(dirs))
        return sample(body, dirs)

    monkeypatch.setattr(contracting_module, "_boundary_sample", counting_sample)
    assert not find_contracting_direction(body, X)
    assert rows.count(coarse) == 1 and 1 in rows


def test_warm_certified_search_builds_no_coarse_set(monkeypatch):
    calls = []
    layers = contracting_module._plane_layers
    monkeypatch.setattr(
        contracting_module, "_plane_layers", lambda *a: calls.append(a) or layers(*a)
    )
    body = Ellipsoid(np.diag([1.0, 2.0, 3.0]))
    res = find_contracting_direction(body, XY, warm=(Z,), first_only=True)
    assert res and calls == []
    # a warm candidate that fails to certify descends on the coarse set
    near = Subspace.span([0.05, 0.0, 1.0])
    res = find_contracting_direction(body, XY, warm=(near,), first_only=True)
    assert res and len(calls) == 1


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


# ------------------------------------------------------- kernel equivalence


def test_batch_violation_matches_row_loop():
    r = rng(30)
    n, k = 4, 2
    Q = random_spd(r, n, cond=10.0)
    X = Subspace(r.normal(size=(n, k)))
    Y0 = X.orthogonal_complement()
    dirs = sphere_directions(n, 64)
    Ms = r.normal(scale=0.3, size=(6, k, n - k))
    for body in (Ellipsoid(Q), random_polytope(r, n, 12)):
        sample = contracting_module._test_points(body, dirs)
        got = contracting_module._violations(body, X, Y0, Ms, sample).max(axis=1)
        if isinstance(body, Polytope):
            test = body.vertices
        else:
            test = dirs / body.gauge_many(dirs)[:, None]
        base = body.gauge_many(test)
        ref = []
        for M in Ms:
            P = X.frame @ (X.frame.T - M @ Y0.frame.T)
            ref.append(max(body.gauge_many((P @ t)[None])[0] - b for t, b in zip(test, base)))
        ref = np.array(ref)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        empty = contracting_module._violations(body, X, Y0, Ms[:0], sample)
        assert empty.shape == (0, len(sample[0]))


def _cylinder_contains_by_own_sampler(body, X, Y, tol=contracting_module.DEFAULT_TOL):
    """cylinder_contains as it stood with its own vertex branch, flat split
    and seed pick, refined as _certify refines the body."""
    P = projector(X, Y)
    if isinstance(body, Polytope):
        V = body.vertices
        return bool(np.max(body.gauge_many(V @ P.T) - body.gauge_many(V)) <= tol)
    rot = contracting_module._fixed_rotation(body.dim)
    dirs = sphere_directions(body.dim, contracting_module.CERT_SAMPLES) @ rot.T
    g = body.gauge_many(dirs)
    keep = g > contracting_module._FLAT_TOL
    pts = dirs[keep] / g[keep, None]
    worst = float(np.max(body.gauge_many(pts @ P.T)) - 1.0)
    flat = dirs[~keep]
    if flat.size:
        worst = max(worst, float(np.max(body.gauge_many(flat @ P.T))))
    seeds = pts[np.argsort(body.gauge_many(pts @ P.T))[::-1][: contracting_module.REFINE_TOP]]
    refined, _ = contracting_module._refine(body, P[None], seeds[None], np.array([worst]))
    return max(worst, refined[0]) <= tol


def test_cylinder_contains_matches_its_own_sampler(box3):
    r = rng(32)
    A = r.normal(size=(3, 3)) + 2.0 * np.eye(3)
    octa = Polytope(np.vstack([np.eye(3), -np.eye(3)]))
    cases = []
    for n in (3, 4):
        Q = random_spd(r, n, cond=20.0)
        X = Subspace(r.normal(size=(n, 2)))
        cases.append((Ellipsoid(Q), X, q_complement(Q, X)))
    # A maps the coordinate split of the p-ball to a contracting pair
    cases.append((PBall(3.5, A), Subspace(A[:, :2]), Subspace(A[:, 2:])))
    cases.append((Intersection([Ellipsoid(np.diag([1.0, 2.0, 3.0])), box3]), XY, Z))
    cases.append((Intersection([Ellipsoid(np.eye(3) / 1.6), random_polytope(r, 3, 12)]), XY, Z))
    cases.append((octa, XY, Subspace.span([0.5, 0.3, 1.0])))
    cases.append((random_polytope(r, 3, 10), XY, Z))
    cases.append((Cylinder(Ellipsoid(np.eye(2)), XY, Z), XY, Z))
    verdicts = []
    for body, X, good in cases:
        for scale in (0.0, 1e-3, 0.3):
            Y = Subspace(good.frame + scale * r.normal(size=good.frame.shape))
            want = _cylinder_contains_by_own_sampler(body, X, Y)
            assert cylinder_contains(body, X, Y) == want
            verdicts.append(want)
    assert any(verdicts) and not all(verdicts)


def _refine_by_coordinate_loop(body, P, seeds, start_val, step0=0.05):
    """The pattern search as it stood with one move per coordinate loop."""
    n = body.dim
    pts = np.array(seeds, dtype=float)
    best = start_val

    def evaluate(U):
        B, bg = contracting_module._boundary_sample(body, U)
        return body.gauge_many(B @ P.T) - bg

    vals = evaluate(pts)
    S = len(pts)
    step = step0
    hits = 0
    while step > 1e-7:
        cand = np.repeat(pts[None, :, :], 2 * n, axis=0)
        for j in range(n):
            cand[2 * j, :, j] += step
            cand[2 * j + 1, :, j] -= step
        flat = cand.reshape(-1, n)
        nrm = np.linalg.norm(flat, axis=1)
        flat /= np.where(nrm > 0, nrm, 1.0)[:, None]
        cv = evaluate(flat).reshape(2 * n, S)
        pick = np.argmax(cv, axis=0)
        best_cv = cv[pick, np.arange(S)]
        mask = best_cv > vals + 1e-18
        if mask.any():
            moved = flat.reshape(2 * n, S, n)[pick, np.arange(S)]
            pts[mask] = moved[mask]
            vals[mask] = best_cv[mask]
        if not mask.any() or hits >= 3:
            step *= 0.5
            hits = 0
        else:
            hits += 1
    i = int(np.argmax(vals))
    if vals[i] >= best:
        return float(vals[i]), pts[i]
    return best, np.array(seeds, dtype=float)[0]


def test_refine_violation_is_bit_identical_to_the_coordinate_loop():
    r = rng(31)
    bodies = [Ellipsoid(random_spd(r, n, cond=20.0)) for n in (3, 4, 5)]
    bodies.append(PBall(3.5, r.normal(size=(3, 3)) + 2.0 * np.eye(3)))
    bodies.append(Intersection([Ellipsoid(np.eye(3) / 1.6), random_polytope(r, 3, 12)]))
    for body in bodies:
        # three pairs per body, refined as one stack: each row must match its
        # own serial search, whatever the other rows do
        n = body.dim
        Ps, seeds, start, want = [], [], [], []
        for _ in range(3):
            X = Subspace(r.normal(size=(n, 2)))
            Y = Subspace(X.orthogonal_complement().frame + 0.05 * r.normal(size=(n, n - 2)))
            P = projector(X, Y)
            pts, base = contracting_module._boundary_sample(body, sphere_directions(n, 512))
            v = body.gauge_many(pts @ P.T) - base
            order = np.argsort(v)[::-1]
            Ps.append(P)
            seeds.append(pts[order[: contracting_module.REFINE_TOP]])
            start.append(float(v[order[0]]))
            want.append(_refine_by_coordinate_loop(body, P, seeds[-1], start[-1]))
        got = contracting_module._refine_violation(
            body, np.array(Ps), np.array(seeds), np.array(start)
        )
        for j, (viol, worst) in enumerate(want):
            assert got[0][j] == viol
            assert got[1][j].tobytes() == worst.tobytes()


def test_noncomplementary_errors_name_the_reason(monkeypatch):
    # a pair without a projector raises before the boundary is sampled
    monkeypatch.setattr(contracting_module, "_test_points", None)
    body = Ellipsoid(np.eye(3))
    X = Subspace.coordinate(3, 0, 1)
    wrong_dims = Subspace.coordinate(3, 1, 2)
    degenerate = Subspace.span([1.0, 0.0, 1e-13])
    for check in (
        projector,
        lambda X, Y: is_contracting(body, X, Y),
        lambda X, Y: cylinder_contains(body, X, Y),
    ):
        with pytest.raises(NonComplementary, match=r"dims 2\+2 != ambient 3"):
            check(X, wrong_dims)
        with pytest.raises(NonComplementary, match="pair is numerically degenerate"):
            check(X, degenerate)


def test_certify_planes_matches_is_contracting_bit_for_bit(box3):
    r = rng(33)
    Q = random_spd(r, 3, cond=20.0)
    A = r.normal(size=(3, 3)) + 2.0 * np.eye(3)
    tilted = Subspace.span([1.0, 0.0, 0.3], [0.0, 1.0, -0.2])
    overtilted = Subspace.span([1.0, 0.0, -1.5], [0.0, 1.0, 0.0])
    octa = Polytope(np.vstack([np.eye(3), -np.eye(3)]))
    ex = np.array([[1.0], [0.0], [0.0]])
    # exact pairs, pairs nudged into a marginal failure, a catastrophic
    # polytope pair and pairs that are not complementary
    cases = [
        (
            Ellipsoid(Q),
            [XY, tilted, XY, XY],
            [
                q_complement(Q, XY),
                q_complement(Q, tilted),
                Subspace(q_complement(Q, XY).frame + 0.01 * ex),
                Subspace.span([1.0, 0.0, 0.0]),
            ],
        ),
        (
            PBall(3.0, A),
            [Subspace(A[:, :2]), Subspace(A[:, :2]), XY],
            [Subspace(A[:, 2:]), Subspace(A[:, 2:] + 0.05 * ex), XY],
        ),
        (LinearImage(A, PBall(3.0, np.eye(3))), [Subspace(A[:, :2]), XY], [Subspace(A[:, 2:]), Z]),
        (Intersection([Ellipsoid(np.diag([1.0, 2.0, 3.0])), box3]), [XY, tilted], [Z, Z]),
        (octa, [XY, overtilted, XY], [Z, Z, Subspace.span([0.5, 0.3, 1.0])]),
    ]
    kinds = set()
    for body, planes, dirs in cases:
        got = certify_planes(body, planes, dirs)
        assert len(got) == len(planes)
        for X, Y, cert in zip(planes, dirs, got):
            try:
                want = is_contracting(body, X, Y)
            except NonComplementary:
                assert cert is None
                kinds.add("not complementary")
                continue
            assert cert.violation == want.violation and cert.holds == want.holds
            assert cert.worst.tobytes() == want.worst.tobytes()
            assert cert.plane is X and cert.direction is Y
            if want.holds:
                kinds.add("holds")
            else:
                kinds.add("catastrophic" if want.violation > 0.1 else "marginal")
    assert kinds == {"holds", "marginal", "catastrophic", "not complementary"}


# ------------------------------------------------- smooth-body refinement


def _sampled_seeds(body, P, m):
    """_certify's seeds and start value over an m-direction boundary sample."""
    pts, base = contracting_module._boundary_sample(body, sphere_directions(body.dim, m))
    v = body.gauge_many(pts @ P.T) - base
    top = np.argpartition(v, -contracting_module.REFINE_TOP)[-contracting_module.REFINE_TOP :]
    order = top[np.argsort(v[top])[::-1]]
    return pts[order], float(v[order[0]])


def _near_contracting_pair(r, body, k):
    """A contracting pair of an ellipsoid or p-ball body, both planes nudged by
    1e-8..1e-1: the violations run from rounding to a few 1e-2."""
    n = body.dim
    if isinstance(body, PBall):
        # A maps a coordinate split of the p-ball to a contracting pair
        idx = r.permutation(n)
        X, Y = body.A[:, idx[:k]], body.A[:, idx[k:]]
    else:
        Q = body.Q if isinstance(body, Ellipsoid) else body.Ainv.T @ body.inner.Q @ body.Ainv
        X = r.normal(size=(n, k))
        Y = np.linalg.solve(Q, Subspace(X).orthogonal_complement().frame)
    X = Subspace(X + 10 ** r.uniform(-8, -1) * r.normal(size=X.shape))
    Y = Subspace(Y + 10 ** r.uniform(-8, -1) * r.normal(size=Y.shape))
    return X, Y


def test_smooth_refinement_never_falls_below_the_pattern_search():
    r = rng(34)
    names = ("ellipsoid", "sheared", "pball", "pball_near2")
    bodies = [load_body(FIXTURES / f"{name}.json") for name in names]
    bodies += [Ellipsoid(random_spd(r, n, cond=float(r.uniform(2.0, 50.0)))) for n in (3, 4, 5)]
    lowest = np.inf
    for body in bodies:
        assert body.smooth
        Ps, seeds, start = [], [], []
        for _ in range(24):
            X, Y = _near_contracting_pair(r, body, int(r.integers(2, body.dim)))
            Ps.append(projector(X, Y))
            top, first = _sampled_seeds(body, Ps[-1], 512)
            seeds.append(top)
            start.append(first)
        args = (body, np.array(Ps), np.array(seeds), np.array(start))
        new = contracting_module._ascend(*args)[0]
        ref = contracting_module._refine_violation(*args)[0]
        assert np.all(new >= ref - 1e-12), (body, np.min(new - ref))
        lowest = min(lowest, float(new.min()))
    # the pairs reach down to the flat ridges of nearly contracting pairs
    assert lowest < 1e-10


def test_is_contracting_meets_the_exact_ellipsoid_violation():
    # for {v . Q v <= 1} the violation is |R P R^-1|_2 - 1 with Q = R^T R;
    # nudges of the Q-complement up to 1e-2 give violations up to 0.1, and
    # nudges up to 1 violations far above it, which are refined all the same
    r = rng(35)
    checked, above = 0, set()
    for i in range(350):
        n, kind = int(r.integers(3, 6)), i % 3
        A = r.normal(size=(n, n)) + 2.0 * np.eye(n)
        Ainv = np.linalg.inv(A)
        if kind == 0:
            Q = random_spd(r, n, cond=20.0)
            body = Ellipsoid(Q)
        elif kind == 1:
            Q0 = random_spd(r, n, cond=20.0)
            body, Q = LinearImage(A, Ellipsoid(Q0)), Ainv.T @ Q0 @ Ainv
        else:
            body, Q = PBall(2.0, A), Ainv.T @ Ainv
        X = Subspace(r.normal(size=(n, int(r.integers(2, n)))))
        Y = np.linalg.solve(Q, X.orthogonal_complement().frame)
        nudge = 10 ** (r.uniform(-6, -2) if i < 150 else r.uniform(-3, 0))
        Y = Subspace(Y + nudge * r.normal(size=Y.shape))
        P = projector(X, Y)
        R = np.linalg.cholesky(Q).T
        exact = np.linalg.norm(np.linalg.solve(R.T, (R @ P).T).T, 2) - 1.0
        if not 1e-6 < exact <= 10.0:
            continue
        got = is_contracting(body, X, Y).violation
        # both sides round 1 + violation, a few 1e-16 each
        assert abs(got - exact) <= 1e-10 * exact + 1e-15, (i, got, exact)
        checked += 1
        if exact > 0.1:
            above.add((i, type(body).__name__, n))
    assert checked >= 50 and len(above) >= 20
    # among them a PBall(2, A) in R^4, where an unrefined sample read 5% low
    assert any(name == "PBall" and n == 4 for _, name, n in above)


def test_search_reaches_directions_beyond_the_search_span():
    # an oblique truncated cylinder over XY, whose generatrix has chart
    # coordinates (2.5, 0) over Z: the master LP's box doubles past
    # SEARCH_SPAN, and the search's chart builds planes out there
    g = Subspace.span([2.5, 0.0, 1.0])
    slab = Cylinder(Polytope([[-1.0], [1.0]]), Z, XY)
    body = Intersection([Cylinder(Ellipsoid(np.eye(2)), XY, g), slab])
    res = find_contracting_direction(body, XY)
    assert len(res.found) == 1 and res.found[0].holds
    M = GrassmannChart(Z, np.inf, transversal=XY).coords(res.directions[0])
    assert np.abs(M).max() > contracting_module.SEARCH_SPAN
    assert subspace_angle(res.directions[0], g) <= 1e-6


def test_infinity_ball_certificates_match_the_cube_polytope(box3):
    # the p = inf ball is the cube: its sampled certificates, refined by the
    # pattern search, meet the exact vertex maximum near contracting pairs,
    # where a gradient ascent stalls on the kinks
    r = rng(37)
    cube = PBall(np.inf, np.eye(3))
    for _ in range(5):
        F = np.eye(3) + 0.03 * r.normal(size=(3, 3))
        X, Y = Subspace(F[:, :2]), Subspace(F[:, 2:])
        exact = is_contracting(box3, X, Y).violation
        assert 0.001 < exact < 0.1
        assert is_contracting(cube, X, Y).violation == pytest.approx(exact, rel=1e-5)


def test_smooth_bodies_climb_and_kinked_ones_keep_the_pattern_search(box3):
    r = rng(36)
    A = r.normal(size=(3, 3)) + 2.0 * np.eye(3)
    ell = Ellipsoid(random_spd(r, 3, cond=20.0))
    disc = Cylinder(Ellipsoid(np.eye(2)), XY, Z)
    for body in (ell, PBall(3.5, A), LinearImage(A, ell), SectionBody(ell, XY), disc):
        assert body.smooth is True
    kinked = Intersection([Ellipsoid(np.diag([1.0, 2.0, 3.0])), box3])
    for body in (PBall(1.0, A), PBall(np.inf, A), box3, kinked, LinearImage(A, box3)):
        assert body.smooth is False
    # pairs whose sampled violations stay below 0.1, so all are refined
    tilted = Subspace.span([1.0, 0.0, 0.1], [0.0, 1.0, -0.05])
    planes, dirs = [XY, tilted, XY], [Z, Z, Subspace.span([0.1, 0.0, 1.0])]
    certs = certify_planes(kinked, planes, dirs)
    refined = 0
    for X, Y, cert in zip(planes, dirs, certs):
        P = projector(X, Y)
        seeds, start = _sampled_seeds(kinked, P, contracting_module.CERT_SAMPLES)
        viol, worst = contracting_module._refine_violation(
            kinked, P[None], seeds[None], np.array([start])
        )
        assert cert.violation == viol[0] and cert.worst.tobytes() == worst[0].tobytes()
        refined += viol[0] > start
    assert refined
