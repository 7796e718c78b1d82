from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import kkit.banach as banach_module
from kkit.bodies import (
    Cylinder,
    Ellipsoid,
    Intersection,
    LinearImage,
    PBall,
    Polytope,
    SectionBody,
    section_samples,
)
from kkit.banach import (
    EquivalenceWitness,
    RTensor,
    banach_classify,
    linear_equivalent_sections,
    quadratic_field,
    verify_R_tangency,
    _match_sections,
    _normalize,
    _radials,
    _rot,
    _scan,
    _planar_moments,
    _section_match,
    _spatial_moments,
    _subscan,
)
from kkit.cli import load_body, load_region
from kkit.classifier import ClassifyOptions, classify
from kkit.errors import HypothesisFailed
from kkit.linalg import GrassmannChart, Subspace, random_subspace

from conftest import random_spd

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

XY = Subspace.coordinate(3, 0, 1)
XZ = Subspace.coordinate(3, 0, 2)
FULL2 = Subspace(np.eye(2))

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def tensor_from_matrices(*mats, nu=None):
    """entries[i, j] = column j of the matrix R(e_i*)."""
    k = mats[0].shape[0]
    E = np.zeros((k, k, k))
    for i, Mi in enumerate(mats):
        for j in range(k):
            E[i, j] = Mi[:, j]
    return RTensor(E, nu=nu)


def random_trace_free(rng):
    E = rng.normal(size=(2, 2, 2))
    E[:, 1, 1] = -E[:, 0, 0]
    return RTensor(E)


def steinmetz():
    # XY section is the unit disk, XZ section the unit square
    return Intersection(
        [
            Cylinder(Ellipsoid(np.eye(2)), XY, Subspace.coordinate(3, 2)),
            Cylinder(
                Ellipsoid(np.eye(2)),
                Subspace.coordinate(3, 1, 2),
                Subspace.coordinate(3, 0),
            ),
        ]
    )


def oblique_prism():
    # truncated square cylinder with an oblique generatrix: planes tilted in
    # y cut genuinely sheared squares
    sq = Polytope([[1, 1], [1, -1], [-1, -1], [-1, 1]])
    return Intersection(
        [
            Cylinder(sq, XY, Subspace.span([0.6, 0.0, 1.0])),
            Cylinder(Polytope([[-2.0], [2.0]]), Subspace.coordinate(3, 2), XY),
        ]
    )


def ball_cut_by_cube():
    """fixtures/mixed.json: disk sections near XY, rounded squares further out."""
    cube = Polytope(
        np.array(
            [[x, y, w] for x in (-0.8, 0.8) for y in (-0.8, 0.8) for w in (-0.8, 0.8)],
            dtype=float,
        )
    )
    return Intersection([Ellipsoid(np.eye(3)), cube])


def ball_in_slab():
    """The unit ball cut by the slab |z| <= 0.5: the XY section is a disk,
    and SLAB_TILTED cuts an ellipse that the slab clips."""
    slab = Cylinder(Polytope([[-0.5], [0.5]]), Subspace.coordinate(3, 2), XY)
    return Intersection([Ellipsoid(np.eye(3)), slab])


SLAB_TILTED = Subspace.span([1.0, 0.0, 0.0], [0.0, 1.0, 0.8])


def box_prism():
    return Polytope(
        np.array(
            [[x, y, w] for x in (-1, 1) for y in (-1, 1) for w in (-2, 2)],
            dtype=float,
        )
    )


# ------------------------------------------------------------ section moments


def shoelace_moments(V):
    """Area and second moment about the origin of the polygon whose vertices
    V run counter-clockwise, edge by edge."""
    x, y = np.asarray(V, dtype=float).T
    x1, y1 = np.roll(x, -1), np.roll(y, -1)
    c = x * y1 - x1 * y
    jxx = np.sum(c * (x * x + x * x1 + x1 * x1)) / 12.0
    jyy = np.sum(c * (y * y + y * y1 + y1 * y1)) / 12.0
    jxy = np.sum(c * (x * y1 + 2.0 * x * y + 2.0 * x1 * y1 + x1 * y)) / 24.0
    return c.sum() / 2.0, np.array([[jxx, jxy], [jxy, jyy]])


def on_circle(ang, radii=1.0):
    return np.column_stack([np.cos(ang), np.sin(ang)]) * np.reshape(radii, (-1, 1))


def polygon_cases():
    """(body, frame, counter-clockwise vertices of its section)."""
    cases = [
        # triangles whose centroids sit off the origin: a triangle cylinder's
        # section and the XY section of triangle_prism
        (Cylinder(Polytope([[1.0, 0.2], [-0.4, 0.9], [-0.6, -0.7]]), XY, Subspace.coordinate(3, 2)),
         XY, [[1.0, 0.2], [-0.4, 0.9], [-0.6, -0.7]]),
        (triangle_prism(), XY, [[1.0, -1.0], [0.0, 1.0], [-1.0, -1.0]]),
        # an edge 1e-3 from the origin
        (None, None, [[2.0, -1e-3], [0.0, 1.5], [-2.0, -1e-3]]),
        # four vertices 0.04 apart inside one initial panel, and three whose
        # normals turn by 0.002 only
        (None, None, on_circle(np.r_[0.01, 0.05, 0.09, 0.13, 2.0, 4.0])),
        (None, None, on_circle(np.r_[0.3, 0.302, 0.304, 0.306, 2.5, 4.5])),
    ]
    r = np.random.default_rng(11)
    for _ in range(40):
        m = int(r.integers(3, 12))
        # every gap below the sum of the others, so below pi, keeps the
        # origin inside
        ang = np.cumsum(r.uniform(0.6, 1.0, m))
        ang *= 2.0 * np.pi / ang[-1]
        cases.append((None, None, on_circle(ang, r.uniform(0.3, 2.0, m))))
    for body, X, V in cases:
        V = np.asarray(V, dtype=float)
        if body is None:
            V = V[ConvexHull(V).vertices]
            body, X = Polytope(V), FULL2
        yield body, X, V


def test_polygon_moments_match_shoelace():
    for body, X, V in polygon_cases():
        area, J = _planar_moments(body, X.frame[None])
        want_area, want_J = shoelace_moments(V)
        assert abs(area[0] / want_area - 1.0) <= 1e-13
        assert np.abs(J[0] - want_J).max() <= 1e-13 * np.trace(want_J)


def ellipsoid_normal_form(body, X):
    """M^2 = (F^T Q F)^-1 for the section by X of the ellipsoid body."""
    w, V = np.linalg.eigh(X.frame.T @ body.Q @ X.frame)
    return (V / np.sqrt(w)) @ V.T


def test_moment_normalization_known_shapes(square):
    # M is the symmetric square root that sends the unit ball onto the
    # section's moment ellipsoid, scaled to the section's volume
    cache = {}
    for body, Mexp in [
        (Ellipsoid(np.eye(2)), np.eye(2)),
        (square, 2.0 / np.sqrt(np.pi) * np.eye(2)),
        (Ellipsoid(np.diag([1.0, 4.0])), np.diag([1.0, 0.5])),
        (Ellipsoid(np.diag([1.0, 4.0, 9.0])), np.diag([1.0, 0.5, 1.0 / 3.0])),
    ]:
        X = Subspace(np.eye(body.dim))
        cache.clear()
        _normalize(body, [X], cache)
        A, M = cache[X.frame.tobytes()]
        assert np.abs(M - Mexp).max() <= 1e-14 and np.array_equal(A, X.frame @ M)
    # ellipsoid sections normalize exactly, for k = 2 and 3
    r = np.random.default_rng(4)
    for k in (2, 3, 3):
        body = Ellipsoid(random_spd(r, 4, cond=20.0))
        planes = [random_subspace(r, 4, k) for _ in range(5)]
        cache.clear()
        _normalize(body, planes, cache)
        for X in planes:
            want = ellipsoid_normal_form(body, X)
            assert np.abs(cache[X.frame.tobytes()][1] - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("k", [2, 3])
def test_stacked_moments_match_each_plane(k):
    # a stacked quadrature gives each plane what its own call gives, over
    # sections of every family
    moments = _planar_moments if k == 2 else _spatial_moments
    r = np.random.default_rng(5 + k)
    for _ in range(3):
        body = random_section_body(r, k + 1)
        frames = np.stack([random_subspace(r, k + 1, k).frame for _ in range(4)])
        vol, J = moments(body, frames)
        for F, v, Jp in zip(frames, vol, J):
            v1, J1 = moments(body, F[None])
            assert abs(v1[0] - v) <= 1e-15 * v and np.abs(J1[0] - Jp).max() <= 1e-15 * np.trace(Jp)


def test_long_section_normalizes_in_bounded_rows(monkeypatch):
    # a regular-heptagon cylinder whose generatrix is 7.2 degrees out of xy:
    # the chart's sections run up to ~50 times longer than wide, and a
    # tolerance relative to each piece keeps the quadrature bounded there
    ang = 2.0 * np.pi * np.arange(7) / 7.0
    tilt = np.radians(7.2)
    body = Cylinder(Polytope(on_circle(ang)), XY, Subspace.span([np.cos(tilt), 0.0, np.sin(tilt)]))
    region = GrassmannChart(XY, 0.15)
    planes = region.planes(region.grid(9))
    rows = []
    gauge = Polytope.gauge_many
    monkeypatch.setattr(
        Polytope, "gauge_many", lambda self, V: rows.append(len(V)) or gauge(self, V)
    )
    cache = {}
    _normalize(body, planes, cache)
    assert len(cache) == 81
    assert sum(rows) <= 3000 * len(cache) and max(rows) <= banach_module.MOMENT_ROWS * len(cache)
    # the sections are linear images of the heptagon
    for X in planes[::10]:
        assert_maps_section(body, XY, X, _section_match(body, XY, X, cache=cache)[0], 1e-9)


def random_section_body(r, n):
    """A random body from one of five families, both drawn from r."""
    A = random_spd(r, n, cond=20.0) @ np.linalg.qr(r.normal(size=(n, n)))[0]
    # the +-e_i vertices keep the origin strictly inside
    vertices = np.vstack([r.normal(size=(10, n)), np.eye(n), -np.eye(n)])
    family = int(r.integers(5))
    if family == 0:
        return Ellipsoid(random_spd(r, n, cond=20.0))
    if family == 1:
        return PBall(r.uniform(1.2, 6.0), A)
    if family == 2:
        return Polytope(vertices)
    if family == 3:
        return LinearImage(A, PBall(r.uniform(1.2, 6.0), np.eye(n)))
    return Intersection([Ellipsoid(random_spd(r, n, cond=20.0)), Polytope(vertices)])


# ----------------------------------------------------------- linear equivalence


def assert_maps_section(body, X1, X2, L, tol):
    sam = section_samples(body, X1, 64)
    g = SectionBody(body, X2).gauge_many(sam.points @ L.T)
    assert np.abs(g - 1.0).max() <= tol


def test_equivalence_ellipsoid_planes():
    rng = np.random.default_rng(1)
    body = Ellipsoid(np.diag([1.0, 2.0, 3.0]))
    for _ in range(3):
        X1 = random_subspace(rng, 3, 2)
        X2 = random_subspace(rng, 3, 2)
        w = linear_equivalent_sections(body, X1, X2)
        assert isinstance(w, EquivalenceWitness)
        assert w.residual <= 1e-6
        assert abs(np.linalg.det(w.map)) >= 1e-8
        assert_maps_section(body, X1, X2, w.map, 1e-8)


def test_equivalence_rejects_disk_vs_square():
    body = steinmetz()
    assert linear_equivalent_sections(body, XY, XZ) is None
    # both normalize to area pi: the disk to the unit disk, the square to
    # the square of half-width h = sqrt(pi) / 2, whose corners stick out by
    # sqrt(pi / 2) - 1.  The disk first has a round signature and is matched
    # at shift 0, where the square's corners sit on the circle's samples.
    # The square first goes through the shift search, which can move its
    # corners up to half a grid step off the samples, to h / cos(pi / 4 - step / 2).
    h, step = np.sqrt(np.pi) / 2.0, 2.0 * np.pi / banach_module.SCAN_OFFSETS
    corner = np.sqrt(np.pi / 2.0) - 1.0
    assert abs(_section_match(body, XY, XZ)[1] - corner) <= 1e-12
    low = h / np.cos(np.pi / 4 - step / 2) - 1.0
    assert low - 1e-12 <= _section_match(body, XZ, XY)[1] <= corner + 1e-12


def test_equivalence_square_vs_sheared_square():
    body = oblique_prism()
    tilted = Subspace.span([1.0, 0.0, 0.0], [0.0, 1.0, 0.5])
    w = linear_equivalent_sections(body, XY, tilted)
    assert w is not None and w.residual <= 1e-9
    assert_maps_section(body, XY, tilted, w.map, 1e-9)


def test_equivalence_relation_at_tolerance():
    rng = np.random.default_rng(7)
    body = Ellipsoid(random_spd(rng, 3, cond=6.0))
    X1, X2, X3 = (random_subspace(rng, 3, 2) for _ in range(3))
    r12 = _section_match(body, X1, X2)[1]
    r21 = _section_match(body, X2, X1)[1]
    r13 = _section_match(body, X1, X3)[1]
    r23 = _section_match(body, X2, X3)[1]
    floor = 1e-11
    assert r21 <= 3.0 * r12 + floor
    assert r13 <= 3.0 * max(r12, r23) + floor


def test_equivalence_spatial_sections():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4))
    body = Ellipsoid(A @ A.T + 4.0 * np.eye(4))
    X1 = random_subspace(rng, 4, 3)
    X2 = random_subspace(rng, 4, 3)
    L, res, heuristic = _section_match(body, X1, X2)
    assert heuristic
    assert res <= 1e-6
    assert_maps_section(body, X1, X2, L, 1e-8)


def test_equivalence_spatial_rejects_mixed():
    cube4 = Polytope(
        np.array(
            [[a, b, c, d] for a in (-0.8, 0.8) for b in (-0.8, 0.8)
             for c in (-0.8, 0.8) for d in (-3, 3)],
            dtype=float,
        )
    )
    mixed = Intersection([Ellipsoid(np.eye(4)), cube4])
    X1 = Subspace.coordinate(4, 0, 1, 2)
    X2 = Subspace.span([1, 0, 0, 0.4], [0, 1, 0, 0], [0, 0, 1, 0])
    _, res, _ = _section_match(mixed, X1, X2)
    assert res >= 1e-3
    assert linear_equivalent_sections(mixed, X1, X2) is None


def triangle_prism():
    """Triangle x [-1, 1]: the XY section is the triangle, whose centroid
    sits off the origin; the XZ and YZ sections are centred rectangles,
    because y = 0 and x = 0 cut the triangle in symmetric chords."""
    tri = np.array([[1.0, -1.0], [-1.0, -1.0], [0.0, 1.0]])
    return Polytope([[x, y, z] for x, y in tri for z in (-1.0, 1.0)])


def banach_pairs(region, seed):
    """The 41 plane pairs banach_classify checks at this seed."""
    rng = np.random.default_rng(seed)
    pairs = [(region.base, region.plane(M)) for M in region.grid(3)]
    for _ in range(32):
        pairs.append((region.plane(region.sample(rng)[0]), region.plane(region.sample(rng)[0])))
    return pairs


def assert_carries_signature(body, cache, X1, X2, L, res, tol):
    """L maps section 1's normalized radial signature onto section 2's: with
    T = M2^-1 L M1 (a rotation or reflection), r1(T^-1 u) = r2(u) within res +
    tol on the matcher's circle."""
    A1, M1 = cache[X1.frame.tobytes()]
    A2, M2 = cache[X2.frame.tobytes()]
    T = np.linalg.solve(M2, L @ M1)
    ang = np.linspace(0.0, 2.0 * np.pi, banach_module.SCAN_OFFSETS, endpoint=False)
    circle = np.column_stack([np.cos(ang), np.sin(ang)])
    r1 = _radials(body, (A1 @ np.linalg.inv(T))[None], circle)[0]
    r2 = _radials(body, A2[None], circle)[0]
    assert np.abs(r1 - r2).max() <= res + tol


def normalized_signatures(body, X1, X2, dirs):
    """Radial signatures of the normalized sections of X1 and X2 along dirs."""
    cache = {}
    _section_match(body, X1, X2, cache=cache)
    (A1, _), (A2, _) = (cache[X.frame.tobytes()] for X in (X1, X2))
    return _radials(body, np.stack([A1, A2]), dirs), A1


def test_scan_keeps_the_exact_argmin():
    n = banach_module.SCAN_OFFSETS
    ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    circle = np.column_stack([np.cos(ang), np.sin(ang)])
    tilted = Subspace.span([1.0, 0.0, 0.3], [0.0, 1.0, -0.2])
    # circles: every shift ties at rounding level
    circles, _ = normalized_signatures(Ellipsoid(np.diag([1.0, 2.0, 3.0])), XY, tilted, circle)
    # a square: exact 4-fold ties, here at the shifts 143 + 180 i
    quarter = 1.0 / np.abs(circle[: n // 4]).max(axis=1)
    square = np.tile(quarter, 4)
    rng = np.random.default_rng(3)
    for r, s in [circles, (square, np.roll(square, 37)), rng.uniform(0.5, 1.5, (2, n))]:
        for sig in (r, r[::-1]):
            brute = np.array([np.abs(np.roll(sig, -l) - s).max() for l in range(n)])
            got = _scan(sig, s)
            assert np.argmin(got) == np.argmin(brute)
            finite = np.isfinite(got)
            assert np.array_equal(got[finite], brute[finite])
            assert np.all(got[~finite] > brute.min())
    # only the four exact matches survive the bound
    assert np.flatnonzero(np.isfinite(_scan(square, np.roll(square, 37)))).tolist() == [
        143, 323, 503, 683
    ]


@pytest.mark.parametrize("body", [ball_cut_by_cube(), triangle_prism()])
def test_subscan_reads_the_rotated_residuals(body):
    # the sub-shifts of both orientations, read from radials on the offset
    # grids, equal the residuals of the rotated (and reflected) maps
    X2 = Subspace.span([1.0, 0.0, 0.3], [0.0, 1.0, -0.2])
    n, sub = banach_module.SCAN_OFFSETS, banach_module.REFINE_SUB
    step = 2.0 * np.pi / n
    fine = (np.arange(sub)[:, None] / sub + np.arange(n)) * step
    circle = np.column_stack([np.cos(fine[0]), np.sin(fine[0])])
    (_, s2), A1 = normalized_signatures(body, XY, X2, circle)
    dirs = np.column_stack([np.cos(fine.ravel()), np.sin(fine.ravel())])
    R = _radials(body, A1[None], dirs).reshape(sub, n)
    for base in ([3, 716], [718, 1]):
        phis = np.array(base)[:, None] * step + step * np.linspace(-1.0, 1.0, 2 * sub + 1)
        maps = A1 @ _rot(phis)
        maps[1, ..., 1] *= -1.0
        rotated = [np.abs(_radials(body, m, circle) - s2).max(axis=1) for m in maps]
        assert np.abs(_subscan(R, s2, np.array(base)) - rotated).max() <= 1e-14


@pytest.mark.parametrize(
    "fixture", [("ellipsoid", "region_xy"), ("mixed", "region_mixed"), "ball_in_slab"]
)
def test_stacked_match_equals_one_pair_calls(fixture):
    if fixture == "ball_in_slab":
        # a stack of one round-signature pair (the disk first) and one pair
        # that takes the shift search
        body, pairs = ball_in_slab(), [(XY, SLAB_TILTED), (SLAB_TILTED, XY)]
    else:
        body = load_body(FIXTURES / f"{fixture[0]}.json")
        pairs = banach_pairs(load_region(FIXTURES / f"{fixture[1]}.json"), 0)
        assert len(pairs) == 41
    cache = {}
    stacked = _match_sections(body, pairs, cache=cache)
    assert len(stacked) == len(pairs)
    for (X1, X2), (L, res, heuristic) in zip(pairs, stacked):
        assert not heuristic
        L1, res1, _ = _section_match(body, X1, X2, cache=cache)
        assert abs(res1 - res) <= 1e-15
        assert np.abs(L1 - L).max() <= 1e-12
        assert_carries_signature(body, cache, X1, X2, L, res, 1e-12)


@pytest.mark.parametrize("body, X2", [(steinmetz(), XZ), (ball_in_slab(), SLAB_TILTED)])
def test_round_signature_residual_is_the_grid_minimum(body, X2):
    # the disk's signature is round, so its pair skips the shift search; the
    # residual still equals the least over every grid shift and orientation
    n = banach_module.SCAN_OFFSETS
    ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    circle = np.column_stack([np.cos(ang), np.sin(ang)])
    (r1, s2), _ = normalized_signatures(body, XY, X2, circle)
    assert np.ptp(r1) <= banach_module.REFINE_TOL < np.ptp(s2)
    brute = min(np.abs(np.roll(sig, -l) - s2).max() for sig in (r1, r1[::-1]) for l in range(n))
    assert abs(_section_match(body, XY, X2)[1] - brute) <= banach_module.REFINE_TOL


def test_off_centre_pair_in_a_stack_matches_its_own_call():
    body = triangle_prism()
    YZ = Subspace.coordinate(3, 1, 2)
    tilted = Subspace.span([1.0, 0.0, 0.3], [0.0, 1.0, -0.2])
    pairs = [(XZ, YZ), (XY, tilted), (YZ, XZ)]
    stacked = _match_sections(body, pairs)
    L, res, _ = stacked[1]
    L1, res1, _ = _section_match(body, XY, tilted)
    assert abs(res - res1) <= 1e-15
    assert np.abs(L - L1).max() <= 1e-12
    # the triangle's sections are linear images of it, the rectangles of each other
    for (X1, X2), (L, res, _) in zip(pairs, stacked):
        assert res <= 1e-9
        assert_maps_section(body, X1, X2, L, 1e-9)


# -------------------------------------------------------------- tensor algebra


def test_tensor_rejects_trace():
    E = np.zeros((2, 2, 2))
    E[0, 0] = [1.0, 0.0]
    E[0, 1] = [0.0, 1.0]
    with pytest.raises(ValueError):
        RTensor(E)


def test_quadratic_field_examples():
    R = RTensor(np.zeros((2, 2, 2)))
    assert np.all(quadratic_field(R, [0.7, -0.4]) == 0.0)

    E = np.zeros((2, 2, 2))
    E[0, 1] = [1.0, 0.0]
    assert np.allclose(quadratic_field(RTensor(E), [0.0, 2.0]), [4.0, 0.0])

    E = np.zeros((2, 2, 2))
    E[0, 0] = [-1.0, 0.0]
    E[1, 1] = [-2.0, 0.0]
    E[1, 0] = [0.0, 1.0]
    E[0, 1] = [1.0, 1.0]
    R = RTensor(E)
    assert np.allclose(quadratic_field(R, [1.0, 2.0]), [6.0, 3.0])


def test_quadratic_field_definitional_identity():
    # W(p) = R_{lam_p}(p) with lam_p = y e1* - x e2*
    rng = np.random.default_rng(17)
    for _ in range(1000):
        R = random_trace_free(rng)
        p = rng.normal(size=2)
        lam = np.array([p[1], -p[0]])
        direct = R.matrix(lam) @ p
        scale = max(1.0, np.abs(R.entries).max() * (p @ p))
        assert np.abs(quadratic_field(R, p) - direct).max() <= 1e-12 * scale


def field_coefficients(R):
    return R.entries[0, 0] - R.entries[1, 1], R.entries[1, 0], R.entries[0, 1]


def reconstruct_from_field(values, points):
    # basis [xy, -x^2, y^2] has full rank on 6 generic points
    A = np.array([[x * y, -x * x, y * y] for x, y in points])
    sol, *_ = np.linalg.lstsq(A, values, rcond=None)
    D, R21, R12 = sol
    E = np.zeros((2, 2, 2))
    E[0, 1] = R12
    E[1, 0] = R21
    # trace conditions pin the diagonal entries given the difference D
    E[0, 0] = [-R12[1], D[1] - R21[0]]
    E[1, 1] = [-R12[1] - D[0], -R21[0]]
    return RTensor(E)


def test_zero_tensor_rigidity():
    rng = np.random.default_rng(29)
    points = rng.normal(size=(6, 2))
    for _ in range(100):
        R = random_trace_free(rng)
        values = np.array([quadratic_field(R, p) for p in points])
        back = reconstruct_from_field(values, points)
        assert np.abs(back.entries - R.entries).max() <= 1e-9
    # the zero field forces the zero tensor
    zero = reconstruct_from_field(np.zeros((6, 2)), points)
    assert np.all(zero.entries == 0.0)


# ------------------------------------------------------------- tangency report


def test_tangency_rotation_field_on_disk():
    disk = Ellipsoid(np.eye(2))
    R = tensor_from_matrices(J, np.zeros((2, 2)))
    rep = verify_R_tangency(disk, FULL2, R, m=32)
    assert rep.hypothesis_ok and rep.conclusion_ok
    assert rep.worst_violation <= 1e-12


def test_tangency_off_diagonal_fails():
    disk = Ellipsoid(np.eye(2))
    R = tensor_from_matrices(
        np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])
    )
    rep = verify_R_tangency(disk, FULL2, R, m=64)
    assert not rep.hypothesis_ok
    assert rep.worst_violation >= 0.5
    lam, p = rep.witness
    assert abs(np.linalg.norm(lam) - 1.0) <= 1e-12


def test_tangency_sphere_with_transversal_term():
    sphere = Ellipsoid(np.eye(3))
    R = RTensor(np.zeros((2, 2, 2)), nu=np.array([0.0, 0.0, 1.0]))
    rep = verify_R_tangency(sphere, XY, R, m=32)
    assert rep.hypothesis_ok and rep.conclusion_ok
    assert rep.worst_violation <= 1e-12


def test_tangency_transfer_on_ellipses():
    # fields a J Q are tangent everywhere; generic trace-free tensors must
    # fail the kernel-point hypothesis before the global conclusion
    rng = np.random.default_rng(41)
    for _ in range(50):
        Q = random_spd(rng, 2, cond=9.0)
        body = Ellipsoid(Q)
        a1, a2 = rng.normal(size=2)
        R = tensor_from_matrices(a1 * (J @ Q), a2 * (J @ Q))
        rep = verify_R_tangency(body, FULL2, R, m=24)
        assert rep.hypothesis_ok and rep.conclusion_ok
    for _ in range(50):
        Q = random_spd(rng, 2, cond=9.0)
        rep = verify_R_tangency(Ellipsoid(Q), FULL2, random_trace_free(rng), m=24)
        assert not (rep.hypothesis_ok and not rep.conclusion_ok)


def test_tangency_on_a_spatial_section():
    # the section of the unit 4-ball by the first three coordinates is the
    # unit 3-ball: skew fields are tangent to it, a diagonal stretch is not
    X = Subspace.coordinate(4, 0, 1, 2)
    E = np.zeros((3, 3, 3))
    E[0] = [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    E[1] = [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [-0.5, 0.0, 0.0]]
    E[2] = [[0.0, 0.0, 0.0], [0.0, 0.0, -2.0], [0.0, 2.0, 0.0]]
    rep = verify_R_tangency(Ellipsoid(np.eye(4)), X, RTensor(E), m=64)
    assert rep.hypothesis_ok and rep.conclusion_ok
    assert rep.worst_violation <= 1e-12
    E = np.zeros((3, 3, 3))
    E[0] = np.diag([1.0, -1.0, 0.0])
    rep = verify_R_tangency(Ellipsoid(np.eye(4)), X, RTensor(E), m=64)
    assert not rep.hypothesis_ok and not rep.conclusion_ok
    assert rep.worst_violation >= 0.9
    lam, p = rep.witness
    assert abs(np.linalg.norm(lam) - 1.0) <= 1e-12 and abs(np.linalg.norm(p) - 1.0) <= 1e-12


# ----------------------------------------------------------------- classifier


def test_banach_classify_ellipsoid(monkeypatch):
    # every normalized ellipse section is the unit disk to rounding, so no
    # pair needs the shift search
    scans = []
    scan = banach_module._scan
    monkeypatch.setattr(banach_module, "_scan", lambda r, s: scans.append(1) or scan(r, s))
    body = Ellipsoid(np.diag([1.0, 2.0, 3.0]))
    region = GrassmannChart(XY, 0.2)
    rep = banach_classify(body, region)
    assert rep.verdict == "Ellipsoid"
    assert rep.diagnostics["banach_pairs"] == 41
    assert not scans
    assert rep.diagnostics["banach_worst_residual"] <= 1e-13
    assert not rep.diagnostics["equivalence_heuristic"]
    assert rep.verdict == classify(body, region).verdict


def test_banach_classify_over_a_chart_of_3_planes():
    body = Ellipsoid(np.diag([1.0, 2.0, 3.0, 4.0]))
    rep = banach_classify(body, GrassmannChart(Subspace.coordinate(4, 0, 1, 2), 0.2))
    assert rep.verdict == "Ellipsoid"
    assert rep.diagnostics["equivalence_heuristic"]
    assert rep.diagnostics["banach_worst_residual"] <= 1e-9


def test_banach_classify_box_prism():
    body = box_prism()
    region = GrassmannChart(XY, 0.3)
    opts = ClassifyOptions(grid_per_axis=5)
    rep = banach_classify(body, region, opts=opts)
    assert rep.verdict == "Cylinder"
    assert rep.diagnostics["banach_worst_residual"] <= 1e-6
    assert rep.verdict == classify(body, region, opts=opts).verdict


def test_banach_classify_mixed_regime_fails():
    with pytest.raises(HypothesisFailed) as info:
        banach_classify(ball_cut_by_cube(), GrassmannChart(XY, 0.35))
    assert info.value.residual > 1e-3
    Xa, Xb = info.value.pair
    assert Xa.dim == Xb.dim == 2


def random_cylinder(r, family):
    """A cylinder in R^3 over a random 2-plane, its generatrix at least 40
    degrees out of the plane, with a p-ball, polygon or ellipse base (family
    0, 1 or 2)."""
    X = random_subspace(r, 3, 2)
    if family == 0:
        base = PBall(float(r.choice([1.5, 3.0, 4.0, 8.0])), np.eye(2) + 0.4 * r.normal(size=(2, 2)))
    elif family == 1:
        m = int(r.integers(5, 9))
        # gaps of at most 2 pi / 5 keep the origin inside
        ang = np.cumsum(r.uniform(0.6, 1.0, m))
        base = Polytope(on_circle(2.0 * np.pi * ang / ang[-1], r.uniform(0.5, 1.5, m)))
    else:
        G = r.normal(size=(2, 2))
        base = Ellipsoid(G @ G.T + 0.5 * np.eye(2))
    normal = np.cross(*X.frame.T)
    while abs(normal @ (g := r.normal(size=3))) < np.sin(np.radians(40.0)) * np.linalg.norm(g):
        pass
    return Cylinder(base, X, Subspace.span(g)), GrassmannChart(X, 0.15)


def test_random_cylinders_pass_the_hypothesis():
    # cylinders are linear images of their bases on every plane that meets
    # the generatrix once, so the moment normalization matches them all; at
    # the verdict, banach adds nothing to classify
    r = np.random.default_rng(7)
    opts = ClassifyOptions(grid_per_axis=3)
    for i in range(30):
        body, region = random_cylinder(r, i % 3)
        rep = banach_classify(body, region, opts=opts)
        assert rep.diagnostics["banach_worst_residual"] <= 1e-9, i
        assert rep.verdict == classify(body, region, opts=opts).verdict, i


def test_planar_match_is_rounding_stable(monkeypatch):
    # the corner planes cut symmetric sections whose coarse signature scan
    # ties many shifts exactly; the refined residual must not depend on which
    # tie wins, nor on last-bit noise in the section functionals
    body = ball_cut_by_cube()
    region = GrassmannChart(XY, 0.35)
    corners = [region.plane(M) for M in region.grid(3) if np.all(M != 0.0)]
    assert len(corners) == 4
    for X in corners:
        assert _section_match(body, XY, X)[1] == pytest.approx(0.0590638643498, abs=1e-10)
    moments = banach_module._planar_moments
    noise = np.random.default_rng(0)

    def noisy(body, frames):
        vol, J = moments(body, frames)
        return vol * (1.0 + 1e-16 * noise.normal(size=vol.shape)), J * (
            1.0 + 1e-16 * noise.normal(size=J.shape))

    monkeypatch.setattr(banach_module, "_planar_moments", noisy)
    for X in corners:
        assert _section_match(body, XY, X)[1] == pytest.approx(0.0590638643498, abs=1e-10)


def test_section_match_cache_keys_on_plane_bytes(monkeypatch):
    # an equal plane built as a new object reuses the cached normalization,
    # as the zero-coordinate chart plane does for the chart base; a stacked
    # quadrature adds the planes it normalizes
    solves = []
    moments = banach_module._planar_moments
    monkeypatch.setattr(
        banach_module,
        "_planar_moments",
        lambda body, frames: solves.append(len(frames)) or moments(body, frames),
    )
    body = Ellipsoid(np.diag([1.0, 2.0, 3.0]))
    region = GrassmannChart(XY, 0.35)
    X = Subspace.span([1.0, 0.2, 0.0], [0.0, 1.0, 0.3])
    cache = {}
    _section_match(body, region.base, X, cache=cache)
    assert sum(solves) == 2
    rebuilt = Subspace.span([1.0, 0.2, 0.0], [0.0, 1.0, 0.3])
    assert rebuilt is not X
    _section_match(body, region.plane(np.zeros((1, 2))), rebuilt, cache=cache)
    assert sum(solves) == 2
    assert len(cache) == 2


def test_banach_worst_pair_keeps_the_first_of_rounding_ties(monkeypatch):
    # residuals that differ only in rounding must not move the witness pair
    seen = []

    def fake_match(body, pairs, cache=None):
        seen.extend(pairs)
        return [(None, 0.5 * (1.0 + 1e-12 * i), False) for i in range(1, len(pairs) + 1)]

    monkeypatch.setattr(banach_module, "_match_sections", fake_match)
    with pytest.raises(HypothesisFailed) as info:
        banach_classify(Ellipsoid(np.eye(3)), GrassmannChart(XY, 0.2))
    assert len(seen) == 41
    assert info.value.pair == seen[0]


def test_banach_classify_rejects_bad_k():
    # a chart of 4-planes in R^5
    region = GrassmannChart(Subspace.coordinate(5, 0, 1, 2, 3), 0.2)
    with pytest.raises(ValueError):
        banach_classify(Ellipsoid(np.eye(5)), region)
