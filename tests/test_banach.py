from pathlib import Path

import numpy as np
import pytest

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
    max_inscribed_ellipsoid,
    quadratic_field,
    verify_R_tangency,
    _barrier_grad_hess,
    _barrier_value,
    _match_sections,
    _normalize,
    _radials,
    _rot,
    _scan,
    _section_match,
    _subscan,
)
from kkit.cli import load_body, load_region
from kkit.classifier import ClassifyOptions, classify
from kkit.errors import HypothesisFailed
from kkit.linalg import GrassmannChart, Subspace, random_subspace
from kkit.tally import counting

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


def box_prism():
    return Polytope(
        np.array(
            [[x, y, w] for x in (-1, 1) for y in (-1, 1) for w in (-2, 2)],
            dtype=float,
        )
    )


# --------------------------------------------------------- inscribed ellipsoid


def test_inscribed_ellipsoid_known_shapes(square):
    for body, Mexp in [
        (Ellipsoid(np.eye(2)), np.eye(2)),
        (square, np.eye(2)),
        (Ellipsoid(np.diag([1.0, 4.0])), np.diag([1.0, 0.5])),
    ]:
        sam = section_samples(body, FULL2, 256)
        M, c = max_inscribed_ellipsoid(sam.functionals)
        assert np.abs(M - Mexp).max() <= 1e-10
        assert np.linalg.norm(c) <= 1e-10


def test_inscribed_ellipsoid_triangle_centroid():
    # the maximal ellipse of a triangle is centered at the centroid
    tri = Polytope([[2.0, 0.0], [0.0, 2.0], [-1.0, -1.0]])
    sam = section_samples(tri, FULL2, 256)
    M, c = max_inscribed_ellipsoid(sam.functionals)
    assert np.abs(c - 1.0 / 3.0).max() <= 1e-9
    ang = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    u = np.column_stack([np.cos(ang), np.sin(ang)])
    assert tri.gauge_many(u @ M.T + c).max() <= 1.0 + 1e-9


def test_inscribed_ellipsoid_thin_section(monkeypatch):
    # a thin section on which the barrier in Cholesky parameters, which is
    # not self-concordant, took 473 Newton steps; log det M peaks at -6.0761687
    steps = []
    grad_hess = banach_module._barrier_grad_hess
    monkeypatch.setattr(
        banach_module, "_barrier_grad_hess", lambda *a: steps.append(1) or grad_hess(*a)
    )
    A = [[1.338, 0.935, 0.049], [2.002, 2.189, -0.633], [-0.378, -1.091, 0.722]]
    X = Subspace.span([0.203, 0.632, 0.748], [0.858, -0.482, 0.174])
    ell = section_samples(PBall(4.485, A), X, 256).functionals
    M, c = max_inscribed_ellipsoid(ell)
    assert np.linalg.slogdet(M)[1] >= -6.0761697
    assert (ell @ c + np.linalg.norm(ell @ M, axis=1)).max() <= 1.0 + 1e-9
    assert len(steps) <= 150


def stack_size(functionals):
    """Sections in one max_inscribed_ellipsoid input: (m, k) is a stack of one."""
    return len(functionals) if np.ndim(functionals) == 3 else 1


def assert_stack_matches_rows(ells):
    """A stacked solve equals each row's own solve and stays strictly inside."""
    M, c = max_inscribed_ellipsoid(ells)
    assert M.shape == (len(ells), ells.shape[2], ells.shape[2]) and c.shape == ells.shape[::2]
    for ell, Mb, cb in zip(ells, M, c):
        Ms, cs = max_inscribed_ellipsoid(ell)
        assert np.abs(Mb - Ms).max() <= 1e-12 * np.abs(Ms).max()
        assert np.abs(cb - cs).max() <= 1e-12 * (np.abs(Ms).max() + np.abs(cs).max())
        assert (ell @ cb + np.linalg.norm(ell @ Mb, axis=1)).max() < 1.0


def test_inscribed_ellipsoid_stack_k2():
    # rows that need very different step counts: the thin PBall section, an
    # off-centre triangle and a disk
    A = [[1.338, 0.935, 0.049], [2.002, 2.189, -0.633], [-0.378, -1.091, 0.722]]
    X = Subspace.span([0.203, 0.632, 0.748], [0.858, -0.482, 0.174])
    tri = Polytope([[2.0, 0.0], [0.0, 2.0], [-1.0, -1.0]])
    ells = np.stack([
        section_samples(PBall(4.485, A), X, 256).functionals,
        section_samples(tri, FULL2, 256).functionals,
        section_samples(Ellipsoid(np.eye(2)), FULL2, 256).functionals,
    ])
    assert_stack_matches_rows(ells)


def test_inscribed_ellipsoid_stack_k3():
    r = np.random.default_rng(5)
    ells = np.stack([
        section_samples(random_section_body(r, 4), random_subspace(r, 4, 3)).functionals
        for _ in range(4)
    ])
    assert_stack_matches_rows(ells)


def test_inscribed_solves_count_sections():
    ells = np.stack([
        section_samples(Ellipsoid(np.diag([1.0, 2.0 + i])), FULL2, 64).functionals
        for i in range(3)
    ])
    with counting() as counts:
        max_inscribed_ellipsoid(ells)
        max_inscribed_ellipsoid(ells[0])
    assert counts["inscribed_solves"] == 4


def test_inscribed_ellipsoid_evaluates_each_barrier_point_once(monkeypatch):
    # the accepted Armijo trial is the next iterate, so its value is carried
    # and no (section, point, barrier weight) is evaluated twice
    keys = []
    value = banach_module._barrier_value

    def record(ell, E, x, mu):
        for row in zip(ell, x, np.broadcast_to(mu, len(x))):
            keys.append(b"".join(a.tobytes() for a in row))
        return value(ell, E, x, mu)

    body = load_body(FIXTURES / "mixed.json")
    pairs = banach_pairs(load_region(FIXTURES / "region_mixed.json"), 0)
    ells = [section_samples(body, X, 256).functionals for pair in pairs for X in pair]
    # symmetric planes of the body cut sections with bit-equal functionals:
    # keep one of each, so that a repeated key is a repeated evaluation
    ells = np.stack(list({e.tobytes(): e for e in ells}.values()))
    monkeypatch.setattr(banach_module, "_barrier_value", record)
    max_inscribed_ellipsoid(ells)
    assert len(ells) >= 60 and len(keys) >= 100 * len(ells)
    assert len(set(keys)) == len(keys)


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


def test_inscribed_ellipsoid_is_inside():
    # every sampled constraint holds strictly: the result lies in the domain
    # of the barrier, for sections of every family with k = 2 and 3
    for seed in range(20):
        r = np.random.default_rng(seed)
        k = 2 + seed % 2
        body, X = random_section_body(r, k + 1), random_subspace(r, k + 1, k)
        ell = section_samples(body, X).functionals
        M, c = max_inscribed_ellipsoid(ell)
        assert np.array_equal(M, M.T)
        assert np.linalg.eigvalsh(M).min() > 0.0
        assert (ell @ c + np.linalg.norm(ell @ M, axis=1)).max() < 1.0, seed


def central_differences(f, x, h=1e-6):
    """Row i is (f(x + h e_i) - f(x - h e_i)) / 2h: the gradient of a scalar
    f, or the finite-difference Hessian when f is the gradient."""
    return np.array([(f(x + e) - f(x - e)) / (2.0 * h) for e in h * np.eye(len(x))])


@pytest.mark.parametrize("k", [2, 3])
def test_barrier_derivatives_match_finite_differences(k):
    rng = np.random.default_rng(k)
    ell = rng.normal(size=(40, k))
    scale = np.linalg.norm(ell, axis=1).max()
    # the formulas hold in any basis of symmetric matrices
    p = k * (k + 1) // 2
    E = rng.normal(size=(p, k, k))
    E = E + E.transpose(0, 2, 1)
    for _ in range(5):
        # random interior point: every slack stays above ~0.4
        M = 0.3 / scale * np.eye(k) + 0.05 / scale * random_spd(rng, k)
        c = 0.1 / scale * rng.normal(size=k)
        x = np.concatenate([np.linalg.lstsq(E.reshape(p, -1).T, M.ravel())[0], c])
        mu = 10.0 ** rng.uniform(-4.0, -1.0)
        g, H = _barrier_grad_hess(ell, E, x, mu)
        fd_g = central_differences(lambda t: _barrier_value(ell, E, t, mu), x)
        assert np.abs(g - fd_g).max() <= 1e-6 * (1.0 + np.abs(g).max())
        fd_H = central_differences(lambda t: _barrier_grad_hess(ell, E, t, mu)[0], x)
        assert np.abs(H - fd_H).max() <= 1e-6 * np.abs(H).max()
        assert np.abs(H - H.T).max() <= 1e-13 * np.abs(H).max()


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
    _, res, _ = _section_match(body, XY, XZ)
    # normalized signatures differ by sqrt(2) - 1 at the corners
    assert abs(res - (np.sqrt(2.0) - 1.0)) <= 5e-3


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


def full_bisection(body, A, c, dirs):
    """Radial extents from c along A dirs by doubling, then 80 bisection steps."""
    W = dirs @ A.T
    t_hi = np.ones(len(W))
    while (inside := body.gauge_many(c + t_hi[:, None] * W) < 1.0).any():
        t_hi[inside] *= 2.0
    t_lo = np.zeros(len(W))
    for _ in range(80):
        mid = 0.5 * (t_lo + t_hi)
        inside = body.gauge_many(c + mid[:, None] * W) <= 1.0
        t_lo, t_hi = np.where(inside, mid, t_lo), np.where(inside, t_hi, mid)
    return 0.5 * (t_lo + t_hi)


def test_radials_from_an_off_centre_inscribed_ellipse():
    # a triangle's inscribed ellipse sits off the origin, so its radial
    # extents come from the general-centre bisection
    tri = Polytope([[1.0, 0.2], [-0.4, 0.9], [-0.6, -0.7]])
    body = Cylinder(tri, XY, Subspace.coordinate(3, 2))
    M, c = max_inscribed_ellipsoid(section_samples(body, XY, 256).functionals)
    assert np.linalg.norm(c) >= 1e-2
    ang = np.linspace(0.0, 2.0 * np.pi, 90, endpoint=False)
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    got = _radials(body, (XY.frame @ M)[None], (XY.frame @ c)[None], dirs)[0]
    # in XY's frame coordinates the section is the triangle: from c along w
    # the boundary is at min over facets a with a.w > 0 of (1 - a.c) / (a.w)
    aw = dirs @ M.T @ tri.facets.T
    ratio = (1.0 - tri.facets @ c) / np.where(aw > 0.0, aw, 1.0)
    exact = np.where(aw > 0.0, ratio, np.inf).min(axis=1)
    assert np.abs(got / exact - 1.0).max() <= 1e-12
    # the bisection stops at its fixed point, with the bytes of all 80 steps
    assert got.tobytes() == full_bisection(body, XY.frame @ M, XY.frame @ c, dirs).tobytes()
    calls = []
    gauge = body.gauge_many
    body.gauge_many = lambda V: calls.append(1) or gauge(V)
    _radials(body, (XY.frame @ M)[None], (XY.frame @ c)[None], dirs)
    assert len(calls) <= 60
    # sections of a cylinder are linear images of its base
    tilted = Subspace.span([1.0, 0.0, 0.3], [0.0, 1.0, -0.2])
    w = linear_equivalent_sections(body, XY, tilted)
    assert w is not None and w.residual <= 1e-9
    assert_maps_section(body, XY, tilted, w.map, 1e-9)


def triangle_prism():
    """Triangle x [-1, 1]: the XY section is the triangle, whose inscribed
    ellipse sits off the origin; the XZ and YZ sections are centred
    rectangles, because y = 0 and x = 0 cut the triangle in symmetric chords."""
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
    A1, c1, M1 = cache[X1.frame.tobytes()]
    A2, c2, M2 = cache[X2.frame.tobytes()]
    T = np.linalg.solve(M2, L @ M1)
    ang = np.linspace(0.0, 2.0 * np.pi, banach_module.SCAN_OFFSETS, endpoint=False)
    circle = np.column_stack([np.cos(ang), np.sin(ang)])
    r1 = _radials(body, (A1 @ np.linalg.inv(T))[None], c1[None], circle)[0]
    r2 = _radials(body, A2[None], c2[None], circle)[0]
    assert np.abs(r1 - r2).max() <= res + tol


def normalized_signatures(body, X1, X2, dirs):
    """Radial signatures of the normalized sections of X1 and X2 along dirs."""
    cache = {}
    _section_match(body, X1, X2, cache=cache)
    (A1, c1, _), (A2, c2, _) = (cache[X.frame.tobytes()] for X in (X1, X2))
    return _radials(body, np.stack([A1, A2]), np.stack([c1, c2]), dirs), A1, c1


def test_scan_keeps_the_exact_argmin():
    n = banach_module.SCAN_OFFSETS
    ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    circle = np.column_stack([np.cos(ang), np.sin(ang)])
    tilted = Subspace.span([1.0, 0.0, 0.3], [0.0, 1.0, -0.2])
    # circles: every shift ties at rounding level
    circles, _, _ = normalized_signatures(Ellipsoid(np.diag([1.0, 2.0, 3.0])), XY, tilted, circle)
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
    # grids, equal the residuals of the rotated (and reflected) maps; the
    # triangle's inscribed ellipse is off-centre, so its radials bisect
    X2 = Subspace.span([1.0, 0.0, 0.3], [0.0, 1.0, -0.2])
    n, sub = banach_module.SCAN_OFFSETS, banach_module.REFINE_SUB
    step = 2.0 * np.pi / n
    fine = (np.arange(sub)[:, None] / sub + np.arange(n)) * step
    circle = np.column_stack([np.cos(fine[0]), np.sin(fine[0])])
    (_, s2), A1, c1 = normalized_signatures(body, XY, X2, circle)
    dirs = np.column_stack([np.cos(fine.ravel()), np.sin(fine.ravel())])
    R = _radials(body, A1[None], c1[None], dirs).reshape(sub, n)
    for base in ([3, 716], [718, 1]):
        phis = np.array(base)[:, None] * step + step * np.linspace(-1.0, 1.0, 2 * sub + 1)
        maps = A1 @ _rot(phis)
        maps[1, ..., 1] *= -1.0
        rotated = [np.abs(_radials(body, m, np.tile(c1, (len(m), 1)), circle) - s2).max(axis=1)
                   for m in maps]
        assert np.abs(_subscan(R, s2, np.array(base)) - rotated).max() <= 1e-14


@pytest.mark.parametrize("fixture", [("ellipsoid", "region_xy"), ("mixed", "region_mixed")])
def test_stacked_match_equals_one_pair_calls(fixture):
    body = load_body(FIXTURES / f"{fixture[0]}.json")
    pairs = banach_pairs(load_region(FIXTURES / f"{fixture[1]}.json"), 0)
    cache = {}
    stacked = _match_sections(body, pairs, cache=cache)
    assert len(stacked) == 41
    for (X1, X2), (L, res, heuristic) in zip(pairs, stacked):
        assert not heuristic
        assert abs(_section_match(body, X1, X2, cache=cache)[1] - res) <= 1e-15
        assert_carries_signature(body, cache, X1, X2, L, res, 1e-12)


def test_normalize_solves_each_distinct_section_once():
    # mirror-image planes of the mixed body cut sections with bit-equal
    # functionals: they share one solve, bit for bit the unshared one
    body = load_body(FIXTURES / "mixed.json")
    pairs = banach_pairs(load_region(FIXTURES / "region_mixed.json"), 0)
    planes = list({X.frame.tobytes(): X for pair in pairs for X in pair}.values())
    cache = {}
    with counting() as counts:
        _normalize(body, planes, cache)
    ells = np.stack([section_samples(body, X, 256).functionals for X in planes])
    assert counts["inscribed_solves"] == len({e.tobytes() for e in ells}) < len(planes)
    M, c = max_inscribed_ellipsoid(ells)
    for X, Mi, ci in zip(planes, M, c):
        unshared = (X.frame @ Mi, X.frame @ ci, Mi)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(cache[X.frame.tobytes()], unshared))


def test_off_centre_pair_in_a_stack_matches_its_own_call():
    body = triangle_prism()
    YZ = Subspace.coordinate(3, 1, 2)
    tilted = Subspace.span([1.0, 0.0, 0.3], [0.0, 1.0, -0.2])
    pairs = [(XZ, YZ), (XY, tilted), (YZ, XZ)]
    cache = {}
    stacked = _match_sections(body, pairs, cache=cache)
    def centre(X):
        return np.linalg.norm(cache[X.frame.tobytes()][1])

    assert centre(XY) >= 1e-2 and centre(XZ) <= 1e-12 and centre(YZ) <= 1e-12
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


def test_banach_classify_ellipsoid():
    body = Ellipsoid(np.diag([1.0, 2.0, 3.0]))
    region = GrassmannChart(XY, 0.2)
    rep = banach_classify(body, region)
    assert rep.verdict == "Ellipsoid"
    assert rep.diagnostics["banach_pairs"] == 41
    assert rep.diagnostics["banach_worst_residual"] <= 1e-6
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


def test_planar_match_is_rounding_stable(monkeypatch):
    # the corner planes cut symmetric sections whose coarse signature scan
    # ties many shifts exactly; the refined residual must not depend on which
    # tie wins, nor on last-bit noise in the section functionals
    body = ball_cut_by_cube()
    region = GrassmannChart(XY, 0.35)
    corners = [region.plane(M) for M in region.grid(3) if np.all(M != 0.0)]
    assert len(corners) == 4
    for X in corners:
        assert _section_match(body, XY, X)[1] == pytest.approx(0.12951342823, abs=1e-10)
    solve = banach_module.max_inscribed_ellipsoid
    noise = np.random.default_rng(0)
    monkeypatch.setattr(
        banach_module,
        "max_inscribed_ellipsoid",
        lambda L: solve(L * (1.0 + 1e-16 * noise.normal(size=L.shape))),
    )
    for X in corners:
        assert _section_match(body, XY, X)[1] == pytest.approx(0.12951342823, abs=1e-10)


def test_section_match_cache_keys_on_plane_bytes(monkeypatch):
    # an equal plane built as a new object reuses the cached solve, as the
    # zero-coordinate chart plane does for the chart base; solves count
    # sections, so a stacked call adds its stack size
    solves = []
    solve = banach_module.max_inscribed_ellipsoid
    monkeypatch.setattr(
        banach_module,
        "max_inscribed_ellipsoid",
        lambda L: solves.append(stack_size(L)) or solve(L),
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
