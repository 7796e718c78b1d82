import numpy as np
import pytest

import kkit.banach as banach_module
from kkit.bodies import (
    Cylinder,
    Ellipsoid,
    Intersection,
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
    _section_match,
)
from kkit.classifier import ClassifyOptions, classify
from kkit.errors import HypothesisFailed
from kkit.linalg import GrassmannChart, Subspace, random_subspace

from conftest import random_spd

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


def test_inscribed_ellipsoid_thin_section():
    # a thin section whose early mu stages take far more Newton steps than
    # the fixtures need; stopping them at 40 steps left log det M at -6.47
    # or -6.52 against the maximum -6.0761687
    A = [[1.338, 0.935, 0.049], [2.002, 2.189, -0.633], [-0.378, -1.091, 0.722]]
    X = Subspace.span([0.203, 0.632, 0.748], [0.858, -0.482, 0.174])
    ell = section_samples(PBall(4.485, A), X, 256).functionals
    M, c = max_inscribed_ellipsoid(ell)
    assert np.linalg.slogdet(M)[1] >= -6.0761697
    assert (ell @ c + np.linalg.norm(ell @ M, axis=1)).max() <= 1.0 + 1e-9


def central_differences(f, theta, h=1e-6):
    """Row i is (f(theta + h e_i) - f(theta - h e_i)) / 2h: the gradient of a
    scalar f, or the finite-difference Hessian when f is the gradient."""
    return np.array([(f(theta + e) - f(theta - e)) / (2.0 * h) for e in h * np.eye(len(theta))])


@pytest.mark.parametrize("k", [2, 3])
def test_barrier_derivatives_match_finite_differences(k):
    rng = np.random.default_rng(k)
    ell = rng.normal(size=(40, k))
    scale = np.linalg.norm(ell, axis=1).max()
    n_off = k * (k - 1) // 2
    for _ in range(5):
        # random interior point: every slack stays above ~0.4
        theta = np.concatenate(
            [
                np.log(0.3 / scale) + 0.2 * rng.normal(size=k),
                0.1 / scale * rng.normal(size=n_off),
                0.1 / scale * rng.normal(size=k),
            ]
        )
        mu = 10.0 ** rng.uniform(-4.0, -1.0)
        g, H = _barrier_grad_hess(ell, theta, mu)
        fd_g = central_differences(lambda t: _barrier_value(ell, t, mu), theta)
        assert np.abs(g - fd_g).max() <= 1e-6 * (1.0 + np.abs(g).max())
        fd_H = central_differences(lambda t: _barrier_grad_hess(ell, t, mu)[0], theta)
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
    # zero-coordinate chart plane does for the chart base
    solves = []
    solve = banach_module.max_inscribed_ellipsoid
    monkeypatch.setattr(
        banach_module, "max_inscribed_ellipsoid", lambda L: solves.append(1) or solve(L)
    )
    body = Ellipsoid(np.diag([1.0, 2.0, 3.0]))
    region = GrassmannChart(XY, 0.35)
    X = Subspace.span([1.0, 0.2, 0.0], [0.0, 1.0, 0.3])
    cache = {}
    _section_match(body, region.base, X, cache=cache)
    assert len(solves) == 2
    rebuilt = Subspace.span([1.0, 0.2, 0.0], [0.0, 1.0, 0.3])
    assert rebuilt is not X
    _section_match(body, region.plane(np.zeros((1, 2))), rebuilt, cache=cache)
    assert len(solves) == 2
    assert len(cache) == 2


def test_banach_worst_pair_keeps_the_first_of_rounding_ties(monkeypatch):
    # residuals that differ only in rounding must not move the witness pair
    seen = []

    def fake_match(body, X1, X2, cache=None):
        seen.append((X1, X2))
        return None, 0.5 * (1.0 + 1e-12 * len(seen)), False

    monkeypatch.setattr(banach_module, "_section_match", fake_match)
    with pytest.raises(HypothesisFailed) as info:
        banach_classify(Ellipsoid(np.eye(3)), GrassmannChart(XY, 0.2))
    assert len(seen) == 41
    assert info.value.pair == seen[0]


def test_banach_classify_rejects_bad_k():
    # a chart of 4-planes in R^5
    region = GrassmannChart(Subspace.coordinate(5, 0, 1, 2, 3), 0.2)
    with pytest.raises(ValueError):
        banach_classify(Ellipsoid(np.eye(5)), region)
