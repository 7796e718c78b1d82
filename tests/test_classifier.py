import numpy as np
import pytest

from kkit.bodies import Ellipsoid, LinearImage, PBall, Polytope, section_samples
from kkit.classifier import (
    ClassifyOptions,
    ConstantLine,
    Injective,
    PhiSample,
    ProjectiveDual,
    classify,
    fit_projective_dual,
    injectivity_test,
    phi_map,
    reduce_pair,
    support_check,
    tangent_field_fit,
)
from kkit.contracting import DirectionSearch, find_contracting_direction
from kkit.errors import (
    AmbiguousDichotomy,
    NoGeneratrix,
    PreconditionNotContracting,
    SameHyperplane,
    SharedLine,
)
from kkit.linalg import GrassmannChart, Subspace, random_subspace, subspace_angle

from conftest import disk_cylinder, random_spd

XY = Subspace.coordinate(3, 0, 1)
Z = Subspace.coordinate(3, 2)


def q_complement(Q, X):
    return Subspace(np.linalg.solve(Q, X.orthogonal_complement().frame))


def box_prism():
    return Polytope(
        np.array(
            [[x, y, w] for x in (-1, 1) for y in (-1, 1) for w in (-2, 2)],
            dtype=float,
        )
    )


# ---------------------------------------------------------------- reduce_pair


def test_reduce_sphere_instance():
    # p = (1,0,0) goes to (1/2, 0, -1/2) under the second projection and to
    # (1/2, 0, 0) under the first, so the factor on Z cap X1 is 1/2
    body = Ellipsoid(np.eye(3))
    X2 = Subspace.span([1.0, 0.0, -1.0], [0.0, 1.0, 0.0])
    L2 = Subspace.span([1.0, 0.0, 1.0])
    res = reduce_pair(body, XY, Z, X2, L2)
    assert subspace_angle(res.W, Subspace.coordinate(3, 1)) <= 1e-12
    assert subspace_angle(res.Z, Subspace.coordinate(3, 0, 2)) <= 1e-12
    assert abs(res.lam - 0.5) <= 1e-12
    assert res.certificate.holds
    assert res.probe_error <= 1e-9


def test_reduce_conjugation_invariance():
    body = Ellipsoid(np.eye(3))
    X2 = Subspace.span([1.0, 0.0, -1.0], [0.0, 1.0, 0.0])
    L2 = Subspace.span([1.0, 0.0, 1.0])
    rng = np.random.default_rng(11)
    for _ in range(5):
        A = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        res = reduce_pair(
            LinearImage(A, body),
            Subspace(A @ XY.frame),
            Subspace(A @ Z.frame),
            Subspace(A @ X2.frame),
            Subspace(A @ L2.frame),
        )
        assert abs(res.lam - 0.5) <= 1e-9
        assert res.probe_error <= 1e-9



def test_reduce_midpoint_at_minus_one():
    # diamond |x|+|y| <= 1: both oblique pairs contract, T(1,0) = (-1,0), and
    # the midpoint coincides with projection onto W = {0}
    diamond = Polytope(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
    X1 = Subspace.coordinate(2, 0)
    L1 = Subspace.span([1.0, 1.0])
    X2 = Subspace.coordinate(2, 1)
    L2 = Subspace.span([1.0, -1.0])
    res = reduce_pair(diamond, X1, L1, X2, L2)
    assert abs(res.lam + 1.0) <= 1e-12
    assert res.W.dim == 0
    assert res.probe_error <= 1e-9


def test_reduce_error_taxonomy():
    body = Ellipsoid(np.eye(3))
    X2 = Subspace.span([1.0, 0.0, -1.0], [0.0, 1.0, 0.0])
    L2 = Subspace.span([1.0, 0.0, 1.0])
    with pytest.raises(SameHyperplane):
        reduce_pair(body, XY, Z, XY, L2)
    with pytest.raises(SharedLine):
        reduce_pair(body, XY, Z, X2, Z)
    # an oblique line is never contracting for the sphere
    with pytest.raises(PreconditionNotContracting):
        reduce_pair(body, XY, Subspace.span([0.5, 0.0, 1.0]), X2, L2)


def test_reduce_random_certified_instances():
    rng = np.random.default_rng(23)
    for t in range(25):
        n = 3 + t % 2
        Q = random_spd(rng, n, cond=8.0)
        body = Ellipsoid(Q)
        X1 = random_subspace(rng, n, n - 1)
        X2 = random_subspace(rng, n, n - 1)
        if subspace_angle(X1, X2) <= 1e-3:
            continue
        L1, L2 = q_complement(Q, X1), q_complement(Q, X2)
        if subspace_angle(L1, L2) <= 1e-3:
            continue
        res = reduce_pair(body, X1, L1, X2, L2)
        assert abs(res.lam) <= 1.0 + 1e-12
        assert res.certificate.violation <= 1e-9
        assert res.probe_error <= 1e-9


# -------------------------------------------------------------------- phi map


def test_phi_constant_on_disk_cylinder():
    body = disk_cylinder()
    region = GrassmannChart(XY, 0.25)
    sample = phi_map(body, region, grid=3)
    assert len(sample.pairs) == 9
    for _, L in sample.pairs:
        assert subspace_angle(L, Z) <= 1e-6
    out = injectivity_test(sample)
    assert isinstance(out, ConstantLine)
    assert subspace_angle(out.line, Z) <= 1e-6


def test_phi_injective_on_ellipsoid():
    Q = np.diag([1.0, 2.0, 3.0])
    body = Ellipsoid(Q)
    region = GrassmannChart(XY, 0.25)
    sample = phi_map(
        body,
        region,
        grid=3,
        hints=lambda X: [q_complement(Q, X)],
        count_multiplicity=False,
    )
    for X, L in sample.pairs:
        assert subspace_angle(L, q_complement(Q, X)) <= 1e-6
    out = injectivity_test(sample)
    assert isinstance(out, Injective)
    assert out.min_separation > 1e-4


def test_phi_constant_on_box_prism():
    sample = phi_map(box_prism(), GrassmannChart(XY, 0.2), grid=3)
    out = injectivity_test(sample)
    assert isinstance(out, ConstantLine)
    assert subspace_angle(out.line, Z) <= 1e-6


def test_phi_raises_no_generatrix():
    body = PBall(4.0, np.eye(3))
    bad = Subspace.span([1.0, 0.0, 0.3], [0.0, 1.0, 0.2])
    with pytest.raises(NoGeneratrix):
        phi_map(body, GrassmannChart(bad, 0.05), grid=2)


def test_phi_continuity_defect_small_on_fine_grid():
    Q = np.diag([1.0, 1.5, 2.0])
    sample = phi_map(
        Ellipsoid(Q),
        GrassmannChart(XY, 0.1),
        grid=5,
        hints=lambda X: [q_complement(Q, X)],
        count_multiplicity=False,
    )
    assert sample.continuity_defect <= 0.2


def test_injectivity_ambiguous_is_surfaced():
    e1 = Subspace.span([1.0, 0.0, 0.0])
    e2 = Subspace.span([0.0, 0.0, 1.0])
    planes = [random_subspace(np.random.default_rng(i), 3, 2) for i in range(3)]
    sample = PhiSample(
        pairs=[(planes[0], e1), (planes[1], e1), (planes[2], e2)],
        multiplicity=[1, 1, 1],
        coords=[np.zeros((1, 2))] * 3,
    )
    with pytest.raises(AmbiguousDichotomy):
        injectivity_test(sample)


def test_phi_collinearity_on_concurrent_triples():
    # planes through a common line have coplanar generatrix lines
    Q = np.diag([1.0, 2.0, 3.0])
    body = Ellipsoid(Q)
    rng = np.random.default_rng(5)
    for _ in range(12):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        dirs = []
        for _ in range(3):
            w = rng.normal(size=3)
            X = Subspace.span(u, w)
            res = find_contracting_direction(
                body,
                X,
                DirectionSearch(warm=(q_complement(Q, X),), first_only=True),
            )
            assert res
            dirs.append(res.found[0].direction.frame[:, 0])
        defect = np.linalg.svd(np.array(dirs), compute_uv=False)[-1]
        assert defect <= 1e-8


# ------------------------------------------------------- dual fit and support


def test_dual_fit_matches_quadric():
    Q = np.diag([1.0, 2.0, 3.0])
    body = Ellipsoid(Q)
    region = GrassmannChart(XY, 0.25)
    sample = phi_map(
        body, region, grid=3, hints=lambda X: [q_complement(Q, X)],
        count_multiplicity=False,
    )
    dual = fit_projective_dual(body, sample)
    assert dual.fit_residual <= 1e-8
    F = dual.F / np.linalg.norm(dual.F)
    Qn = Q / np.linalg.norm(Q)
    assert np.abs(F - Qn).max() <= 1e-6
    assert abs(np.linalg.det(dual.F)) >= 1e-8


def test_dual_fit_sphere_is_identity():
    body = Ellipsoid(np.eye(3))
    sample = phi_map(
        body, GrassmannChart(XY, 0.25), grid=3,
        hints=lambda X: [X.orthogonal_complement()], count_multiplicity=False,
    )
    dual = fit_projective_dual(body, sample)
    F = dual.F / dual.F[0, 0]
    assert np.abs(F - np.eye(3)).max() <= 1e-9


def test_duality_incidence():
    # the dual functional at a boundary point annihilates the plane's image
    Q = np.diag([1.0, 2.0, 3.0])
    body = Ellipsoid(Q)
    sample = phi_map(
        body, GrassmannChart(XY, 0.25), grid=3,
        hints=lambda X: [q_complement(Q, X)], count_multiplicity=False,
    )
    dual = fit_projective_dual(body, sample)
    for X, L in sample.pairs:
        d = L.frame[:, 0]
        for p in section_samples(body, X, 8).ambient_points:
            assert abs((dual.F @ p) @ d) <= 1e-6


def test_support_check_accepts_truth_and_flags_corruption():
    Q = np.diag([1.0, 2.0, 3.0])
    body = Ellipsoid(Q)
    good = ProjectiveDual(Q / np.linalg.norm(Q), 0.0)
    assert support_check(body, good) <= 1e-9
    C = Q.copy()
    C[0, 1] = C[1, 0] = 0.1 * np.linalg.norm(Q)
    bad = ProjectiveDual(C / np.linalg.norm(C), 0.0)
    assert support_check(body, bad) > 1e-3


# ------------------------------------------------------- tangent linear field


def full_plane(n):
    return Subspace(np.eye(n))


def test_tangent_field_on_ellipse():
    body = Ellipsoid(np.diag([1.0, 4.0]))
    sec = section_samples(body, full_plane(2), 64)
    W, resid = tangent_field_fit(sec)
    assert W is not None and resid <= 1e-8
    # the field is tangent: functionals annihilate W p
    err = np.abs(np.einsum("mi,ij,mj->m", sec.functionals, W, sec.points)).max()
    assert err <= 1e-7
    assert np.linalg.svd(W, compute_uv=False)[-1] >= 1e-3


def test_tangent_field_none_on_square(square):
    sec = section_samples(square, full_plane(2), 64)
    W, resid = tangent_field_fit(sec)
    assert W is None
    assert resid >= 0.05


def test_tangent_field_none_on_hexagon():
    ang = np.arange(6) * np.pi / 3.0
    hexagon = Polytope(np.column_stack([np.cos(ang), np.sin(ang)]))
    W, resid = tangent_field_fit(section_samples(hexagon, full_plane(2), 66))
    assert W is None
    assert resid >= 0.05


# ------------------------------------------------------------------- classify


def test_classify_ellipsoid_recovers_form():
    rng = np.random.default_rng(2)
    for n, k in [(3, 2), (4, 3)]:
        Q = random_spd(rng, n, cond=20.0)
        base = random_subspace(rng, n, k)
        rep = classify(Ellipsoid(Q), GrassmannChart(base, 0.2))
        assert rep.verdict == "Ellipsoid"
        Qhat = np.array(rep.witness["form"])
        assert np.linalg.norm(Qhat - Q) <= 1e-6 * np.linalg.norm(Q)
        assert rep.witness["psd"] and rep.witness["rank"] == n


def test_classify_truncated_cylinder_degenerate_form():
    rep = classify(disk_cylinder(), GrassmannChart(XY, 0.3))
    assert rep.verdict == "Cylinder"
    assert rep.witness["rank"] == 2
    F = np.array(rep.witness["form"])
    assert np.abs(F - np.diag([1.0, 1.0, 0.0])).max() <= 1e-8
    assert subspace_angle(rep.generatrix, Z) <= 1e-6


def test_classify_box_prism_cylinder():
    opts = ClassifyOptions(grid_per_axis=5)
    rep = classify(box_prism(), GrassmannChart(XY, 0.3), opts=opts)
    assert rep.verdict == "Cylinder"
    assert subspace_angle(rep.generatrix, Z) <= 1e-6
    assert rep.diagnostics.get("phi_agrees")


def test_classify_pball_region_is_non_kakutani():
    body = PBall(4.0, np.eye(3))
    tilted = Subspace.span([1.0, 0.0, 0.3], [0.0, 1.0, 0.0])
    opts = ClassifyOptions(grid_per_axis=3)
    rep = classify(body, GrassmannChart(tilted, 0.25), opts=opts)
    assert rep.verdict == "NonKakutani"
    assert rep.witness["violation"] >= 1e-3


def test_classify_verdict_stable_on_subregion():
    rep1 = classify(disk_cylinder(), GrassmannChart(XY, 0.3))
    rep2 = classify(disk_cylinder(), GrassmannChart(XY, 0.12))
    assert rep1.verdict == rep2.verdict == "Cylinder"
    assert subspace_angle(rep1.generatrix, rep2.generatrix) <= 1e-6


def test_classify_iff_closure_on_refined_grid():
    # a positive verdict keeps holding when the sweep grid is refined
    Q = np.diag([1.0, 2.0, 3.0])
    body = Ellipsoid(Q)
    region = GrassmannChart(XY, 0.25)
    coarse = classify(body, region, opts=ClassifyOptions(grid_per_axis=5))
    fine = classify(body, region, opts=ClassifyOptions(grid_per_axis=11))
    assert coarse.verdict == fine.verdict == "Ellipsoid"
    d = np.linalg.norm(np.array(coarse.witness["form"]) - np.array(fine.witness["form"]))
    assert d <= 1e-6 * np.linalg.norm(Q)


def test_classify_restriction_coherence():
    rng = np.random.default_rng(9)
    Q = random_spd(rng, 4, cond=10.0)
    base = random_subspace(rng, 4, 2)
    rep = classify(Ellipsoid(Q), GrassmannChart(base, 0.15))
    assert rep.verdict == "Ellipsoid"
    assert rep.diagnostics["restriction_verdicts"] == ["Ellipsoid", "Ellipsoid"]
    assert rep.diagnostics["restriction_agrees"]


def test_classify_report_deterministic():
    body = disk_cylinder()
    region = GrassmannChart(XY, 0.3)
    a = classify(body, region).to_dict()
    b = classify(body, region).to_dict()
    assert a == b
    assert set(a["timings"]) == {
        "inscribed_solves",
        "planes_swept",
        "direction_searches",
        "certificates",
        "quadric_fits",
        "sections_sampled",
    }


def test_classify_rejects_bad_region():
    with pytest.raises(ValueError):
        classify(Ellipsoid(np.eye(3)), GrassmannChart(Subspace.coordinate(3, 0), 0.2))
