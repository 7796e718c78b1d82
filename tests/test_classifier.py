from pathlib import Path

import numpy as np
import pytest

import kkit.classifier as classifier_module
import kkit.contracting as contracting_module
from kkit.bodies import Cylinder, Ellipsoid, LinearImage, PBall, Polytope, section_samples
from kkit.classifier import (
    DUAL_POINTS,
    SUPPORT_ANGLES,
    SUPPORT_POINTS,
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
from kkit.cli import load_body, load_region
from kkit.contracting import find_contracting_direction
from kkit.errors import (
    AmbiguousDichotomy,
    DirectionInGeneratrix,
    NoGeneratrix,
    NonComplementary,
    PreconditionNotContracting,
    SameHyperplane,
    SharedLine,
)
from kkit.linalg import (
    GrassmannChart,
    Subspace,
    orthonormal_frame,
    projectors,
    random_subspace,
    sphere_directions,
    subspace_angle,
)

from conftest import disk_cylinder, random_spd

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
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


def _plane_form_direction(A, X):
    """The per-plane form direction, kept as the reference."""
    _, s, Vt = np.linalg.svd(X.frame.T @ A)
    r = int(np.sum(s > 1e-12 * s[0]))
    return Subspace(Vt[r:].T)


def test_stacked_form_directions_match_the_per_plane_svd_bit_for_bit():
    r = np.random.default_rng(21)
    stacks = []
    for n, k in ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)):
        planes = [random_subspace(r, n, k) for _ in range(10)]
        # a full-rank form, and a degenerate one of rank n - 1
        stacks.append((random_spd(r, n, cond=30.0), planes))
        B = np.linalg.qr(r.normal(size=(n, n)))[0]
        stacks.append(((B * np.r_[r.uniform(0.5, 2.0, n - 1), 0.0]) @ B.T, planes))
    # X^T A has rank k on an ordinary plane but k - 1 on a plane that holds
    # the form's kernel e_3, so one stack carries directions of two dimensions
    A = np.diag([1.0, 2.0, 3.0, 0.0])
    mixed = [random_subspace(r, 4, 2), Subspace(np.column_stack([np.eye(4)[3], r.normal(size=4)]))]
    stacks.append((A, mixed))
    for A, planes in stacks:
        got = classifier_module._form_directions(A, planes)
        for X, Y in zip(planes, got):
            assert Y.frame.tobytes() == _plane_form_direction(A, X).frame.tobytes()
    assert [Y.dim for Y in got] == [2, 3]
    # the kernel plane's direction is not complementary: no certificate, so
    # the sweep searches that plane
    assert projectors(mixed, got)[1] is None


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
    # a line inside its hyperplane has no projector, whichever pair it is in
    with pytest.raises(NonComplementary):
        reduce_pair(body, XY, Subspace.coordinate(3, 0), X2, L2)
    with pytest.raises(NonComplementary):
        reduce_pair(body, XY, Z, X2, Subspace.coordinate(3, 1))


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
    sample = phi_map(body, region, grid=3)
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


def assert_same_sample(got, want):
    """Two PhiSamples equal bit for bit: frames, multiplicities, coords and
    continuity defect."""
    for (X, L), (Xw, Lw) in zip(got.pairs, want.pairs, strict=True):
        assert X.frame.tobytes() == Xw.frame.tobytes() and L.frame.tobytes() == Lw.frame.tobytes()
    assert got.multiplicity == want.multiplicity
    assert np.array(got.coords).tobytes() == np.array(want.coords).tobytes()
    assert got.continuity_defect == want.continuity_defect


def test_phi_map_is_the_sample_the_phi_cross_check_reads(monkeypatch):
    # one sweep: phi_map returns the very lines classify certifies, with the
    # multiplicity counted where the sweep counts it (the base plane of a
    # cold sweep), not a search of its own per plane
    seen = []
    real = classifier_module._phi_cross_check

    def capture(body, region, report):
        seen.append(report.phi)
        real(body, region, report)

    monkeypatch.setattr(classifier_module, "_phi_cross_check", capture)
    ellipsoid = load_body(FIXTURES / "ellipsoid.json"), load_region(FIXTURES / "region_xy.json")
    for body, region in (ellipsoid, (box_prism(), GrassmannChart(XY, 0.2))):
        seen.clear()
        report = classify(body, region, ClassifyOptions(grid_per_axis=3))
        assert set(report.to_dict()) == {"verdict", "witness", "diagnostics", "timings"}
        (want,) = seen
        assert report.phi is want and len(want.pairs) == 9
        assert_same_sample(phi_map(body, region, grid=3), want)


def test_phi_map_returns_the_sweep_on_the_gap_path(monkeypatch):
    # a verified form that is not PSD: every plane contracts, the shared
    # generatrix fails, and the NonKakutani report keeps the sweep's sample
    real = classifier_module.reconstruct_global_form
    monkeypatch.setattr(
        classifier_module,
        "reconstruct_global_form",
        lambda body, region, seed: (real(body, region, seed=seed)[0], False),
    )
    body = load_body(FIXTURES / "ellipsoid.json")
    region = load_region(FIXTURES / "region_tilted.json")
    report = classify(body, region, ClassifyOptions(grid_per_axis=3))
    assert report.verdict == "NonKakutani" and report.phi is not None
    sample = phi_map(body, region, grid=3)
    assert len(sample.pairs) == 9
    assert_same_sample(sample, report.phi)


def test_phi_continuity_defect_small_on_fine_grid():
    Q = np.diag([1.0, 1.5, 2.0])
    sample = phi_map(Ellipsoid(Q), GrassmannChart(XY, 0.1), grid=5)
    assert sample.continuity_defect <= 0.2
    # the loop the defect was taken by before it was batched: each grid
    # point against its nearest earlier point
    C, lines, defect = sample.coords, [L for _, L in sample.pairs], 0.0
    for i in range(1, len(C)):
        j = int(np.argmin([np.linalg.norm(C[i] - C[j]) for j in range(i)]))
        defect = max(defect, subspace_angle(lines[i], lines[j]))
    assert abs(sample.continuity_defect - defect) <= 1e-15


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
                body, X, warm=(q_complement(Q, X),), first_only=True
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
    sample = phi_map(body, region, grid=3)
    dual = fit_projective_dual(body, sample)
    assert dual.fit_residual <= 1e-8
    F = dual.F / np.linalg.norm(dual.F)
    Qn = Q / np.linalg.norm(Q)
    assert np.abs(F - Qn).max() <= 1e-6
    assert abs(np.linalg.det(dual.F)) >= 1e-8


def test_dual_fit_sphere_is_identity():
    body = Ellipsoid(np.eye(3))
    sample = phi_map(body, GrassmannChart(XY, 0.25), grid=3)
    dual = fit_projective_dual(body, sample)
    F = dual.F / dual.F[0, 0]
    assert np.abs(F - np.eye(3)).max() <= 1e-9


def test_duality_incidence():
    # the dual functional at a boundary point annihilates the plane's image
    Q = np.diag([1.0, 2.0, 3.0])
    body = Ellipsoid(Q)
    sample = phi_map(body, GrassmannChart(XY, 0.25), grid=3)
    dual = fit_projective_dual(body, sample)
    for X, L in sample.pairs:
        d = L.frame[:, 0]
        for p in section_samples(body, X, 8).ambient_points:
            assert abs((dual.F @ p) @ d) <= 1e-6


def _dual_by_point_loop(body, sample):
    """fit_projective_dual's F and residual with a tangent frame per point,
    as it was computed before the frames were batched."""
    P = np.vstack(
        [section_samples(body, X, DUAL_POINTS).ambient_points for X, _ in sample.pairs]
    )
    rows = []
    for p, ell in zip(P, body.support_many(P)):
        tang = orthonormal_frame(np.eye(3) - np.outer(ell, ell) / (ell @ ell))
        for t in tang.T:
            rows.append(np.outer(t, p).reshape(-1))
    A = np.array(rows)
    A /= np.linalg.norm(A, axis=1)[:, None]
    _, s, Vt = np.linalg.svd(A, full_matrices=False)
    F = Vt[-1].reshape(3, 3)
    return (-F if np.trace(F) < 0 else F), float(s[-1]) / np.sqrt(len(A))


def test_batched_dual_fit_matches_the_point_loop():
    r = np.random.default_rng(17)
    for grid in (3, 4):
        Q = random_spd(r, 3, cond=6.0)
        body = Ellipsoid(Q)
        sample = phi_map(body, GrassmannChart(random_subspace(r, 3, 2), 0.2), grid=grid)
        dual = fit_projective_dual(body, sample)
        F, resid = _dual_by_point_loop(body, sample)
        assert np.abs(dual.F - F).max() <= 1e-12
        assert abs(dual.fit_residual - resid) <= 1e-12


def _support_check_by_point_loop(body, dual):
    """The per-point support check, kept as the reference."""
    worst = 0.0
    radii = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
    ang = np.linspace(0.0, np.pi, SUPPORT_ANGLES, endpoint=False)
    for v in sphere_directions(3, SUPPORT_POINTS):
        p = body.boundary_point(v)
        ell = dual.F @ p
        nrm = np.linalg.norm(ell)
        if nrm < 1e-14:
            worst = max(worst, 1.0)
            continue
        T = orthonormal_frame(np.eye(3) - np.outer(ell, ell) / nrm**2)
        U = np.column_stack([np.cos(ang), np.sin(ang)]) @ T.T
        Q = p[None, :] + (radii[:, None, None] * U[None, :, :]).reshape(-1, 3)
        g = body.gauge_many(Q)
        worst = max(worst, max(0.0, 1.0 - float(g.min())))
    return worst


def test_support_check_matches_the_point_loop():
    # the fixture duals, each also corrupted off its diagonal
    cases = []
    region = load_region(FIXTURES / "region_xy.json")
    for name in ("ellipsoid.json", "sheared.json"):
        body = load_body(FIXTURES / name)
        dual = fit_projective_dual(body, phi_map(body, region, grid=3))
        C = dual.F.copy()
        C[0, 1] += 0.1
        C[1, 0] += 0.1
        cases += [(body, dual), (body, ProjectiveDual(C / np.linalg.norm(C), 0.0))]
    for body, dual in cases:
        assert support_check(body, dual) == _support_check_by_point_loop(body, dual)
    assert cases[0][0] is cases[1][0] and support_check(*cases[1]) > 1e-3


def test_support_check_vanishing_gauge_and_zero_covector():
    v = sphere_directions(3, SUPPORT_POINTS)[5]
    line = Subspace(v[:, None])
    # the gauge vanishes along the sample direction v: no boundary point
    body = Cylinder(Ellipsoid(np.eye(2)), line.orthogonal_complement(), line)
    dual = ProjectiveDual(np.eye(3) / np.sqrt(3.0), 0.0)
    for check in (support_check, _support_check_by_point_loop):
        with pytest.raises(DirectionInGeneratrix):
            check(body, dual)
    # F p vanishes at the unit ball's sample point p = v: no kernel plane
    ball = Ellipsoid(np.eye(3))
    F = np.eye(3) - np.outer(v, v)
    zero = ProjectiveDual(F / np.linalg.norm(F), 0.0)
    assert support_check(ball, zero) == _support_check_by_point_loop(ball, zero) == 1.0


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
    assert subspace_angle(rep.witness["generatrix"], Z) <= 1e-6


def test_classify_box_prism_cylinder():
    opts = ClassifyOptions(grid_per_axis=5)
    rep = classify(box_prism(), GrassmannChart(XY, 0.3), opts=opts)
    assert rep.verdict == "Cylinder"
    assert subspace_angle(rep.witness["generatrix"], Z) <= 1e-6
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
    assert subspace_angle(rep1.witness["generatrix"], rep2.witness["generatrix"]) <= 1e-6


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


def test_cold_sweep_certifies_no_pair_twice(monkeypatch):
    # every (plane, direction) pair that a cold sweep certifies is new, by
    # object: the chain's repeated warm direction and the shared-generatrix
    # test's planes that the sweep already certified with L0 add none
    real = contracting_module._certify
    pairs = []

    def recorded(body, planes, directions, *args):
        pairs.extend(zip(planes, directions))
        return real(body, planes, directions, *args)

    monkeypatch.setattr(contracting_module, "_certify", recorded)
    ang = np.arange(6) * np.pi / 3.0
    hexagon = np.column_stack([np.cos(ang), np.sin(ang)])
    prism = Polytope(np.vstack([np.column_stack([hexagon, np.full(6, h)]) for h in (-1.0, 1.0)]))
    cases = [
        (prism, GrassmannChart(XY, 0.2), "Cylinder"),
        (load_body(FIXTURES / "pball.json"), load_region(FIXTURES / "region_tilted.json"), "NonKakutani"),
    ]
    for body, region, verdict in cases:
        pairs.clear()
        rep = classify(body, region)
        assert rep.verdict == verdict and "quadric_failure" in rep.diagnostics
        # pairs holds every object, so no id is reused
        assert len({(id(X), id(Y)) for X, Y in pairs}) == len(pairs) > 0
