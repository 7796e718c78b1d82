import collections
import functools
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm, qmc

import kkit.linalg as linalg_module
from kkit.bodies import Ellipsoid
from kkit.classifier import classify
from kkit.errors import NonComplementary, OutOfChart
from kkit.linalg import (
    GrassmannChart,
    Subspace,
    join,
    line_angles,
    meet,
    principal_angles,
    projector,
    random_subspace,
    sphere_directions,
    subspace_angle,
)

from conftest import random_spd, rng


def test_frames_orthonormal():
    r = rng(1)
    for _ in range(100):
        n = r.integers(2, 7)
        k = r.integers(1, n + 1)
        S = Subspace(r.normal(size=(n, k)))
        G = S.frame.T @ S.frame
        assert np.abs(G - np.eye(k)).max() <= 1e-12


def _loop_frame(A):
    # the per-matrix SVD and column sign loop that the stacked frame replaced
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    F = U[:, : int(np.sum(s > linalg_module.RANK_RTOL * s[0]))].copy()
    for j in range(F.shape[1]):
        i = int(np.argmax(np.abs(F[:, j])))
        if F[i, j] < 0:
            F[:, j] = -F[:, j]
    return F


def test_stacked_frames_match_the_column_sign_loop():
    r = rng(3)
    for n, m, rank in ((3, 2, 2), (5, 3, 3), (5, 3, 2), (4, 4, 4), (6, 1, 1)):
        A = r.normal(size=(12, n, rank)) @ r.normal(size=(12, rank, m))
        F = linalg_module.orthonormal_frame(A)
        assert F.shape == (12, n, rank)
        for a, f in zip(A, F):
            assert f.tobytes() == _loop_frame(a).tobytes()
            assert linalg_module.orthonormal_frame(a).tobytes() == f.tobytes()
    assert linalg_module.orthonormal_frame(np.empty((0, 3, 2))).shape == (0, 3, 2)
    mixed = np.stack([np.eye(3)[:, :2], np.outer([1.0, 2.0, 0.0], [1.0, 1.0])])
    with pytest.raises(ValueError):
        linalg_module.orthonormal_frame(mixed)


def test_subspace_equality_is_frame_independent():
    r = rng(2)
    for _ in range(50):
        n, k = 5, 2
        A = r.normal(size=(n, k))
        # same span, different spanning set
        C = r.normal(size=(k, k))
        while np.linalg.cond(C) > 1e3:
            C = r.normal(size=(k, k))
        assert Subspace(A).is_same(Subspace(A @ C))
        assert not Subspace(A).is_same(random_subspace(r, n, k))


def test_project_examples():
    # projection onto the x axis along span((1,1)): (3,4) -> (3,4) - 4*(1,1)
    X = Subspace.coordinate(2, 0)
    Y = Subspace.span([1.0, 1.0])
    assert np.allclose(projector(X, Y) @ [3.0, 4.0], [-1.0, 0.0], atol=1e-12)
    # orthogonal case
    Yp = Subspace.coordinate(2, 1)
    assert np.allclose(projector(X, Yp) @ [3.0, 4.0], [3.0, 0.0], atol=1e-12)
    # onto xy-plane along z in R^3
    Xp = Subspace.coordinate(3, 0, 1)
    Z = Subspace.coordinate(3, 2)
    assert np.allclose(projector(Xp, Z) @ [2.0, 5.0, 3.0], [2.0, 5.0, 0.0], atol=1e-12)


def test_project_rejects_degenerate_pairs():
    X = Subspace.coordinate(3, 0, 1)
    with pytest.raises(NonComplementary):
        projector(X, Subspace.coordinate(3, 0))
    # nearly dependent pair: y within 1e-13 of the plane
    Y = Subspace.span([1.0, 0.0, 1e-13])
    with pytest.raises(NonComplementary):
        projector(X, Y)


def test_projector_is_idempotent_with_correct_range_and_kernel():
    r = rng(3)
    for _ in range(50):
        n = int(r.integers(3, 6))
        k = int(r.integers(1, n))
        X = random_subspace(r, n, k)
        Y = random_subspace(r, n, n - k)
        try:
            v = r.normal(size=n)
            p = projector(X, Y) @ v
        except NonComplementary:
            continue
        assert X.contains(p)
        assert Y.contains(v - p)
        assert np.allclose(projector(X, Y) @ p, p, atol=1e-9)


def _pair_projector(X, Y):
    """The per-pair projector, kept as the reference: one cond and one solve,
    None where the pair is not complementary."""
    n = X.ambient
    if X.dim + Y.dim != n or Y.ambient != n:
        return None
    M = np.hstack([X.frame, Y.frame])
    if np.linalg.cond(M) > linalg_module.COND_MAX:
        return None
    return X.frame @ np.linalg.solve(M, np.eye(n))[: X.dim]


def test_stacked_projectors_match_the_per_pair_solve_bit_for_bit():
    r = rng(5)
    for n, k in ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)):
        planes = [random_subspace(r, n, k) for _ in range(12)]
        directions = [random_subspace(r, n, n - k) for _ in range(12)]
        # a pair of wrong dimensions, and one whose direction leans 1e-13
        # off the plane (cond about 1e13), mixed into a good stack
        directions[3] = random_subspace(r, n, n - k + 1)
        W = planes[7].orthogonal_complement().frame
        directions[7] = Subspace(np.column_stack([planes[7].frame[:, 0] + 1e-13 * W[:, 0], W[:, 1:]]))
        got = linalg_module.projectors(planes, directions)
        assert [P is None for P in got] == [i in (3, 7) for i in range(12)], (n, k)
        for X, Y, P in zip(planes, directions, got):
            want = _pair_projector(X, Y)
            assert (P is None) == (want is None)
            if want is not None:
                assert P.tobytes() == want.tobytes(), (n, k)
                assert projector(X, Y).tobytes() == want.tobytes(), (n, k)
    assert linalg_module.projectors([], []) == []


def test_stacked_projectors_under_numpy_1_solve(monkeypatch):
    """numpy 1.x reads a right-hand side one dimension below the stack as a
    stack of vectors; projectors must give the same matrices under that rule."""
    solve = np.linalg.solve

    def solve_1x(a, b):
        b = np.asarray(b)
        return solve(a, b[..., None])[..., 0] if b.ndim == np.ndim(a) - 1 else solve(a, b)

    r = rng(6)
    for count in (1, 2, 5):
        planes = [random_subspace(r, 4, 2) for _ in range(count)]
        directions = [random_subspace(r, 4, 2) for _ in range(count)]
        want = linalg_module.projectors(planes, directions)
        monkeypatch.setattr(np.linalg, "solve", solve_1x)
        got = linalg_module.projectors(planes, directions)
        monkeypatch.undo()
        assert all(P.tobytes() == Q.tobytes() for P, Q in zip(got, want)), count


def test_meet_join_dimension_formula():
    r = rng(4)
    for _ in range(500):
        n = int(r.integers(2, 7))
        k1 = int(r.integers(1, n + 1))
        k2 = int(r.integers(1, n + 1))
        if r.uniform() < 0.3:
            # force nontrivial intersections by sharing columns
            shared = r.normal(size=(n, min(k1, k2)))
            A = np.column_stack([shared[:, : k1 - 1], r.normal(size=(n, 1))])
            B = np.column_stack([shared[:, : k2 - 1], r.normal(size=(n, 1))])
            X, Y = Subspace(A), Subspace(B)
        else:
            X, Y = random_subspace(r, n, k1), random_subspace(r, n, k2)
        J, M = join(X, Y), meet(X, Y)
        assert M.dim + J.dim == X.dim + Y.dim
        for j in range(M.dim):
            v = M.frame[:, j]
            assert X.contains(v) and Y.contains(v)


def test_line_angles_match_subspace_angle():
    r = rng(41)
    U = r.normal(size=(60, 3))
    U /= np.linalg.norm(U, axis=1)[:, None]
    W = np.cross(U, r.normal(size=(60, 3)))
    W /= np.linalg.norm(W, axis=1)[:, None]
    # random lines, lines 1e-9 rad off U, and lines 1e-9 rad off orthogonal
    # to U, each tilted in the plane of U and a unit W orthogonal to it
    t = 1e-9
    near = np.cos(t) * U + np.sin(t) * W
    V = np.vstack([r.normal(size=(60, 3)), near, np.cos(t) * W + np.sin(t) * U])
    V /= np.linalg.norm(V, axis=1)[:, None]
    A = np.tile(U, (3, 1))
    want = [subspace_angle(Subspace(a[:, None]), Subspace(b[:, None])) for a, b in zip(A, V)]
    got = line_angles(A, V)
    assert np.abs(got - want).max() <= 1e-15
    assert np.abs(got[60:120] - t).max() <= 1e-15
    assert np.abs(got[120:] - (np.pi / 2 - t)).max() <= 1e-15
    # broadcast over all pairs, as the injectivity test takes them
    i, j = np.triu_indices(20, 1)
    pairs = line_angles(U[:20, None], U[None, :20])[i, j]
    want = [subspace_angle(Subspace(U[a][:, None]), Subspace(U[b][:, None])) for a, b in zip(i, j)]
    assert np.abs(pairs - want).max() <= 1e-15


def test_meet_of_transverse_planes_in_r3_is_their_common_line():
    X = Subspace.span([1, 0, 0], [0, 1, 0])
    Y = Subspace.span([1, 0, 0], [0, 0, 1])
    L = meet(X, Y)
    assert L.dim == 1
    assert L.is_same(Subspace.coordinate(3, 0))


def test_chart_plane_and_coords_roundtrip():
    r = rng(5)
    base = Subspace.coordinate(4, 0, 1)
    chart = GrassmannChart(base, halfwidths=0.5)
    for _ in range(50):
        M = chart.sample(r)[0]
        X = chart.plane(M)
        M2 = chart.coords(X)
        assert np.abs(M - M2).max() <= 1e-10


def test_chart_corner_angle_matches_svd():
    # largest principal angle of a graph plane equals atan of the top
    # singular value of the coefficient matrix
    base = Subspace.coordinate(4, 0, 1)
    chart = GrassmannChart(base, halfwidths=0.4)
    M = np.full((2, 2), 0.4)
    X = chart.plane(M)
    top = np.linalg.svd(M, compute_uv=False)[0]
    assert abs(subspace_angle(base, X) - np.arctan(top)) <= 1e-12


def test_chart_rejects_out_of_box_and_non_graphs():
    base = Subspace.coordinate(3, 0, 1)
    chart = GrassmannChart(base, halfwidths=0.3)
    with pytest.raises(OutOfChart):
        chart.plane(np.array([[0.5, 0.0]]))
    # the yz-plane is no graph over the xy-plane
    with pytest.raises(OutOfChart):
        chart.coords(Subspace.span([0, 0, 1], [0, 1, 0]))


def test_chart_planes_match_single_plane_frames_bit_for_bit():
    r = rng(7)
    for n in range(3, 6):
        for k in range(1, n):
            base = random_subspace(r, n, k)
            tilt = base.frame @ r.normal(scale=0.3, size=(k, n - k))
            oblique = Subspace(base.orthogonal_complement().frame + tilt)
            for transversal in (None, oblique):
                chart = GrassmannChart(base, 0.5, transversal=transversal)
                Ms = chart.sample(r, 16)
                for M, X in zip(Ms, chart.planes(Ms), strict=True):
                    want = Subspace(chart.base.frame + chart.transversal.frame @ M).frame
                    assert X.frame.shape == want.shape == (n, k)
                    assert X.frame.tobytes() == want.tobytes(), (n, k)
                assert chart.planes(np.empty((0, n - k, k))) == []


def test_chart_planes_reject_wrong_shapes_and_out_of_box():
    chart = GrassmannChart(Subspace.coordinate(3, 0, 1), halfwidths=0.3)
    with pytest.raises(OutOfChart):
        chart.planes(np.zeros((2, 2, 1)))
    with pytest.raises(OutOfChart):
        chart.planes([np.zeros((1, 2)), np.array([[0.0, 0.5]])])


def test_chart_plane_continuity():
    r = rng(6)
    base = Subspace.coordinate(5, 0, 1, 2)
    chart = GrassmannChart(base, halfwidths=0.5)
    for _ in range(30):
        M = chart.sample(r)[0] * 0.9
        d = r.normal(size=M.shape)
        d /= np.linalg.norm(d)
        eps = 1e-6
        X1, X2 = chart.plane(M), chart.plane(M + eps * d)
        assert subspace_angle(X1, X2) <= 4 * eps


def test_grid_is_deterministic_and_in_box():
    base = Subspace.coordinate(3, 0, 1)
    chart = GrassmannChart(base, halfwidths=0.4)
    g1 = chart.grid(9, 128)
    g2 = chart.grid(9, 128)
    assert len(g1) == 81
    assert all(np.array_equal(a, b) for a, b in zip(g1, g2))
    assert all(chart.contains_coords(M) for M in g1)
    assert np.allclose(g1[0], 0.0)  # base plane first
    # high-dimensional chart falls back to a capped deterministic sample
    base5 = Subspace.coordinate(5, 0, 1)
    chart5 = GrassmannChart(base5, halfwidths=0.3)
    g5 = chart5.grid(9, 128)
    assert len(g5) == 128
    assert all(chart5.contains_coords(M) for M in g5)


def test_sphere_directions_unit_and_spread():
    for dim in (2, 3, 4, 5):
        D = sphere_directions(dim, 512)
        assert D.shape == (512, dim)
        assert np.abs(np.linalg.norm(D, axis=1) - 1.0).max() <= 1e-12
        # quasi-uniform: no direction of space is starved
        r = rng(7)
        for _ in range(20):
            u = r.normal(size=dim)
            u /= np.linalg.norm(u)
            assert (D @ u).max() >= 0.9


def test_sphere_directions_are_shared_and_read_only():
    build = linalg_module._sphere_directions.__wrapped__
    for dim in (1, 2, 3, 4, 5):
        D = sphere_directions(dim, 300)
        assert sphere_directions(dim, 300) is D
        with pytest.raises(ValueError):
            D[0, 0] = 0.0
        fresh = build(dim, 300)
        assert fresh.shape == D.shape and fresh.tobytes() == D.tobytes()


def test_classify_builds_each_direction_set_once(monkeypatch):
    build = linalg_module._sphere_directions.__wrapped__
    builds = collections.Counter()

    def counted(dim, m):
        builds[dim, m] += 1
        return build(dim, m)

    monkeypatch.setattr(linalg_module, "_sphere_directions", functools.cache(counted))
    r = rng(4)
    rep = classify(Ellipsoid(random_spd(r, 4)), GrassmannChart(random_subspace(r, 4, 2), 0.1))
    assert rep.verdict == "Ellipsoid"
    assert builds and max(builds.values()) == 1


@pytest.mark.parametrize("dim", range(1, 13))
def test_sobol_is_scipys_unscrambled_sequence_bit_for_bit(dim):
    for n in (4096, 4100):
        for skip in (0, 1):
            engine = qmc.Sobol(dim, scramble=False)
            if skip:
                engine.fast_forward(skip)
            with warnings.catch_warnings():
                # scipy warns that 4100 points lose the balance of 2**12
                warnings.simplefilter("ignore", UserWarning)
                want = engine.random(n)
            got = linalg_module._sobol(dim, n, skip=skip)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", (4, 5, 6))
def test_sphere_directions_match_the_normal_quantile_of_scipys_sobol(dim):
    engine = qmc.Sobol(dim, scramble=False)
    engine.fast_forward(1)
    X = norm.ppf(np.clip(engine.random(4096 + 4), 1e-12, 1.0 - 1e-12))
    X = X[np.linalg.norm(X, axis=1) > 1e-9][:4096]
    want = X / np.linalg.norm(X, axis=1)[:, None]
    assert sphere_directions(dim, 4096).tobytes() == want.tobytes()


def test_kkit_import_loads_no_scipy_optimize_spatial_special_or_stats():
    # each costs start-up on every CLI call; the work that needs one imports it
    src = str(Path(linalg_module.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import kkit, kkit.cli; "
        "heavy = [['scipy', m] for m in ('optimize', 'spatial', 'special', 'stats')]; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in heavy))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_principal_angles_orthogonal_case():
    X = Subspace.coordinate(4, 0, 1)
    Y = Subspace.coordinate(4, 2, 3)
    assert np.allclose(principal_angles(X, Y), np.pi / 2)
