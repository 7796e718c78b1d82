import numpy as np
import pytest

from kkit.bodies import Cylinder, Ellipsoid, PBall, Polytope
from kkit.errors import NotLocallyQuadric
from kkit.linalg import GrassmannChart, Subspace
from kkit.quadform import (
    SymmetricForm,
    assemble_form,
    compatible_basis,
    fit_section_quadric,
    reconstruct_global_form,
    verify_form,
)

from conftest import disk_cylinder, random_spd, rng

XY = Subspace.coordinate(3, 0, 1)
Z = Subspace.coordinate(3, 2)
FULL2 = Subspace(np.eye(2))


def chart(base, hw):
    n, k = base.ambient, base.dim
    return GrassmannChart(base, np.full((n - k, k), hw))


def test_assemble_matches_congruence():
    r = rng(30)
    for _ in range(100):
        n = int(r.integers(2, 6))
        Q = random_spd(r, n, cond=30.0)
        V = r.normal(size=(n, n)) + 2.0 * np.eye(n)
        form = assemble_form(lambda P: np.einsum("mi,ij,mj->m", P, Q, P), V)
        target = V.T @ Q @ V
        assert np.abs(form.coeffs - target).max() <= 1e-10 * np.abs(target).max()
        # ambient reconstruction carries the basis conditioning
        cond = np.linalg.cond(V)
        err = np.abs(form.ambient_coeffs - Q).max()
        assert err <= 1e-12 * cond**2 * np.abs(Q).max()


def test_polarization_cross_coefficient():
    # F = x^2 + 2y^2 + 3z^2 + 2xy gives c12 = (5 - 1 - 2) / 2 = 1
    def F(P):
        x, y, z = P.T
        return x * x + 2 * y * y + 3 * z * z + 2 * x * y

    form = assemble_form(F, np.eye(3))
    expected = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    assert np.abs(form.ambient_coeffs - expected).max() <= 1e-12


def test_three_line_determination_matches_dense_fit():
    # values on e1, e2, e1+e2 pin a 2D form; a dense fit adds nothing
    r = rng(31)
    for _ in range(25):
        Q = random_spd(r, 2, cond=10.0)
        F = lambda P: np.einsum("mi,ij,mj->m", P, Q, P)
        three = assemble_form(F, np.eye(2)).ambient_coeffs
        ang = np.linspace(0.0, np.pi, 128, endpoint=False)
        U = np.column_stack([np.cos(ang), np.sin(ang)])
        cols = np.column_stack([U[:, 0] ** 2, 2 * U[:, 0] * U[:, 1], U[:, 1] ** 2])
        target = np.einsum("mi,ij,mj->m", U, Q, U)
        a, b, c = np.linalg.lstsq(cols, target, rcond=None)[0]
        dense = np.array([[a, b], [b, c]])
        assert np.abs(three - dense).max() <= 1e-10
        assert np.abs(three - Q).max() <= 1e-10


def test_ellipsoid_section_fit_is_the_restriction():
    Q = np.diag([1.0, 2.0, 3.0])
    X = Subspace.span([1.0, 0.0, 0.2], [0.0, 1.0, -0.1])
    form, resid = fit_section_quadric(Ellipsoid(Q), X)
    assert form is not None and resid <= 1e-12
    truth = X.frame.T @ Q @ X.frame
    assert np.abs(form.coeffs - truth).max() <= 1e-12
    # ambient evaluation agrees with Q on the plane
    p = X.frame @ np.array([0.3, -0.7])
    assert form(p) == pytest.approx(float(p @ Q @ p), abs=1e-12)


def test_square_is_not_locally_quadric():
    sq = Polytope([[1, 1], [1, -1], [-1, -1], [-1, 1]])
    form, resid = fit_section_quadric(sq, FULL2)
    assert form is None
    assert 0.45 <= resid <= 0.55


def test_hexagon_is_not_locally_quadric():
    ang = np.arange(6) * np.pi / 3
    hexa = Polytope(np.column_stack([np.cos(ang), np.sin(ang)]))
    form, resid = fit_section_quadric(hexa, FULL2)
    assert form is None
    assert 0.17 <= resid <= 0.23


def test_verify_form_accepts_the_true_form():
    r = rng(32)
    Q = random_spd(r, 3, cond=10.0)
    body = Ellipsoid(Q)
    region = chart(XY, 0.4)
    val, _ = verify_form(lambda P: body.gauge_many(P) ** 2, SymmetricForm(Q), region)
    assert val <= 1e-12


def test_verify_form_flags_the_wrong_form():
    # unit 4-ball against the round form: sup mismatch is 1 - 3^(-1/2)
    body = PBall(4.0, np.eye(3))
    region = chart(XY, 0.6)
    val, _ = verify_form(lambda P: body.gauge_many(P) ** 2, SymmetricForm(np.eye(3)), region)
    assert val <= 1.0 - 3.0**-0.5 + 1e-9
    assert val >= 0.40


def test_compatible_basis_pairs_stay_in_region():
    r = rng(33)
    for n, k in ((3, 2), (4, 2), (5, 3)):
        region = chart(Subspace(r.normal(size=(n, k))), 0.4)
        V = compatible_basis(region)
        assert np.linalg.matrix_rank(V) == n
        B, T = region.base.frame, region.transversal.frame
        for i in range(n):
            for j in range(i, n):
                p = V[:, i] + (V[:, j] if j != i else 0.0)
                b, t = B.T @ p, T.T @ p
                M = np.outer(t, b) / (b @ b)
                assert region.contains_coords(M), (n, k, i, j)


def test_reconstruct_ellipsoid_roundtrip():
    r = rng(34)
    for _ in range(5):
        Q = random_spd(r, 3, cond=15.0)
        base = Subspace(r.normal(size=(3, 2)))
        form, psd = reconstruct_global_form(Ellipsoid(Q), chart(base, 0.3))
        assert psd
        assert form.rank() == 3
        assert np.abs(form.ambient_coeffs - Q).max() <= 1e-8 * np.abs(Q).max()


def test_reconstruct_infinite_cylinder_is_degenerate():
    body = Cylinder(Ellipsoid(np.eye(2)), XY, Z)
    form, psd = reconstruct_global_form(body, chart(XY, 0.3))
    assert psd
    assert form.rank() == 2
    assert np.abs(form.ambient_coeffs - np.diag([1.0, 1.0, 0.0])).max() <= 1e-8
    assert form.kernel().contains([0.0, 0.0, 1.0])


def test_reconstruct_truncated_cylinder_matches_infinite():
    # the sweep region never reaches the caps, so the local answer is the
    # same degenerate form as for the infinite cylinder
    form, psd = reconstruct_global_form(disk_cylinder(), chart(XY, 0.3))
    assert psd
    assert form.rank() == 2
    assert np.abs(form.ambient_coeffs - np.diag([1.0, 1.0, 0.0])).max() <= 1e-8


def test_reconstruct_rejects_the_box(box3):
    with pytest.raises(NotLocallyQuadric) as exc:
        reconstruct_global_form(box3, chart(XY, 0.3))
    assert 0.3 <= exc.value.residual <= 0.6
