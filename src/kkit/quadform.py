"""Quadratic form assembly from gauge values on coordinate planes.

If the squared gauge F restricts to a quadratic on every coordinate plane of
a basis v_1..v_n, the full form is pinned down by the values
c_ii = F(v_i) and the polarization c_ij = (F(v_i + v_j) - F(v_i) - F(v_j))/2,
because the restriction of a quadratic to the plane span{v_i, v_j} reads
c_ii x_i^2 + c_jj x_j^2 + 2 c_ij x_i x_j.  reconstruct_global_form applies
this with a basis tilted into the swept region and then verifies the result
against the gauge everywhere the region reaches.
"""

from dataclasses import dataclass

import numpy as np

from .bodies import Body, section_samples
from .errors import InconsistentPropagation, NotLocallyQuadric
from .linalg import GrassmannChart, Subspace
from .tally import tally

# Default relative residual for fits and verification.
FIT_TOL = 1e-6
# Eigenvalues below this fraction of the largest count as kernel directions.
DEGENERATE_RTOL = 1e-7
# PSD flag tolerance, relative to the largest eigenvalue.
PSD_RTOL = 1e-9
# Fraction by which transversal basis vectors are tilted toward the base.
MIXING = 0.9
# Global reconstruction: fit grid per axis and cap, verification points.
RECON_GRID = 5
RECON_CAP = 32
RECON_VERIFY = 512


@dataclass
class SymmetricForm:
    """A symmetric matrix of coefficients, optionally tagged with a basis.

    coeffs is symmetrized on construction (input asymmetry beyond 1e-12 is a
    caller bug, not data).  basis, when present, records which frame the
    coefficients refer to; evaluation maps ambient vectors through it.
    """

    coeffs: np.ndarray
    basis: np.ndarray = None

    def __post_init__(self):
        C = np.asarray(self.coeffs, dtype=float)
        self.coeffs = 0.5 * (C + C.T)
        if self.basis is not None:
            self.basis = np.asarray(self.basis, dtype=float)

    def __call__(self, v) -> float:
        v = np.asarray(v, dtype=float)
        if self.basis is not None:
            v = self.basis.T @ v
        return float(v @ self.coeffs @ v)

    def evaluate_many(self, V):
        V = np.asarray(V, dtype=float)
        if self.basis is not None:
            V = V @ self.basis
        return np.einsum("mi,ij,mj->m", V, self.coeffs, V)

    @property
    def ambient_coeffs(self):
        """Coefficients referred to ambient coordinates."""
        if self.basis is None:
            return self.coeffs
        return self.basis @ self.coeffs @ self.basis.T

    def eigenvalues(self):
        return np.linalg.eigvalsh(self.ambient_coeffs)

    def rank(self, rtol: float = DEGENERATE_RTOL) -> int:
        w = np.abs(self.eigenvalues())
        top = w.max()
        if top == 0.0:
            return 0
        return int(np.sum(w >= rtol * top))

    def is_psd(self, rtol: float = PSD_RTOL) -> bool:
        w = self.eigenvalues()
        return bool(w.min() >= -rtol * max(w.max(), 0.0))

    def kernel(self, rtol: float = DEGENERATE_RTOL) -> Subspace:
        A = self.ambient_coeffs
        w, U = np.linalg.eigh(A)
        top = np.abs(w).max()
        keep = np.abs(w) < rtol * top if top > 0 else np.ones_like(w, bool)
        return Subspace(U[:, keep])


def assemble_form(F_many, basis) -> SymmetricForm:
    """Assemble the form from F sampled on basis vectors and their pair sums.

    F_many maps rows of vectors to their F values, and F must be quadratic on
    each coordinate plane of the basis; the diagonal is c_ii = F(v_i) and the
    off-diagonal comes from polarization.  The returned form keeps the exact
    polarization matrix as its coefficients (tagged with the dual basis), so
    no inversion error touches them.
    """
    basis = np.asarray(basis, dtype=float)
    n = basis.shape[1]
    i, j = np.triu_indices(n, 1)
    V = basis.T
    vals = F_many(np.vstack([V, V[i] + V[j]]))
    diag = vals[:n]
    C = np.diag(diag)
    C[i, j] = C[j, i] = 0.5 * (vals[n:] - diag[i] - diag[j])
    return SymmetricForm(C, basis=np.linalg.inv(basis).T)


def verify_form(F_many, form: SymmetricForm, region: GrassmannChart, m: int = 512, seed: int = 0):
    """(worst, plane): the max relative mismatch |F(p) - Q(p)| / max(1, |Q(p)|)
    over the region, and the chart plane attaining it.

    F_many maps rows of points to their F values.  Points are drawn from
    random chart planes at random in-plane directions and radii in
    [0.5, 1.5], seeded for reproducibility, and checked in one batch.
    """
    rng = np.random.default_rng(seed)
    k = region.base.dim
    planes, P = [], []
    for M in region.sample(rng, count=max(1, m // 16)):
        X = region.plane(M)
        U = rng.normal(size=(16, k))
        U /= np.linalg.norm(U, axis=1)[:, None]
        planes.append(X)
        P.append((U * rng.uniform(0.5, 1.5, size=(16, 1))) @ X.frame.T)
    P = np.vstack(P)
    q = form.evaluate_many(P)
    err = np.abs(F_many(P) - q) / np.maximum(1.0, np.abs(q))
    per_plane = err.reshape(len(planes), -1).max(axis=1)
    i = int(np.argmax(per_plane))
    return float(per_plane[i]), planes[i]


def fit_section_quadric(
    body: Body,
    X: Subspace,
    m: int = 256,
    tol: float = FIT_TOL,
):
    """Least-squares k x k form matching gauge^2 on the section boundary.

    Returns (form, residual); form is None unless the relative max residual
    stays within tol and the form is positive definite.  The form refers to
    the plane's frame coordinates via its basis tag.
    """
    tally("quadric_fits")
    sample = section_samples(body, X, m)
    pts = sample.points
    k = X.dim
    idx = np.triu_indices(k)
    cols = pts[:, idx[0]] * pts[:, idx[1]]
    cols[:, idx[0] != idx[1]] *= 2.0
    target = np.ones(len(pts))
    sol, *_ = np.linalg.lstsq(cols, target, rcond=None)
    C = np.zeros((k, k))
    C[idx] = sol
    C = C + C.T - np.diag(np.diag(C))
    resid = float(np.max(np.abs(cols @ sol - target)))
    w = np.linalg.eigvalsh(C)
    form = SymmetricForm(C, basis=X.frame)
    if resid <= tol and w[0] > 0.0:
        return form, resid
    return None, resid


def compatible_basis(region: GrassmannChart):
    """Ambient basis whose coordinate planes stay inside the swept region.

    Base-plane frame vectors are kept; each transversal frame vector is mixed
    toward a base vector so that pair sums of basis vectors remain in chart
    planes (tilt ratio (1 - MIXING)/MIXING, well inside the default boxes).
    """
    Bf = region.base.frame
    Tf = region.transversal.frame
    n, k = Bf.shape
    cols = [Bf[:, i] for i in range(k)]
    for j in range(n - k):
        anchor = Bf[:, j % k]
        v = MIXING * anchor + (1.0 - MIXING) * Tf[:, j]
        cols.append(v / np.linalg.norm(v))
    return np.column_stack(cols)


def reconstruct_global_form(body: Body, region: GrassmannChart, seed: int = 0):
    """Recover a global quadratic form matching gauge^2 over the region.

    Every plane of the RECON_GRID-per-axis grid (at most RECON_CAP) must
    first pass fit_section_quadric (else NotLocallyQuadric); the form is then
    assembled from gauge^2 on a basis compatible with the region and verified
    across it to FIT_TOL (else InconsistentPropagation, carrying the worst
    plane).  Returns (form, psd_flag); rank and eigenvalues come from the
    form itself.
    """
    for M in region.grid(RECON_GRID, RECON_CAP):
        X = region.plane(M)
        form, resid = fit_section_quadric(body, X)
        if form is None:
            raise NotLocallyQuadric(X, resid)

    def F_many(V):
        return body.gauge_many(V) ** 2

    form = assemble_form(F_many, compatible_basis(region))
    err, X = verify_form(F_many, form, region, m=RECON_VERIFY, seed=seed)
    if err > FIT_TOL:
        raise InconsistentPropagation(X, err, "assembled form mismatches gauge^2")
    return form, form.is_psd()
