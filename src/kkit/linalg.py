"""Subspaces, oblique projections, and graph charts on the Grassmannian.

Subspaces carry orthonormal frames (columns).  Planes near a base plane are
parametrized as graphs x + Mx over the base, with the transversal fixed to the
orthogonal complement, so every chart is a box in the k*(n-k) graph
coefficients.
"""

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm as _normal
from scipy.stats import qmc

from .errors import NonComplementary, OutOfChart

# Frames are re-orthonormalized on construction to this accuracy.
FRAME_TOL = 1e-12
# Two subspaces of equal dimension are "the same" below this principal angle.
EQUAL_TOL = 1e-10
# Relative singular value cutoff for numerical rank decisions.
RANK_RTOL = 1e-10
# Condition number beyond which a projection pair counts as non-complementary.
COND_MAX = 1e12


def orthonormal_frame(vectors):
    """Orthonormal basis (columns) for the span of the given columns.

    Column signs are canonicalized (largest entry positive) so equal spans
    produce identical frames, which keeps downstream output deterministic.
    """
    A = np.atleast_2d(np.asarray(vectors, dtype=float))
    if A.shape[1] == 0:
        return A.reshape(A.shape[0], 0)
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    r = int(np.sum(s > RANK_RTOL * s[0])) if s.size else 0
    F = U[:, :r]
    for j in range(F.shape[1]):
        i = int(np.argmax(np.abs(F[:, j])))
        if F[i, j] < 0:
            F[:, j] = -F[:, j]
    return F


class Subspace:
    """A linear subspace of R^n held as an n x k orthonormal frame."""

    def __init__(self, vectors):
        self.frame = orthonormal_frame(vectors)
        g = self.frame.T @ self.frame - np.eye(self.frame.shape[1])
        if g.size and np.abs(g).max() > FRAME_TOL:
            # one extra pass fixes accumulated rounding
            self.frame = orthonormal_frame(self.frame)

    @classmethod
    def span(cls, *vectors):
        return cls(np.column_stack([np.asarray(v, dtype=float) for v in vectors]))

    @classmethod
    def coordinate(cls, n: int, *axes):
        F = np.zeros((n, len(axes)))
        for j, a in enumerate(axes):
            F[a, j] = 1.0
        return cls(F)

    @property
    def ambient(self) -> int:
        return self.frame.shape[0]

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def contains(self, v, tol: float = EQUAL_TOL) -> bool:
        v = np.asarray(v, dtype=float)
        r = v - self.frame @ (self.frame.T @ v)
        return np.linalg.norm(r) <= tol * max(1.0, np.linalg.norm(v))

    def orthogonal_complement(self):
        n, k = self.frame.shape
        if k == 0:
            return Subspace(np.eye(n))
        U, _, _ = np.linalg.svd(self.frame, full_matrices=True)
        return Subspace(U[:, k:])

    def is_same(self, other, tol: float = EQUAL_TOL) -> bool:
        if self.dim != other.dim or self.ambient != other.ambient:
            return False
        if self.dim == 0:
            return True
        return float(np.max(principal_angles(self, other))) <= tol

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def principal_angles(X: Subspace, Y: Subspace):
    """Principal angles between two subspaces, ascending, in radians.

    Small angles come from the sines (residual of projecting one frame onto
    the other), large angles from the cosines; arccos alone loses half the
    digits near zero and would put numerically equal spans at ~1e-8.
    """
    if X.dim == 0 or Y.dim == 0:
        return np.zeros(0)
    F1, F2 = X.frame, Y.frame
    if F2.shape[1] > F1.shape[1]:
        F1, F2 = F2, F1
    m = F2.shape[1]
    C = F1.T @ F2
    cos = np.clip(np.linalg.svd(C, compute_uv=False), 0.0, 1.0)[:m]
    sin = np.clip(np.linalg.svd(F2 - F1 @ C, compute_uv=False), 0.0, 1.0)
    sin = np.sort(sin)[:m]
    theta = np.where(cos**2 <= 0.5, np.arccos(cos), np.arcsin(sin))
    return np.sort(theta)


def subspace_angle(X: Subspace, Y: Subspace) -> float:
    """Largest principal angle, the natural distance on the Grassmannian."""
    a = principal_angles(X, Y)
    return float(a.max()) if a.size else 0.0


def projector(X: Subspace, Y: Subspace):
    """Matrix of the projection onto X along Y (requires dim X + dim Y = n)."""
    n = X.ambient
    if X.dim + Y.dim != n or Y.ambient != n:
        raise NonComplementary(f"dims {X.dim}+{Y.dim} != ambient {n}")
    M = np.hstack([X.frame, Y.frame])
    if np.linalg.cond(M) > COND_MAX:
        raise NonComplementary("pair is numerically degenerate")
    coeffs = np.linalg.solve(M, np.eye(n))
    return X.frame @ coeffs[: X.dim]


def project(X: Subspace, Y: Subspace, v):
    """Point where the affine set v + Y meets X."""
    return projector(X, Y) @ np.asarray(v, dtype=float)


def join(X: Subspace, Y: Subspace) -> Subspace:
    return Subspace(np.hstack([X.frame, Y.frame]))


def meet(X: Subspace, Y: Subspace) -> Subspace:
    """Intersection of two subspaces.

    The dimension is fixed by dim X + dim Y - dim join, so the dimension
    formula holds exactly; the basis comes from the principal vectors with
    singular value closest to one.
    """
    m = X.dim + Y.dim - join(X, Y).dim
    if m <= 0:
        return Subspace(np.zeros((X.ambient, 0)))
    U, _, _ = np.linalg.svd(X.frame.T @ Y.frame)
    return Subspace(X.frame @ U[:, :m])


@dataclass
class GrassmannChart:
    """Graph chart {span of columns of B + T M} on Gr_k, boxed in M.

    base: the k-plane at M = 0.
    transversal: complement used for graph coordinates; defaults to the
        orthogonal complement of the base (and tests assume that default).
    halfwidths: (n-k, k) array of box half-widths for the coefficients of M.
    """

    base: Subspace
    halfwidths: np.ndarray
    transversal: Subspace = None

    def __post_init__(self):
        if self.transversal is None:
            self.transversal = self.base.orthogonal_complement()
        n, k = self.base.ambient, self.base.dim
        hw = np.asarray(self.halfwidths, dtype=float)
        if hw.ndim == 0:
            hw = np.full((n - k, k), float(hw))
        if hw.shape != (n - k, k) or np.any(hw <= 0):
            raise OutOfChart(f"halfwidths must be positive with shape {(n - k, k)}")
        self.halfwidths = hw

    @property
    def dim(self) -> int:
        """Dimension of the chart parameter space, k*(n-k)."""
        return self.base.dim * (self.base.ambient - self.base.dim)

    def contains_coords(self, M, tol: float = 1e-12) -> bool:
        return bool(np.all(np.abs(np.asarray(M, dtype=float)) <= self.halfwidths + tol))

    def plane(self, M) -> Subspace:
        """Plane with graph coefficients M, raising OutOfChart beyond the box."""
        M = np.asarray(M, dtype=float)
        if M.shape != self.halfwidths.shape:
            raise OutOfChart(f"coefficient shape {M.shape} != {self.halfwidths.shape}")
        if not self.contains_coords(M):
            raise OutOfChart("coefficients outside the chart box")
        return Subspace(self.base.frame + self.transversal.frame @ M)

    def coords(self, X: Subspace):
        """Graph coefficients of a plane, raising OutOfChart if not a graph."""
        if X.dim != self.base.dim:
            raise OutOfChart("dimension mismatch")
        C = self.base.frame.T @ X.frame
        D = self.transversal.frame.T @ X.frame
        if np.linalg.cond(C) > COND_MAX:
            raise OutOfChart("plane is not a graph over the base")
        return D @ np.linalg.inv(C)

    def grid(self, per_axis: int = 9, cap: int = 128):
        """Deterministic list of coefficient matrices covering the box.

        Full row-major lattice while per_axis**dim stays within cap, else an
        unscrambled Sobol sample of cap points (cap should be a power of two).
        The base plane's M = 0 is always first.
        """
        d = self.dim
        shape = self.halfwidths.shape
        if per_axis**d <= cap:
            axes = [
                np.linspace(-h, h, per_axis)
                for h in self.halfwidths.reshape(-1)
            ]
            mesh = np.meshgrid(*axes, indexing="ij")
            flat = np.stack([m.reshape(-1) for m in mesh], axis=1)
        else:
            sob = qmc.Sobol(d, scramble=False).random(cap)
            flat = (2.0 * sob - 1.0) * self.halfwidths.reshape(-1)
        order = np.argsort(np.linalg.norm(flat, axis=1), kind="stable")
        flat = flat[order]
        return [flat[i].reshape(shape) for i in range(flat.shape[0])]

    def sample(self, rng, count: int = 1):
        """Random coefficient matrices uniform in the box."""
        U = rng.uniform(-1.0, 1.0, size=(count,) + self.halfwidths.shape)
        return [U[i] * self.halfwidths for i in range(count)]


def sphere_directions(dim: int, m: int):
    """m quasi-uniform unit directions in R^dim, deterministic.

    dim 2 uses equal angles, dim 3 a Fibonacci spiral, higher dims an
    unscrambled Sobol sequence pushed through the normal quantile.
    """
    if dim == 1:
        return np.array([[1.0], [-1.0]] * ((m + 1) // 2))[:m]
    if dim == 2:
        th = 2.0 * np.pi * np.arange(m) / m
        return np.column_stack([np.cos(th), np.sin(th)])
    if dim == 3:
        i = np.arange(m) + 0.5
        z = 1.0 - 2.0 * i / m
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        th = np.pi * (1.0 + np.sqrt(5.0)) * i
        return np.column_stack([r * np.cos(th), r * np.sin(th), z])
    sob = qmc.Sobol(dim, scramble=False)
    sob.fast_forward(1)  # skip the all-zero point
    X = _normal.ppf(np.clip(sob.random(m + 4), 1e-12, 1.0 - 1e-12))
    nrm = np.linalg.norm(X, axis=1)
    X = X[nrm > 1e-9][:m]  # the all-0.5 point maps to the origin; drop it
    return X / np.linalg.norm(X, axis=1)[:, None]


def random_subspace(rng, n: int, k: int) -> Subspace:
    """Haar-ish random k-plane in R^n from a seeded generator."""
    return Subspace(rng.normal(size=(n, k)))
