"""Subspaces, oblique projections, and graph charts on the Grassmannian.

Subspaces carry orthonormal frames (columns).  Planes near a base plane are
parametrized as graphs x + Mx over the base, with the transversal fixed to the
orthogonal complement, so every chart is a box in the k*(n-k) graph
coefficients.
"""

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .errors import NonComplementary, OutOfChart

# Frames are re-orthonormalized on construction to this accuracy.
FRAME_TOL = 1e-12
# Two subspaces of equal dimension are "the same" below this principal angle,
# and a vector lies in a subspace below this relative residual.
EQUAL_TOL = 1e-10
# Relative singular value cutoff for numerical rank decisions.
RANK_RTOL = 1e-10
# Condition number beyond which a projection pair counts as non-complementary.
COND_MAX = 1e12
# Slack on a chart's box bounds, so coordinates at the edge count as inside.
BOX_TOL = 1e-12
# Bits of the Sobol generator, scipy's default: 2**30 distinct points.
SOBOL_BITS = 30


def orthonormal_frame(vectors):
    """Orthonormal basis (columns) for the span of the given columns, or a
    stack of such bases for a stack of matrices, which must share one rank.

    Column signs are canonicalized (largest entry positive) so equal spans
    produce identical frames, which keeps downstream output deterministic.
    """
    A = np.atleast_2d(np.asarray(vectors, dtype=float))
    if A.size == 0:
        return A
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    r = set(np.count_nonzero(s > RANK_RTOL * s[..., :1], axis=-1).flat)
    if len(r) > 1:
        raise ValueError("the matrices of a stack differ in rank")
    F = U[..., : r.pop()]
    i = np.abs(F).argmax(axis=-2)[..., None, :]
    return np.where(np.take_along_axis(F, i, axis=-2) < 0, -F, F)


def _frames(A):
    """orthonormal_frame of a stack (B, n, m), with one extra pass over each
    frame that accumulated rounding leaves more than FRAME_TOL from orthonormal."""
    F = orthonormal_frame(A)
    g = np.swapaxes(F, -1, -2) @ F - np.eye(F.shape[-1])
    redo = np.abs(g).max(axis=(-2, -1), initial=0.0) > FRAME_TOL
    if redo.any():
        F[redo] = orthonormal_frame(F[redo])
    return F


class Subspace:
    """A linear subspace of R^n held as an n x k orthonormal frame."""

    def __init__(self, vectors):
        self.frame = _frames(np.atleast_2d(np.asarray(vectors, dtype=float))[None])[0]

    @classmethod
    def _of(cls, frame):
        """The subspace of a frame that _frames already made orthonormal."""
        X = cls.__new__(cls)
        X.frame = frame
        return X

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

    def contains(self, v) -> bool:
        v = np.asarray(v, dtype=float)
        r = v - self.frame @ (self.frame.T @ v)
        return np.linalg.norm(r) <= EQUAL_TOL * max(1.0, np.linalg.norm(v))

    def orthogonal_complement(self):
        n, k = self.frame.shape
        if k == 0:
            return Subspace(np.eye(n))
        U, _, _ = np.linalg.svd(self.frame, full_matrices=True)
        return Subspace(U[:, k:])

    def is_same(self, other) -> bool:
        if self.dim != other.dim or self.ambient != other.ambient:
            return False
        if self.dim == 0:
            return True
        return float(np.max(principal_angles(self, other))) <= EQUAL_TOL

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


def line_angles(U, V):
    """subspace_angle between the lines spanned by the unit rows of U and V,
    broadcast over their leading axes, by the same sines and cosines."""
    c = (U * V).sum(axis=-1)
    cos = np.clip(np.abs(c), 0.0, 1.0)
    sin = np.clip(np.linalg.norm(V - c[..., None] * U, axis=-1), 0.0, 1.0)
    return np.where(cos**2 <= 0.5, np.arccos(cos), np.arcsin(sin))


def complementary(result, X: Subspace, Y: Subspace):
    """result, raising NonComplementary with the reason where it is None:
    the pair (X, Y) has no projector."""
    if result is None:
        n = X.ambient
        if X.dim + Y.dim != n or Y.ambient != n:
            raise NonComplementary(f"dims {X.dim}+{Y.dim} != ambient {n}")
        raise NonComplementary("pair is numerically degenerate")
    return result


def projector(X: Subspace, Y: Subspace):
    """Matrix of the projection onto X along Y: projectors of the one pair."""
    return complementary(projectors([X], [Y])[0], X, Y)


def projectors(Xs, Ys):
    """Matrix of the projection onto X along Y for each pair (X, Y) of the
    lists Xs and Ys, of one ambient dimension n, or None for a pair whose
    dimensions do not add up to n or whose frames [X Y] have cond above
    COND_MAX: one stacked cond and one stacked solve serve all pairs."""
    out = [None] * len(Xs)
    fit = [i for i, (X, Y) in enumerate(zip(Xs, Ys)) if X.dim + Y.dim == X.ambient == Y.ambient]
    if fit:
        M = np.array([np.hstack([Xs[i].frame, Ys[i].frame]) for i in fit])
        good = np.linalg.cond(M) <= COND_MAX
        # one identity per pair: numpy 1.x reads a 2-D right-hand side as vectors
        eyes = np.broadcast_to(np.eye(M.shape[1]), M[good].shape)
        for i, C in zip(np.compress(good, fit), np.linalg.solve(M[good], eyes)):
            out[i] = Xs[i].frame @ C[: Xs[i].dim]
    return out


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

    def contains_coords(self, M) -> bool:
        return bool(np.all(np.abs(np.asarray(M, dtype=float)) <= self.halfwidths + BOX_TOL))

    def plane(self, M) -> Subspace:
        """Plane with graph coefficients M, raising OutOfChart beyond the box."""
        return self.planes([M])[0]

    def planes(self, Ms):
        """Planes with the graph coefficients of the stack Ms (B, n-k, k), each
        frame bit for bit Subspace(base + transversal M).frame, from one
        stacked SVD; raises OutOfChart for a wrong shape or beyond the box."""
        Ms = np.asarray(Ms, dtype=float)
        if Ms.shape[1:] != self.halfwidths.shape:
            raise OutOfChart(f"coefficient shape {Ms.shape[1:]} != {self.halfwidths.shape}")
        if not self.contains_coords(Ms):
            raise OutOfChart("coefficients outside the chart box")
        return [Subspace._of(F) for F in _frames(self.base.frame + self.transversal.frame @ Ms)]

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

        Full row-major lattice while per_axis**dim stays within cap, else the
        first cap points (cap should be a power of two) of the unscrambled
        Joe-Kuo Sobol sequence in Gray-code order, bit for bit scipy's.
        Sorted by distance from M = 0: the base plane is first on the Sobol
        path and at odd per_axis, but grid(2)[0] is the corner (-h, -h).
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
            flat = (2.0 * _sobol(d, cap) - 1.0) * self.halfwidths.reshape(-1)
        order = np.argsort(np.linalg.norm(flat, axis=1), kind="stable")
        flat = flat[order]
        return [flat[i].reshape(shape) for i in range(flat.shape[0])]

    def sample(self, rng, count: int = 1):
        """Random coefficient matrices uniform in the box."""
        U = rng.uniform(-1.0, 1.0, size=(count,) + self.halfwidths.shape)
        return [U[i] * self.halfwidths for i in range(count)]


def sphere_directions(dim: int, m: int):
    """m quasi-uniform unit directions in R^dim, deterministic.

    dim 2 uses equal angles, dim 3 a Fibonacci spiral, higher dims the
    unscrambled Joe-Kuo Sobol sequence in Gray-code order (bit for bit
    scipy's) pushed through the normal quantile.  Each (dim, m) set is built
    once and shared: the array is read-only, so callers must copy it before
    writing into it.
    """
    return _sphere_directions(dim, m)


@functools.cache
def _sphere_directions(dim: int, m: int):
    if dim == 1:
        D = np.array([[1.0], [-1.0]] * ((m + 1) // 2))[:m]
    elif dim == 2:
        th = 2.0 * np.pi * np.arange(m) / m
        D = np.column_stack([np.cos(th), np.sin(th)])
    elif dim == 3:
        i = np.arange(m) + 0.5
        z = 1.0 - 2.0 * i / m
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        th = np.pi * (1.0 + np.sqrt(5.0)) * i
        D = np.column_stack([r * np.cos(th), r * np.sin(th), z])
    else:
        from scipy.special import ndtri

        # skip=1 drops the all-zero point
        X = ndtri(np.clip(_sobol(dim, m + 4, skip=1), 1e-12, 1.0 - 1e-12))
        nrm = np.linalg.norm(X, axis=1)
        X = X[nrm > 1e-9][:m]  # the all-0.5 point maps to the origin; drop it
        D = X / np.linalg.norm(X, axis=1)[:, None]
    D.setflags(write=False)
    return D


@functools.cache
def _sobol_directions(dim: int):
    """(dim, SOBOL_BITS) direction numbers from the Joe-Kuo table scipy
    ships, filled in by the recurrence of Bratley & Fox (ACM TOMS 659)."""
    with np.load(Path(scipy.__file__).parent / "stats" / "_sobol_direction_numbers.npz") as table:
        poly, vinit = table["poly"][:dim].tolist(), table["vinit"][:dim].tolist()
    V = [[1] * SOBOL_BITS]
    for p, v in zip(poly[1:], vinit[1:]):
        m = p.bit_length() - 1
        v = v[:m]
        for j in range(m, SOBOL_BITS):
            taps = (v[j - i] << i for i in range(1, m + 1) if p >> (m - i) & 1)
            v.append(functools.reduce(int.__xor__, taps, v[j - m]))
        V.append(v)
    return np.array(V, dtype=np.int64) << np.arange(SOBOL_BITS - 1, -1, -1)


def _sobol(dim: int, n: int, skip: int = 0):
    """Points skip .. skip+n-1 of the unscrambled Sobol sequence in [0, 1)^dim:
    point i XORs the direction numbers of the set bits of i's Gray code."""
    V = _sobol_directions(dim)
    gray = np.arange(skip, skip + n)
    gray ^= gray >> 1
    X = np.zeros((n, dim), dtype=np.int64)
    for b in range(int(gray.max(initial=0)).bit_length()):
        X ^= (gray >> b & 1)[:, None] * V[:, b]
    return X * 2.0**-SOBOL_BITS


def random_subspace(rng, n: int, k: int) -> Subspace:
    """Haar-ish random k-plane in R^n from a seeded generator."""
    return Subspace(rng.normal(size=(n, k)))
