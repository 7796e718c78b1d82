"""Convex bodies with the origin interior, evaluated through their gauges.

The gauge of a body B at v is the smallest t > 0 with v/t in B.  Everything
downstream (sections, contracting directions, quadric fits) consumes bodies
only through gauge evaluation, boundary points, and support functionals, so
non-symmetric bodies are first class throughout.  Both come in batches: a
subclass implements gauge_many and, when it has a closed form, a raw
_support_many; Body derives the scalar gauge, the boundary check and the
normalization from those.

Body.smooth says whether the gauge is differentiable off the origin and its
generatrix, so that certificates may climb its gradient: True for Ellipsoid
and for PBall with 1 < p < inf, inherited through LinearImage, SectionBody and
Cylinder, and False for Polytope, Intersection and anything else.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DirectionInGeneratrix,
    MalformedBody,
    NotOnBoundary,
    UnboundedSection,
)
from .linalg import Subspace, projector, sphere_directions
from .tally import tally

# Boundary membership tolerance for support functional preconditions.
BOUNDARY_TOL = 1e-9
# A direction with gauge below this is treated as lying in a generatrix.
GENERATRIX_TOL = 1e-12
# Finite difference step for the fallback support functional.
FD_STEP = 1e-6


class Body:
    """Base class; subclasses implement the vectorized gauge_many."""

    dim: int
    smooth = False

    def gauge(self, v) -> float:
        return float(self.gauge_many(np.asarray(v, dtype=float)[None])[0])

    def gauge_many(self, V):
        """Gauge of every row of V."""
        raise NotImplementedError

    def support_functional(self, p):
        """Covector l with l(p) = 1 and l <= 1 on the body, p on the boundary."""
        return self.support_many(np.asarray(p, dtype=float)[None])[0]

    def support_many(self, P):
        """Support functionals of the boundary rows of P, one per row.

        Row t satisfies L[t] . P[t] = 1 and L[t] <= 1 on the body; a row off
        the boundary raises NotOnBoundary.
        """
        P = np.asarray(P, dtype=float)
        g = self.gauge_many(P)
        off = np.abs(g - 1.0) > BOUNDARY_TOL
        if off.any():
            raise NotOnBoundary(f"gauge(p) = {g[off][0]!r}")
        L = self._support_many(P)
        return L / np.einsum("ij,ij->i", L, P)[:, None]

    def _support_many(self, P):
        """Unnormalized support covectors at boundary rows of P.

        Without a closed form this is the gauge gradient, by
        Richardson-extrapolated central differences.
        """
        return fd_gradient(self.gauge_many, P)

    def boundary_point(self, direction):
        """Boundary point on the ray through direction, i.e. direction/gauge,
        or one per row of a stack of directions, in the input's shape."""
        d = np.asarray(direction, dtype=float)
        D = np.atleast_2d(d)
        g = self.gauge_many(D)
        if np.any(g <= GENERATRIX_TOL * np.maximum(1.0, np.linalg.norm(D, axis=1))):
            raise DirectionInGeneratrix("gauge vanishes along this direction")
        return (D / g[:, None]).reshape(d.shape)


class Ellipsoid(Body):
    """{v : v.Q v <= 1} for symmetric positive definite Q."""

    smooth = True

    def __init__(self, Q):
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise MalformedBody("Q must be square")
        if np.abs(Q - Q.T).max() > 1e-12 * max(1.0, np.abs(Q).max()):
            raise MalformedBody("Q must be symmetric")
        Q = 0.5 * (Q + Q.T)
        w = np.linalg.eigvalsh(Q)
        if w[0] <= 1e-12 * max(w[-1], 0.0):
            raise MalformedBody("Q must be positive definite")
        self.Q = Q
        self.dim = Q.shape[0]

    def gauge_many(self, V):
        V = np.asarray(V, dtype=float)
        return np.sqrt(np.maximum(0.0, np.sum((V @ self.Q) * V, axis=1)))

    def _support_many(self, P):
        return P @ self.Q


class Polytope(Body):
    """Convex hull of a finite vertex set with the origin strictly inside.

    The gauge is max_F a_F . v over the facet functionals a_F (normalized to
    a_F . x = 1 on facet F); the tests pin it against the linear program
    min sum(lam) subject to vertices.T lam = v, lam >= 0.
    """

    def __init__(self, vertices):
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        self.vertices = V
        self.dim = V.shape[1]
        self._build_facets()
        # support tie-break: of the active facets, the one whose vertex set is
        # lexicographically smallest
        order = sorted(range(len(self.facets)), key=self.facet_vertex_sets.__getitem__)
        self._facet_rank = np.argsort(order)

    def _build_facets(self):
        V, n = self.vertices, self.dim
        if n == 1:
            vmax, vmin = V[:, 0].max(), V[:, 0].min()
            if not (vmin < 0.0 < vmax):
                raise MalformedBody("origin not strictly inside")
            self.facets = np.array([[1.0 / vmax], [1.0 / vmin]])
            self.facet_vertex_sets = [
                (int(np.argmax(V[:, 0])),),
                (int(np.argmin(V[:, 0])),),
            ]
            return
        from scipy.spatial import ConvexHull, QhullError

        try:
            hull = ConvexHull(V)
        except QhullError as e:
            raise MalformedBody(f"vertex set is degenerate: {e}") from e
        normals, offsets = hull.equations[:, :-1], hull.equations[:, -1]
        scale = np.abs(V).max()
        if np.any(offsets >= -1e-12 * scale):
            raise MalformedBody("origin not strictly inside")
        self.facets = -normals / offsets[:, None]
        self.facet_vertex_sets = [tuple(sorted(map(int, s))) for s in hull.simplices]

    def gauge_many(self, V):
        V = np.asarray(V, dtype=float)
        return np.maximum(0.0, (self.facets @ V.T).max(axis=0))

    def _support_many(self, P):
        active = P @ self.facets.T >= 1.0 - BOUNDARY_TOL
        rank = np.where(active, self._facet_rank, len(self.facets))
        return self.facets[np.argmin(rank, axis=1)]


class PBall(Body):
    """Linear image under A of the unit p-ball, gauge(v) = |A^-1 v|_p."""

    def __init__(self, p: float, A):
        if not p >= 1.0:
            raise MalformedBody("p must be >= 1")
        A = np.asarray(A, dtype=float)
        s = np.linalg.svd(A, compute_uv=False)
        if s[-1] <= 1e-12 * s[0]:
            raise MalformedBody("A must be invertible")
        self.p = float(p)
        self.A = A
        self.Ainv = np.linalg.inv(A)
        self.dim = A.shape[0]

    smooth = property(lambda self: 1.0 < self.p < np.inf)

    def gauge_many(self, V):
        U = np.asarray(V, dtype=float) @ self.Ainv.T
        return np.linalg.norm(U, ord=self.p, axis=1)

    def _support_many(self, P):
        U = P @ self.Ainv.T
        # at p = 1, |u|^0 = 1 leaves the subgradient sign(u)
        return (np.sign(U) * np.abs(U) ** (self.p - 1.0)) @ self.Ainv


class Cylinder(Body):
    """base + generatrix, where base is a body inside `plane`.

    The base body lives in the plane's frame coordinates (its ambient
    dimension equals plane.dim).  gauge(v) = base gauge of the projection of
    v onto the plane along the generatrix; it vanishes exactly on the
    generatrix.
    """

    def __init__(self, base: Body, plane: Subspace, generatrix: Subspace):
        if base.dim != plane.dim:
            raise MalformedBody("base dimension must match the plane")
        self.base = base
        self.plane = plane
        self.generatrix = generatrix
        # raises NonComplementary if the pair is degenerate
        P = projector(plane, generatrix)
        self._coord_proj = plane.frame.T @ P
        self.dim = plane.ambient

    smooth = property(lambda self: self.base.smooth)

    def gauge_many(self, V):
        return self.base.gauge_many(np.asarray(V, dtype=float) @ self._coord_proj.T)

    def _support_many(self, P):
        return self.base._support_many(P @ self._coord_proj.T) @ self._coord_proj


class LinearImage(Body):
    """A(inner) for invertible A, gauge(v) = inner gauge of A^-1 v."""

    def __init__(self, A, inner: Body):
        A = np.asarray(A, dtype=float)
        s = np.linalg.svd(A, compute_uv=False)
        if A.shape[0] != A.shape[1] or s[-1] <= 1e-12 * s[0]:
            raise MalformedBody("A must be square invertible")
        if inner.dim != A.shape[0]:
            raise MalformedBody("inner body dimension mismatch")
        self.A = A
        self.Ainv = np.linalg.inv(A)
        self.inner = inner
        self.dim = A.shape[0]

    smooth = property(lambda self: self.inner.smooth)

    def gauge_many(self, V):
        return self.inner.gauge_many(np.asarray(V, dtype=float) @ self.Ainv.T)

    def _support_many(self, P):
        return self.inner._support_many(P @ self.Ainv.T) @ self.Ainv


class Intersection(Body):
    """Intersection of up to 16 member bodies; gauge is the max of members."""

    MAX_MEMBERS = 16

    def __init__(self, members):
        members = list(members)
        if not 1 <= len(members) <= self.MAX_MEMBERS:
            raise MalformedBody(f"need 1..{self.MAX_MEMBERS} members")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise MalformedBody("members must share one ambient dimension")
        self.members = members
        self.dim = members[0].dim

    def gauge_many(self, V):
        return np.max([m.gauge_many(V) for m in self.members], axis=0)

    def _support_many(self, P):
        # each row takes the support of its first active member
        active = np.array([m.gauge_many(P) >= 1.0 - BOUNDARY_TOL for m in self.members])
        first = np.argmax(active, axis=0)
        L = np.empty_like(P)
        for j, m in enumerate(self.members):
            rows = first == j
            if rows.any():
                L[rows] = m._support_many(P[rows])
        return L


class SectionBody(Body):
    """B cut by a subspace, expressed in the subspace's frame coordinates.

    The gauge restricts: gauge(u) = gauge_B(frame @ u).  Used internally for
    hyperplane restrictions and section comparisons; not part of the
    serialized body formats.
    """

    def __init__(self, inner: Body, plane: Subspace):
        if plane.ambient != inner.dim:
            raise MalformedBody("plane ambient dimension mismatch")
        self.inner = inner
        self.plane = plane
        self.dim = plane.dim

    smooth = property(lambda self: self.inner.smooth)

    def gauge_many(self, U):
        return self.inner.gauge_many(np.asarray(U, dtype=float) @ self.plane.frame.T)

    def _support_many(self, U):
        return self.inner._support_many(U @ self.plane.frame.T) @ self.plane.frame


def fd_gradient(f, P):
    """Richardson-extrapolated central difference gradient of a batched scalar
    field f (rows to values) at every row of P."""
    P = np.asarray(P, dtype=float)
    m, n = P.shape
    h = np.array([FD_STEP, -FD_STEP, 0.5 * FD_STEP, -0.5 * FD_STEP])
    X = P[None, None] + h[:, None, None, None] * np.eye(n)[None, :, None, :]
    F = f(X.reshape(-1, n)).reshape(4, n, m)
    d1 = (F[0] - F[1]) / (2.0 * FD_STEP)
    d2 = (F[2] - F[3]) / FD_STEP
    return ((4.0 * d2 - d1) / 3.0).T


@dataclass
class SectionSample:
    """Boundary sample of body cut by a plane, in the plane's frame coordinates.

    points[t] lies on the section boundary, functionals[t] is an in-plane
    support covector normalized to functionals[t] . points[t] = 1.  The
    functionals come from one support_many call on the section, made on
    first access, so callers that read only the points never pay for it.
    """

    plane: Subspace
    points: np.ndarray
    body: Body

    @property
    def ambient_points(self):
        return self.points @ self.plane.frame.T

    @cached_property
    def functionals(self):
        return SectionBody(self.body, self.plane).support_many(self.points)

    def __len__(self):
        return self.points.shape[0]


def section_samples(body: Body, plane: Subspace, m: int = 256) -> SectionSample:
    """Sample m boundary points of B cut by the plane.

    Directions are spread at quasi-uniform angles in the plane frame.  Raises
    UnboundedSection if the section has empty interior in some direction
    (vanishing gauge).
    """
    tally("sections_sampled")
    dirs = sphere_directions(plane.dim, m)
    amb = dirs @ plane.frame.T
    g = body.gauge_many(amb)
    if np.any(g <= GENERATRIX_TOL):
        bad = dirs[int(np.argmin(g))]
        raise UnboundedSection(f"gauge vanishes along {bad}")
    return SectionSample(plane=plane, points=dirs / g[:, None], body=body)
