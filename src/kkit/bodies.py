"""Convex bodies with the origin interior, evaluated through their gauges.

The gauge of a body B at v is the smallest t > 0 with v/t in B.  Everything
downstream (sections, contracting directions, quadric fits) consumes bodies
only through gauge evaluation, boundary points, and support functionals, so
non-symmetric bodies are first class throughout.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import (
    DirectionInGeneratrix,
    MalformedBody,
    NotOnBoundary,
    UnboundedSection,
)
from .linalg import Subspace, projector, sphere_directions

# Boundary membership tolerance for support functional preconditions.
BOUNDARY_TOL = 1e-9
# A direction with gauge below this is treated as lying in a generatrix.
GENERATRIX_TOL = 1e-12
# Finite difference step for the fallback support functional.
FD_STEP = 1e-6


class Body:
    """Base class; subclasses implement the vectorized gauge_many."""

    dim: int

    def gauge(self, v) -> float:
        return float(self.gauge_many(np.asarray(v, dtype=float)[None])[0])

    def gauge_many(self, V):
        """Gauge of every row of V."""
        raise NotImplementedError

    def support_functional(self, p):
        """Covector l with l(p) = 1 and l <= 1 on the body, p on the boundary.

        Falls back to Richardson-extrapolated central differences of the gauge
        when no analytic rule applies.
        """
        p = self._check_boundary(p)
        ell = self._support(p)
        return ell / float(ell @ p)

    def _support(self, p):
        return fd_gradient(self.gauge, p)

    def _check_boundary(self, p):
        p = np.asarray(p, dtype=float)
        g = self.gauge(p)
        if abs(g - 1.0) > BOUNDARY_TOL:
            raise NotOnBoundary(f"gauge(p) = {g!r}")
        return p

    def boundary_point(self, direction):
        """Boundary point on the ray through direction, i.e. direction/gauge."""
        d = np.asarray(direction, dtype=float)
        g = self.gauge(d)
        if g <= GENERATRIX_TOL * max(1.0, np.linalg.norm(d)):
            raise DirectionInGeneratrix("gauge vanishes along this direction")
        return d / g

    def section(self, plane: Subspace) -> "SectionBody":
        return SectionBody(self, plane)


class Ellipsoid(Body):
    """{v : v.Q v <= 1} for symmetric positive definite Q."""

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
        return np.sqrt(np.maximum(0.0, np.einsum("mi,ij,mj->m", V, self.Q, V)))

    def _support(self, p):
        return self.Q @ p


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

    def _support(self, p):
        vals = self.facets @ p
        active = np.nonzero(vals >= 1.0 - BOUNDARY_TOL)[0]
        if active.size == 0:
            active = np.array([int(np.argmax(vals))])
        best = min(active, key=lambda i: self.facet_vertex_sets[i])
        return self.facets[best].copy()


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

    def gauge_many(self, V):
        U = np.asarray(V, dtype=float) @ self.Ainv.T
        return np.linalg.norm(U, ord=self.p, axis=1)

    def _support(self, p_pt):
        u = self.Ainv @ p_pt
        if self.p == 1.0:
            w = np.sign(u)
        else:
            w = np.sign(u) * np.abs(u) ** (self.p - 1.0)
        return self.Ainv.T @ w


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

    def gauge_many(self, V):
        return self.base.gauge_many(np.asarray(V, dtype=float) @ self._coord_proj.T)

    def _support(self, p):
        u = self._coord_proj @ p
        return self._coord_proj.T @ self.base.support_functional(u)


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

    def gauge_many(self, V):
        return self.inner.gauge_many(np.asarray(V, dtype=float) @ self.Ainv.T)

    def _support(self, p):
        return self.Ainv.T @ self.inner.support_functional(self.Ainv @ p)


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

    def _support(self, p):
        for m in self.members:
            if m.gauge(p) >= 1.0 - BOUNDARY_TOL:
                return m.support_functional(p)
        raise NotOnBoundary("no active member at p")


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

    def gauge_many(self, U):
        return self.inner.gauge_many(np.asarray(U, dtype=float) @ self.plane.frame.T)

    def _support(self, u):
        ell = self.inner.support_functional(self.plane.frame @ u)
        return self.plane.frame.T @ ell


def fd_gradient(f, p, step: float = FD_STEP):
    """Richardson-extrapolated central difference gradient of a scalar field."""
    p = np.asarray(p, dtype=float)
    g = np.zeros_like(p)
    for i in range(p.size):
        e = np.zeros_like(p)
        e[i] = 1.0
        d1 = (f(p + step * e) - f(p - step * e)) / (2.0 * step)
        d2 = (f(p + 0.5 * step * e) - f(p - 0.5 * step * e)) / step
        g[i] = (4.0 * d2 - d1) / 3.0
    return g


@dataclass
class SectionSample:
    """Boundary sample of body cut by a plane, in the plane's frame coordinates.

    points[t] lies on the section boundary, functionals[t] is an in-plane
    support covector normalized to functionals[t] . points[t] = 1.  The
    functionals cost one support_functional call per point, so they are
    computed on first access.
    """

    plane: Subspace
    points: np.ndarray
    body: Body

    @property
    def ambient_points(self):
        return self.points @ self.plane.frame.T

    @cached_property
    def functionals(self):
        out = np.empty_like(self.points)
        for t, p in enumerate(self.ambient_points):
            lam = self.plane.frame.T @ self.body.support_functional(p)
            out[t] = lam / float(lam @ self.points[t])
        return out

    def __len__(self):
        return self.points.shape[0]


def section_samples(body: Body, plane: Subspace, m: int = 256) -> SectionSample:
    """Sample m boundary points of B cut by the plane.

    Directions are spread at quasi-uniform angles in the plane frame.  Raises
    UnboundedSection if the section has empty interior in some direction
    (vanishing gauge).
    """
    dirs = sphere_directions(plane.dim, m)
    amb = dirs @ plane.frame.T
    g = body.gauge_many(amb)
    if np.any(g <= GENERATRIX_TOL):
        bad = dirs[int(np.argmin(g))]
        raise UnboundedSection(f"gauge vanishes along {bad}")
    return SectionSample(plane=plane, points=dirs / g[:, None], body=body)
