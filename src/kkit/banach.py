"""Linear equivalence of sections and the induced cylinder classification.

A body whose sections over a region of k-planes are pairwise linearly
equivalent satisfies the same local trichotomy as the contracting-direction
classifier, so the pipeline here verifies the equivalence hypothesis on a
plane grid, each section normalized by its volume and second moment about
the origin, then delegates the verdict.  It also evaluates the quadratic
tangent field of a trace-free tensor R and verifies the tangency transfer
(tangency at kernel points implies it everywhere) for a given R; building
R from section data is out of scope.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bodies import GENERATRIX_TOL, Body, SectionBody
from .classifier import ClassifyOptions, classify
from .errors import HypothesisFailed, UnboundedSection
from .linalg import GrassmannChart, Subspace, sphere_directions

# Equivalence witnesses must stay honestly invertible.
DET_MIN = 1e-8
# Signature resolution: 0.5 degree scan, a 1/16-step sub-scan around the
# best shift, then golden-refined to machine level.  REFINE_TOL (radians) also
# bounds ptp(r1), a length, of the round first signatures matched at shift 0.
SCAN_OFFSETS = 720
REFINE_SUB = 16
REFINE_TOL = 1e-12
# Largest signature mismatch of two sections that count as equivalent.
EQUIV_TOL = 1e-6
# Largest tangency defect |ell(R_lam p)| that verify_R_tangency accepts.
TANGENCY_TOL = 1e-7
# Direction sample of the 3D signature matcher.
SPATIAL_DESIGN = 1024
# Volume of the unit k-ball, by k: the unit ball normalizes to M = I.
BALL_VOLUME = {2: np.pi, 3: 4.0 * np.pi / 3.0}
# Quadrature of section moments: kink search and adaptive Gauss-Legendre on
# 2-sections (_kinks, _planar_moments), a product rule on 3-sections.
PANELS, KINK_TURN, KINK_WIDTH = 32, 1e-2, 1e-9
GAUSS_NODES, MOMENT_TOL, MOMENT_ROUNDS, MOMENT_ROWS = 8, 1e-14, 40, 1 << 12
SPHERE_Z, SPHERE_AZIMUTH = 32, 64


@dataclass
class RTensor:
    """Trace-free tensor R: X* -> Hom(X, X), with entries[i, j] = R(e_i*)(e_j).

    nu, when present, is an ambient vector outside X used by the tangency
    check one dimension up.
    """

    entries: np.ndarray
    nu: np.ndarray = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        k = self.entries.shape[0]
        if self.entries.shape != (k, k, k) or k not in (2, 3):
            raise ValueError("entries must be (k, k, k) with k in {2, 3}")
        traces = np.einsum("ijj->i", self.entries)
        if np.abs(traces).max() > 1e-10:
            raise ValueError(f"tensor is not trace-free: {traces}")
        if self.nu is not None:
            self.nu = np.asarray(self.nu, dtype=float)

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    def matrix(self, lam) -> np.ndarray:
        """The matrix of R_lam = sum_i lam_i R(e_i*); columns are images of e_j."""
        return np.einsum("i,ijc->cj", np.asarray(lam, dtype=float), self.entries)


@dataclass
class EquivalenceWitness:
    map: np.ndarray
    residual: float


@dataclass
class TangencyReport:
    hypothesis_ok: bool
    conclusion_ok: bool
    worst_violation: float
    witness: tuple


def quadratic_field(R: RTensor, p) -> np.ndarray:
    """W(p) = xy (R11 - R22) - x^2 R21 + y^2 R12 for p = (x, y)."""
    if R.k != 2:
        raise ValueError("quadratic_field is the planar k = 2 field")
    x, y = np.asarray(p, dtype=float)
    E = R.entries
    return x * y * (E[0, 0] - E[1, 1]) - x * x * E[1, 0] + y * y * E[0, 1]


# ---------------------------------------------------------- section moments


def _radii(body: Body, X):
    """Radial extents 1 / gauge of the rows X; UnboundedSection if it vanishes."""
    g = body.gauge_many(X)
    if np.any(g <= GENERATRIX_TOL):
        raise UnboundedSection(f"gauge vanishes along {X[int(np.argmin(g))]}")
    return 1.0 / g


def _kinks(body: Body, frames, pl, lo):
    """(planes, angles) of the jumps of the planar sections' support normals,
    from the PANELS uniform panels [lo, lo + 2 pi / PANELS) of planes pl.

    The panels are brackets that carry the in-plane normals at their ends.
    Those whose normals turn by more than KINK_TURN are halved in lockstep,
    sharing the midpoint's normal, until KINK_WIDTH wide.  The normal turns
    monotonically, so two jumps in one panel end in different halves, and a
    smooth arc leaves once its brackets are short.
    """

    def normals(pl, theta):
        X = np.einsum("tnk,tk->tn", frames[pl], np.column_stack([np.cos(theta), np.sin(theta)]))
        return np.einsum("tn,tnk->tk", body.support_many(X * _radii(body, X)[:, None]), frames[pl])

    nl = normals(pl, lo)
    nh, width = np.roll(nl.reshape(-1, PANELS, 2), -1, axis=1).reshape(-1, 2), 2.0 * np.pi / PANELS
    while True:
        cross = np.abs(nl[:, 0] * nh[:, 1] - nl[:, 1] * nh[:, 0])
        live = np.arctan2(cross, np.sum(nl * nh, axis=1)) > KINK_TURN
        if width <= KINK_WIDTH or not live.any():
            return pl[live], lo[live] + 0.5 * width
        pl, lo, nl, nh, width = pl[live], lo[live], nl[live], nh[live], 0.5 * width
        nm = normals(pl, lo + width)
        pl, lo = np.tile(pl, 2), np.concatenate([lo, lo + width])
        nl, nh = np.concatenate([nl, nm]), np.concatenate([nm, nh])


def _planar_moments(body: Body, frames):
    """(area, J) of the sections by the 2-planes frames (P, n, 2), in frame
    coordinates: area = 1/2 int r^2 dtheta and J = 1/4 int r^4 u u^T dtheta,
    by GAUSS_NODES-point Gauss-Legendre panels.

    The circle is cut at PANELS uniform angles and at every kink (_kinks),
    and each piece by adaptive Gauss-Legendre: a panel stands once it and its
    halves agree to MOMENT_TOL of the piece in every entry (J's against the
    trace), else its halves replace it, for at most MOMENT_ROUNDS rounds of
    one gauge call over all P planes, of at most P MOMENT_ROWS rows.
    """
    x, w = np.polynomial.legendre.leggauss(GAUSS_NODES)

    def gauss(pl, a, b):
        """Rows (area, J11, J12, J22) of the Gauss-Legendre rule on [a, b]."""
        half = 0.5 * (b - a)
        theta = ((0.5 * (a + b))[:, None] + half[:, None] * x).ravel()
        U = np.column_stack([np.cos(theta), np.sin(theta)])
        r2 = _radii(body, np.einsum("tnk,tk->tn", frames[np.repeat(pl, GAUSS_NODES)], U)) ** 2
        F = np.column_stack([2.0 * r2, r2[:, None] ** 2 * U[:, [0, 0, 1]] * U[:, [0, 1, 1]]])
        return np.einsum("tnc,n->tc", F.reshape(len(a), GAUSS_NODES, 4), w) * half[:, None] / 4.0

    P = len(frames)
    pl, a = np.repeat(np.arange(P), PANELS), np.tile(2.0 * np.pi / PANELS * np.arange(PANELS), P)
    kink_pl, kink_at = _kinks(body, frames, pl, a)
    pl, a = np.concatenate([pl, kink_pl]), np.concatenate([a, kink_at])
    order = np.lexsort((a, pl))
    pl, a = pl[order], a[order]
    # each cut starts a panel that ends at its plane's next cut
    b = np.where(np.append(pl[1:] == pl[:-1], False), np.append(a[1:], 0.0), 2.0 * np.pi)
    Q = gauss(pl, a, b)
    tol = MOMENT_TOL * np.column_stack([Q[:, 0]] + 3 * [Q[:, 1] + Q[:, 3]])
    total, rounds = np.zeros((P, 4)), 0
    while len(a) and rounds < MOMENT_ROUNDS and 2 * GAUSS_NODES * len(a) <= MOMENT_ROWS * P:
        m, rounds = 0.5 * (a + b), rounds + 1
        H = gauss(np.tile(pl, 2), np.concatenate([a, m]), np.concatenate([m, b]))
        ok = np.all(np.abs(H[: len(a)] + H[len(a):] - Q) <= tol, axis=1)
        np.add.at(total, pl[ok], H[: len(a)][ok] + H[len(a):][ok])
        keep = np.tile(~ok, 2)
        pl, tol, Q = np.tile(pl, 2)[keep], np.tile(tol, (2, 1))[keep], H[keep]
        a, b = np.concatenate([a, m])[keep], np.concatenate([m, b])[keep]
    np.add.at(total, pl, Q)
    return total[:, 0], total[:, [1, 2, 2, 3]].reshape(P, 2, 2)


def _spatial_moments(body: Body, frames):
    """(volume, J) of the sections by the 3-planes frames (P, n, 3), in frame
    coordinates: volume = 1/3 int r^3 du and J = 1/5 int r^5 u u^T du over
    the sphere, by Gauss-Legendre in z times the trapezoid rule in azimuth.
    It converges slowly on long sections, so each section is integrated again
    in the position W the first pass normalizes it to, round if it is an
    ellipsoid, and mapped back by J(W K) = |det W| W J(K) W^T.
    """
    z, wz = np.polynomial.legendre.leggauss(SPHERE_Z)
    phi = 2.0 * np.pi / SPHERE_AZIMUTH * np.arange(SPHERE_AZIMUTH)
    s = np.sqrt(1.0 - z * z)[:, None]
    U = np.dstack(np.broadcast_arrays(s * np.cos(phi), s * np.sin(phi), z[:, None])).reshape(-1, 3)
    w = np.repeat(wz, SPHERE_AZIMUTH) * (2.0 * np.pi / SPHERE_AZIMUTH)
    W = np.broadcast_to(np.eye(3), (len(frames), 3, 3))
    for _ in range(2):
        r = _radials(body, frames @ W, U)
        det = np.abs(np.linalg.det(W))
        vol = det * (w * r**3).sum(axis=1) / 3.0
        J = np.einsum("pm,mi,mj->pij", w * r**5, U, U) / 5.0
        J = det[:, None, None] * W @ J @ W.swapaxes(1, 2)
        W = _moment_map(vol, J)
    return vol, J


def _moment_map(vol, J):
    """M = J^(1/2) (vol / (BALL_VOLUME[k] sqrt det J))^(1/k) for stacked vol
    (P,) and J (P, k, k): M^-1 K has the unit ball's volume, the ball M = I."""
    w, V = np.linalg.eigh(J)
    scale = (vol / (BALL_VOLUME[len(w[0])] * np.sqrt(w.prod(axis=1)))) ** (1.0 / len(w[0]))
    return (V * np.sqrt(w)[:, None, :]) @ V.swapaxes(1, 2) * scale[:, None, None]


# --------------------------------------------------------- radial signatures


def _radials(body: Body, maps, dirs):
    """Radial extents of normalized sections along unit directions: entry
    [p, t] is the s > 0 with gauge(s maps[p] dirs[t]) = 1, for maps (P, n, k)
    from normalized to ambient coordinates."""
    W = dirs @ maps.swapaxes(-1, -2)
    return _radii(body, W.reshape(-1, maps.shape[1])).reshape(-1, len(dirs))


def _rot(a):
    c, s = np.cos(a), np.sin(a)
    return np.moveaxis(np.array([[c, -s], [s, c]]), (0, 1), (-2, -1))


def _scan(r, s):
    """max_j |r[(j + l) % N] - s[j]| for every grid shift l, inf where pruned.

    The maximum over every 8th j bounds each shift from below, so only the
    shifts whose bound is at most the value at the bound's argmin can hold
    the minimum.  Those are evaluated in full, with the same arithmetic as an
    unpruned scan: the argmin and its ties keep their values and indices.
    """
    win = sliding_window_view(np.concatenate([r, r]), len(s))[: len(s)]
    lb = np.abs(win[:, ::8] - s[::8]).max(axis=1)
    cand = np.flatnonzero(lb <= np.abs(win[np.argmin(lb)] - s).max())
    d = win[cand]
    d -= s
    out = np.full(len(s), np.inf)
    out[cand] = np.abs(d, out=d).max(axis=1)
    return out


def _subscan(R, s, base):
    """Residuals [o, REFINE_SUB + m], |m| <= REFINE_SUB, of r1(theta_j + shift) (o = 0) or
    r1(shift - theta_j) (o = 1) against s[j] at the shift (base[o] + m / REFINE_SUB) step.
    With R[q][i] = r1((i + q / REFINE_SUB) step) and m = q + REFINE_SUB w, 0 <= q < REFINE_SUB,
    these read R[q][(j + base + w) % N] and R[q][(base + w - j) % N]."""
    m = np.arange(2 * REFINE_SUB + 1) - REFINE_SUB
    q, w = m % REFINE_SUB, m // REFINE_SUB
    j = np.arange(len(s))
    idx = np.stack([(base[0] + w)[:, None] + j, (base[1] + w)[:, None] - j]) % len(s)
    return np.abs(R[q[:, None], idx] - s).max(axis=2)


def _match_planar(body: Body, pairs):
    """Best rotation/reflection aligning the normalized planar signatures of
    every pair (A1, M1, A2, M2) of a stack, each (A, M) as cached by
    _normalize: [(map in frame coordinates, residual)] per pair.

    A pair whose first signature r1 is round, ptp(r1) <= REFINE_TOL, is
    matched at shift 0 in orientation +1: two shifts' residuals differ by at
    most ptp(r1).  The rest get a coarse scan (_scan), a sub-grid scan
    (_subscan) and a lockstep golden-section search of the shift, one radial
    evaluation of their stack per orientation and step.
    """
    step = 2.0 * np.pi / SCAN_OFFSETS
    ang = np.linspace(0.0, 2.0 * np.pi, SCAN_OFFSETS, endpoint=False)
    circle = np.column_stack([np.cos(ang), np.sin(ang)])
    fine = step * (np.arange(1, REFINE_SUB)[:, None] / REFINE_SUB + np.arange(SCAN_OFFSETS))
    offsets = np.column_stack([np.cos(fine.ravel()), np.sin(fine.ravel())])
    A1, M1, A2, M2 = map(np.stack, zip(*pairs))
    s2 = np.empty((len(pairs), SCAN_OFFSETS))
    flips = np.array([1.0, -1.0])
    # Refine the best coarse shift of each orientation and keep the smaller
    # residual: symmetric sections tie many coarse shifts exactly, and
    # refinement from one of them can stall.  The residual is flat wherever
    # its worst mismatch sits on a circular arc, and golden section started
    # across such a plateau can stall above the minimum, so a sub-grid scan
    # within one grid step first picks the lowest basin.  Every sub-shift is
    # an offset grid plus a whole-grid shift, so one radial call on the offset
    # grids serves both orientations.  The scans run one pair at a time: a
    # joint scan would multiply the largest radial batch, and the peak memory.
    sub = step * np.linspace(-1.0, 1.0, 2 * REFINE_SUB + 1)
    phi0, flat = np.empty((2, len(pairs))), np.zeros(len(pairs), dtype=bool)
    phi, res, flip = np.zeros(len(pairs)), np.empty(len(pairs)), np.ones(len(pairs))
    for i in range(len(pairs)):
        r1, s2[i] = _radials(body, np.stack([A1[i], A2[i]]), circle)
        flat[i] = np.ptp(r1) <= REFINE_TOL
        if flat[i]:
            res[i] = np.abs(r1 - s2[i]).max()
            continue
        # r1(theta_j + l d) = r1[(j + l) % SCAN_OFFSETS] on the shared grid, and the
        # reflection r1(-theta_j + l d) = r1[::-1][(j - l - 1) % SCAN_OFFSETS]
        base = np.argmin([_scan(r1, s2[i]), _scan(r1[::-1], s2[i])[::-1]], axis=1)
        R = np.vstack([r1, _radials(body, A1[i][None], offsets).reshape(fine.shape)])
        phis = ang[base][:, None] + sub
        phi0[:, i] = phis[[0, 1], np.argmin(_subscan(R, s2[i], base), axis=1)]
    rows = np.flatnonzero(~flat)

    def residuals(phis):
        """Residual of pair rows[i] at shift phis[j, i] in orientation flips[j]."""
        maps = A1[rows] @ _rot(phis)
        maps[..., 1] *= flips[:, None, None]
        return np.stack([np.abs(_radials(body, m, circle) - s2[rows]).max(axis=1) for m in maps])

    if len(rows):
        gr = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = phi0[:, rows] - step / REFINE_SUB, phi0[:, rows] + step / REFINE_SUB
        x1, x2 = b - gr * (b - a), a + gr * (b - a)
        f1, f2 = residuals(x1), residuals(x2)
        # golden section on every pair and orientation in lockstep: the brackets
        # start equal and shrink alike, and each one stops at its own width
        while (run := b - a > REFINE_TOL).any():
            left = f1 <= f2
            na, nb = np.where(left, a, x1), np.where(left, x2, b)
            xn = np.where(left, nb - gr * (nb - na), na + gr * (nb - na))
            fn = residuals(xn)
            new = (na, nb, np.where(left, xn, x2), np.where(left, fn, f2),
                   np.where(left, x1, xn), np.where(left, f1, fn))
            old = (a, b, x1, f1, x2, f2)
            a, b, x1, f1, x2, f2 = (np.where(run, n, o) for n, o in zip(new, old))
        phis, fmin = np.where(f1 <= f2, x1, x2), np.minimum(f1, f2)
        best, cols = np.argmin(fmin, axis=0), np.arange(len(rows))
        phi[rows], res[rows], flip[rows] = phis[best, cols], fmin[best, cols], flips[best]
    # matched r1(flip theta + phi) = r2(theta): on normalized bodies the map
    # sends the direction at angle alpha to flip (alpha - phi)
    T = _rot(-flip * phi)
    T[..., 1] *= flip[:, None]
    Lmap = M2 @ T @ np.linalg.inv(M1)
    return [(L, float(e)) for L, e in zip(Lmap, res)]


@functools.cache
def _signed_permutations():
    """The 48 signed permutation matrices of R^3, one stack built once per process."""
    perms, signs = itertools.permutations(range(3)), list(itertools.product((1.0, -1.0), repeat=3))
    return np.stack([np.diag(s) @ np.eye(3)[list(p)] for p in perms for s in signs])


def _match_spatial(body: Body, A1, M1, A2, M2):
    """Heuristic 3D signature alignment over moment principal frames."""
    dirs = sphere_directions(3, SPATIAL_DESIGN)
    r = _radials(body, np.stack([A1, A2]), dirs)
    P = dirs * r[:, :, None]
    _, (V1, V2) = np.linalg.eigh(P.swapaxes(1, 2) @ P)
    # the identity, then the 48 frame alignments, seven maps per radial call
    O = np.concatenate([np.eye(3)[None], V1 @ _signed_permutations() @ V2.T])
    res = np.concatenate([_radials(body, m, dirs) for m in np.split(A1 @ O, 7)])
    res = np.abs(res - r[1]).max(axis=1)
    i = int(np.argmin(res))
    return M2 @ O[i].T @ np.linalg.inv(M1), float(res[i])


def _normalize(body: Body, planes, cache: dict):
    """Fill cache[frame bytes] = (frame @ M, M) for every plane missing from
    it, M from the section's volume and second moment J about the origin
    (_moment_map), in one stacked quadrature over the missing planes.

    Both are equivariant under the linear maps that sections are compared by,
    J(L K) = |det L| L J(K) L^T, so the normalized sections M^-1 K of two
    linearly equivalent sections differ by a rotation or reflection.
    """
    todo = {key: X.frame for X in planes if (key := X.frame.tobytes()) not in cache}
    if not todo:
        return
    frames = np.stack(list(todo.values()))
    moments = _planar_moments if frames.shape[2] == 2 else _spatial_moments
    M = _moment_map(*moments(body, frames))
    cache.update((key, (F @ Mi, Mi)) for key, F, Mi in zip(todo, frames, M))


def _match_sections(body: Body, pairs, cache=None):
    """[(map, residual, heuristic)] for the sections of every plane pair (X1,
    X2), maps in frame coordinates: one stacked _normalize, then one lockstep
    _match_planar search over all 2-plane pairs, or _match_spatial per pair."""
    dims = {X.dim for pair in pairs for X in pair}
    if len(dims) != 1 or not dims <= {2, 3}:
        raise ValueError("sections must share dimension k in {2, 3}")
    cache = {} if cache is None else cache
    _normalize(body, itertools.chain.from_iterable(pairs), cache)
    stack = [cache[X1.frame.tobytes()] + cache[X2.frame.tobytes()] for X1, X2 in pairs]
    if dims == {2}:
        return [(L, res, False) for L, res in _match_planar(body, stack)]
    return [(*_match_spatial(body, *pair), True) for pair in stack]


def _section_match(body: Body, X1: Subspace, X2: Subspace, cache=None):
    """(map, residual, heuristic) between two sections in frame coordinates."""
    return _match_sections(body, [(X1, X2)], cache)[0]


def linear_equivalent_sections(body: Body, X1: Subspace, X2: Subspace):
    """EquivalenceWitness(L, residual) with L(B cap X1) = B cap X2 in frame
    coordinates, or None when the best mismatch exceeds EQUIV_TOL.

    Sections are normalized by their area (or volume) and second moment about
    the origin (_normalize), which are linearly covariant and leave a compact
    rotation/reflection search on boundary radial signatures.
    """
    Lmap, res, _ = _section_match(body, X1, X2)
    if res > EQUIV_TOL or abs(np.linalg.det(Lmap)) < DET_MIN:
        return None
    return EquivalenceWitness(Lmap, res)


# ------------------------------------------------------------ tangency check


def _unit_covectors(k, m):
    if k == 2:
        a = np.linspace(0.0, np.pi, m, endpoint=False)
        return np.column_stack([np.cos(a), np.sin(a)])
    return sphere_directions(3, m)


def verify_R_tangency(body: Body, X: Subspace, R: RTensor, m: int = 64):
    """Tangency report for R on the section K = B cap X.

    hypothesis_ok: for each of m unit covectors lam, the field R_lam is
    tangent to the section boundary at the points of ker lam cap bd K;
    conclusion_ok: tangent at all m x m (lam, boundary point) pairs, both
    within TANGENCY_TOL.  With
    nu present and the ambient one dimension up, the checked vector is
    R_lam(p) + lam(p) nu against the full body boundary.
    """
    k = X.dim
    if R.k != k:
        raise ValueError("tensor dimension does not match the plane")
    nu = R.nu
    if nu is not None and X.ambient != k + 1:
        raise ValueError("nu requires ambient dimension k + 1")
    sec = SectionBody(body, X)

    def supports(pts):
        """Functionals at section boundary points (frame coordinates) that
        act on the checked vectors: the section's, or with nu the body's."""
        if nu is None:
            return sec.support_many(pts)
        return body.support_many(pts @ X.frame.T)

    def defects(lams, pts, ells):
        """|ell(R_lam p)| row by row; with nu the vector is R_lam p + lam(p) nu."""
        V = np.einsum("ti,ijc,tj->tc", lams, R.entries, pts)
        if nu is not None:
            V = V @ X.frame.T + np.einsum("ti,ti->t", lams, pts)[:, None] * nu
        return np.abs(np.einsum("tc,tc->t", ells, V))

    covs = _unit_covectors(k, m)
    # hypothesis: each covector against the boundary points of its kernel
    if k == 2:
        d0 = np.column_stack([-covs[:, 1], covs[:, 0]])
        ker = np.stack([d0, -d0], axis=1)
    else:
        a = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        Vt = np.linalg.svd(covs[:, None, :])[2]
        ker = np.einsum("aj,mjc->mac", np.column_stack([np.cos(a), np.sin(a)]), Vt[:, 1:])
    ker_lams = np.repeat(covs, ker.shape[1], axis=0)
    ker = ker.reshape(-1, k)
    ker_pts = ker / sec.gauge_many(ker)[:, None]
    hyp = defects(ker_lams, ker_pts, supports(ker_pts))

    # conclusion: every covector against every point of a boundary fan
    fan = sphere_directions(k, m)
    pts = fan / sec.gauge_many(fan)[:, None]
    per_cov = (len(covs), 1)
    conc = defects(
        np.repeat(covs, len(pts), axis=0), np.tile(pts, per_cov), np.tile(supports(pts), per_cov)
    )

    i, j = int(np.argmax(hyp)), int(np.argmax(conc))
    hyp_worst, conc_worst = float(hyp[i]), float(conc[j])
    witness = None
    if conc_worst > hyp_worst:
        witness = (covs[j // len(pts)].copy(), pts[j % len(pts)].copy())
    elif hyp_worst > 0.0:
        witness = (ker_lams[i].copy(), ker_pts[i].copy())
    return TangencyReport(
        hypothesis_ok=hyp_worst <= TANGENCY_TOL,
        conclusion_ok=conc_worst <= TANGENCY_TOL,
        worst_violation=max(hyp_worst, conc_worst),
        witness=witness,
    )


# ---------------------------------------------------------------- classifier


def banach_classify(
    body: Body,
    region: GrassmannChart,
    tol: float = EQUIV_TOL,
    opts: ClassifyOptions = None,
):
    """Verify pairwise linear equivalence of sections over the region, then
    delegate the verdict to the contracting-direction classifier.

    Pairs checked: the chart base against every plane of a 3-per-axis grid,
    plus 32 random pairs from the region.  All distinct planes of the pairs
    are normalized by their moments in one stacked quadrature (_normalize).
    _match_planar matches a planar pair with a round signature at shift 0,
    as every normalized ellipse's is, and the rest in one lockstep search.
    Any pair beyond tol raises HypothesisFailed carrying the worst pair; on
    success classify's report gains the equivalence diagnostics, including
    whether the 3D heuristic matcher was involved.  The pair checks count
    no work in the report's timings.
    """
    if region.base.dim not in (2, 3):
        raise ValueError("banach_classify runs over regions of 2- or 3-planes")
    opts = opts or ClassifyOptions()
    rng = np.random.default_rng(opts.seed)
    pairs = [(region.base, X) for X in region.planes(region.grid(3))]
    drawn = region.planes(region.sample(rng, 64))
    pairs += zip(drawn[::2], drawn[1::2])

    worst_res, worst_fail, heuristic = 0.0, None, False
    for (Xa, Xb), (_, res, heur) in zip(pairs, _match_sections(body, pairs)):
        heuristic = heuristic or heur
        worst_res = max(worst_res, res)
        # a pair replaces the worst only by a clear margin, so rounding-level
        # ties between symmetric pairs keep the first one found
        if res > tol and (worst_fail is None or res > worst_fail[1] * (1.0 + 1e-9)):
            worst_fail = ((Xa, Xb), res)
    if worst_fail is not None:
        raise HypothesisFailed(worst_fail[0], worst_fail[1])
    report = classify(body, region, opts=opts)
    report.diagnostics["banach_pairs"] = len(pairs)
    report.diagnostics["banach_worst_residual"] = worst_res
    report.diagnostics["equivalence_heuristic"] = heuristic
    return report
