"""Linear equivalence of sections and the induced cylinder classification.

A body whose sections over a region of k-planes are pairwise linearly
equivalent satisfies the same local trichotomy as the contracting-direction
classifier, so the pipeline here verifies the equivalence hypothesis on a
plane grid and then delegates the verdict.  The module also evaluates the
quadratic tangent field attached to a trace-free tensor R and verifies the
tangency transfer (tangency at kernel points implies tangency everywhere)
for a supplied R; constructing R from section data is out of scope.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bodies import Body, SectionBody, section_samples
from .classifier import ClassifyOptions, classify
from .errors import HypothesisFailed
from .linalg import GrassmannChart, Subspace, sphere_directions
from .tally import counting, tally

# Equivalence witnesses must stay honestly invertible.
DET_MIN = 1e-8
# Signature resolution: 0.5 degree scan, a 1/16-step sub-scan around the
# best shift, then golden-refined to machine level.
SCAN_OFFSETS = 720
REFINE_SUB = 16
REFINE_TOL = 1e-12
# Largest signature mismatch of two sections that count as equivalent.
EQUIV_TOL = 1e-6
# Largest tangency defect |ell(R_lam p)| that verify_R_tangency accepts.
TANGENCY_TOL = 1e-7
# Direction sample of the 3D signature matcher.
SPATIAL_DESIGN = 1024
# Barrier weights of the inscribed-ellipsoid path following, one per stage.
MU_STAGES = 10.0 ** -np.arange(2.0, 15.0)


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


# ------------------------------------------------------- inscribed ellipsoid


def _slacks(ell, M, c):
    """Functionals as columns, a_i = 1 - ell_i . c, columns v_i = M ell_i and
    s_i = a_i^2 - |v_i|^2.  With the m constraints on the last axis the
    elementwise work runs along long rows even when k is 2 or 3."""
    cols = np.ascontiguousarray(np.swapaxes(ell, -1, -2))
    a = 1.0 - (c[..., None, :] @ cols)[..., 0, :]
    V = M @ cols
    return cols, a, V, a * a - np.sum(V * V, axis=-2)


def _unpack(E, x):
    """(M, c) of the coordinates x = (coordinates of M in the basis E, c)."""
    p, k = E.shape[:2]
    M = (x[..., :p] @ E.reshape(p, k * k)).reshape(x.shape[:-1] + (k, k))
    return M, x[..., p:]


def _barrier_value(ell, E, x, mu):
    """-log det M - mu sum_i log s_i at x = (coordinates of M in the basis E, c),
    with a_i = 1 - ell_i . c, v_i = M ell_i and s_i = a_i^2 - |v_i|^2; inf
    unless M is positive definite and every a_i and s_i is positive.

    Leading axes of ell (..., m, k), x (..., p + k) and mu (...) stack
    problems, one value each.
    """
    M, c = _unpack(E, x)
    _, a, _, s = _slacks(ell, M, c)
    w = np.linalg.eigvalsh(M)
    ok = (w.min(axis=-1) > 0.0) & (a.min(axis=-1) > 0.0) & (s.min(axis=-1) > 0.0)
    logs = np.log(np.where(ok[..., None], w, 1.0)).sum(axis=-1)
    logs = logs + mu * np.log(np.where(ok[..., None], s, 1.0)).sum(axis=-1)
    return np.where(ok, -logs, np.inf)


def _barrier_grad_hess(ell, E, x, mu):
    """Closed-form gradient and Hessian of _barrier_value at an interior x,
    stacked like _barrier_value.

    With G_i = grad s_i = (-2 ell_i^T E_a v_i, -2 a_i ell_i) and S = sum_i
    (2 mu / s_i) ell_i ell_i^T: g = -mu sum G_i / s_i, minus tr(M^-1 E_a) on
    the M block, and H = mu sum G_i G_i^T / s_i^2, plus tr(M^-1 E_a M^-1 E_b)
    + tr(E_a E_b S) on the M block, minus S on the c block.
    """
    p, k = E.shape[:2]
    Ef = E.reshape(p, k * k)
    M, c = _unpack(E, x)
    mu = np.asarray(mu)[..., None]
    cols, a, V, s = _slacks(ell, M, c)
    # ell_i^T E_a v_i pairs vec(E_a) with the outer product ell_i v_i^T
    outer = (cols[..., :, None, :] * V[..., None, :, :]).reshape(V.shape[:-2] + (k * k, -1))
    Gt = -2.0 * np.concatenate([Ef @ outer, a[..., None, :] * cols], axis=-2)  # columns G_i
    g = -mu * (Gt @ (1.0 / s)[..., None])[..., 0]
    H = (Gt * (mu / s**2)[..., None, :]) @ Gt.swapaxes(-1, -2)
    S = (cols * (2.0 * mu / s)[..., None, :]) @ cols.swapaxes(-1, -2)
    T = np.linalg.inv(M)[..., None, :, :] @ E  # M^-1 E_a
    g[..., :p] -= np.trace(T, axis1=-2, axis2=-1)
    # tr(A B) pairs vec(A) with vec(B^T)
    flat = T.shape[:-2] + (k * k,)
    H[..., :p, :p] += T.reshape(flat) @ T.swapaxes(-1, -2).reshape(flat).swapaxes(-1, -2)
    H[..., :p, :p] += Ef @ (S[..., None, :, :] @ E).reshape(flat).swapaxes(-1, -2)
    H[..., p:, p:] -= S
    return g, H


def max_inscribed_ellipsoid(functionals):
    """(M, c) of the maximal-volume ellipsoid {M u + c : |u| <= 1} inside
    {x : ell_i . x <= 1}, with M symmetric positive definite.

    functionals is one problem, (m, k), or a stack of them, (B, m, k), which
    gives M of shape (B, k, k) and c of shape (B, k); every section counts
    once in inscribed_solves.  The constraints read |M ell_i| <= 1 - ell_i .
    c, second-order cones that are affine in (M, c), so -log det M - mu
    sum_i log((1 - ell_i . c)^2 - |M ell_i|^2) is self-concordant (Boyd &
    Vandenberghe, Convex Optimization, sections 8.4.2 and 11.6).  Damped
    Newton follows its minimizer in x = (upper-triangle coordinates of M, c)
    over MU_STAGES, one closed-form gradient and Hessian (_barrier_grad_hess)
    and an Armijo line search per step.  The accepted trial point is
    bit-equal to the next iterate, so its value is carried over, and f is
    evaluated afresh only where a stage begins.  An intermediate stage only
    warm-starts the next, so it ends once the squared Newton decrement of
    f / mu is at most 0.1; every stage ends when the step vanishes.  The
    problems of a stack run in lockstep, each at its own stage, and a
    problem leaves the batch when its last stage ends.
    """
    ell = np.asarray(functionals, dtype=float)
    stack = ell.reshape((-1,) + ell.shape[-2:])
    tally("inscribed_solves", len(stack))
    k = ell.shape[-1]
    i, j = np.triu_indices(k)
    p = len(i)
    E = np.zeros((p, k, k))
    E[np.arange(p), i, j] = E[np.arange(p), j, i] = 1.0
    x = np.zeros((len(stack), p + k))
    x[:, :p] = (i == j) * (0.45 / np.linalg.norm(stack, axis=2).max(axis=1))[:, None]
    stage = np.zeros(len(stack), dtype=int)
    fx = np.full(len(stack), np.nan)  # barrier value at x, nan when unknown at its stage
    live = np.arange(len(stack))
    while live.size:
        L, X, mu = stack[live], x[live], MU_STAGES[stage[live]]
        g, H = _barrier_grad_hess(L, E, X, mu)
        step = np.linalg.solve(H, -g[:, :, None])[:, :, 0]
        slope = np.sum(g * step, axis=1)
        # an intermediate stage ends at a small Newton decrement, before stepping
        ends = (mu > MU_STAGES[-1]) & (-slope <= 0.1 * mu)
        # Armijo search on the rows that step, each evaluated until it passes
        rows = np.flatnonzero(~ends)
        f = fx[live[rows]]
        new = np.flatnonzero(np.isnan(f))
        f[new] = _barrier_value(L[rows[new]], E, X[rows[new]], mu[rows[new]])
        alpha = np.ones(len(rows))
        search = np.arange(len(rows))
        while search.size:
            t = rows[search]
            trial = _barrier_value(L[t], E, X[t] + alpha[search, None] * step[t], mu[t])
            fail = trial > f[search] + 0.25 * alpha[search] * slope[t]
            f[search[~fail]] = trial[~fail]
            search = search[fail]
            alpha[search] *= 0.5
        dx = alpha[:, None] * step[rows]
        X[rows] += dx
        x[live], fx[live[rows]] = X, f
        ends[rows] = np.linalg.norm(dx, axis=1) <= 1e-15 * (1.0 + np.linalg.norm(X[rows], axis=1))
        stage[live[ends]] += 1
        fx[live[ends]] = np.nan
        live = live[stage[live] < len(MU_STAGES)]
    M, c = _unpack(E, x)
    return M.reshape(ell.shape[:-2] + (k, k)), c.reshape(ell.shape[:-2] + (k,))


# --------------------------------------------------------- radial signatures


def _radials(body: Body, maps, centres, dirs):
    """Radial extents of normalized sections along unit directions: entry
    [p, t] is the s > 0 with gauge(centres[p] + s maps[p] dirs[t]) = 1, for
    maps (P, n, k) from normalized to ambient coordinates and centres (P, n)."""
    m, n = len(dirs), maps.shape[1]
    W = dirs @ maps.swapaxes(-1, -2)
    r = 1.0 / body.gauge_many(W.reshape(-1, n)).reshape(-1, m)
    off = np.linalg.norm(centres, axis=1) > 1e-12
    if not off.any():
        return r
    # general center: solve gauge(c + t w) = 1 by vectorized bisection
    W, C = W[off].reshape(-1, n), np.repeat(centres[off], m, axis=0)
    t_hi = np.ones(len(W))
    for _ in range(60):
        mask = body.gauge_many(C + t_hi[:, None] * W) < 1.0
        if not mask.any():
            break
        t_hi[mask] *= 2.0
    t_lo = np.zeros(len(W))
    for _ in range(80):
        mid = 0.5 * (t_lo + t_hi)
        inside = body.gauge_many(C + mid[:, None] * W) <= 1.0
        # a step that moves no bracket end repeats itself from then on
        if np.array_equal(mid, np.where(inside, t_lo, t_hi)):
            break
        t_lo = np.where(inside, mid, t_lo)
        t_hi = np.where(inside, t_hi, mid)
    r[off] = (0.5 * (t_lo + t_hi)).reshape(-1, m)
    return r


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
    every pair (A1, c1, M1, A2, c2, M2) of a stack, each (A, c, M) as cached
    by _normalize: [(map in frame coordinates, residual)] per pair.

    Each pair gets a coarse scan over grid shifts (_scan) and a sub-grid scan
    (_subscan) that reads the sub-shifts of both orientations from one radial
    evaluation on the offset grids.  Golden-section refinement of the shift
    then matches all pairs in one lockstep search, one radial evaluation of
    the whole stack per orientation and step.
    """
    step = 2.0 * np.pi / SCAN_OFFSETS
    ang = np.linspace(0.0, 2.0 * np.pi, SCAN_OFFSETS, endpoint=False)
    circle = np.column_stack([np.cos(ang), np.sin(ang)])
    fine = step * (np.arange(1, REFINE_SUB)[:, None] / REFINE_SUB + np.arange(SCAN_OFFSETS))
    offsets = np.column_stack([np.cos(fine.ravel()), np.sin(fine.ravel())])
    A1, c1, M1, A2, c2, M2 = map(np.stack, zip(*pairs))
    s2 = np.empty((len(pairs), SCAN_OFFSETS))
    flips = np.array([1.0, -1.0])

    def residuals(phis, rows):
        """Residual of pair rows[i] at shift phis[j, i] in orientation flips[j], one
        radial evaluation per orientation of the circle mapped by A1 R(phi) diag(1, flip)."""
        maps = A1[rows] @ _rot(phis)
        maps[..., 1] *= flips[:, None, None]
        return np.stack([np.abs(_radials(body, m, c1[rows], circle) - s2[rows]).max(axis=1)
                         for m in maps])

    # Refine the best coarse shift of each orientation and keep the smaller
    # residual: symmetric sections tie many coarse shifts exactly, and
    # refinement from one of them can stall.  The residual is flat wherever
    # its worst mismatch sits on a circular arc, and golden section started
    # across such a plateau can stall above the minimum, so a sub-grid scan
    # within one grid step first picks the lowest basin.  The coarse scans
    # evaluate only the shifts that a lower bound leaves open, and every
    # sub-shift is an offset grid plus a whole-grid shift, so one radial call
    # on the offset grids serves both orientations.  The scans run one pair
    # at a time: a joint scan would multiply the largest radial batch, and
    # with it the peak memory.
    sub = step * np.linspace(-1.0, 1.0, 2 * REFINE_SUB + 1)
    phi0 = np.empty((2, len(pairs)))
    for i in range(len(pairs)):
        r1, s2[i] = _radials(body, np.stack([A1[i], A2[i]]), np.stack([c1[i], c2[i]]), circle)
        # r1(theta_j + l d) = r1[(j + l) % SCAN_OFFSETS] on the shared grid, and the
        # reflection r1(-theta_j + l d) = r1[::-1][(j - l - 1) % SCAN_OFFSETS]
        base = np.argmin([_scan(r1, s2[i]), _scan(r1[::-1], s2[i])[::-1]], axis=1)
        R = np.vstack([r1, _radials(body, A1[i][None], c1[i][None], offsets).reshape(fine.shape)])
        phis = ang[base][:, None] + sub
        phi0[:, i] = phis[[0, 1], np.argmin(_subscan(R, s2[i], base), axis=1)]
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    rows = np.arange(len(pairs))
    a, b = phi0 - step / REFINE_SUB, phi0 + step / REFINE_SUB
    x1 = b - gr * (b - a)
    x2 = a + gr * (b - a)
    f1, f2 = residuals(x1, rows), residuals(x2, rows)
    # golden section on every pair and orientation in lockstep: the brackets
    # start equal and shrink alike, and each one stops at its own width
    while (run := b - a > REFINE_TOL).any():
        left = f1 <= f2
        na, nb = np.where(left, a, x1), np.where(left, x2, b)
        xn = np.where(left, nb - gr * (nb - na), na + gr * (nb - na))
        fn = residuals(xn, rows)
        new = (na, nb, np.where(left, xn, x2), np.where(left, fn, f2),
               np.where(left, x1, xn), np.where(left, f1, fn))
        old = (a, b, x1, f1, x2, f2)
        a, b, x1, f1, x2, f2 = (np.where(run, n, o) for n, o in zip(new, old))
    phis, res = np.where(f1 <= f2, x1, x2), np.minimum(f1, f2)
    best = (res[1] < res[0]).astype(int)
    phi, res, flip = phis[best, rows], res[best, rows], flips[best]
    # matched r1(flip theta + phi) = r2(theta): on normalized bodies the map
    # sends the direction at angle alpha to flip (alpha - phi)
    T = _rot(-flip * phi)
    T[..., 1] *= flip[:, None]
    Lmap = M2 @ T @ np.linalg.inv(M1)
    return [(L, float(e)) for L, e in zip(Lmap, res)]


@functools.cache
def _signed_permutations():
    """The 48 signed permutation matrices of R^3, built once per process."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            P = np.zeros((3, 3))
            P[np.arange(3), perm] = signs
            out.append(P)
    return tuple(out)


def _match_spatial(body: Body, A1, c1, M1, A2, c2, M2):
    """Heuristic 3D signature alignment over moment principal frames."""
    dirs = sphere_directions(3, SPATIAL_DESIGN)
    r1, r2 = _radials(body, np.stack([A1, A2]), np.stack([c1, c2]), dirs)
    P1 = dirs * r1[:, None]
    P2 = dirs * r2[:, None]
    _, V1 = np.linalg.eigh(P1.T @ P1)
    _, V2 = np.linalg.eigh(P2.T @ P2)
    best = (float(np.abs(r1 - r2).max()), np.eye(3))
    for P in _signed_permutations():
        O = V1 @ P @ V2.T
        res = float(np.abs(_radials(body, (A1 @ O)[None], c1[None], dirs)[0] - r2).max())
        if res < best[0]:
            best = (res, O)
    res, O = best
    Lmap = M2 @ O.T @ np.linalg.inv(M1)
    return Lmap, res


def _normalize(body: Body, planes, cache: dict):
    """Fill cache[frame bytes] = (frame @ M, frame @ c, M), with {M u + c}
    the section's inscribed ellipsoid, for every plane missing from it.

    Each missing plane is sampled once, in order of first appearance, and
    the distinct functional stacks among them are normalized by one stacked
    max_inscribed_ellipsoid call: keying the solves on the functional bytes
    lets planes with bit-equal sections, such as mirror-image planes of a
    symmetric body, share one solve.
    """
    todo = {}
    for X in planes:
        key = X.frame.tobytes()
        if key not in cache:
            todo.setdefault(key, X)
    if not todo:
        return
    # functional bytes -> (row of the stacked solve, functionals)
    ells, rows = {}, []
    for X in todo.values():
        ell = section_samples(body, X, 256).functionals
        rows.append(ells.setdefault(ell.tobytes(), (len(ells), ell))[0])
    M, c = max_inscribed_ellipsoid(np.stack([ell for _, ell in ells.values()]))
    for (key, X), r in zip(todo.items(), rows):
        cache[key] = (X.frame @ M[r], X.frame @ c[r], M[r])


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

    Sections are normalized to maximal-inscribed-ellipsoid position (affine
    covariant), leaving a compact rotation/reflection search on boundary
    radial signatures.
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
    nu = None
    if R.nu is not None:
        if X.ambient != k + 1:
            raise ValueError("nu requires ambient dimension k + 1")
        nu = R.nu
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
    are sampled and normalized (_normalize) in one stacked
    max_inscribed_ellipsoid call, and all planar pairs are then matched in
    one lockstep search (_match_planar).  Any pair beyond tol raises
    HypothesisFailed carrying the worst pair; on success the report gains
    the equivalence diagnostics (including whether the 3D heuristic matcher
    was involved), and its counters cover the pair checks as well.
    """
    if region.base.dim not in (2, 3):
        raise ValueError("banach_classify runs over regions of 2- or 3-planes")
    opts = opts or ClassifyOptions()
    rng = np.random.default_rng(opts.seed)
    pairs = [(region.base, X) for X in region.planes(region.grid(3))]
    drawn = region.planes(region.sample(rng, 64))
    pairs += zip(drawn[::2], drawn[1::2])

    worst_res = 0.0
    worst_fail = None
    heuristic = False
    with counting() as counts:
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
    report.counters = counts
    report.diagnostics["banach_pairs"] = len(pairs)
    report.diagnostics["banach_worst_residual"] = worst_res
    report.diagnostics["equivalence_heuristic"] = heuristic
    return report
