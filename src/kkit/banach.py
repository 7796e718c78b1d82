"""Linear equivalence of sections and the induced cylinder classification.

A body whose sections over a region of k-planes are pairwise linearly
equivalent satisfies the same local trichotomy as the contracting-direction
classifier, so the pipeline here verifies the equivalence hypothesis on a
plane grid and then delegates the verdict.  The module also evaluates the
quadratic tangent field attached to a trace-free tensor R and verifies the
tangency transfer (tangency at kernel points implies tangency everywhere)
for a supplied R; constructing R from section data is out of scope.
"""

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
# Direction sample of the 3D signature matcher.
SPATIAL_DESIGN = 1024
# Newton steps per mu stage, a backstop: fixture sections end every stage on
# a vanishing step within ~10; thin sections can reach it in early stages,
# which only warm-start the next, while the two extrapolated stages converge.
NEWTON_CAP = 100


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


def _unpack(theta, k):
    """(L, c) from theta = (log diag L, strict lower L, c)."""
    L = np.diag(np.exp(theta[:k]))
    L[np.tril_indices(k, -1)] = theta[k:-k]
    return L, theta[-k:]


def _barrier_value(ell, theta, mu):
    """-log det L - mu sum_i log(1 - h_i), h_i = ell_i . c + |L^T ell_i|;
    inf outside the constraints."""
    k = ell.shape[1]
    L, c = _unpack(theta, k)
    s = 1.0 - ell @ c - np.linalg.norm(ell @ L, axis=1)
    return -np.sum(theta[:k]) - mu * np.sum(np.log(s)) if s.min() > 0.0 else np.inf


def _barrier_grad_hess(ell, theta, mu):
    """Closed-form gradient and Hessian of _barrier_value at an interior theta.

    With w_i = mu / (1 - h_i), U_i = L^T ell_i / |L^T ell_i| and J_i the
    gradient of h_i: g = sum w_i J_i - [1_k; 0] and H = sum (w_i^2 / mu)
    J_i J_i^T plus w_i times the Hessian of |L^T ell_i| on the L block, plus
    g_d + 1 on each log-diagonal entry (chain rule through exp).
    """
    k = ell.shape[1]
    L, c = _unpack(theta, k)
    # L parameters in theta order: entry (j, q), scaled by dL_jq / dtheta
    j, q = np.concatenate([np.diag_indices(k), np.tril_indices(k, -1)], axis=1)
    V = ell @ L
    n = np.linalg.norm(V, axis=1)
    w = mu / (1.0 - ell @ c - n)
    A = ell[:, j] * np.where(j == q, L[j, q], 1.0)
    JL = A * (V / n[:, None])[:, q]
    J = np.hstack([JL, ell])
    g = J.T @ w
    g[:k] -= 1.0
    H = (J.T * (w * w / mu)) @ J
    r = w / n
    H[: len(j), : len(j)] += ((A.T * r) @ A) * (q[:, None] == q) - (JL.T * r) @ JL
    H[np.diag_indices(k)] += g[:k] + 1.0
    return g, H


def max_inscribed_ellipsoid(functionals):
    """(M, c) of the maximal-volume ellipsoid {M u + c : |u| <= 1} inside
    {x : ell_i . x <= 1}, with M symmetric positive definite.

    Damped Newton on the log-det barrier over theta = (log diag L, strict
    lower L, c) with M = (L L^T)^(1/2), along a mu continuation; each step
    takes one closed-form gradient and Hessian (_barrier_grad_hess) and an
    Armijo line search, and each mu stage runs until the step vanishes (or
    NEWTON_CAP steps).  The last two stages are Richardson-extrapolated to
    mu = 0 (the central path is smooth in mu), which reaches the exact
    solution even when every sampled constraint is active, as happens for
    smooth sections.
    """
    tally("inscribed_solves")
    ell = np.asarray(functionals, dtype=float)
    k = ell.shape[1]
    theta = np.zeros(2 * k + k * (k - 1) // 2)
    theta[:k] = np.log(0.45 / np.linalg.norm(ell, axis=1).max())
    stages = []
    mu = 1e-2
    while mu >= 0.999e-9:
        for _ in range(NEWTON_CAP):
            f = _barrier_value(ell, theta, mu)
            g, H = _barrier_grad_hess(ell, theta, mu)
            try:
                step = np.linalg.solve(H + 1e-14 * np.eye(len(theta)), -g)
            except np.linalg.LinAlgError:
                step = -g
            if step @ g > 0:
                step = -g
            alpha = 1.0
            while alpha > 1e-16:
                if _barrier_value(ell, theta + alpha * step, mu) < f + 0.25 * alpha * (g @ step):
                    break
                alpha *= 0.5
            else:
                break
            theta = theta + alpha * step
            if np.linalg.norm(alpha * step) <= 1e-15 * (1.0 + np.linalg.norm(theta)):
                break
        stages.append((mu, theta.copy()))
        mu *= 0.1

    (mu1, th1), (mu2, th2) = stages[-2], stages[-1]
    L1, c1 = _unpack(th1, k)
    L2, c2 = _unpack(th2, k)
    E1, E2 = L1 @ L1.T, L2 @ L2.T
    # linear-in-mu extrapolation of the central path to mu = 0
    E = E2 + (E2 - E1) * (mu2 / (mu1 - mu2))
    c = c2 + (c2 - c1) * (mu2 / (mu1 - mu2))
    w, U = np.linalg.eigh(E)
    M = (U * np.sqrt(np.maximum(w, 0.0))) @ U.T
    return M, c


# --------------------------------------------------------- radial signatures


def _radials(sec: SectionBody, M, c, dirs):
    """Radial extents of the normalized section along unit frame directions."""
    W = dirs @ M.T
    if np.linalg.norm(c) <= 1e-12:
        return 1.0 / sec.gauge_many(W)
    # general center: solve gauge(c + t w) = 1 by vectorized bisection
    t_hi = np.ones(len(W))
    for _ in range(60):
        mask = sec.gauge_many(c[None, :] + t_hi[:, None] * W) < 1.0
        if not mask.any():
            break
        t_hi[mask] *= 2.0
    t_lo = np.zeros(len(W))
    for _ in range(80):
        mid = 0.5 * (t_lo + t_hi)
        inside = sec.gauge_many(c[None, :] + mid[:, None] * W) <= 1.0
        t_lo = np.where(inside, mid, t_lo)
        t_hi = np.where(inside, t_hi, mid)
    return 0.5 * (t_lo + t_hi)


def _rot(a):
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


def _match_planar(sec1, M1, c1, sec2, M2, c2):
    """Best rotation/reflection aligning two normalized planar signatures.

    Coarse scan over grid shifts (windows of the doubled signature, exact
    on the shared angle grid), then a sub-grid scan and golden-section
    refinement of the shift with true radial re-evaluation.  Returns (map in
    frame coordinates, residual).
    """
    ang = np.linspace(0.0, 2.0 * np.pi, SCAN_OFFSETS, endpoint=False)
    circle = np.column_stack([np.cos(ang), np.sin(ang)])
    r1 = _radials(sec1, M1, c1, circle)
    s2 = _radials(sec2, M2, c2, circle)

    def scan(r):
        """max_i |r[(i + j) % SCAN_OFFSETS] - s2[i]| for every grid shift j."""
        d = sliding_window_view(np.concatenate([r, r]), SCAN_OFFSETS)[:SCAN_OFFSETS] - s2
        return np.abs(d, out=d).max(axis=1)

    # r1(theta_i + j d) = r1[(i + j) % SCAN_OFFSETS] on the shared grid, and the
    # reflection r1(-theta_i + j d) = r1[::-1][(i - j - 1) % SCAN_OFFSETS]
    coarse = {+1: scan(r1), -1: scan(r1[::-1])[::-1]}

    def residuals(phis, flip):
        """Residual of every candidate shift, in one radial evaluation."""
        theta = flip * ang + np.asarray(phis)[:, None]
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=-1).reshape(-1, 2)
        r = _radials(sec1, M1, c1, pts).reshape(len(theta), SCAN_OFFSETS)
        return np.abs(r - s2).max(axis=1)

    def refine(j0, flip):
        """Minimum of the residual within one grid step of shift j0.

        The residual is flat wherever its worst mismatch sits on a circular
        arc, and golden section started across such a plateau can stall
        above the minimum; a sub-grid scan first picks the lowest basin.
        """
        step = 2.0 * np.pi / SCAN_OFFSETS
        sub = ang[j0] + step * np.linspace(-1.0, 1.0, 2 * REFINE_SUB + 1)
        phi0 = sub[int(np.argmin(residuals(sub, flip)))]
        gr = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = phi0 - step / REFINE_SUB, phi0 + step / REFINE_SUB
        x1 = b - gr * (b - a)
        x2 = a + gr * (b - a)
        f1, f2 = residuals([x1, x2], flip)
        while b - a > REFINE_TOL:
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - gr * (b - a)
                f1 = residuals([x1], flip)[0]
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + gr * (b - a)
                f2 = residuals([x2], flip)[0]
        return (x1, float(f1), flip) if f1 <= f2 else (x2, float(f2), flip)

    # symmetric sections tie many coarse shifts exactly, and refinement from
    # one of them can stall; refining the best shift of each orientation and
    # keeping the smaller residual makes the result insensitive to rounding
    phi, res, flip = min(
        (refine(int(np.argmin(coarse[f])), f) for f in (+1, -1)), key=lambda t: t[1]
    )
    # matched r1(flip theta + phi) = r2(theta): on normalized bodies the map
    # sends the direction at angle alpha to flip (alpha - phi)
    T = _rot(-flip * phi) @ np.diag([1.0, float(flip)])
    Lmap = M2 @ T @ np.linalg.inv(M1)
    return Lmap, res


_SIGNED_PERMS = None


def _signed_permutations():
    global _SIGNED_PERMS
    if _SIGNED_PERMS is None:
        from itertools import permutations, product

        out = []
        for perm in permutations(range(3)):
            for signs in product((1.0, -1.0), repeat=3):
                P = np.zeros((3, 3))
                for r, (col, sg) in enumerate(zip(perm, signs)):
                    P[r, col] = sg
                out.append(P)
        _SIGNED_PERMS = out
    return _SIGNED_PERMS


def _match_spatial(sec1, M1, c1, sec2, M2, c2):
    """Heuristic 3D signature alignment over moment principal frames."""
    dirs = sphere_directions(3, SPATIAL_DESIGN)
    r1 = _radials(sec1, M1, c1, dirs)
    r2 = _radials(sec2, M2, c2, dirs)
    P1 = dirs * r1[:, None]
    P2 = dirs * r2[:, None]
    _, V1 = np.linalg.eigh(P1.T @ P1)
    _, V2 = np.linalg.eigh(P2.T @ P2)
    best = (float(np.abs(r1 - r2).max()), np.eye(3))
    for P in _signed_permutations():
        O = V1 @ P @ V2.T
        res = float(np.abs(_radials(sec1, M1, c1, dirs @ O.T) - r2).max())
        if res < best[0]:
            best = (res, O)
    res, O = best
    Lmap = M2 @ O.T @ np.linalg.inv(M1)
    return Lmap, res


def _section_match(body: Body, X1: Subspace, X2: Subspace, cache=None):
    """(map, residual, heuristic) between two sections in frame coordinates."""
    if X1.dim != X2.dim or X1.dim not in (2, 3):
        raise ValueError("sections must share dimension k in {2, 3}")

    cache = {} if cache is None else cache

    def canon(X):
        # keyed on the frame bytes, so equal planes share one solve
        key = X.frame.tobytes()
        if key not in cache:
            M, c = max_inscribed_ellipsoid(section_samples(body, X, 256).functionals)
            cache[key] = (SectionBody(body, X), M, c)
        return cache[key]

    sec1, M1, c1 = canon(X1)
    sec2, M2, c2 = canon(X2)
    if X1.dim == 2:
        Lmap, res = _match_planar(sec1, M1, c1, sec2, M2, c2)
        return Lmap, res, False
    Lmap, res = _match_spatial(sec1, M1, c1, sec2, M2, c2)
    return Lmap, res, True


def linear_equivalent_sections(body: Body, X1: Subspace, X2: Subspace, tol: float = 1e-6):
    """EquivalenceWitness(L, residual) with L(B cap X1) = B cap X2 in frame
    coordinates, or None when the best mismatch exceeds tol.

    Sections are normalized to maximal-inscribed-ellipsoid position (affine
    covariant), leaving a compact rotation/reflection search on boundary
    radial signatures.
    """
    Lmap, res, _ = _section_match(body, X1, X2)
    if res > tol or abs(np.linalg.det(Lmap)) < DET_MIN:
        return None
    return EquivalenceWitness(Lmap, res)


# ------------------------------------------------------------ tangency check


def _unit_covectors(k, m):
    if k == 2:
        a = np.linspace(0.0, np.pi, m, endpoint=False)
        return np.column_stack([np.cos(a), np.sin(a)])
    return sphere_directions(3, m)


def verify_R_tangency(body: Body, X: Subspace, R: RTensor, m: int = 64, tol: float = 1e-7):
    """Tangency report for R on the section K = B cap X.

    hypothesis_ok: for each of m unit covectors lam, the field R_lam is
    tangent to the section boundary at the points of ker lam cap bd K;
    conclusion_ok: tangent at all m x m (lam, boundary point) pairs.  With
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
        hypothesis_ok=hyp_worst <= tol,
        conclusion_ok=conc_worst <= tol,
        worst_violation=max(hyp_worst, conc_worst),
        witness=witness,
    )


# ---------------------------------------------------------------- classifier


def banach_classify(
    body: Body,
    region: GrassmannChart,
    tol: float = 1e-6,
    opts: ClassifyOptions = None,
):
    """Verify pairwise linear equivalence of sections over the region, then
    delegate the verdict to the contracting-direction classifier.

    Pairs checked: the chart base against every plane of a 3-per-axis grid,
    plus 32 random pairs from the region.  Any pair beyond tol raises
    HypothesisFailed carrying the worst pair; on success the report gains
    the equivalence diagnostics (including whether the 3D heuristic matcher
    was involved), and its counters cover the pair checks as well.
    """
    if region.base.dim not in (2, 3):
        raise ValueError("banach_classify runs over regions of 2- or 3-planes")
    opts = opts or ClassifyOptions()
    rng = np.random.default_rng(opts.seed)
    pairs = [(region.base, region.plane(M)) for M in region.grid(3)]
    for _ in range(32):
        pairs.append(
            (region.plane(region.sample(rng)[0]), region.plane(region.sample(rng)[0]))
        )

    cache = {}
    worst_res = 0.0
    worst_fail = None
    heuristic = False
    with counting() as counts:
        for Xa, Xb in pairs:
            _, res, heur = _section_match(body, Xa, Xb, cache=cache)
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
