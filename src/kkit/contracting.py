"""Contracting-direction certificates and the cylinder criterion.

A plane X is contracting with direction Y when the oblique projection onto X
along Y does not increase the gauge.  For polytopes the test is exact via the
vertex images; for everything else the violation is maximized over a dense
deterministic boundary sample and refined from the strongest sample points,
all pairs of a certify_planes call in one lockstep search: a BFGS ascent on
the sphere, with the analytic gradient from the support functionals, for
smooth bodies (Body.smooth), and a pattern search for kinked ones, whose
gradients jump.  Directions are searched on a GrassmannChart of (n-k)-planes
over the orthogonal complement of X, whose graph coordinates run along X; the
projector is affine in those coordinates, so the search is one convex solve.
"""

from dataclasses import dataclass

import numpy as np

from .bodies import Body, Cylinder, Polytope, SectionBody
from .errors import NonComplementary
from .linalg import (
    GrassmannChart,
    Subspace,
    complementary,
    projectors,
    sphere_directions,
    subspace_angle,
)
from .tally import tally

# Default certification tolerance; polytope checks are exact, sampled checks
# carry refinement, so a tight default is safe.
DEFAULT_TOL = 1e-7
# Dense sample size for certificates and the coarse size used inside searches.
CERT_SAMPLES = 4096
SEARCH_SAMPLES = 512
# Directions with gauge below this have no boundary point and are tested raw.
_FLAT_TOL = 1e-9
# Distinct minimizers are deduplicated at this principal angle.
DEDUP_ANGLE = 1e-4
# Strongest certificate samples the refinement starts from.
REFINE_TOP = 8
# Half-width of the box the direction search's master LP starts in; it
# doubles the box whenever the model's minimum lies on the box's face.
SEARCH_SPAN = 1.5
# First step of the certificate refinement: the pattern search's coordinate
# step, and the length of the BFGS ascent's first step and of its probes along
# the plane.  It need only cover the sample spacing the seeds came from; the
# certificate sampler is dense enough that 0.05 reaches the true argmax.
REFINE_STEP = 0.05
# Lockstep iteration cap of the BFGS refinement, and the gain it treats as
# rounding: the violation is a gauge ratio of order 1, less 1.
ASCENT_STEPS = 100
ROUNDING = 1e-16
# Directions per ring of the plane-hugging layers.
LAYER_RING = 32
# Level bundle solve of the direction search: cuts per evaluated point, the
# level's fraction of the gap, and the stall guard.
CUT_POINTS = 4
LEVEL = 0.3
MAX_ROUNDS = 300
# The gap closed, relative to the violation and floored at NEAR tol; the
# near-argmin set whose extent counts distinct directions is NEAR tol wide.
NEAR = 1e-4


@dataclass
class ContractionCertificate:
    plane: Subspace
    direction: Subspace
    violation: float
    holds: bool
    # boundary direction achieving the violation; lets searches close the
    # loop between certification and the sampled objective
    worst: np.ndarray = None


def _boundary_sample(body: Body, dirs):
    """Directions scaled onto the boundary, with their gauges (0 when flat)."""
    g = body.gauge_many(dirs)
    bounded = g > _FLAT_TOL
    return dirs / np.where(bounded, g, 1.0)[:, None], bounded.astype(float)


def _refine_violation(body: Body, P, seeds, start):
    """Pattern search on the direction sphere from the strongest samples,
    starting at step REFINE_STEP, for projectors (B, n, n) with their seeds
    (B, S, n) and sampled violations (B,): violations (B,), worst (B, n).
    The rows run in lockstep, each with its own step and hit count, and each
    leaves the batch once its step falls to 1e-7."""
    nb, S, n = seeds.shape
    pts = seeds.copy()

    def evaluate(U):
        B, bg = _boundary_sample(body, U.reshape(-1, n))
        proj = B.reshape(len(U), -1, n) @ P.transpose(0, 2, 1)
        return (body.gauge_many(proj.reshape(-1, n)) - bg).reshape(len(U), -1, S)

    vals = evaluate(pts)[:, 0]
    # each row's 2n signed coordinate moves +e_0, -e_0, +e_1, ... at its step
    moves = np.kron(np.eye(n), [[REFINE_STEP], [-REFINE_STEP]])[None, :, None].repeat(nb, 0)
    hits = np.zeros(nb, dtype=int)
    # the live rows, in their original order; ids maps them back
    ids, out_pts, out_vals = np.arange(nb), pts.copy(), vals.copy()
    while len(ids):
        # all 2n moves for every seed of every live row, one batched
        # evaluation; flat is a view, so normalizing it normalizes cand
        cand = pts[:, None] + moves
        flat = cand.reshape(-1, n)
        nrm = np.sqrt((flat * flat).sum(axis=1))
        flat /= np.where(nrm > 0, nrm, 1.0)[:, None]
        cv = evaluate(cand)
        pick = cv.argmax(axis=1)
        best_cv = cv.max(axis=1)
        mask = best_cv > vals + 1e-18
        if mask.any():
            row, seed = mask.nonzero()
            pts[row, seed] = cand[row, pick[row, seed], seed]
            vals[row, seed] = best_cv[row, seed]
        # maxima can sit on a whole submanifold; sliding along the ridge
        # never changes the value, so cap the stay at each step level
        stay = mask.any(axis=1) > (hits >= 3)
        hits = (hits + 1) * stay
        if stay.all():
            continue
        moves[~stay] *= 0.5
        live = moves[:, 0, 0, 0] > 1e-7
        if not live.all():
            out_pts[ids[~live]], out_vals[ids[~live]] = pts[~live], vals[~live]
            ids, pts, vals, moves, hits, P = (a[live] for a in (ids, pts, vals, moves, hits, P))
    return _best(out_vals, out_pts, seeds, start)


def _ascend(body: Body, P, seeds, start):
    """BFGS ascent of f(u) = g(Pu)/g(u) - 1 on the unit sphere, for smooth
    bodies, with _refine_violation's arguments and result.  Every seed of
    every row climbs in lockstep with its own inverse Hessian and Armijo
    backtracking, until its model predicts a rounding gain for the trial
    step or ASCENT_STEPS run out.  Flat seeds keep their sampled value."""
    nb, S, n = seeds.shape

    def tangent(V, U):
        return V - (V * U).sum(axis=1)[:, None] * U

    def evaluate(U, Ps):
        PU = np.einsum("bij,bj->bi", Ps, U)
        gu, gp = body.gauge_many(np.concatenate([U, PU])).reshape(2, -1)
        f = np.where(gu > _FLAT_TOL, gp / np.maximum(gu, _FLAT_TOL) - 1.0, gp)
        return f, (gu > _FLAT_TOL) & (gp > _FLAT_TOL), (U, PU, gu, gp, Ps)

    def gradient(U, PU, gu, gp, Ps):
        # (P^T l(Pu) - l(u) g(Pu) / g(u)) / g(u), l the support functional
        # normalized at the boundary point
        B = np.concatenate([U / gu[:, None], PU / gp[:, None]])
        L = body._support_many(B)
        lu, lp = (L / (L * B).sum(axis=1)[:, None]).reshape(2, -1, n)
        return tangent((np.einsum("bji,bj->bi", Ps, lp) - (gp / gu)[:, None] * lu) / gu[:, None], U)

    def direction(H, G, u):
        d = tangent(np.einsum("bij,bj->bi", H, G), u)
        return d, (G * d).sum(axis=1)

    u = seeds.reshape(-1, n) / np.linalg.norm(seeds, axis=2).reshape(-1, 1)
    vals, ok, terms = evaluate(u, np.repeat(P, S, axis=0))
    pts, ids = u.copy(), np.flatnonzero(ok)
    u, f, Ps, G = u[ids], vals[ids], terms[-1][ids], gradient(*(a[ids] for a in terms))
    # the first step is REFINE_STEP long
    H = (REFINE_STEP / np.maximum(np.linalg.norm(G, axis=1), 1e-300))[:, None, None] * np.eye(n)
    t = np.ones(len(ids))
    for _ in range(ASCENT_STEPS):
        d, gain = direction(H, G, u)
        # near a contracting pair f peaks on a ridge along the plane, as flat
        # as the violation is small, whose curvature the model learns only
        # from a long step along it: once the model predicts no gain, add a
        # REFINE_STEP long step along the plane's part of the gradient
        stall = gain <= ROUNDING
        if stall.any():
            p = tangent(np.einsum("bij,bj->bi", Ps[stall], G[stall]), u[stall])
            p /= np.maximum(np.linalg.norm(p, axis=1), 1e-300)[:, None]
            pg = np.abs((p * G[stall]).sum(axis=1))
            w = REFINE_STEP / np.where(REFINE_STEP * pg > ROUNDING, pg, np.inf)
            H[stall] += w[:, None, None] * p[:, :, None] * p[:, None, :]
            d, gain = direction(H, G, u)
        live = t * gain > ROUNDING
        if not live.all():
            vals[ids[~live]], pts[ids[~live]] = f[~live], u[~live]
            ids, u, f, Ps, G, H, t, d, gain = (a[live] for a in (ids, u, f, Ps, G, H, t, d, gain))
            if not len(ids):
                break
        cand = u + t[:, None] * d
        fc, ok, terms = evaluate(cand / np.linalg.norm(cand, axis=1)[:, None], Ps)
        acc = ok & (fc >= f + 1e-4 * t * gain)
        # backtrack to the peak of the quadratic through f, its slope and fc
        drop = np.where(ok & ~acc, f + t * gain - fc, np.inf)
        t = np.where(acc, 1.0, np.clip(0.5 * gain * t * t / drop, 1e-3 * t, 0.5 * t))
        if acc.any():
            c, Gc = terms[0][acc], gradient(*(a[acc] for a in terms))
            # the step and the change in -grad f, both moved to c's tangent space
            s, y = tangent(c - u[acc], c), tangent(G[acc] - Gc, c)
            u[acc], f[acc], G[acc] = c, fc[acc], Gc
            sy = (s * y).sum(axis=1)
            up = sy > 0
            rows, s, y, sy = np.flatnonzero(acc)[up], s[up], y[up], sy[up, None, None]
            V = np.eye(n) - s[:, :, None] * y[:, None, :] / sy
            H[rows] = V @ H[rows] @ V.transpose(0, 2, 1) + s[:, :, None] * s[:, None, :] / sy
    vals[ids], pts[ids] = f, u
    return _best(vals.reshape(nb, S), pts.reshape(nb, S, n), seeds, start)


def _best(vals, pts, seeds, start):
    """The refined maximum and its point per row, or start at seeds[:, 0] if
    no refined value reaches it."""
    rows, i = np.arange(len(vals)), np.argmax(vals, axis=1)
    top = vals[rows, i] >= start
    worst = np.where(top[:, None], pts[rows, i], seeds[:, 0])
    return np.where(top, vals[rows, i], start), worst


def _refine(body: Body, P, seeds, start):
    """The refinement _certify gives body's sampled certificates."""
    return (_ascend if body.smooth else _refine_violation)(body, P, seeds, start)


def _test_points(body: Body, dirs):
    """Points the sampled violation is taken over, with their gauges: a
    polytope's vertices (exact), otherwise dirs scaled onto the boundary."""
    if isinstance(body, Polytope):
        return body.vertices, body.gauge_many(body.vertices)
    return _boundary_sample(body, dirs)


def _certify(body: Body, planes, directions, dirs, tol: float):
    """Certificates for the (plane, direction) pairs, None for a pair with no
    projector: the largest gauge increase over the test points of dirs,
    sampled once.  Sampled bodies refine the strongest points of all their
    pairs in one lockstep search."""
    Ps = projectors(planes, directions)
    if all(P is None for P in Ps):
        return Ps
    pts, base = _test_points(body, dirs)
    certs, todo = [], []
    for X, Y, P in zip(planes, directions, Ps):
        if P is None:
            certs.append(None)
            continue
        v = body.gauge_many(pts @ P.T) - base
        top = np.argpartition(v, -min(REFINE_TOP, len(v)))[-REFINE_TOP:]
        order = top[np.argsort(v[top])[::-1]]
        viol = float(v[order[0]])
        certs.append(ContractionCertificate(X, Y, viol, viol <= tol, pts[order[0]]))
        todo.append((certs[-1], P, pts[order], viol))
    # polytope vertices are exact; every sampled certificate is refined
    if not isinstance(body, Polytope):
        pending, Ps, seeds, start = zip(*todo)
        viols, worst = _refine(body, *map(np.array, (Ps, seeds, start)))
        for cert, viol, w in zip(pending, viols.tolist(), worst):
            cert.violation, cert.holds, cert.worst = viol, viol <= tol, w
    return certs


def is_contracting(
    body: Body,
    X: Subspace,
    Y: Subspace,
    tol: float = DEFAULT_TOL,
) -> ContractionCertificate:
    """Certificate that projection onto X along Y does not increase the gauge.

    violation is the largest observed gauge increase; holds means it stays
    within tol.  Exact for Polytope bodies (projected vertices), sampled and
    refined otherwise.  Shares its certificate with cylinder_contains; only
    the sample differs.
    """
    tally("certificates")
    dirs = sphere_directions(body.dim, CERT_SAMPLES)
    return complementary(_certify(body, [X], [Y], dirs, tol)[0], X, Y)


def certify_planes(body: Body, planes, directions, tol: float = DEFAULT_TOL):
    """is_contracting for each (plane, direction) pair, bit for bit, or None
    for a pair that is not complementary: one boundary sample and one
    lockstep refinement serve all pairs.  Not counted under certificates; a
    sweep counts these planes as planes_swept."""
    return _certify(body, planes, directions, sphere_directions(body.dim, CERT_SAMPLES), tol)


def cylinder_contains(
    body: Body,
    X: Subspace,
    Y: Subspace,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Whether B sits inside the cylinder (B cut by X) + Y.

    Every boundary point must project into the body, which is the same
    certificate as is_contracting; only the sample differs, placed
    independently by a fixed rotation of the direction set, so the two
    characterisations can be compared against each other numerically.
    """
    dirs = sphere_directions(body.dim, CERT_SAMPLES) @ _fixed_rotation(body.dim).T
    return complementary(_certify(body, [X], [Y], dirs, tol)[0], X, Y).holds


def _fixed_rotation(n: int):
    rng = np.random.default_rng(9001 + n)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q


@dataclass
class DirectionSearchResult:
    """Certified directions (deduped), the best violation seen, and the
    solve's lower bound on the sampled violation of every complement of the
    plane (-inf if no solve ran or its master never settled inside its box)."""

    plane: Subspace
    found: list
    best_violation: float
    lower_bound: float = -np.inf

    @property
    def directions(self):
        return [c.direction for c in self.found]

    def __bool__(self):
        return bool(self.found)


# Violations near the optimum are carried by boundary points close to X, so
# uniform direction samples alone leave the search objective flat there.
_LAYER_EPS = (0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4)


def _plane_layers(X: Subspace):
    """Directions hugging the plane X at geometrically spaced tilts."""
    n = X.ambient
    Wt = X.orthogonal_complement().frame.T
    U = sphere_directions(X.dim, LAYER_RING) @ X.frame.T
    # rings ordered by tilt, then complement axis, then sign
    tilts = np.array(_LAYER_EPS)[:, None, None, None] * np.stack([Wt, -Wt], 1)
    return (U[None] + tilts.reshape(-1, 1, n)).reshape(-1, n)


def _violations(body: Body, X: Subspace, Y0: Subspace, Ms, sample):
    """Gauge increase (B, N) of the test points of sample = _test_points(...)
    under the projector of each direction coordinate of Ms (B, k, n-k):
    X (X^T - M Y0^T) onto X along span(Y0 + X M), as Y0 is orthonormal and
    orthogonal to X."""
    test, base = sample
    P = X.frame @ (X.frame.T - Ms @ Y0.frame.T)
    proj = (test @ P.transpose(0, 2, 1)).reshape(-1, X.ambient)
    return body.gauge_many(proj).reshape(len(Ms), len(test)) - base[None, :]


def _cuts(body: Body, X: Subspace, Y0: Subspace, Ms, sample, V):
    """Cuts (w, c) from the CUT_POINTS worst test points at each M of Ms,
    V = _violations there: c - w . M'.ravel() <= the sampled violation at
    every M', with equality at M.  P_M p = X (a - M b) is affine in M, and
    a support functional l at P_M p gives g(P_M' p) >= l . X (a - M' b).
    """
    test, base = sample
    top = np.argsort(V, axis=1)[:, -CUT_POINTS:]
    a, b = test[top] @ X.frame, test[top] @ Y0.frame
    q = ((a - b @ Ms.transpose(0, 2, 1)) @ X.frame.T).reshape(-1, X.ambient)
    a, b = a.reshape(len(q), -1), b.reshape(len(q), -1)
    g = (np.take_along_axis(V, top, axis=1) + base[top]).reshape(-1)
    on = g > _FLAT_TOL
    L = np.zeros_like(q)
    L[on] = body.support_many(q[on] / g[on, None])
    # l . X (a - M' b) = u . a - u^T M' b with u = X^T l
    u = L @ X.frame
    w = (u[:, :, None] * b[:, None, :]).reshape(len(q), -1)
    c = (u * a).sum(axis=1) - base[top].reshape(-1)
    return w, c


def _lp(cost, A, b, bounds):
    """HiGHS solution of min cost . x over A x <= b within bounds, a (lo, hi)
    pair per column with None for no bound, or None when HiGHS finds no
    optimum.  One direct call of scipy's HiGHS binding with the model and
    options linprog(method="highs") would pass, so x is bit for bit linprog's
    without the cost of its wrapper; the feasibility tolerances are 1e-10, as
    HiGHS's default, 1e-7, is coarser than the gaps closed."""
    from scipy.optimize._highspy import _core as highs

    m, d = A.shape
    # None reads as NaN
    lo, hi = np.array(bounds, dtype=float).T
    # column-wise, zeros dropped, as linprog's csc_array has it
    cols, rows = np.nonzero(A.T)
    lp = highs.HighsLp()
    lp.num_row_, lp.num_col_ = m, d
    lp.col_cost_ = cost
    lp.col_lower_ = np.where(np.isnan(lo), -highs.kHighsInf, lo)
    lp.col_upper_ = np.where(np.isnan(hi), highs.kHighsInf, hi)
    lp.row_lower_ = np.full(m, -highs.kHighsInf)
    lp.row_upper_ = b
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = m, d
    lp.a_matrix_.start_ = np.r_[0, np.cumsum(np.bincount(cols, minlength=d))]
    lp.a_matrix_.index_ = rows
    lp.a_matrix_.value_ = A.T[cols, rows]
    opts = highs.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.primal_feasibility_tolerance = opts.dual_feasibility_tolerance = 1e-10
    opts.output_flag = opts.log_to_console = False
    solver = highs._Highs()
    solver.passOptions(opts)
    solver.passModel(lp)
    solver.run()
    if solver.getModelStatus() != highs.HighsModelStatus.kOptimal:
        return None
    return np.array(solver.getSolution().col_value)


def _solve(body: Body, chart: GrassmannChart, M, dirs, tol):
    """Level bundle minimization of the sampled violation over all
    coordinates of the chart of complements of X, from M (Lemarechal,
    Nemirovskii & Nesterov, Math. Programming 69, 1995): (best certificate,
    its coordinates, final sample, lower bound lb for every complement).

    Each round cuts at the new points and solves the Kelley master LP in a
    box that holds M.  A master minimizer inside the box is the model's
    global minimum, so its value is a lower bound lb; one on the box's face
    doubles the box, since the minimum may lie beyond it.  The next point is
    the l-infinity projection of the best point onto the model's level set,
    LEVEL of the way from the master value to the best value ub.  Once ub - lb
    closes, the best point is certified; a failure adds its worst point to
    the sample and resumes, until the certificate meets lb or its point no
    longer moves lb.
    """
    X, Y0 = chart.transversal, chart.base
    shape, d = M.shape, M.size
    sample = _test_points(body, dirs)
    w, c = np.empty((0, d)), np.empty(0)
    span = max(SEARCH_SPAN, 2.0 * np.abs(M).max())
    Ms = M[None]
    ub, lb, lb_cert = np.inf, -np.inf, -np.inf
    best = None
    unit = np.r_[np.zeros(d), 1.0]
    eye, ones = np.eye(d), np.ones((d, 1))
    for _ in range(MAX_ROUNDS):
        V = _violations(body, X, Y0, Ms, sample)
        w_new, c_new = _cuts(body, X, Y0, Ms, sample, V)
        w, c = np.vstack([w, w_new]), np.r_[c, c_new]
        f = V.max(axis=1)
        if f.min() < ub:
            M, ub = Ms[np.argmin(f)], float(f.min())
        master = np.hstack([-w, -np.ones((len(w), 1))])
        x = _lp(unit, master, -c, [(-span, span)] * d + [(None, None)])
        if x is None:
            break
        if np.abs(x[:d]).max() < (1.0 - 1e-9) * span:
            lb = max(lb, float(x[-1]))
        else:
            span *= 2.0
        gap = NEAR * max(tol, abs(ub))
        if ub - lb > gap:
            # the l-infinity projection of M onto {model <= level}: the least
            # s with |M' - M| <= s elementwise
            level = x[-1] + LEVEL * (ub - x[-1])
            A = np.block([[-w, np.zeros((len(w), 1))], [eye, -ones], [-eye, -ones]])
            rhs = np.r_[level - c, M.ravel(), -M.ravel()]
            y = _lp(unit, A, rhs, [(None, None)] * d + [(0.0, None)])
            step = x[:d] if y is None else y[:d]
            Ms = np.array([x[:d], step]).reshape((2,) + shape)
            continue
        cert = is_contracting(body, X, chart.plane(M), tol)
        if best is None or cert.violation < best[0].violation:
            best = (cert, M)
        if cert.holds or cert.violation <= lb + gap or lb <= lb_cert + gap:
            break
        # the certificate saw a point the sample missed: add it and resume
        worst, worst_base = _boundary_sample(body, cert.worst[None])
        sample = (np.vstack([sample[0], worst]), np.r_[sample[1], worst_base])
        Ms, ub, lb_cert = M[None], np.inf, lb
    if best is None:
        best = (is_contracting(body, X, chart.plane(M), tol), M)
    return best + (sample, lb)


def _near_argmin_ends(body, X, Y0, M, level, sample):
    """Far ends of the convex set {sampled violation <= level} on the rays
    from M along +-each coordinate, bisected to DEDUP_ANGLE within 2
    SEARCH_SPAN, for the rays that stay in it past 2 DEDUP_ANGLE."""
    steps = np.concatenate([np.eye(M.size), -np.eye(M.size)]).reshape((-1,) + M.shape)
    lo, hi = np.zeros(len(steps)), np.full(len(steps), 2.0 * SEARCH_SPAN)
    while np.any(hi - lo > DEDUP_ANGLE):
        mid = 0.5 * (lo + hi)
        ok = _violations(body, X, Y0, M + mid[:, None, None] * steps, sample).max(1) <= level
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    far = lo > 2.0 * DEDUP_ANGLE
    return M + lo[far, None, None] * steps[far]


def find_contracting_direction(
    body: Body,
    X: Subspace,
    tol: float = DEFAULT_TOL,
    warm=(),
    first_only: bool = False,
) -> DirectionSearchResult:
    """Search Gr_{n-k} for directions making X contracting.

    The distinct warm candidates are certified first, in one call; with
    first_only the first that holds, in order, short circuits the search.
    Then one convex solve runs on the unboxed chart of directions over Y0 =
    X^perp, over the coarse sample and plane layers; without first_only the
    far ends of its near-argmin set, certified in a second call, count as
    further directions, deduplicated at DEDUP_ANGLE.
    """
    tally("direction_searches")
    n, k = X.ambient, X.dim
    Y0 = X.orthogonal_complement()
    chart = GrassmannChart(Y0, np.inf, transversal=X)
    best_viol = np.inf

    # distinct warm candidates in one stacked call; one with no projector (wrong
    # shape, or degenerate) has no certificate
    found = []
    start = np.zeros((k, n - k))
    warm = list({id(Y): Y for Y in warm}.values())
    for cert in certify_planes(body, [X] * len(warm), warm, tol):
        if cert is None:
            continue
        if cert.holds:
            found.append(cert)
            if first_only:
                return DirectionSearchResult(X, found, cert.violation)
        if cert.violation < best_viol:
            # start from the best; its certificate accepted cond([X Y]),
            # which bounds cond(Y0^T Y), so Y is a graph over Y0
            best_viol, start = cert.violation, chart.coords(cert.direction)

    dirs = np.vstack([sphere_directions(n, SEARCH_SAMPLES), _plane_layers(X)])
    cert, M, sample, lb = _solve(body, chart, start, dirs, tol)
    best_viol = min(best_viol, cert.violation)
    if cert.holds:
        found.append(cert)
        if not first_only:
            # lb is at most the minimum, so this level set lies inside the
            # minimum's own NEAR tol sublevel set
            ends = chart.planes(_near_argmin_ends(body, X, Y0, M, lb + NEAR * tol, sample))
            found += [c for c in certify_planes(body, [X] * len(ends), ends, tol) if c and c.holds]
    unique = []
    for c in sorted(found, key=lambda c: c.violation):
        if all(subspace_angle(c.direction, u.direction) > DEDUP_ANGLE for u in unique):
            unique.append(c)
    return DirectionSearchResult(X, unique, best_viol, lb)


def first_failure(certs):
    """The first failing certificate of a certify_planes list, or None; a
    pair that is not complementary raises NonComplementary, as is_contracting does."""
    for cert in certs:
        if cert is None:
            raise NonComplementary("plane and direction are not complementary")
        if not cert.holds:
            return cert
    return None


def shared_generatrix_cylinder(
    body: Body,
    planes,
    Y: Subspace,
    tol: float = DEFAULT_TOL,
):
    """Cylinder (B cut by planes[0]) + Y, if Y certifies on every plane.

    The certificates already prove that the sections agree: Y contracting
    for planes[0] puts B inside the cylinder C, so B cut by X lies in C cut
    by X; and C cut by X is the projection of B cut by planes[0] onto X
    along Y, which lies in B cut by X once Y is contracting for X.
    """
    planes = list(planes)
    if first_failure(certify_planes(body, planes, [Y] * len(planes), tol)) is not None:
        return None
    return Cylinder(SectionBody(body, planes[0]), planes[0], Y)
