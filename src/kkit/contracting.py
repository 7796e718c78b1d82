"""Contracting-direction certificates and the cylinder criterion.

A plane X is contracting with direction Y when the oblique projection onto X
along Y does not increase the gauge.  For polytopes the test is exact via the
vertex images; for everything else the violation is maximized over a dense
deterministic boundary sample and refined by local search from the strongest
sample points, in one lockstep search over all pairs of a certify_planes
call.  Directions are searched on a GrassmannChart of (n-k)-planes over the
orthogonal complement of X, whose graph coordinates run along X.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .bodies import Body, Cylinder, Polytope, SectionBody, section_samples
from .errors import NonComplementary
from .linalg import (
    GrassmannChart,
    Subspace,
    projector,
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
# Strongest certificate samples refined by pattern search.
REFINE_TOP = 8
# Half-width of the multistart box in graph coordinates.
SEARCH_SPAN = 1.5
# Cold multistart: number of starts and the descent's iteration cap.
STARTS = 64
MAX_ITER = 200
# Pattern-search step of the certificate refinement.  It need only cover the
# sample spacing the seeds came from; the certificate sampler is dense enough
# that 0.05 reaches the true argmax.
REFINE_STEP = 0.05
# Directions per ring of the plane-hugging layers.
LAYER_RING = 32
# Re-descent after a marginal certificate failure: first step and iteration cap.
POLISH_STEP = 0.02
POLISH_ITERS = 80


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
    rows, i = np.arange(nb), np.argmax(out_vals, axis=1)
    top = out_vals[rows, i] >= start
    worst = np.where(top[:, None], out_pts[rows, i], seeds[:, 0])
    return np.where(top, out_vals[rows, i], start), worst


def _test_points(body: Body, dirs):
    """Points the sampled violation is taken over, with their gauges: a
    polytope's vertices (exact), otherwise dirs scaled onto the boundary."""
    if isinstance(body, Polytope):
        return body.vertices, body.gauge_many(body.vertices)
    return _boundary_sample(body, dirs)


def _certify(body: Body, pairs, dirs, tol: float):
    """Certificates for (X, Y, P) triples, P the projector onto X along Y:
    the largest gauge increase over the test points of dirs, sampled once.
    Sampled bodies refine the strongest points of all their pairs in one
    lockstep search."""
    pts, base = _test_points(body, dirs)
    certs, todo = [], []
    for X, Y, P in pairs:
        v = body.gauge_many(pts @ P.T) - base
        order = np.argsort(v)[::-1]
        viol = float(v[order[0]])
        certs.append(ContractionCertificate(X, Y, viol, viol <= tol, pts[order[0]]))
        # polytope vertices are exact, and a catastrophic sampled violation
        # already decides the certificate
        if not isinstance(body, Polytope) and viol <= max(100.0 * tol, 0.1):
            todo.append((certs[-1], P, pts[order[:REFINE_TOP]], viol))
    if todo:
        pending, Ps, seeds, start = zip(*todo)
        viols, worst = _refine_violation(body, *map(np.array, (Ps, seeds, start)))
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
    return _certify(body, [(X, Y, projector(X, Y))], dirs, tol)[0]


def certify_planes(body: Body, planes, directions, tol: float = DEFAULT_TOL):
    """is_contracting for each (plane, direction) pair, bit for bit, or None
    for a pair that is not complementary: one boundary sample and one
    lockstep refinement serve all pairs.  Not counted under certificates; a
    sweep counts these planes as planes_swept."""
    pairs = {}
    for i, (X, Y) in enumerate(zip(planes, directions)):
        try:
            pairs[i] = (X, Y, projector(X, Y))
        except NonComplementary:
            pass
    dirs = sphere_directions(body.dim, CERT_SAMPLES)
    certs = dict(zip(pairs, _certify(body, pairs.values(), dirs, tol)))
    return [certs.get(i) for i in range(len(planes))]


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
    return _certify(body, [(X, Y, projector(X, Y))], dirs, tol)[0].holds


def _fixed_rotation(n: int):
    rng = np.random.default_rng(9001 + n)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q


@dataclass
class DirectionSearchResult:
    """Certified directions (deduped) plus the best violation seen overall."""

    plane: Subspace
    found: list
    best_violation: float

    @property
    def directions(self):
        return [c.direction for c in self.found]

    def __bool__(self):
        return bool(self.found)


def _direction_from_coords(X: Subspace, Y0: Subspace, M):
    """The chart's plane at M without its box check: descent is unconstrained."""
    return Subspace(Y0.frame + X.frame @ M)


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


def _batch_violation(body: Body, X: Subspace, Y0: Subspace, Ms, sample):
    """Coarse violation for a batch of direction coordinates (B, k, n-k) over
    sample = _test_points(body, dirs).

    Y0 is orthonormal and orthogonal to X, so the projector onto X along
    span(Y0 + X M) is X (X^T - M Y0^T) in closed form.
    """
    test, base = sample
    P = X.frame @ (X.frame.T - Ms @ Y0.frame.T)
    proj = (test @ P.transpose(0, 2, 1)).reshape(-1, X.ambient)
    vals = body.gauge_many(proj).reshape(len(Ms), len(test)) - base[None, :]
    return vals.max(axis=1)


def _descend(body, X, Y0, Ms, dirs, step0, max_iter):
    """Batched coordinate descent of the sampled violation over graph coords."""
    k, nk = Ms.shape[1], Ms.shape[2]
    sample = _test_points(body, dirs)
    vals = _batch_violation(body, X, Y0, Ms, sample)
    step = step0
    it = 0
    hits = 0
    act = np.arange(len(vals))
    while step > 1e-10 and it < max_iter:
        improved = False
        for idx in np.ndindex(k, nk):
            for s in (step, -step):
                cand = Ms[act].copy()
                cand[(slice(None),) + idx] += s
                cv = _batch_violation(body, X, Y0, cand, sample)
                mask = cv < vals[act] - 1e-18
                rows = act[mask]
                Ms[rows] = cand[mask]
                vals[rows] = cv[mask]
                if mask.any():
                    improved = True
        # flat valleys admit endless marginal improvements at one level;
        # cap the stay so the step ladder keeps descending
        if not improved or hits >= 3:
            step *= 0.5
            hits = 0
        else:
            hits += 1
        it += 1
        # freeze starts that fell behind; ties within the slack stay live so
        # distinct minimizers survive for the multiplicity count
        keep = vals[act] <= vals[act].min() + 0.05
        act = act[keep]
    return Ms, vals


def _certify_polished(body, X, Y0, M, dirs, tol):
    """Certify the direction at coords M; a marginal failure feeds the
    certifier's worst boundary direction back into the sampled objective and
    re-descends, closing the gap between search and certificate."""
    cert = is_contracting(body, X, _direction_from_coords(X, Y0, M), tol)
    rounds = 0
    while (
        not cert.holds
        and cert.violation <= max(1e3 * tol, 0.05)
        and cert.worst is not None
        and rounds < 3
    ):
        dirs = np.vstack([dirs, cert.worst[None, :]])
        Ms, _ = _descend(body, X, Y0, M[None].copy(), dirs, POLISH_STEP, POLISH_ITERS)
        cert2 = is_contracting(body, X, _direction_from_coords(X, Y0, Ms[0]), tol)
        if cert2.violation >= cert.violation - 1e-15:
            if cert2.violation < cert.violation:
                cert = cert2
            break
        M, cert = Ms[0], cert2
        rounds += 1
    return cert


def find_contracting_direction(
    body: Body,
    X: Subspace,
    tol: float = DEFAULT_TOL,
    warm=(),
    first_only: bool = False,
) -> DirectionSearchResult:
    """Search Gr_{n-k} for directions making X contracting.

    The search runs on the GrassmannChart of (n-k)-planes over Y0 = X^perp,
    with graph coordinates along X and the box half-width SEARCH_SPAN:
    multistart coordinate descent of a coarse sampled violation from the
    chart's STARTS-point grid, then certification at full sample density.
    All tied minimizers below tol are returned, deduplicated at a small
    principal angle, so callers can count them.  Warm-start candidates in
    warm are certified first; with first_only the first certified direction
    short circuits the search.
    """
    tally("direction_searches")
    n, k = X.ambient, X.dim
    Y0 = X.orthogonal_complement()
    chart = GrassmannChart(Y0, SEARCH_SPAN, transversal=X)
    best_viol = np.inf

    # certified warm candidates short-circuit when only existence matters
    warm_hits = []
    warm_seeds = []
    for Yc in warm:
        if Yc.ambient != n or Yc.dim != n - k:
            continue
        try:
            cert = is_contracting(body, X, Yc, tol)
        except NonComplementary:
            continue
        best_viol = min(best_viol, cert.violation)
        if cert.holds:
            warm_hits.append(cert)
            if first_only:
                return DirectionSearchResult(X, warm_hits, cert.violation)
        else:
            # the certificate accepted cond([X Yc]), which bounds cond(Y0^T Yc),
            # so Yc is a graph over Y0
            warm_seeds.append(chart.coords(Yc))

    dirs = np.vstack([sphere_directions(n, SEARCH_SAMPLES), _plane_layers(X)])
    # polish phase: failed warm candidates descend locally before any
    # multistart, which is what keeps neighboring-plane sweeps cheap
    if warm_seeds and not warm_hits:
        Ms = np.array(warm_seeds)
        Ms, vals = _descend(body, X, Y0, Ms, dirs, 0.05, 60)
        i = int(np.argmin(vals))
        cert = _certify_polished(body, X, Y0, Ms[i], dirs, tol)
        best_viol = min(best_viol, cert.violation)
        if cert.holds:
            warm_hits.append(cert)
            if first_only:
                return DirectionSearchResult(X, warm_hits, cert.violation)

    per_axis = max(2, round(STARTS ** (1.0 / chart.dim)))
    Ms = np.array(chart.grid(per_axis, STARTS))
    Ms, vals = _descend(body, X, Y0, Ms, dirs, SEARCH_SPAN / 4.0, MAX_ITER)
    # cluster candidate minimizers before the expensive certification; always
    # certify the best one so failures report a full-density violation
    order = np.argsort(vals)
    cutoff = max(tol * 10.0, float(vals[order[0]]) + 1e-12)
    reps = []
    for i in order:
        if len(reps) >= 8 or (vals[i] > cutoff and reps):
            break
        Yc = _direction_from_coords(X, Y0, Ms[i])
        if any(subspace_angle(Yc, r) <= 1e-3 for _, r in reps):
            continue
        reps.append((Ms[i], Yc))
    found = list(warm_hits)
    for M, Yc in reps:
        cert = _certify_polished(body, X, Y0, M, dirs, tol)
        best_viol = min(best_viol, cert.violation)
        if cert.holds:
            if all(
                subspace_angle(cert.direction, c.direction) > DEDUP_ANGLE
                for c in found
            ):
                found.append(cert)
            if first_only:
                break
    found.sort(key=lambda c: c.violation)
    return DirectionSearchResult(X, found, best_viol)


def shared_generatrix_cylinder(
    body: Body,
    planes,
    Y: Subspace,
    tol: float = DEFAULT_TOL,
):
    """Cylinder (B cut by planes[0]) + Y, if Y certifies on every plane.

    After certification the cylinder's sections through the other planes are
    cross-checked against the body's sections by Hausdorff distance of the
    boundary samples; any mismatch returns None.
    """
    planes = list(planes)
    for X in planes:
        if not is_contracting(body, X, Y, tol).holds:
            return None
    base_plane = planes[0]
    cyl = Cylinder(SectionBody(body, base_plane), base_plane, Y)
    for X in planes[1:]:
        sb = section_samples(body, X).ambient_points
        sc = section_samples(cyl, X).ambient_points
        D = cdist(sb, sc)
        haus = max(D.min(axis=0).max(), D.min(axis=1).max())
        if haus > tol:
            return None
    return cyl
