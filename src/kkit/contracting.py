"""Contracting-direction certificates and the cylinder criterion.

A plane X is contracting with direction Y when the oblique projection onto X
along Y does not increase the gauge.  For polytopes the test is exact via the
vertex images; for everything else the violation is maximized over a dense
deterministic boundary sample and refined by local search from the strongest
sample points.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .bodies import Body, Cylinder, Polytope, SectionBody, section_samples
from .errors import NonComplementary
from .linalg import (
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
    scale = np.where(g > _FLAT_TOL, g, 1.0)
    return dirs / scale[:, None], np.where(g > _FLAT_TOL, 1.0, 0.0)


def _refine_violation(body: Body, P, seeds, start_val: float, step0: float = 0.05):
    """Pattern search on the direction sphere from the strongest samples.

    step0 need only cover the sample spacing the seeds came from; the
    certificate sampler is dense enough that 0.05 reaches the true argmax.
    """
    n = body.dim
    pts = np.array(seeds, dtype=float)
    best = start_val

    def evaluate(U):
        B, bg = _boundary_sample(body, U)
        return body.gauge_many(B @ P.T) - bg

    vals = evaluate(pts)
    S = len(pts)
    step = step0
    hits = 0
    while step > 1e-7:
        # all 2n coordinate moves for every seed, one batched evaluation
        cand = np.repeat(pts[None, :, :], 2 * n, axis=0)
        for j in range(n):
            cand[2 * j, :, j] += step
            cand[2 * j + 1, :, j] -= step
        flat = cand.reshape(-1, n)
        nrm = np.linalg.norm(flat, axis=1)
        flat /= np.where(nrm > 0, nrm, 1.0)[:, None]
        cv = evaluate(flat).reshape(2 * n, S)
        pick = np.argmax(cv, axis=0)
        best_cv = cv[pick, np.arange(S)]
        mask = best_cv > vals + 1e-18
        if mask.any():
            moved = flat.reshape(2 * n, S, n)[pick, np.arange(S)]
            pts[mask] = moved[mask]
            vals[mask] = best_cv[mask]
        # maxima can sit on a whole submanifold; sliding along the ridge
        # never changes the value, so cap the stay at each step level
        if not mask.any() or hits >= 3:
            step *= 0.5
            hits = 0
        else:
            hits += 1
    i = int(np.argmax(vals))
    if vals[i] >= best:
        return float(vals[i]), pts[i]
    return best, np.array(seeds, dtype=float)[0]


def is_contracting(
    body: Body,
    X: Subspace,
    Y: Subspace,
    tol: float = DEFAULT_TOL,
) -> ContractionCertificate:
    """Certificate that projection onto X along Y does not increase the gauge.

    violation is the largest observed gauge increase; holds means it stays
    within tol.  Exact for Polytope bodies (projected vertices), sampled and
    refined otherwise.
    """
    tally("certificates")
    P = projector(X, Y)
    if isinstance(body, Polytope):
        V = body.vertices
        v = body.gauge_many(V @ P.T) - body.gauge_many(V)
        i = int(np.argmax(v))
        viol = float(v[i])
        return ContractionCertificate(X, Y, viol, viol <= tol, V[i])
    pts, base_gauge = _boundary_sample(body, sphere_directions(body.dim, CERT_SAMPLES))
    proj_gauge = body.gauge_many(pts @ P.T)
    v = proj_gauge - base_gauge
    order = np.argsort(v)[::-1]
    viol = float(v[order[0]])
    # a catastrophic sampled violation already decides the certificate
    if viol > max(100.0 * tol, 0.1):
        return ContractionCertificate(X, Y, viol, False, pts[order[0]])
    seeds = pts[order[:REFINE_TOP]]
    viol, worst = _refine_violation(body, P, seeds, viol)
    return ContractionCertificate(X, Y, viol, viol <= tol, worst)


def cylinder_contains(
    body: Body,
    X: Subspace,
    Y: Subspace,
    tol: float = DEFAULT_TOL,
    samples: int = CERT_SAMPLES,
) -> bool:
    """Whether B sits inside the cylinder (B cut by X) + Y.

    Tests containment directly: every sampled boundary point must project
    into the body.  Kept separate from is_contracting so the two equivalent
    characterisations can be compared against each other numerically; the
    sample here is independently placed (fixed rotation of the direction set).
    """
    P = projector(X, Y)
    if isinstance(body, Polytope):
        V = body.vertices
        return bool(np.max(body.gauge_many(V @ P.T) - body.gauge_many(V)) <= tol)
    rot = _fixed_rotation(body.dim)
    dirs = sphere_directions(body.dim, samples) @ rot.T
    g = body.gauge_many(dirs)
    keep = g > _FLAT_TOL
    pts = dirs[keep] / g[keep, None]
    worst = float(np.max(body.gauge_many(pts @ P.T)) - 1.0)
    flat = dirs[~keep]
    if flat.size:
        worst = max(worst, float(np.max(body.gauge_many(flat @ P.T))))
    seeds = pts[np.argsort(body.gauge_many(pts @ P.T))[::-1][:8]]
    refined, _ = _refine_violation(body, P, seeds, worst)
    return max(worst, refined) <= tol


def _fixed_rotation(n: int):
    rng = np.random.default_rng(9001 + n)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q


@dataclass
class DirectionSearch:
    """Knobs for find_contracting_direction."""

    tol: float = DEFAULT_TOL
    starts: int = 64
    max_iter: int = 200
    coarse_samples: int = SEARCH_SAMPLES
    warm: tuple = ()
    first_only: bool = False


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
    return Subspace(Y0.frame + X.frame @ M)


# Violations near the optimum are carried by boundary points close to X, so
# uniform direction samples alone leave the search objective flat there.
_LAYER_EPS = (0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4)


def _plane_layers(X: Subspace, per_ring: int = 32):
    """Directions hugging the plane X at geometrically spaced tilts."""
    n, k = X.ambient, X.dim
    W = X.orthogonal_complement().frame
    U = sphere_directions(k, per_ring) @ X.frame.T
    rings = []
    for eps in _LAYER_EPS:
        for j in range(n - k):
            w = eps * W[:, j]
            rings.append(U + w)
            rings.append(U - w)
    return np.vstack(rings)


def _batch_violation(body: Body, X: Subspace, Y0: Subspace, Ms, dirs):
    """Coarse violation for a batch of direction coordinates (B, k, n-k).

    Y0 is orthonormal and orthogonal to X, so the projector onto X along
    span(Y0 + X M) is X (X^T - M Y0^T) in closed form.
    """
    if isinstance(body, Polytope):
        test = body.vertices
        base = body.gauge_many(test)
    else:
        test, base = _boundary_sample(body, dirs)
    P = X.frame @ (X.frame.T - Ms @ Y0.frame.T)
    proj = np.einsum("bij,mj->bmi", P, test).reshape(-1, X.ambient)
    vals = body.gauge_many(proj).reshape(len(Ms), len(test)) - base[None, :]
    return vals.max(axis=1)


def _coords_of_direction(X: Subspace, Y0: Subspace, Y: Subspace):
    """Graph coordinates M with span(Y0 + X M) = span(Y), or None."""
    k = X.dim
    A = np.column_stack([X.frame, Y0.frame])
    C = np.linalg.solve(A, Y.frame)
    Ax, By = C[:k], C[k:]
    if np.linalg.cond(By) > 1e8:
        return None
    return Ax @ np.linalg.inv(By)


def _descend(body, X, Y0, Ms, dirs, step0, max_iter):
    """Batched coordinate descent of the sampled violation over graph coords."""
    k, nk = Ms.shape[1], Ms.shape[2]
    vals = _batch_violation(body, X, Y0, Ms, dirs)
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
                cv = _batch_violation(body, X, Y0, cand, dirs)
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


def _certify_polished(body, X, Y0, M, dirs, opts, step0: float = 0.02, iters: int = 80):
    """Certify the direction at coords M; a marginal failure feeds the
    certifier's worst boundary direction back into the sampled objective and
    re-descends, closing the gap between search and certificate."""
    cert = is_contracting(body, X, _direction_from_coords(X, Y0, M), opts.tol)
    rounds = 0
    while (
        not cert.holds
        and cert.violation <= max(1e3 * opts.tol, 0.05)
        and cert.worst is not None
        and rounds < 3
    ):
        dirs = np.vstack([dirs, cert.worst[None, :]])
        Ms, _ = _descend(body, X, Y0, M[None].copy(), dirs, step0, iters)
        cert2 = is_contracting(body, X, _direction_from_coords(X, Y0, Ms[0]), opts.tol)
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
    opts: DirectionSearch = None,
) -> DirectionSearchResult:
    """Search Gr_{n-k} for directions making X contracting.

    Multistart coordinate descent in graph coordinates over the orthogonal
    complement of X, followed by certification at full sample density.  All
    tied minimizers below tol are returned, deduplicated at a small principal
    angle, so callers can count them.  Warm-start candidates in opts.warm are
    certified first; with opts.first_only the first certified direction short
    circuits the search.
    """
    tally("direction_searches")
    opts = opts or DirectionSearch()
    n, k = X.ambient, X.dim
    Y0 = X.orthogonal_complement()
    best_viol = np.inf
    dirs = np.vstack([sphere_directions(n, opts.coarse_samples), _plane_layers(X)])

    # certified warm candidates short-circuit when only existence matters
    warm_hits = []
    warm_seeds = []
    for Yc in opts.warm:
        if Yc.ambient != n or Yc.dim != n - k:
            continue
        try:
            cert = is_contracting(body, X, Yc, opts.tol)
        except NonComplementary:
            continue
        best_viol = min(best_viol, cert.violation)
        if cert.holds:
            warm_hits.append(cert)
            if opts.first_only:
                return DirectionSearchResult(X, warm_hits, cert.violation)
        else:
            M = _coords_of_direction(X, Y0, Yc)
            if M is not None:
                warm_seeds.append(M)

    # polish phase: failed warm candidates descend locally before any
    # multistart, which is what keeps neighboring-plane sweeps cheap
    if warm_seeds and not warm_hits:
        Ms = np.array(warm_seeds)
        Ms, vals = _descend(body, X, Y0, Ms, dirs, 0.05, 60)
        i = int(np.argmin(vals))
        cert = _certify_polished(body, X, Y0, Ms[i], dirs, opts)
        best_viol = min(best_viol, cert.violation)
        if cert.holds:
            warm_hits.append(cert)
            if opts.first_only:
                return DirectionSearchResult(X, warm_hits, cert.violation)

    d = k * (n - k)
    per_axis = max(2, int(round(opts.starts ** (1.0 / d))))
    if per_axis**d <= opts.starts * 2 and per_axis**d >= opts.starts // 2:
        axes = [np.linspace(-SEARCH_SPAN, SEARCH_SPAN, per_axis)] * d
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = np.stack([m.reshape(-1) for m in mesh], axis=1)[: opts.starts]
    else:
        from scipy.stats import qmc

        flat = (2.0 * qmc.Sobol(d, scramble=False).random(opts.starts) - 1.0) * SEARCH_SPAN
    Ms = flat.reshape(-1, k, n - k)

    Ms, vals = _descend(body, X, Y0, Ms, dirs, SEARCH_SPAN / 4.0, opts.max_iter)
    # cluster candidate minimizers before the expensive certification; always
    # certify the best one so failures report a full-density violation
    order = np.argsort(vals)
    cutoff = max(opts.tol * 10.0, float(vals[order[0]]) + 1e-12)
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
        cert = _certify_polished(body, X, Y0, M, dirs, opts)
        best_viol = min(best_viol, cert.violation)
        if cert.holds:
            if all(
                subspace_angle(cert.direction, c.direction) > DEDUP_ANGLE
                for c in found
            ):
                found.append(cert)
            if opts.first_only:
                break
    found.sort(key=lambda c: c.violation)
    return DirectionSearchResult(X, found, best_viol)


def shared_generatrix_cylinder(
    body: Body,
    planes,
    Y: Subspace,
    tol: float = DEFAULT_TOL,
    samples: int = 256,
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
        sb = section_samples(body, X, samples).ambient_points
        sc = section_samples(cyl, X, samples).ambient_points
        D = cdist(sb, sc)
        haus = max(D.min(axis=0).max(), D.min(axis=1).max())
        if haus > tol:
            return None
    return cyl
