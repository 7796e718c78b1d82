"""Local classification of convex bodies over a swept region of planes.

The trichotomy: every plane in the region admits a contracting direction and
the gauge is globally quadratic (ellipsoid, possibly degenerate), or the
directions agree and the body is a cylinder over its base section, or some
plane has no direction and the body is neither.  A projective-duality
pipeline for 3-dimensional bodies and a hyperplane-restriction sweep for
higher codimension run as cross-checks, not as decision paths.
"""

from dataclasses import dataclass

import numpy as np

from .bodies import Body, SectionBody, section_samples
from .contracting import (
    DEFAULT_TOL,
    DirectionSearch,
    cylinder_contains,
    find_contracting_direction,
    is_contracting,
    shared_generatrix_cylinder,
)
from .errors import (
    AmbiguousDichotomy,
    DegenerateFit,
    DegenerateFixedPoint,
    InconsistentPropagation,
    NoGeneratrix,
    NonComplementary,
    NotLocallyQuadric,
    PreconditionNotContracting,
    SameHyperplane,
    SharedLine,
)
from .linalg import (
    GrassmannChart,
    Subspace,
    join,
    meet,
    orthonormal_frame,
    project,
    projector,
    sphere_directions,
    subspace_angle,
)
from .quadform import reconstruct_global_form
from .tally import counting, tally

# Dichotomy: lines this close to their median count as one constant line.
CONSTANT_ANGLE = 1e-4
# Two smallest singular values closer than this leave the dual fit ambiguous.
DUAL_GAP = 1e-6
# A projective dual must stay invertible after Frobenius normalization.
DUAL_DET_MIN = 1e-8
# Tangent field acceptance: fit residual and nondegeneracy floor.
FIELD_TOL = 1e-6
FIELD_SIGMA_MIN = 1e-3
# Grids per axis of the projective cross-check and of each restriction slice.
PHI_GRID = 3
RESTRICTION_GRID = 3
# Boundary points and kernel-plane angles of the dual support check.
SUPPORT_POINTS = 32
SUPPORT_ANGLES = 64


@dataclass
class PhiSample:
    """Certified (plane, generatrix line) pairs over a grid of 2-planes."""

    pairs: list
    multiplicity: list
    coords: list
    continuity_defect: float = 0.0


@dataclass
class ProjectiveDual:
    """Linear map V -> V* (3x3, Frobenius-normalized) with its fit residual."""

    F: np.ndarray
    fit_residual: float


@dataclass
class ReductionResult:
    W: Subspace
    Z: Subspace
    lam: float
    certificate: object
    probe_error: float = 0.0


@dataclass
class Injective:
    min_separation: float = 0.0


@dataclass
class ConstantLine:
    line: Subspace
    max_spread: float = 0.0


def _median_line(dirs):
    """Geometric median of lines: Weiszfeld on sign-aligned unit vectors."""
    D = np.array(dirs)
    # antipodal alignment against the principal direction
    w, U = np.linalg.eigh(D.T @ D)
    ref = U[:, -1]
    D = D * np.sign(D @ ref)[:, None]
    m = ref.copy()
    for _ in range(64):
        d = np.linalg.norm(D - m, axis=1)
        d = np.maximum(d, 1e-12)
        new = (D / d[:, None]).sum(axis=0) / (1.0 / d).sum()
        nrm = np.linalg.norm(new)
        if nrm < 1e-12:
            break
        new /= nrm
        if np.linalg.norm(new - m) <= 1e-14:
            m = new
            break
        m = new
    return Subspace(m[:, None])


def phi_map(
    body: Body,
    region: GrassmannChart,
    grid: int = 5,
    tol: float = DEFAULT_TOL,
    hints=None,
    count_multiplicity: bool = True,
) -> PhiSample:
    """Generatrix line per grid plane of a 3-dimensional region.

    Each found line is certified through the containment route as well; a
    plane with no certified line raises NoGeneratrix.  hints, when given,
    maps a plane to warm candidate lines (the form-informed path), which is
    what makes the sample sharp enough for the coplanarity properties.
    count_multiplicity=False accepts the first certified line per plane;
    callers may do that when uniqueness is already known (verified strictly
    convex quadric) since the dichotomy then rests on line separation alone.
    """
    if region.base.ambient != 3 or region.base.dim != 2:
        raise ValueError("phi_map runs on 2-planes in a 3-dimensional space")
    coords = list(region.grid(grid))
    planes = [region.plane(M) for M in coords]

    pairs = []
    mult = []
    for X in planes:
        warm = tuple(hints(X)) if hints is not None else ()
        # lighter exploration than the default: certificates stay at full
        # strength, only the multistart lattice shrinks
        res = find_contracting_direction(
            body,
            X,
            DirectionSearch(
                tol=tol,
                warm=warm,
                starts=32,
                coarse_samples=256,
                max_iter=100,
                first_only=not count_multiplicity,
            ),
        )
        if not res:
            raise NoGeneratrix(X, res.best_violation)
        L = res.found[0].direction
        if not cylinder_contains(body, X, L, tol):
            raise NoGeneratrix(X, res.found[0].violation)
        pairs.append((X, L))
        mult.append(len(res.found))

    defect = 0.0
    for i in range(1, len(coords)):
        d = [np.linalg.norm(coords[i] - coords[j]) for j in range(i)]
        j = int(np.argmin(d))
        if mult[i] == 1 and mult[j] == 1:
            defect = max(defect, subspace_angle(pairs[i][1], pairs[j][1]))
    return PhiSample(pairs, mult, coords, defect)


def injectivity_test(sample: PhiSample, tol_angle: float = CONSTANT_ANGLE):
    """ConstantLine, Injective, or AmbiguousDichotomy for a phi sample."""
    if not sample.pairs:
        raise ValueError("empty phi sample")
    lines = [L.frame[:, 0] for _, L in sample.pairs]
    med = _median_line(lines)
    spread = max(subspace_angle(Subspace(v[:, None]), med) for v in lines)
    if spread <= tol_angle or any(m >= 2 for m in sample.multiplicity):
        return ConstantLine(med, spread)
    seps = []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            seps.append(
                subspace_angle(Subspace(lines[i][:, None]), Subspace(lines[j][:, None]))
            )
    min_sep = min(seps)
    if min_sep > tol_angle:
        return Injective(min_sep)
    raise AmbiguousDichotomy(
        f"phi neither constant (spread {spread:.3e}) nor separated "
        f"(min image distance {min_sep:.3e})"
    )


def fit_projective_dual(
    body: Body, sample: PhiSample, points_per_plane: int = 12
) -> ProjectiveDual:
    """Linear dual F with F(p) proportional to the support functional at p.

    Constraints <F p, t> = 0 for tangent vectors t spanning ker of the
    support functional, stacked over boundary points of every sample plane;
    solved by the smallest right singular vector at unit Frobenius norm.
    """
    P = np.vstack(
        [section_samples(body, X, points_per_plane).ambient_points for X, _ in sample.pairs]
    )
    rows = []
    for p, ell in zip(P, body.support_many(P)):
        tang = orthonormal_frame(np.eye(3) - np.outer(ell, ell) / (ell @ ell))
        for t in tang.T:
            rows.append(np.outer(t, p).reshape(-1))
    A = np.array(rows)
    A /= np.linalg.norm(A, axis=1)[:, None]
    _, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[-2] - s[-1] < DUAL_GAP:
        raise DegenerateFit(
            f"two smallest singular values within {DUAL_GAP:g}: {s[-2:]}"
        )
    F = Vt[-1].reshape(3, 3)
    if np.trace(F) < 0:
        F = -F
    if abs(np.linalg.det(F)) < DUAL_DET_MIN:
        raise DegenerateFit(f"dual not invertible: det {np.linalg.det(F):.3e}")
    resid = float(s[-1]) / np.sqrt(len(A))
    return ProjectiveDual(F, resid)


def support_check(body: Body, dual: ProjectiveDual) -> float:
    """How deep the planes p + ker(F p) cut into the body, at worst.

    For each of SUPPORT_POINTS boundary points the affine kernel plane is
    sampled on SUPPORT_ANGLES x radii (radius 0 keeps p itself); the defect
    at p is max(0, 1 - min gauge over the samples) and the check returns the
    max.
    """
    worst = 0.0
    radii = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
    ang = np.linspace(0.0, np.pi, SUPPORT_ANGLES, endpoint=False)
    for v in sphere_directions(3, SUPPORT_POINTS):
        p = body.boundary_point(v)
        ell = dual.F @ p
        nrm = np.linalg.norm(ell)
        if nrm < 1e-14:
            worst = max(worst, 1.0)
            continue
        T = orthonormal_frame(np.eye(3) - np.outer(ell, ell) / nrm**2)
        U = np.column_stack([np.cos(ang), np.sin(ang)]) @ T.T
        Q = p[None, :] + (radii[:, None, None] * U[None, :, :]).reshape(-1, 3)
        g = body.gauge_many(Q)
        worst = max(worst, max(0.0, 1.0 - float(g.min())))
    return worst


def tangent_field_fit(section, tol: float = FIELD_TOL, sigma_min: float = FIELD_SIGMA_MIN):
    """(W or None, residual): least-squares linear field tangent to the section.

    Rows ell_i (W p_i) = 0 at unit Frobenius norm; candidates walk up from
    the smallest singular vector until one is nondegenerate, and that
    candidate's normalized residual decides acceptance.
    """
    P, L = section.points, section.functionals
    if len(P) < 16:
        raise ValueError("need at least 16 section points")
    rows = (L[:, :, None] * P[:, None, :]).reshape(len(P), 4)
    rows = rows / np.linalg.norm(rows, axis=1)[:, None]
    _, s, Vt = np.linalg.svd(rows, full_matrices=False)
    for i in reversed(range(len(s))):
        W = Vt[i].reshape(2, 2)
        if np.linalg.svd(W, compute_uv=False)[-1] >= sigma_min:
            resid = float(s[i]) / np.sqrt(len(rows))
            return (W if resid <= tol else None), resid
    return None, float(s[-1]) / np.sqrt(len(rows))


def reduce_pair(
    body: Body,
    X1: Subspace,
    L1: Subspace,
    X2: Subspace,
    L2: Subspace,
    tol: float = 1e-9,
) -> ReductionResult:
    """Combine two contracting hyperplane/line pairs into (W, Z) one
    dimension down, with the contraction factor of T = pr1 o pr2 on Z cap X1.

    The certificate is is_contracting(body, W, Z); 32 probes confirm that
    the T-iteration limit (or midpoint at lambda = -1) reproduces the
    oblique projection onto W along Z.
    """
    n = X1.ambient
    if X1.dim != n - 1 or X2.dim != n - 1 or L1.dim != 1 or L2.dim != 1:
        raise ValueError("reduce_pair expects hyperplanes and lines")
    if X1.is_same(X2):
        raise SameHyperplane("the two hyperplanes coincide")
    if L1.is_same(L2):
        raise SharedLine("the two lines coincide")
    for X, L in ((X1, L1), (X2, L2)):
        cert = is_contracting(body, X, L, max(tol, DEFAULT_TOL))
        if not cert.holds:
            raise PreconditionNotContracting(
                f"pair not contracting: violation {cert.violation:.3e}"
            )
    W = meet(X1, X2)
    Z = join(L1, L2)
    if meet(W, Z).dim != 0:
        raise NonComplementary("W meets Z nontrivially")
    L = meet(Z, X1)
    if L.dim != 1:
        raise PreconditionNotContracting("Z meets X1 in dimension != 1")
    P1 = projector(X1, L1)
    P2 = projector(X2, L2)
    T = P1 @ P2
    u = L.frame[:, 0]
    Tu = T @ u
    lam = float(Tu @ u)
    mult_defect = float(np.linalg.norm(Tu - lam * u))
    if mult_defect > 1e-6:
        raise InconsistentPropagation(X1, mult_defect, "T is not scalar on Z cap X1")
    if abs(lam - 1.0) <= 1e-9:
        raise DegenerateFixedPoint("T fixes Z cap X1 pointwise")

    rng = np.random.default_rng(0)
    probes = X1.frame @ rng.normal(size=(X1.dim, 32))
    Q = probes.T
    if abs(lam + 1.0) <= 1e-9:
        lim = 0.5 * (Q + Q @ T.T)
    else:
        lim = Q.copy()
        for _ in range(200_000):
            nxt = lim @ T.T
            if np.abs(nxt - lim).max() <= 1e-13:
                lim = nxt
                break
            lim = nxt
    direct = np.array([project(W, Z, q) for q in Q])
    scale = np.maximum(1.0, np.linalg.norm(Q, axis=1))
    probe_error = float((np.linalg.norm(lim - direct, axis=1) / scale).max())
    cert = is_contracting(body, W, Z, tol)
    return ReductionResult(W, Z, lam, cert, probe_error)


@dataclass
class ClassifyOptions:
    tol: float = DEFAULT_TOL
    grid_per_axis: int = 9
    cross_checks: bool = True
    seed: int = 0


@dataclass
class ClassificationReport:
    verdict: str
    witness: dict
    diagnostics: dict
    counters: dict = None
    form: object = None
    generatrix: Subspace = None
    base_plane: Subspace = None

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "witness": _plain(self.witness),
            "diagnostics": _plain(self.diagnostics),
            "timings": _plain(self.counters),
        }


def _plain(x):
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, Subspace):
        return _plain(x.frame)
    if isinstance(x, np.ndarray):
        return _plain(x.tolist())
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    return x


def _phi_cross_check(body, region, opts, verdict, form, generatrix, diagnostics):
    """Stage (d): the projective pipeline must predict the same verdict."""

    def hints(X):
        out = []
        if form is not None and form.rank() == 3:
            perp = X.orthogonal_complement().frame
            out.append(Subspace(np.linalg.solve(form.ambient_coeffs, perp)))
        if generatrix is not None:
            out.append(generatrix)
        return out

    try:
        # hints come from a verified form or generatrix, whose direction is
        # unique per plane; skip the multiplicity exploration
        sample = phi_map(
            body,
            region,
            PHI_GRID,
            opts.tol,
            hints=hints,
            count_multiplicity=form is None and generatrix is None,
        )
        diagnostics["phi_continuity_defect"] = sample.continuity_defect
        outcome = injectivity_test(sample)
    except (NoGeneratrix, AmbiguousDichotomy) as exc:
        diagnostics["phi_outcome"] = type(exc).__name__
        diagnostics["phi_agrees"] = verdict == "NonKakutani"
        return
    if isinstance(outcome, ConstantLine):
        diagnostics["phi_outcome"] = "ConstantLine"
        agrees = verdict == "Cylinder"
        if agrees and generatrix is not None:
            agrees = subspace_angle(outcome.line, generatrix) <= 1e-3
        diagnostics["phi_agrees"] = agrees
        return
    diagnostics["phi_outcome"] = "Injective"
    try:
        dual = fit_projective_dual(body, sample)
        diagnostics["dual_fit_residual"] = dual.fit_residual
        diagnostics["dual_support_defect"] = support_check(body, dual)
        field_ok = True
        if verdict == "Ellipsoid":
            sec = section_samples(body, region.base, 64)
            W, resid = tangent_field_fit(sec)
            diagnostics["tangent_field_residual"] = resid
            field_ok = W is not None
        diagnostics["phi_agrees"] = (
            verdict == "Ellipsoid"
            and dual.fit_residual <= 1e-6
            and diagnostics["dual_support_defect"] <= 1e-6
            and field_ok
        )
    except DegenerateFit:
        diagnostics["phi_outcome"] = "DegenerateFit"
        diagnostics["phi_agrees"] = verdict != "Ellipsoid"


def _restriction_cross_check(body, region, opts, verdict, diagnostics):
    """Stage (e): classify the body inside k+1 dimensional slices through
    the base plane and record verdict coherence."""
    base, trans = region.base, region.transversal
    n, k = base.ambient, base.dim
    sub_verdicts = []
    for j in range(n - k):
        Wspace = join(base, Subspace(trans.frame[:, j : j + 1]))
        sub_body = SectionBody(body, Wspace)
        sub_base = Subspace(Wspace.frame.T @ base.frame)
        hw = np.full((1, k), float(np.min(region.halfwidths)))
        sub_region = GrassmannChart(sub_base, hw)
        sub_opts = ClassifyOptions(
            tol=opts.tol,
            grid_per_axis=RESTRICTION_GRID,
            cross_checks=False,
            seed=opts.seed,
        )
        sub = classify(sub_body, sub_region, opts=sub_opts)
        sub_verdicts.append(sub.verdict)
    diagnostics["restriction_verdicts"] = sub_verdicts
    coherent = {
        "Ellipsoid": {"Ellipsoid"},
        "Cylinder": {"Cylinder", "Ellipsoid"},
        "NonKakutani": {"Ellipsoid", "Cylinder", "NonKakutani"},
    }[verdict]
    diagnostics["restriction_agrees"] = all(v in coherent for v in sub_verdicts)


def classify(
    body: Body, region: GrassmannChart, opts: ClassifyOptions = None
) -> ClassificationReport:
    """Ellipsoid / Cylinder / NonKakutani over the swept region.

    (a) every grid plane must admit a contracting direction, else
    NonKakutani with that plane as witness; (b) a global quadratic
    reconstruction decides Ellipsoid (degenerate rank: cylinder over an
    ellipsoid); (c) otherwise a shared generatrix across the grid decides
    Cylinder; neither is NonKakutani with the strongest structural failure
    as witness.  Cross-checks (projective pipeline for 3-dimensional
    bodies, hyperplane-restriction sweep above codimension one) land in
    diagnostics and never override the verdict.  The report's counters
    tally the work done, cross-checks included.
    """
    with counting() as counts:
        report = _classify(body, region, opts or ClassifyOptions())
    report.counters = counts
    return report


def _classify(body, region, opts):
    n, k = region.base.ambient, region.base.dim
    if k < 2 or n < k + 1:
        raise ValueError("region must sweep k-planes with 2 <= k <= n-1")
    diagnostics = {}
    coords = list(region.grid(opts.grid_per_axis))
    planes = [region.plane(M) for M in coords]

    # probe the global quadratic reconstruction up front: success pins the
    # expected direction on every plane, so the sweep below reduces to a
    # chain of certificates instead of cold searches (the sweep still runs
    # and still gates the verdict)
    form = None
    psd = None
    quadric_witness = (region.base, float("nan"))
    try:
        form, psd = reconstruct_global_form(body, region, seed=opts.seed)
        diagnostics["form_psd"] = psd
        diagnostics["form_rank"] = form.rank()
    except (NotLocallyQuadric, InconsistentPropagation) as exc:
        diagnostics["quadric_failure"] = type(exc).__name__
        diagnostics["quadric_residual"] = exc.residual
        quadric_witness = (exc.plane, exc.residual)
        form = None

    predict = None
    if form is not None and psd:
        A = form.ambient_coeffs

        def predict(X):
            # directions y with Ay orthogonal to X: the A-complement of X,
            # which absorbs the kernel when the form is degenerate
            _, s, Vt = np.linalg.svd(X.frame.T @ A)
            r = int(np.sum(s > 1e-12 * s[0]))
            return Subspace(Vt[r:].T)

    # (a) direction sweep, warm-started from the form prediction when one
    # exists and from the previous plane's direction otherwise; multiplicity
    # is only counted at the base plane of a cold sweep (with a verified
    # form the direction is unique anyway)
    directions = []
    warm = []
    for i, X in enumerate(planes):
        tally("planes_swept")
        lines = ([predict(X)] if predict is not None else []) + warm[:2]
        search = DirectionSearch(
            tol=opts.tol,
            warm=tuple(lines),
            first_only=(i > 0 or predict is not None),
        )
        res = find_contracting_direction(body, X, search)
        if not res:
            return ClassificationReport(
                "NonKakutani",
                {"witness_plane": X.frame, "violation": res.best_violation},
                {**diagnostics, "failed_coords": coords[i].tolist()},
            )
        directions.append(res.found[0].direction)
        if i == 0:
            diagnostics["base_multiplicity"] = len(res.found)
        warm = [res.found[0].direction] + warm[:1]

    if form is not None and psd:
        rank = form.rank()
        if rank == n:
            report = ClassificationReport(
                "Ellipsoid",
                {"form": form.ambient_coeffs, "psd": True, "rank": rank},
                diagnostics,
                form=form,
            )
        else:
            generatrix = form.kernel()
            report = ClassificationReport(
                "Cylinder",
                {
                    "generatrix": generatrix.frame,
                    "base_plane": region.base.frame,
                    "form": form.ambient_coeffs,
                    "rank": rank,
                },
                diagnostics,
                form=form,
                generatrix=generatrix,
                base_plane=region.base,
            )
        if opts.cross_checks:
            if n == 3 and k == 2:
                _phi_cross_check(
                    body, region, opts, report.verdict, form, report.generatrix, diagnostics
                )
            if n > k + 1:
                _restriction_cross_check(body, region, opts, report.verdict, diagnostics)
        return report

    # (c) constant direction: cylinder over the base section
    L0 = directions[0]
    cyl = shared_generatrix_cylinder(body, planes, L0, opts.tol)
    if cyl is not None:
        report = ClassificationReport(
            "Cylinder",
            {"generatrix": L0.frame, "base_plane": region.base.frame},
            diagnostics,
            generatrix=L0,
            base_plane=region.base,
        )
        if opts.cross_checks:
            if n == 3 and k == 2:
                _phi_cross_check(body, region, opts, report.verdict, None, L0, diagnostics)
            if n > k + 1:
                _restriction_cross_check(body, region, opts, report.verdict, diagnostics)
        return report

    # gap: planes contract individually but no global structure exists;
    # report the strongest structural failure as witness
    spread = max(subspace_angle(L0, L) for L in directions)
    diagnostics["direction_spread"] = spread
    wplane, wviol = quadric_witness
    return ClassificationReport(
        "NonKakutani",
        {"witness_plane": wplane.frame, "violation": wviol},
        diagnostics,
    )
