"""End-to-end acceptance gate.

Each test covers one advertised guarantee at its stated tolerance and prints
one PASS line with the measured numbers; pytest -v shows one line per
criterion either way.
"""

import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from kkit.banach import RTensor, banach_classify, quadratic_field
from kkit.bodies import (
    Cylinder,
    Ellipsoid,
    Intersection,
    LinearImage,
    PBall,
    Polytope,
    section_samples,
)
from kkit.classifier import (
    ClassifyOptions,
    classify,
    fit_projective_dual,
    phi_map,
    reduce_pair,
    support_check,
    tangent_field_fit,
)
from kkit.cli import main
from kkit.contracting import (
    DirectionSearch,
    cylinder_contains,
    find_contracting_direction,
    is_contracting,
)
from kkit.errors import HypothesisFailed
from kkit.linalg import GrassmannChart, Subspace, random_subspace, subspace_angle
from kkit.quadform import assemble_form
from kkit.tally import COUNTERS

from conftest import disk_cylinder, lp_gauge, random_polytope, random_spd, rng

pytestmark = pytest.mark.acceptance

FIX = Path(__file__).resolve().parent.parent / "fixtures"

XY = Subspace.coordinate(3, 0, 1)
Z = Subspace.coordinate(3, 2)
FULL2 = Subspace(np.eye(2))


def q_complement(Q, X):
    return Subspace(np.linalg.solve(Q, X.orthogonal_complement().frame))


def box_prism():
    return Polytope(
        np.array(
            [[x, y, w] for x in (-1, 1) for y in (-1, 1) for w in (-2, 2)],
            dtype=float,
        )
    )


def test_criterion_01_ellipsoid_recovery():
    r = rng(101)
    worst_err, worst_time = 0.0, 0.0
    for i in range(50):
        n = int(r.integers(3, 6))
        k = int(r.integers(2, n))
        Q = random_spd(r, n, cond=float(r.uniform(2.0, 50.0)))
        region = GrassmannChart(random_subspace(r, n, k), 0.1)
        t = time.time()
        rep = classify(Ellipsoid(Q), region)
        dt = time.time() - t
        assert rep.verdict == "Ellipsoid", (n, k, i)
        err = np.linalg.norm(rep.witness["form"] - Q) / np.linalg.norm(Q)
        assert err <= 1e-6, (n, k, i, err)
        assert dt <= 10.0, (n, k, i, dt)
        worst_err, worst_time = max(worst_err, err), max(worst_time, dt)
    print(
        f"\nPASS criterion 1: ellipsoid recovery on 50 instances, "
        f"worst rel err {worst_err:.2e} <= 1e-6, worst time {worst_time:.2f}s <= 10s"
    )


def test_criterion_02_cylinder_recovery():
    angs = []
    rep = classify(disk_cylinder(), GrassmannChart(XY, 0.2))
    assert rep.verdict == "Cylinder"
    angs.append(subspace_angle(rep.generatrix, Z))
    F = np.asarray(rep.witness["form"])
    assert rep.witness["rank"] == 2
    form_err = np.abs(F - np.diag([1.0, 1.0, 0.0])).max()
    assert form_err <= 1e-8

    rep = classify(box_prism(), GrassmannChart(XY, 0.3), opts=ClassifyOptions(grid_per_axis=5))
    assert rep.verdict == "Cylinder"
    angs.append(subspace_angle(rep.generatrix, Z))
    assert max(angs) <= 1e-6
    print(
        f"\nPASS criterion 2: cylinder recovery, generatrix errors "
        f"{angs[0]:.2e}/{angs[1]:.2e} rad <= 1e-6, degenerate form err {form_err:.2e} <= 1e-8"
    )


def test_criterion_03_negative_control():
    body = PBall(4.0, np.eye(3))
    base = Subspace.span([1.0, 0.0, 0.3], [0.0, 1.0, 0.0])
    t = time.time()
    rep = classify(body, GrassmannChart(base, 0.25), opts=ClassifyOptions(grid_per_axis=3))
    dt = time.time() - t
    assert rep.verdict == "NonKakutani"
    viol = rep.witness["violation"]
    assert viol >= 1e-3
    assert dt <= 5.0
    print(
        f"\nPASS criterion 3: p4-ball NonKakutani, violation {viol:.2e} >= 1e-3, "
        f"{dt:.2f}s <= 5s"
    )


def test_criterion_04_dimension_reduction_suite():
    r = rng(104)
    done, worst_cert, worst_probe = 0, 0.0, 0.0
    while done < 200:
        n = 3 + done % 2
        if done % 4 < 2:
            Q = random_spd(r, n, cond=8.0)
            body = Ellipsoid(Q)
        else:
            A = r.normal(size=(n, n)) + 2.5 * np.eye(n)
            body = LinearImage(A, Ellipsoid(np.eye(n)))
            Q = np.linalg.inv(A @ A.T)
        X1 = random_subspace(r, n, n - 1)
        X2 = random_subspace(r, n, n - 1)
        if subspace_angle(X1, X2) <= 1e-3:
            continue
        L1, L2 = q_complement(Q, X1), q_complement(Q, X2)
        if subspace_angle(L1, L2) <= 1e-3:
            continue
        res = reduce_pair(body, X1, L1, X2, L2)
        assert res.certificate.violation <= 1e-9
        assert res.probe_error <= 1e-9
        worst_cert = max(worst_cert, res.certificate.violation)
        worst_probe = max(worst_probe, res.probe_error)
        done += 1
    print(
        f"\nPASS criterion 4: 200 reductions, worst certificate violation "
        f"{worst_cert:.2e} <= 1e-9, worst probe error {worst_probe:.2e} <= 1e-9"
    )


def test_criterion_05_cylindricity_routes_agree():
    r = rng(105)
    agreements, holds = 0, 0
    box = box_prism()
    for i in range(200):
        kind = i % 4
        X = random_subspace(r, 3, 2)
        if kind == 0:
            Q = random_spd(r, 3, cond=10.0)
            body = Ellipsoid(Q)
            Y = q_complement(Q, X) if i % 8 == 0 else random_subspace(r, 3, 1)
        elif kind == 1:
            body = random_polytope(r, 3, 10)
            Y = random_subspace(r, 3, 1)
        elif kind == 2:
            body = PBall(4.0, np.eye(3))
            if i % 8 == 2:
                X, Y = XY, Z
            else:
                Y = random_subspace(r, 3, 1)
        else:
            body = box
            if i % 8 == 3:
                X, Y = XY, Z
            else:
                Y = random_subspace(r, 3, 1)
        route1 = cylinder_contains(body, X, Y, tol=1e-7)
        route3 = is_contracting(body, X, Y, tol=1e-7).holds
        assert route1 == route3, (i, kind)
        agreements += 1
        holds += int(route3)
    assert holds > 0 and holds < agreements
    print(
        f"\nPASS criterion 5: both cylindricity routes agree on 200/200 triples "
        f"at 1e-7 ({holds} contracting, {200 - holds} not)"
    )


def test_criterion_06_gauge_axioms():
    r = rng(106)
    A = r.normal(size=(3, 3)) + 2.0 * np.eye(3)
    families = {
        "ellipsoid": Ellipsoid(random_spd(r, 3, cond=8.0)),
        "polytope": random_polytope(r, 3, 10),
        "pball": PBall(4.0, A),
        "cylinder": disk_cylinder(),
        "linear_image": LinearImage(A, Ellipsoid(np.eye(3))),
        "intersection": Intersection(
            [Ellipsoid(np.eye(3) / 1.6), random_polytope(r, 3, 12)]
        ),
    }
    worst_hom, worst_sub = 0.0, 0.0
    for name, body in families.items():
        V = r.normal(size=(10000, 3))
        W = r.normal(size=(10000, 3))
        t = np.exp(r.uniform(-3, 3, size=10000))
        gv, gw = body.gauge_many(V), body.gauge_many(W)
        hom = np.max(
            np.abs(body.gauge_many(V * t[:, None]) - t * gv) / (t * np.maximum(1.0, gv))
        )
        sub = np.max(body.gauge_many(V + W) - (gv + gw))
        assert hom <= 1e-12, name
        assert sub <= 1e-9, name
        worst_hom, worst_sub = max(worst_hom, hom), max(worst_sub, sub)

    poly = random_polytope(r, 3, 12)
    pts = r.normal(size=(200, 3))
    lp = np.array([lp_gauge(poly.vertices, v) for v in pts])
    facet = poly.gauge_many(pts)
    lp_err = np.abs(lp - facet).max()
    assert lp_err <= 1e-9
    print(
        f"\nPASS criterion 6: gauge axioms on 6 families x 1e4 samples "
        f"(homogeneity {worst_hom:.2e} <= 1e-12, subadditivity {worst_sub:.2e} <= 1e-9), "
        f"LP vs facet oracle {lp_err:.2e} <= 1e-9"
    )


def test_criterion_07_quadform_assembly():
    r = rng(107)
    worst = 0.0
    for _ in range(100):
        n = int(r.integers(2, 6))
        Q = random_spd(r, n, cond=10.0)
        V = r.normal(size=(n, n)) + 2.0 * np.eye(n)
        form = assemble_form(lambda P: np.einsum("mi,ij,mj->m", P, Q, P), V)
        target = V.T @ Q @ V
        err = np.abs(form.coeffs - target).max() / np.abs(target).max()
        assert err <= 1e-10
        worst = max(worst, err)

    worst3 = 0.0
    for _ in range(25):
        Q = random_spd(r, 2, cond=10.0)
        F = lambda P: np.einsum("mi,ij,mj->m", P, Q, P)
        three = assemble_form(F, np.eye(2)).ambient_coeffs
        ang = np.linspace(0.0, np.pi, 128, endpoint=False)
        U = np.column_stack([np.cos(ang), np.sin(ang)])
        cols = np.column_stack([U[:, 0] ** 2, 2 * U[:, 0] * U[:, 1], U[:, 1] ** 2])
        target = np.einsum("mi,ij,mj->m", U, Q, U)
        a, b, c = np.linalg.lstsq(cols, target, rcond=None)[0]
        err = np.abs(three - np.array([[a, b], [b, c]])).max()
        assert err <= 1e-10
        worst3 = max(worst3, err)
    print(
        f"\nPASS criterion 7: assemble_form vs congruence on 100 pairs "
        f"({worst:.2e} <= 1e-10), three-line vs dense fit ({worst3:.2e} <= 1e-10)"
    )


def test_criterion_08_tangent_field_dichotomy():
    r = rng(108)
    worst = 0.0
    for _ in range(50):
        body = Ellipsoid(random_spd(r, 2, cond=20.0))
        W, resid = tangent_field_fit(section_samples(body, FULL2, 64))
        assert W is not None and resid <= 1e-8
        worst = max(worst, resid)

    square = Polytope([[1, 1], [1, -1], [-1, -1], [-1, 1]])
    ang = np.arange(6) * np.pi / 3.0
    hexagon = Polytope(np.column_stack([np.cos(ang), np.sin(ang)]))
    rejected = {}
    for name, body in [("square", square), ("hexagon", hexagon)]:
        sec = section_samples(body, FULL2, 66)
        W, resid = tangent_field_fit(sec)
        assert W is None and resid >= 0.05, name
        # brute-force oracle: sigma_min over dense samples lower-bounds the
        # sup defect of every unit-norm linear field, validating the 0.05 bar
        dense = section_samples(body, FULL2, 2048)
        A = np.einsum("mi,mj->mij", dense.functionals, dense.points).reshape(-1, 4)
        oracle = np.linalg.svd(A, compute_uv=False)[-1] / np.sqrt(len(A))
        assert oracle >= 0.05, name
        rejected[name] = (resid, oracle)
    print(
        f"\nPASS criterion 8: 50 ellipses fit (worst resid {worst:.2e} <= 1e-8); "
        f"square resid {rejected['square'][0]:.3f} / oracle {rejected['square'][1]:.3f}, "
        f"hexagon resid {rejected['hexagon'][0]:.3f} / oracle {rejected['hexagon'][1]:.3f}, "
        f"all >= 0.05"
    )


def test_criterion_09_collinearity_and_duality():
    Q = np.diag([1.0, 2.0, 3.0])
    body = Ellipsoid(Q)
    r = rng(109)
    worst = 0.0
    for _ in range(100):
        u = r.normal(size=3)
        u /= np.linalg.norm(u)
        dirs = []
        for _ in range(3):
            X = Subspace.span(u, r.normal(size=3))
            res = find_contracting_direction(
                body, X, DirectionSearch(warm=(q_complement(Q, X),), first_only=True)
            )
            assert res
            dirs.append(res.found[0].direction.frame[:, 0])
        defect = np.linalg.svd(np.array(dirs), compute_uv=False)[-1]
        assert defect <= 1e-8
        worst = max(worst, defect)

    sample = phi_map(
        body, GrassmannChart(XY, 0.25), grid=3,
        hints=lambda X: [q_complement(Q, X)], count_multiplicity=False,
    )
    dual = fit_projective_dual(body, sample)
    dual_err = np.abs(dual.F / np.linalg.norm(dual.F) - Q / np.linalg.norm(Q)).max()
    assert dual_err <= 1e-6
    support = support_check(body, dual)
    assert support <= 1e-9
    print(
        f"\nPASS criterion 9: coplanarity defect on 100 triples {worst:.2e} <= 1e-8, "
        f"dual fit err {dual_err:.2e} <= 1e-6, support check {support:.2e} <= 1e-9"
    )


def test_criterion_10_banach_pipeline():
    ell = Ellipsoid(np.diag([1.0, 2.0, 3.0]))
    region = GrassmannChart(XY, 0.2)
    rep = banach_classify(ell, region)
    assert rep.verdict == "Ellipsoid" == classify(ell, region).verdict
    worst_e = rep.diagnostics["banach_worst_residual"]
    assert worst_e <= 1e-6

    box = box_prism()
    region_b = GrassmannChart(XY, 0.3)
    opts = ClassifyOptions(grid_per_axis=5)
    rep = banach_classify(box, region_b, opts=opts)
    assert rep.verdict == "Cylinder" == classify(box, region_b, opts=opts).verdict
    worst_b = rep.diagnostics["banach_worst_residual"]
    assert worst_b <= 1e-6

    cube = Polytope(
        np.array(
            [[x, y, w] for x in (-0.8, 0.8) for y in (-0.8, 0.8) for w in (-0.8, 0.8)],
            dtype=float,
        )
    )
    mixed = Intersection([Ellipsoid(np.eye(3)), cube])
    with pytest.raises(HypothesisFailed) as info:
        banach_classify(mixed, GrassmannChart(XY, 0.35))
    assert info.value.pair[0].dim == 2 and info.value.residual > 1e-3

    r = rng(110)
    pts6 = r.normal(size=(6, 2))
    design = np.array([[x * y, -x * x, y * y] for x, y in pts6])
    worst_id = 0.0
    for _ in range(1000):
        E = r.normal(size=(2, 2, 2))
        E[:, 1, 1] = -E[:, 0, 0]
        R = RTensor(E)
        p = r.normal(size=2)
        direct = R.matrix(np.array([p[1], -p[0]])) @ p
        err = np.abs(quadratic_field(R, p) - direct).max()
        scale = max(1.0, np.abs(E).max() * (p @ p))
        assert err <= 1e-12 * scale
        worst_id = max(worst_id, err / scale)
        # rigidity: the field's 6-point interpolation determines the tensor,
        # so the zero field forces the zero tensor
        values = np.array([quadratic_field(R, q) for q in pts6])
        sol, *_ = np.linalg.lstsq(design, values, rcond=None)
        D, R21, R12 = sol
        back = np.zeros((2, 2, 2))
        back[0, 1], back[1, 0] = R12, R21
        back[0, 0] = [-R12[1], D[1] - R21[0]]
        back[1, 1] = [-R12[1] - D[0], -R21[0]]
        assert np.abs(back - E).max() <= 1e-9
    zero_sol, *_ = np.linalg.lstsq(design, np.zeros((6, 2)), rcond=None)
    assert np.all(zero_sol == 0.0)
    print(
        f"\nPASS criterion 10: banach grids ellipsoid {worst_e:.2e} / box {worst_b:.2e} "
        f"<= 1e-6 with matching verdicts, mixed fixture raises HypothesisFailed, "
        f"identity+rigidity on 1000 instances (worst {worst_id:.2e})"
    )


GOLDEN = Path(__file__).resolve().parent / "golden"
CLI_RUNS = [
    ["classify", "ellipsoid.json", "region_xy.json"],
    ["classify", "box.json", "region_xy.json"],
    ["classify", "pball.json", "region_tilted.json"],
    ["classify", "cylinder.json", "region_xy.json"],
    ["classify", "sheared.json", "region_xy.json"],
    ["classify", "mixed.json", "region_mixed.json"],
    ["banach", "ellipsoid.json", "region_xy.json"],
    ["banach", "mixed.json", "region_mixed.json"],
    ["contract", "box.json", "plane_xy.json", "direction_z.json"],
    ["contract", "box.json", "plane_xy.json"],
    ["section", "ellipsoid.json", "plane_xy.json"],
    ["section", "box.json", "plane_xy.json"],
]
_SVG_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


def golden_name(argv):
    return "_".join([argv[0]] + [Path(a).stem for a in argv[1:]])


def golden_view(doc):
    """The report without the fields that name the checkout's file paths."""
    doc = json.loads(json.dumps(doc))
    for key in ("body", "region", "plane", "direction"):
        doc["config_echo"].pop(key, None)
    doc["witness"].pop("svg", None)
    return doc


def assert_matches_golden(got, want, where):
    """Exact for strings, ints, bools and structure; floats to 1e-9 relative."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches_golden(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert type(got) is float, (where, got, want)
        assert abs(got - want) <= 1e-9 * max(abs(got), abs(want)) + 1e-12, (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def assert_svg_matches_golden(got, want, where):
    """Same markup; coordinates within their printed resolution of 1e-3."""
    assert _SVG_NUMBER.split(got) == _SVG_NUMBER.split(want), where
    a = np.array(_SVG_NUMBER.findall(got), dtype=float)
    b = np.array(_SVG_NUMBER.findall(want), dtype=float)
    assert np.abs(a - b).max() <= 1e-3 + 1e-9, where


def test_criterion_11_cli_determinism(tmp_path):
    report, svg = tmp_path / "report.json", tmp_path / "out.svg"
    for argv in CLI_RUNS:
        cmd = [argv[0]] + [str(FIX / a) for a in argv[1:]]
        if cmd[0] in ("classify", "banach"):
            cmd += ["--grid", "3"]
        cmd += ["--seed", "0", "--report", str(report)]
        if cmd[0] == "section":
            cmd += ["--svg", str(svg)]
        blobs = []
        for _ in range(2):
            code = main(list(cmd))
            assert code in (0, 2), argv
            blob = report.read_bytes()
            if cmd[0] == "section":
                blob += svg.read_bytes()
            blobs.append(blob)
            if len(blobs) == 1:
                # the first run also matches the committed golden report
                name = golden_name(argv)
                want = json.loads((GOLDEN / f"{name}.json").read_text())
                got = golden_view(json.loads(report.read_text()))
                assert_matches_golden(got, want, name)
                if cmd[0] == "section":
                    want_svg = (GOLDEN / f"{name}.svg").read_text()
                    assert_svg_matches_golden(svg.read_text(), want_svg, name)
        assert blobs[0] == blobs[1], argv
        json.loads(report.read_text())
    print(
        f"\nPASS criterion 11: byte-identical reports on two consecutive runs "
        f"for {len(CLI_RUNS)} fixture commands, each matching its golden"
    )


def test_timings_count_the_work(tmp_path, monkeypatch):
    """Every timings entry equals the calls of the function it counts."""
    import kkit
    from kkit import banach, bodies, classifier, cli, contracting, quadform

    keys = {
        contracting.is_contracting: "certificates",
        contracting.find_contracting_direction: "direction_searches",
        banach.max_inscribed_ellipsoid: "inscribed_solves",
        quadform.fit_section_quadric: "quadric_fits",
        bodies.section_samples: "sections_sampled",
    }
    calls = {}

    def wrap(fn, key):
        def counted(*args, **kwargs):
            calls[key] += 1
            # each search of classify's own sweep is one swept plane
            if key == "direction_searches" and sys._getframe(1).f_code.co_name == "_classify":
                calls["planes_swept"] += 1
            return fn(*args, **kwargs)

        return counted

    wrappers = {id(fn): wrap(fn, key) for fn, key in keys.items()}
    for mod in (kkit, banach, bodies, classifier, cli, contracting, quadform):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                monkeypatch.setattr(mod, attr, wrappers[id(obj)])

    report = tmp_path / "report.json"
    for argv in CLI_RUNS:
        cmd = [argv[0]] + [str(FIX / a) for a in argv[1:]]
        if cmd[0] in ("classify", "banach"):
            cmd += ["--grid", "3"]
        calls.update(dict.fromkeys(COUNTERS, 0))
        main(cmd + ["--report", str(report), "--svg", str(tmp_path / "out.svg")])
        assert json.loads(report.read_text())["timings"] == calls, argv

    # n = 4, k = 2: the restriction slices run classify in nested scopes
    r = np.random.default_rng(9)
    Q = random_spd(r, 4, cond=10.0)
    region = GrassmannChart(random_subspace(r, 4, 2), 0.15)
    calls.update(dict.fromkeys(COUNTERS, 0))
    rep = classify(Ellipsoid(Q), region, opts=ClassifyOptions(grid_per_axis=2))
    assert rep.diagnostics["restriction_verdicts"] == ["Ellipsoid", "Ellipsoid"]
    assert rep.counters == calls and calls["planes_swept"] > 16
