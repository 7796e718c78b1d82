"""The benchmark's workloads: seeded inputs, one call per instance, output checks.

A workload is a sequence of passes.  Pass ``p`` of seed ``S`` is built from
``numpy.random.default_rng([S, p])`` (or, for the fixture workloads, runs with
kkit seed ``S + p``), so the same seed always gives the same inputs and no two
passes of a run are the same.  Each instance is a zero-argument callable returning an
``Outcome``: a canonical fingerprint of the verdict and witness (compared
between traced and untraced runs), the report's ``timings`` counters, and the
reason the output check failed, or ``None``.

kkit is always reached through module attributes at call time
(``kkit.classify``, ``kkit.cli.main``), so the tracer's wrappers see the calls.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import kkit
import kkit.cli
import kkit.errors

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

FORM_RTOL = 1e-6  # Ellipsoid form against the generating Q, relative
GENERATRIX_RAD = 1e-6  # Cylinder generatrix against z, radians
MIN_VIOLATION = 1e-3  # NonKakutani violation and HypothesisFailed residual
BANACH_RESIDUAL = 1e-6  # banach_worst_residual on an equivalent pair
CONTRACT_TOL = 1e-7  # the CLI's default contract tolerance

# ellipsoid_sweep draws one instance per (n, k) class per pass, so every pass
# costs about the same; the classes cover criterion 1's n in 3..5, k in 2..n-1.
ELLIPSOID_CLASSES = ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4))

# The non-banach commands of the CLI determinism criterion, with the check each
# report must pass.
CLI_COMMANDS = (
    ("classify", "ellipsoid.json", "region_xy.json"),
    ("classify", "box.json", "region_xy.json"),
    ("classify", "pball.json", "region_tilted.json"),
    ("classify", "cylinder.json", "region_xy.json"),
    ("classify", "sheared.json", "region_xy.json"),
    ("classify", "mixed.json", "region_mixed.json"),
    ("contract", "box.json", "plane_xy.json", "direction_z.json"),
    ("contract", "box.json", "plane_xy.json"),
    ("section", "ellipsoid.json", "plane_xy.json"),
    ("section", "box.json", "plane_xy.json"),
)

BANACH_PAIRS = (
    ("ellipsoid.json", "region_xy.json"),
    ("mixed.json", "region_mixed.json"),
)


@dataclass
class Outcome:
    fingerprint: str
    timings: dict
    error: str = None


@dataclass
class Instance:
    kind: str
    run: object  # () -> Outcome


# ------------------------------------------------------------------ checks


def random_spd(r, n, cond=10.0, scale=1.0):
    """Random SPD matrix with condition number at most cond.

    The criterion-1 generator of the test suite, repeated here so that the
    benchmark does not import the tests.
    """
    Q, _ = np.linalg.qr(r.normal(size=(n, n)))
    lo, hi = 1.0 / np.sqrt(cond), np.sqrt(cond)
    w = np.exp(r.uniform(np.log(lo), np.log(hi), size=n))
    return scale * (Q * w) @ Q.T


def _reject_constant(token):
    raise ValueError(f"report is not strict JSON: {token}")


def strict_json(text):
    """Parse a report, rejecting NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def fingerprint(doc):
    # allow_nan: the fingerprint only has to compare equal, not be strict JSON
    return json.dumps(doc, sort_keys=True, allow_nan=True)


def form_error(form, Q):
    Q = np.asarray(Q, dtype=float)
    return float(np.linalg.norm(np.asarray(form, dtype=float) - Q) / np.linalg.norm(Q))


def z_angle(frame):
    """Angle in radians between a line (3x1 frame) and the z axis."""
    g = np.asarray(frame, dtype=float).reshape(-1)
    return float(math.atan2(np.linalg.norm(g[:2]), abs(g[2])))


def check_ellipsoid(doc, Q):
    if doc["verdict"] != "Ellipsoid":
        return f"verdict {doc['verdict']}, expected Ellipsoid"
    err = form_error(doc["witness"]["form"], Q)
    if not err <= FORM_RTOL:
        return f"form error {err:.3e} > {FORM_RTOL:g}"
    return None


def check_cylinder_z(doc):
    if doc["verdict"] != "Cylinder":
        return f"verdict {doc['verdict']}, expected Cylinder"
    ang = z_angle(doc["witness"]["generatrix"])
    if not ang <= GENERATRIX_RAD:
        return f"generatrix {ang:.3e} rad from z"
    return None


def check_nonkakutani(doc):
    if doc["verdict"] != "NonKakutani":
        return f"verdict {doc['verdict']}, expected NonKakutani"
    v = doc["witness"]["violation"]
    if not (math.isfinite(v) and v >= MIN_VIOLATION):
        return f"violation {v!r} not finite and >= {MIN_VIOLATION:g}"
    return None


# ----------------------------------------------------------- ellipsoid_sweep


def _ellipsoid_instance(n, k, r):
    Q = random_spd(r, n, cond=float(r.uniform(2.0, 50.0)))
    region = kkit.GrassmannChart(kkit.random_subspace(r, n, k), 0.1)
    body = kkit.Ellipsoid(Q)

    def run():
        doc = kkit.classify(body, region).to_dict()
        return Outcome(fingerprint(doc), doc["timings"], check_ellipsoid(doc, Q))

    return Instance(f"ellipsoid_n{n}k{k}", run)


def ellipsoid_pass(seed, p, workdir):
    r = np.random.default_rng([seed, p])
    return [_ellipsoid_instance(n, k, r) for n, k in ELLIPSOID_CLASSES]


# -------------------------------------------------------------- fixture_cli


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


def _cli_check(argv):
    """Check for one CLI command, given its parsed report and exit code."""
    cmd, body = argv[0], argv[1]
    if cmd == "classify":
        if body == "ellipsoid.json":
            Q = _fixture(body)["Q"]
            return 0, lambda doc: check_ellipsoid(doc, Q)
        if body == "sheared.json":
            spec = _fixture(body)
            Ainv = np.linalg.inv(np.asarray(spec["A"], dtype=float))
            Q = Ainv.T @ np.asarray(spec["inner"]["Q"], dtype=float) @ Ainv
            return 0, lambda doc: check_ellipsoid(doc, Q)
        if body in ("box.json", "cylinder.json"):
            return 0, check_cylinder_z
        return 2, check_nonkakutani
    if cmd == "contract":
        if len(argv) == 4:
            def check(doc):
                if doc["verdict"] != "Contracting":
                    return f"verdict {doc['verdict']}, expected Contracting"
                v = doc["witness"]["violation"]
                return None if v <= CONTRACT_TOL else f"violation {v:.3e}"
            return 0, check

        def check(doc):
            if doc["verdict"] != "Contracting":
                return f"verdict {doc['verdict']}, expected Contracting"
            angs = [z_angle(d) for d in doc["witness"]["directions"]]
            if not angs or min(angs) > GENERATRIX_RAD:
                return f"no certified direction within {GENERATRIX_RAD:g} rad of z"
            return None
        return 0, check
    # section plots: the ellipsoid's section is the quadric Q restricted to
    # the xy plane; the box's square section fits no quadric
    if body == "ellipsoid.json":
        Qxy = np.asarray(_fixture(body)["Q"], dtype=float)[:2, :2]

        def check(doc):
            quad = doc["witness"]["quadric"]
            if quad is None:
                return "no quadric fitted to an ellipse"
            err = form_error(quad, Qxy)
            return None if err <= FORM_RTOL else f"quadric error {err:.3e}"
        return 0, check

    def check(doc):
        if doc["witness"]["quadric"] is not None:
            return "quadric fitted to a square"
        r = doc["witness"]["residual"]
        return None if r > MIN_VIOLATION else f"square residual {r:.3e}"
    return 0, check


def _cli_instance(argv, seed, workdir, expect_code, check):
    report, svg = workdir / "report.json", workdir / "out.svg"
    cmd = [argv[0]] + [str(FIXTURES / a) for a in argv[1:]]
    if argv[0] == "classify":
        cmd += ["--grid", "3"]
    cmd += ["--seed", str(seed), "--report", str(report)]
    if argv[0] == "section":
        cmd += ["--svg", str(svg)]

    def run():
        for stale in (report, svg):
            stale.unlink(missing_ok=True)
        code = kkit.cli.main(list(cmd))
        text = report.read_text()
        blob = text + (svg.read_text() if argv[0] == "section" else "")
        try:
            doc = strict_json(text)
        except ValueError as exc:
            return Outcome(blob, {}, str(exc))
        error = None
        if code != expect_code:
            error = f"exit code {code}, expected {expect_code}"
        elif argv[0] == "section" and not svg.read_text().startswith("<svg"):
            error = "no SVG written"
        else:
            error = check(doc)
        return Outcome(blob, doc.get("timings", {}), error)

    return Instance(f"cli_{argv[0]}_{Path(argv[1]).stem}_{len(argv)}", run)


def fixture_cli_pass(seed, p, workdir):
    out = []
    for argv in CLI_COMMANDS:
        code, check = _cli_check(argv)
        out.append(_cli_instance(argv, seed + p, workdir, code, check))
    return out


# ------------------------------------------------------------- banach_pairs


def _banach_instance(body_file, region_file, seed):
    body = kkit.cli.load_body(FIXTURES / body_file)
    region = kkit.cli.load_region(FIXTURES / region_file)
    opts = kkit.ClassifyOptions(grid_per_axis=3, seed=seed)
    expect_equivalent = body_file == "ellipsoid.json"
    Q = _fixture(body_file).get("Q")

    def run():
        try:
            doc = kkit.banach_classify(body, region, opts=opts).to_dict()
        except kkit.errors.HypothesisFailed as exc:
            doc = {
                "verdict": "HypothesisFailed",
                "pair": [exc.pair[0].frame.tolist(), exc.pair[1].frame.tolist()],
                "residual": float(exc.residual),
            }
            error = None
            if expect_equivalent:
                error = f"HypothesisFailed on an ellipsoid (residual {exc.residual:.3e})"
            elif not exc.residual > MIN_VIOLATION:
                error = f"residual {exc.residual:.3e} <= {MIN_VIOLATION:g}"
            return Outcome(fingerprint(doc), {}, error)
        if not expect_equivalent:
            return Outcome(fingerprint(doc), doc["timings"], f"verdict {doc['verdict']}")
        error = check_ellipsoid(doc, Q)
        worst = doc["diagnostics"]["banach_worst_residual"]
        if error is None and not worst <= BANACH_RESIDUAL:
            error = f"banach_worst_residual {worst:.3e} > {BANACH_RESIDUAL:g}"
        return Outcome(fingerprint(doc), doc["timings"], error)

    return Instance(f"banach_{Path(body_file).stem}", run)


def banach_pass(seed, p, workdir):
    return [_banach_instance(b, r, seed + p) for b, r in BANACH_PAIRS]


WORKLOADS = {
    "ellipsoid_sweep": ellipsoid_pass,
    "fixture_cli": fixture_cli_pass,
    "banach_pairs": banach_pass,
}
