"""Command line front end: body/region files, classification, reports, SVG.

Body and region descriptions are JSON documents (schemas in docs/schemas.md);
all matrices are row-major nested lists, and the frames of input files and
reports are lists of column vectors.  Each command loads its inputs and
returns a ClassificationReport; main alone counts the work, echoes the parsed
arguments, writes the report {verdict, witness, diagnostics, timings,
config_echo} with sorted keys (a fixed seed yields byte-identical output) and
sets the exit code: 0 for a verdict in POSITIVE, 2 for a certified negative
(NonKakutani, HypothesisFailed, NotContracting), 1 for errors.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .banach import banach_classify
from .bodies import (
    Body,
    Cylinder,
    Ellipsoid,
    Intersection,
    LinearImage,
    PBall,
    Polytope,
    section_samples,
)
from .classifier import ClassificationReport, ClassifyOptions, classify
from .contracting import DEFAULT_TOL, find_contracting_direction, is_contracting
from .errors import HypothesisFailed, KkitError
from .linalg import GrassmannChart, Subspace
from .quadform import fit_section_quadric
from .tally import counting

SVG_SIZE = 800
SVG_MARGIN = 48
SVG_SEGMENTS = 512
# Verdicts that exit 0; every other report exits 2.
POSITIVE = ("Ellipsoid", "Cylinder", "Contracting", "SectionPlotted")


class CliError(Exception):
    """Bad input surfaced to the user; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    # argument errors reach main as CliError, so they exit 1 like any bad input
    def error(self, message):
        raise CliError(message)


# ------------------------------------------------------------------ file I/O


def _load_json(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _array(obj, where, ndim=2):
    """obj as a float matrix, or a number at ndim = 0, or either at None."""
    try:
        M = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{where}: not a number or an array of numbers") from exc
    # null reads as NaN, which is no number either
    if np.isnan(M).any():
        raise CliError(f"{where}: not a number or an array of numbers")
    if ndim is not None and M.ndim != ndim:
        kind = "a number" if ndim == 0 else "a matrix"
        raise CliError(f"{where}: expected {kind}, got shape {M.shape}")
    return M

def _subspace(obj, where):
    # frames are stored as lists of column vectors
    return Subspace(_array(obj, where).T)


def body_from_dict(obj, where="body") -> Body:
    if not isinstance(obj, dict) or "type" not in obj:
        raise CliError(f"{where}: expected an object with a 'type' field")

    def need(key):
        if key not in obj:
            raise CliError(f"{where}: '{obj['type']}' requires field '{key}'")
        return obj[key]

    kind = obj["type"]
    if kind == "ellipsoid":
        return Ellipsoid(_array(need("Q"), f"{where}.Q"))
    if kind == "polytope":
        return Polytope(_array(need("vertices"), f"{where}.vertices"))
    if kind == "pball":
        return PBall(float(_array(need("p"), f"{where}.p", 0)), _array(need("A"), f"{where}.A"))
    if kind == "cylinder":
        return Cylinder(
            body_from_dict(need("base"), f"{where}.base"),
            _subspace(need("plane"), f"{where}.plane"),
            _subspace(need("generatrix"), f"{where}.generatrix"),
        )
    if kind == "linear_image":
        return LinearImage(
            _array(need("A"), f"{where}.A"),
            body_from_dict(need("inner"), f"{where}.inner"),
        )
    if kind == "intersection":
        members = need("members")
        if not isinstance(members, list) or not members:
            raise CliError(f"{where}.members: expected a non-empty list")
        return Intersection(
            [body_from_dict(m, f"{where}.members[{i}]") for i, m in enumerate(members)]
        )
    raise CliError(f"{where}: unknown body type {kind!r}")


def body_to_dict(body: Body) -> dict:
    """Inverse of body_from_dict; gauges must round-trip."""
    if isinstance(body, Ellipsoid):
        return {"type": "ellipsoid", "Q": body.Q.tolist()}
    if isinstance(body, Polytope):
        return {"type": "polytope", "vertices": body.vertices.tolist()}
    if isinstance(body, PBall):
        return {"type": "pball", "p": body.p, "A": body.A.tolist()}
    if isinstance(body, Cylinder):
        return {
            "type": "cylinder",
            "base": body_to_dict(body.base),
            "plane": body.plane.frame.T.tolist(),
            "generatrix": body.generatrix.frame.T.tolist(),
        }
    if isinstance(body, LinearImage):
        return {"type": "linear_image", "A": body.A.tolist(), "inner": body_to_dict(body.inner)}
    if isinstance(body, Intersection):
        return {"type": "intersection", "members": [body_to_dict(m) for m in body.members]}
    raise CliError(f"cannot serialize body of type {type(body).__name__}")


def load_body(path) -> Body:
    return body_from_dict(_load_json(path), where=str(path))


def load_region(path) -> GrassmannChart:
    obj = _load_json(path)
    if not isinstance(obj, dict) or "base" not in obj:
        raise CliError(f"{path}: region files need a 'base' frame")
    base = _subspace(obj["base"], f"{path}.base")
    if not 2 <= base.dim <= base.ambient - 1:
        raise CliError(
            f"{path}.base: regions sweep k-planes with 2 <= k <= n - 1, "
            f"got k = {base.dim} in R^{base.ambient}"
        )
    hw = _array(obj.get("halfwidths", 0.2), f"{path}.halfwidths", None)
    kwargs = {}
    if "transversal" in obj:
        kwargs["transversal"] = _subspace(obj["transversal"], f"{path}.transversal")
    return GrassmannChart(base, hw, **kwargs)


def load_plane(path) -> Subspace:
    # a bare frame file, or a region file whose base plane is taken
    obj = _load_json(path)
    if isinstance(obj, dict) and "frame" in obj:
        return _subspace(obj["frame"], f"{path}.frame")
    if isinstance(obj, dict) and "base" in obj:
        return _subspace(obj["base"], f"{path}.base")
    raise CliError(f"{path}: plane files need a 'frame' (or region 'base') field")


def _load(args, load_space, *paths):
    """A command's body and the regions or planes in its other input files
    (None for an empty path), refused unless all lie in the body's space."""
    body = load_body(args.body)
    spaces = [load_space(path) if path else None for path in paths]
    for path, space in zip(paths, spaces):
        if space is None:
            continue
        n = (space.base if isinstance(space, GrassmannChart) else space).ambient
        if n != body.dim:
            raise CliError(f"{path}: lies in R^{n}, but the body {args.body} lies in R^{body.dim}")
    return [body] + spaces


# ----------------------------------------------------------------- run plumbing


def _options(args) -> ClassifyOptions:
    kw = {"seed": args.seed}
    if args.tol is not None:
        kw["tol"] = args.tol
    if args.grid is not None:
        kw["grid_per_axis"] = args.grid
    return ClassifyOptions(**kw)


def write_report(doc: dict, path) -> None:
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise CliError(f"report is not strict JSON: {exc}") from exc
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------------- commands


def cmd_classify(args) -> ClassificationReport:
    body, region = _load(args, load_region, args.region)
    return classify(body, region, opts=_options(args))


def cmd_banach(args) -> ClassificationReport:
    body, region = _load(args, load_region, args.region)
    if region.base.dim not in (2, 3):
        raise CliError(f"{args.region}.base: banach needs k = 2 or 3, got k = {region.base.dim}")
    kw = {"tol": args.tol} if args.tol is not None else {}
    try:
        return banach_classify(body, region, opts=_options(args), **kw)
    except HypothesisFailed as exc:
        return ClassificationReport(
            "HypothesisFailed", {"pair": exc.pair, "residual": exc.residual}, {}
        )


def cmd_contract(args) -> ClassificationReport:
    body, X, Y = _load(args, load_plane, args.plane, args.direction)
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    if Y is not None:
        cert = is_contracting(body, X, Y, tol=tol)
        verdict = "Contracting" if cert.holds else "NotContracting"
        witness = {"direction": Y, "plane": X, "violation": cert.violation}
    else:
        res = find_contracting_direction(body, X, tol)
        verdict = "Contracting" if res else "NotContracting"
        witness = {
            "best_violation": res.best_violation,
            "directions": res.directions,
            "plane": X,
        }
    return ClassificationReport(verdict, witness, {"tol": tol})


def _svg_path(points, transform) -> str:
    xy = transform(points)
    parts = [f"{'M' if i == 0 else 'L'} {x:.3f} {y:.3f}" for i, (x, y) in enumerate(xy)]
    return " ".join(parts) + " Z"


def render_section_svg(points, overlay=None) -> str:
    """Fixed 800x800 view of a closed planar curve, optional quadric overlay."""
    stack = points if overlay is None else np.vstack([points, overlay])
    lo, hi = stack.min(axis=0), stack.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    scale = (SVG_SIZE - 2 * SVG_MARGIN) / span
    mid = 0.5 * (lo + hi)

    def transform(P):
        # y flips so the plane's second frame axis points up
        Q = (P - mid) * scale
        return np.column_stack([Q[:, 0] + SVG_SIZE / 2, SVG_SIZE / 2 - Q[:, 1]])

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
        f'<path d="{_svg_path(points, transform)}" fill="none" '
        f'stroke="#1f77b4" stroke-width="2"/>',
    ]
    if overlay is not None:
        lines.append(
            f'<path d="{_svg_path(overlay, transform)}" fill="none" '
            f'stroke="#d62728" stroke-width="1.5" stroke-dasharray="6 4"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_section(args) -> ClassificationReport:
    body, X = _load(args, load_plane, args.plane)
    if X.dim != 2:
        raise CliError("section plots need a 2-dimensional plane")
    sample = section_samples(body, X, SVG_SEGMENTS)
    form, resid = fit_section_quadric(body, X)
    overlay = None
    if form is not None:
        # boundary of {p.Cp <= 1} traced at the same angular resolution
        u = sample.points / np.linalg.norm(sample.points, axis=1)[:, None]
        g = np.sqrt(np.sum((u @ form.coeffs) * u, axis=1))
        overlay = u / g[:, None]
    out = args.svg or "section.svg"
    try:
        Path(out).write_text(render_section_svg(sample.points, overlay))
    except OSError as exc:
        raise CliError(f"{out}: {exc.strerror or exc}") from exc
    witness = {
        "quadric": None if form is None else form.coeffs,
        "residual": resid,
        "svg": out,
    }
    return ClassificationReport("SectionPlotted", witness, {"segments": SVG_SEGMENTS})


# --------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="verdict tolerance")
    common.add_argument("--grid", type=int, default=None, help="sweep grid per axis")
    common.add_argument("--seed", type=int, default=0, help="RNG seed")
    common.add_argument("--report", default=None, help="report path (default stdout)")
    common.add_argument("--svg", default=None, help="SVG output path")

    parser = _Parser(
        prog="kkit",
        description="Classify convex bodies from plane sections: "
        "ellipsoid, cylinder, or neither.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="sweep a region of planes")
    p.add_argument("body")
    p.add_argument("region")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "banach", parents=[common],
        help="verify pairwise section equivalence, then classify",
    )
    p.add_argument("body")
    p.add_argument("region")
    p.set_defaults(func=cmd_banach)

    p = sub.add_parser(
        "contract", parents=[common],
        help="certify a contracting projection direction for one plane",
    )
    p.add_argument("body")
    p.add_argument("plane")
    p.add_argument("direction", nargs="?", default="")
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("section", parents=[common], help="plot a planar section")
    p.add_argument("body")
    p.add_argument("plane")
    p.set_defaults(func=cmd_section)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # every command's flags are checked before any input is loaded
        if args.tol is not None and not 0.0 < args.tol < np.inf:
            raise CliError(f"--tol must be positive and finite, got {args.tol}")
        if args.grid is not None and args.grid < 1:
            raise CliError(f"--grid must be at least 1, got {args.grid}")
        if args.seed < 0:
            raise CliError(f"--seed must be at least 0, got {args.seed}")
        with counting() as counts:
            report = args.func(args)
        report.counters = counts
        doc = report.to_dict()
        doc["config_echo"] = {
            k: v for k, v in vars(args).items() if k not in ("func", "report", "svg")
        }
        write_report(doc, args.report)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0 if report.verdict in POSITIVE else 2


if __name__ == "__main__":
    sys.exit(main())
