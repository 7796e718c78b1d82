"""Command line front end: body/region files, classification, reports, SVG.

Body and region descriptions are JSON documents (schemas in docs/schemas.md);
all matrices are row-major nested lists and subspace frames are lists of
column vectors.  Reports share one top-level shape {verdict, witness,
diagnostics, timings, config_echo} and are serialized with sorted keys so a
fixed seed yields byte-identical output.  Exit codes: 0 for a positive
verdict (Ellipsoid/Cylinder/Contracting/plot written), 2 for a certified
negative (NonKakutani, HypothesisFailed, NotContracting), 1 for errors.
"""

import argparse
import json
import os
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
from .classifier import ClassifyOptions, classify
from .contracting import DirectionSearch, find_contracting_direction, is_contracting
from .errors import HypothesisFailed, KkitError
from .linalg import GrassmannChart, Subspace
from .quadform import fit_section_quadric
from .tally import counting

SVG_SIZE = 800
SVG_MARGIN = 48
SVG_SEGMENTS = 512


class CliError(Exception):
    """Bad input surfaced to the user; exits with status 1."""


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


def _matrix(obj, where):
    try:
        M = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{where}: not a numeric array") from exc
    if M.ndim != 2:
        raise CliError(f"{where}: expected a matrix, got shape {M.shape}")
    return M

def _subspace(obj, where):
    # frames are stored as lists of column vectors
    return Subspace(_matrix(obj, where).T)


def _frame_cols(sub: Subspace):
    return [[float(x) for x in col] for col in sub.frame.T]


def body_from_dict(obj, where="body") -> Body:
    if not isinstance(obj, dict) or "type" not in obj:
        raise CliError(f"{where}: expected an object with a 'type' field")

    def need(key):
        if key not in obj:
            raise CliError(f"{where}: '{obj['type']}' requires field '{key}'")
        return obj[key]

    kind = obj["type"]
    if kind == "ellipsoid":
        return Ellipsoid(_matrix(need("Q"), f"{where}.Q"))
    if kind == "polytope":
        return Polytope(_matrix(need("vertices"), f"{where}.vertices"))
    if kind == "pball":
        return PBall(float(need("p")), _matrix(need("A"), f"{where}.A"))
    if kind == "cylinder":
        return Cylinder(
            body_from_dict(need("base"), f"{where}.base"),
            _subspace(need("plane"), f"{where}.plane"),
            _subspace(need("generatrix"), f"{where}.generatrix"),
        )
    if kind == "linear_image":
        return LinearImage(
            _matrix(need("A"), f"{where}.A"),
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
            "plane": _frame_cols(body.plane),
            "generatrix": _frame_cols(body.generatrix),
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
    hw = obj.get("halfwidths", 0.2)
    hw = np.asarray(hw, dtype=float) if isinstance(hw, list) else float(hw)
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


# ----------------------------------------------------------------- run plumbing


def _thread_count(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("KKIT_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError as exc:
        raise CliError(f"KKIT_THREADS={env!r} is not an integer") from exc


def _options(args) -> ClassifyOptions:
    kw = {"seed": args.seed}
    if args.tol is not None:
        kw["tol"] = args.tol
    if args.grid is not None:
        kw["grid_per_axis"] = args.grid
    return ClassifyOptions(**kw)


def _config_echo(args, **paths) -> dict:
    return {
        "command": args.command,
        "grid": args.grid,
        "seed": args.seed,
        "threads": _thread_count(args),
        "tol": args.tol,
        **{k: str(v) for k, v in paths.items()},
    }


def write_report(doc: dict, path) -> None:
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise CliError(f"report is not strict JSON: {exc}") from exc
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _verdict_exit(verdict: str) -> int:
    return 0 if verdict in ("Ellipsoid", "Cylinder") else 2


# ------------------------------------------------------------------- commands


def cmd_classify(args) -> int:
    body = load_body(args.body)
    region = load_region(args.region)
    echo = _config_echo(args, body=args.body, region=args.region)
    doc = classify(body, region, opts=_options(args)).to_dict()
    doc["config_echo"] = echo
    write_report(doc, args.report)
    return _verdict_exit(doc["verdict"])


def cmd_banach(args) -> int:
    body = load_body(args.body)
    region = load_region(args.region)
    echo = _config_echo(args, body=args.body, region=args.region)
    kw = {"tol": args.tol} if args.tol is not None else {}
    try:
        with counting() as timings:
            doc = banach_classify(body, region, opts=_options(args), **kw).to_dict()
    except HypothesisFailed as exc:
        Xa, Xb = exc.pair
        doc = {
            "verdict": "HypothesisFailed",
            "witness": {
                "pair": [_frame_cols(Xa), _frame_cols(Xb)],
                "residual": float(exc.residual),
            },
            "diagnostics": {},
            "timings": timings,
        }
    doc["config_echo"] = echo
    write_report(doc, args.report)
    return _verdict_exit(doc["verdict"])


def cmd_contract(args) -> int:
    body = load_body(args.body)
    X = load_plane(args.plane)
    tol = args.tol if args.tol is not None else 1e-7
    echo = _config_echo(
        args, body=args.body, plane=args.plane, direction=args.direction or ""
    )
    with counting() as timings:
        if args.direction:
            Y = load_plane(args.direction)
            cert = is_contracting(body, X, Y, tol=tol)
            verdict = "Contracting" if cert.holds else "NotContracting"
            witness = {
                "direction": _frame_cols(Y),
                "plane": _frame_cols(X),
                "violation": float(cert.violation),
            }
        else:
            res = find_contracting_direction(body, X, opts=DirectionSearch(tol=tol))
            verdict = "Contracting" if res else "NotContracting"
            witness = {
                "best_violation": float(res.best_violation),
                "directions": [_frame_cols(Y) for Y in res.directions],
                "plane": _frame_cols(X),
            }
    doc = {
        "verdict": verdict,
        "witness": witness,
        "diagnostics": {"tol": tol},
        "timings": timings,
        "config_echo": echo,
    }
    write_report(doc, args.report)
    return 0 if verdict == "Contracting" else 2


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


def cmd_section(args) -> int:
    body = load_body(args.body)
    X = load_plane(args.plane)
    if X.dim != 2:
        raise CliError("section plots need a 2-dimensional plane")
    echo = _config_echo(args, body=args.body, plane=args.plane)
    with counting() as timings:
        sample = section_samples(body, X, SVG_SEGMENTS)
        form, resid = fit_section_quadric(body, X)
    overlay = None
    if form is not None:
        # boundary of {p.Cp <= 1} traced at the same angular resolution
        u = sample.points / np.linalg.norm(sample.points, axis=1)[:, None]
        g = np.sqrt(np.einsum("mi,ij,mj->m", u, form.coeffs, u))
        overlay = u / g[:, None]
    svg = render_section_svg(sample.points, overlay)
    out = args.svg or "section.svg"
    try:
        Path(out).write_text(svg)
    except OSError as exc:
        raise CliError(f"{out}: {exc.strerror or exc}") from exc
    doc = {
        "verdict": "SectionPlotted",
        "witness": {
            "quadric": None if form is None else form.coeffs.tolist(),
            "residual": float(resid),
            "svg": str(out),
        },
        "diagnostics": {"segments": SVG_SEGMENTS},
        "timings": timings,
        "config_echo": echo,
    }
    write_report(doc, args.report)
    return 0


# --------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="verdict tolerance")
    common.add_argument("--grid", type=int, default=None, help="sweep grid per axis")
    common.add_argument("--seed", type=int, default=0, help="RNG seed")
    common.add_argument(
        "--threads", type=int, default=None,
        help="accepted and echoed in config_echo; does not change the "
        "computation (falls back to KKIT_THREADS, then 1)",
    )
    common.add_argument("--report", default=None, help="report path (default stdout)")
    common.add_argument("--svg", default=None, help="SVG output path")

    parser = argparse.ArgumentParser(
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
    p.add_argument("direction", nargs="?", default=None)
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("section", parents=[common], help="plot a planar section")
    p.add_argument("body")
    p.add_argument("plane")
    p.set_defaults(func=cmd_section)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
