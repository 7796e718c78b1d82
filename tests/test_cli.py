import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kkit.classifier as classifier_module
from kkit.bodies import Cylinder, Ellipsoid, Intersection, LinearImage, PBall
from kkit.cli import (
    CliError,
    body_from_dict,
    body_to_dict,
    load_body,
    load_region,
    main,
    write_report,
)
from kkit.contracting import DEFAULT_TOL, is_contracting
from kkit.linalg import Subspace

from conftest import random_polytope, random_spd

FIX = Path(__file__).resolve().parent.parent / "fixtures"

BODY_FIXTURES = [
    "ellipsoid.json",
    "box.json",
    "pball.json",
    "cylinder.json",
    "sheared.json",
    "mixed.json",
]


def run(tmp_path, *argv):
    report = tmp_path / "report.json"
    code = main([str(a) for a in argv] + ["--report", str(report)])
    return code, json.loads(report.read_text())


def test_warm_classify_and_section_load_no_lp_hull_or_quantile(tmp_path):
    # a fresh process: conftest imports scipy.optimize into this one
    src = Path(classifier_module.__file__).resolve().parents[1]
    code = f"""
import sys
sys.path.insert(0, {str(src)!r})
import numpy as np
from kkit.bodies import Ellipsoid
from kkit.classifier import classify
from kkit.cli import main
from kkit.linalg import GrassmannChart, Subspace

def loaded(*names):
    return [m for m in names if m in sys.modules]

rep = classify(Ellipsoid(np.diag([1.0, 2.0, 3.0])), GrassmannChart(Subspace.coordinate(3, 0, 1), 0.2))
assert rep.verdict == "Ellipsoid", rep.verdict
print(loaded("scipy.optimize", "scipy.spatial"))
argv = ["section", {str(FIX / "ellipsoid.json")!r}, {str(FIX / "plane_xy.json")!r}]
argv += ["--report", {str(tmp_path / "report.json")!r}, "--svg", {str(tmp_path / "section.svg")!r}]
assert main(argv) == 0
print(loaded("scipy.optimize", "scipy.spatial", "scipy.special"))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "[]"]
    assert json.loads((tmp_path / "report.json").read_text())["verdict"]
    assert (tmp_path / "section.svg").stat().st_size > 0


def test_round_trip_gauge():
    # serialize -> parse must preserve the gauge everywhere
    r = np.random.default_rng(11)
    for name in BODY_FIXTURES:
        body = load_body(FIX / name)
        again = body_from_dict(body_to_dict(body))
        V = r.normal(size=(1000, body.dim)) * 3.0
        assert np.abs(body.gauge_many(V) - again.gauge_many(V)).max() <= 1e-12


def test_round_trip_every_body_type_through_json():
    # body_to_dict -> JSON -> body_from_dict keeps the gauge of all six body
    # types, the cube (p = Infinity) and cylinders over planes whose frames
    # the reload rotates included
    r = np.random.default_rng(5)
    for _ in range(10):
        plane, line = Subspace(r.normal(size=(3, 2))), Subspace(r.normal(size=(3, 1)))
        A = r.normal(size=(3, 3)) + 3.0 * np.eye(3)
        disk = Cylinder(Ellipsoid(random_spd(r, 2)), plane, line)
        slab = Cylinder(PBall(3.0, A[:1, :1]), line, plane)
        bodies = [
            Ellipsoid(random_spd(r, 3)),
            random_polytope(r, 3),
            PBall(1.5, A),
            PBall(np.inf, A),
            disk,
            LinearImage(A, Cylinder(random_polytope(r, 2), plane, line)),
            Intersection([disk, slab]),
        ]
        for body in bodies:
            again = body_from_dict(json.loads(json.dumps(body_to_dict(body))))
            V = r.normal(size=(200, 3)) * 3.0
            g = body.gauge_many(V)
            assert np.abs(g - again.gauge_many(V)).max() <= 1e-12 * g.max(), body
    # the plane map folds into the base's image: round trips do not nest images
    for _ in range(3):
        disk = body_from_dict(json.loads(json.dumps(body_to_dict(disk))))
    assert isinstance(disk.base, LinearImage) and isinstance(disk.base.inner, Ellipsoid)


def test_cylinder_base_reads_the_plane_columns(tmp_path):
    # the base lives in the coordinates of the file's plane columns, here the
    # x and y axes rotated by 0.7 rad
    a = 0.7
    cols = np.array([[np.cos(a), np.sin(a), 0.0], [-np.sin(a), np.cos(a), 0.0]])
    path = tmp_path / "cylinder.json"
    path.write_text(json.dumps({
        "type": "cylinder",
        "base": {"type": "ellipsoid", "Q": [[1.0, 0.0], [0.0, 9.0]]},
        "plane": cols.tolist(),
        "generatrix": [[0.0, 0.0, 1.0]],
    }))
    body = load_body(path)
    g = body.gauge_many(np.vstack([cols, cols + [0.0, 0.0, 5.0]]))
    assert np.abs(g - [1.0, 3.0, 1.0, 3.0]).max() <= 1e-14


def test_classify_ellipsoid_fixture(tmp_path):
    code, rep = run(
        tmp_path, "classify", FIX / "ellipsoid.json", FIX / "region_xy.json",
        "--grid", "3",
    )
    assert code == 0
    assert rep["verdict"] == "Ellipsoid"
    Q = np.asarray(json.loads((FIX / "ellipsoid.json").read_text())["Q"])
    F = np.asarray(rep["witness"]["form"])
    assert np.abs(F - Q).max() <= 1e-6 * np.linalg.norm(Q)
    assert set(rep) == {"verdict", "witness", "diagnostics", "timings", "config_echo"}


def test_gap_path_with_a_form_that_is_not_psd_writes_a_finite_witness(tmp_path, monkeypatch):
    # a verified form that is not PSD leaves no structural test failed; the
    # witness is the first grid plane the base plane's direction does not
    # contract, with that certificate's violation
    real = classifier_module.reconstruct_global_form
    monkeypatch.setattr(
        classifier_module,
        "reconstruct_global_form",
        lambda body, region, seed: (real(body, region, seed=seed)[0], False),
    )
    code, rep = run(
        tmp_path, "classify", FIX / "ellipsoid.json", FIX / "region_tilted.json",
        "--grid", "3",
    )
    assert code == 2
    assert rep["verdict"] == "NonKakutani"
    assert rep["diagnostics"]["form_psd"] is False
    body, region = load_body(FIX / "ellipsoid.json"), load_region(FIX / "region_tilted.json")
    planes = [region.plane(M) for M in region.grid(3)]
    (L0,) = classifier_module._form_directions(body.Q, [region.base])
    viols = [is_contracting(body, X, L0).violation for X in planes]
    first = next(i for i, v in enumerate(viols) if v > DEFAULT_TOL)
    X = Subspace(np.asarray(rep["witness"]["witness_plane"]).T)
    assert X.is_same(planes[first])
    assert rep["witness"]["violation"] == pytest.approx(viols[first], rel=1e-4)


def test_phi_cross_check_reads_the_sweep(tmp_path):
    # the cross-check samples the sweep's own planes and certified lines, so
    # only the sweep searches and certifies; of these, only the box's cold
    # sweep searches at all, one search per plane.  Its base plane's solve
    # makes the one single-plane certificate: every later plane certifies
    # the chain's direction in a stacked call, and the shared-generatrix
    # test has no plane left to certify
    for name, outcome, certs, searches in (
        ("ellipsoid.json", "Injective", 0, 0),
        ("cylinder.json", "ConstantLine", 0, 0),
        ("sheared.json", "Injective", 0, 0),
        ("box.json", "ConstantLine", 1, 9),
    ):
        code, rep = run(tmp_path, "classify", FIX / name, FIX / "region_xy.json", "--grid", "3")
        assert code == 0
        assert rep["diagnostics"]["phi_outcome"] == outcome, name
        assert rep["diagnostics"]["phi_agrees"] is True, name
        assert rep["timings"]["certificates"] == certs, name
        assert rep["timings"]["direction_searches"] == searches, name
    # the 4 x 4 grid does not contain the 3 x 3 one
    for name in ("ellipsoid.json", "box.json", "cylinder.json"):
        code, rep = run(tmp_path, "classify", FIX / name, FIX / "region_xy.json", "--grid", "4")
        assert code == 0
        assert rep["diagnostics"]["phi_agrees"] is True, name


def test_classify_box_fixture(tmp_path):
    code, rep = run(
        tmp_path, "classify", FIX / "box.json", FIX / "region_xy.json",
        "--grid", "3",
    )
    assert code == 0
    assert rep["verdict"] == "Cylinder"
    g = np.asarray(rep["witness"]["generatrix"]).ravel()
    g = g / np.linalg.norm(g)
    assert np.arccos(min(1.0, abs(g[2]))) <= 1e-6


def test_classify_pball_fixture(tmp_path):
    code, rep = run(
        tmp_path, "classify", FIX / "pball.json", FIX / "region_tilted.json",
        "--grid", "3",
    )
    assert code == 2
    assert rep["verdict"] == "NonKakutani"
    assert rep["witness"]["violation"] >= 1e-3
    assert np.asarray(rep["witness"]["witness_plane"]).shape == (2, 3)


def test_near_ellipsoid_report_is_strict_json(tmp_path):
    # p = 2 + 3e-6: every plane contracts, but the assembled form misses
    # gauge^2 by ~1e-6, so the witness is that residual rather than NaN
    report = tmp_path / "report.json"
    code = main([
        "classify", str(FIX / "pball_near2.json"), str(FIX / "region_xy.json"),
        "--grid", "3", "--report", str(report),
    ])
    assert code == 2

    def reject(name):
        raise ValueError(f"{name} is not strict JSON")

    rep = json.loads(report.read_text(), parse_constant=reject)
    assert rep["verdict"] == "NonKakutani"
    assert rep["diagnostics"]["quadric_failure"] == "InconsistentPropagation"
    assert 0.0 < rep["witness"]["violation"] == rep["diagnostics"]["quadric_residual"]
    assert np.asarray(rep["witness"]["witness_plane"]).shape == (2, 3)


def test_non_finite_report_is_an_error(tmp_path):
    with pytest.raises(CliError):
        write_report({"violation": float("nan")}, tmp_path / "report.json")


def test_banach_mixed_fixture(tmp_path):
    code, rep = run(
        tmp_path, "banach", FIX / "mixed.json", FIX / "region_mixed.json",
        "--grid", "3",
    )
    assert code == 2
    assert rep["verdict"] == "HypothesisFailed"
    assert rep["witness"]["residual"] > 1e-2
    pair = rep["witness"]["pair"]
    assert len(pair) == 2 and np.asarray(pair[0]).shape == (2, 3)


def test_contract_fixture(tmp_path):
    code, rep = run(
        tmp_path, "contract", FIX / "box.json", FIX / "plane_xy.json",
        FIX / "direction_z.json",
    )
    assert code == 0
    assert rep["verdict"] == "Contracting"
    assert rep["witness"]["violation"] <= 1e-9

    code, rep = run(
        tmp_path, "contract", FIX / "box.json", FIX / "plane_xy.json",
        FIX / "direction_oblique.json",
    )
    assert code == 2
    assert rep["verdict"] == "NotContracting"
    assert rep["witness"]["violation"] > 1e-3


def test_contract_search(tmp_path):
    code, rep = run(tmp_path, "contract", FIX / "box.json", FIX / "plane_xy.json")
    assert code == 0
    dirs = rep["witness"]["directions"]
    assert len(dirs) >= 1
    d = np.asarray(dirs[0]).ravel()
    assert abs(d[2]) / np.linalg.norm(d) >= 1.0 - 1e-6


def test_section_svg_overlay(tmp_path):
    svg_path = tmp_path / "out.svg"
    code, rep = run(
        tmp_path, "section", FIX / "ellipsoid.json", FIX / "plane_xy.json",
        "--svg", svg_path,
    )
    assert code == 0
    assert rep["witness"]["quadric"] is not None
    assert rep["witness"]["residual"] <= 1e-8
    svg = svg_path.read_text()
    assert 'viewBox="0 0 800 800"' in svg
    # boundary and overlay, 512 segments each
    assert svg.count("<path") == 2
    assert svg.count("L ") == 2 * 511


def test_section_svg_square_has_no_overlay(tmp_path):
    svg_path = tmp_path / "out.svg"
    code, rep = run(
        tmp_path, "section", FIX / "box.json", FIX / "plane_xy.json",
        "--svg", svg_path,
    )
    assert code == 0
    assert rep["witness"]["quadric"] is None
    assert rep["witness"]["residual"] >= 0.05
    assert svg_path.read_text().count("<path") == 1


def test_reports_byte_identical(tmp_path):
    report, svg = tmp_path / "r.json", tmp_path / "s.svg"
    blobs = []
    for _ in range(2):
        main(["classify", str(FIX / "ellipsoid.json"), str(FIX / "region_xy.json"),
              "--grid", "3", "--seed", "7", "--report", str(report)])
        blobs.append(report.read_bytes())
    assert blobs[0] == blobs[1]
    blobs = []
    for _ in range(2):
        main(["section", str(FIX / "box.json"), str(FIX / "plane_xy.json"),
              "--report", str(report), "--svg", str(svg)])
        blobs.append(report.read_bytes() + svg.read_bytes())
    assert blobs[0] == blobs[1]


def test_config_echo_names_each_command_inputs(tmp_path):
    # the echo is the parsed command line without its output paths: each
    # positional path as given, and an omitted direction as ""
    box, xy, dz = (str(FIX / f) for f in ("box.json", "plane_xy.json", "direction_z.json"))
    mixed, region_xy, region_mixed = (
        str(FIX / f) for f in ("mixed.json", "region_xy.json", "region_mixed.json")
    )
    runs = [
        (["classify", box, region_xy, "--grid", "2"], {"body": box, "region": region_xy}),
        (["banach", mixed, region_mixed, "--grid", "2"], {"body": mixed, "region": region_mixed}),
        (["contract", box, xy, dz], {"body": box, "plane": xy, "direction": dz}),
        (["contract", box, xy], {"body": box, "plane": xy, "direction": ""}),
        (["section", box, xy, "--svg", str(tmp_path / "box.svg")], {"body": box, "plane": xy}),
    ]
    for argv, paths in runs:
        code, rep = run(tmp_path, *argv)
        assert code in (0, 2), argv
        grid = 2 if "--grid" in argv else None
        common = {"command": argv[0], "grid": grid, "seed": 0, "tol": None}
        assert rep["config_echo"] == {**common, **paths}, argv


def test_region_transversal_field(tmp_path):
    region = tmp_path / "region.json"
    region.write_text(json.dumps({
        "base": [[1, 0, 0], [0, 1, 0]],
        "halfwidths": [[0.2, 0.2]],
        "transversal": [[0, 0, 1]],
    }))
    code, rep = run(
        tmp_path, "classify", FIX / "ellipsoid.json", region, "--grid", "3",
    )
    assert code == 0 and rep["verdict"] == "Ellipsoid"


def test_error_exits(tmp_path, capsys):
    assert main(["classify", "no-such.json", str(FIX / "region_xy.json")]) == 1
    assert "no-such.json" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["classify", str(bad), str(FIX / "region_xy.json")]) == 1
    assert ":1:" in capsys.readouterr().err

    unk = tmp_path / "unk.json"
    unk.write_text('{"type": "torus"}')
    assert main(["classify", str(unk), str(FIX / "region_xy.json")]) == 1
    assert "torus" in capsys.readouterr().err

    noframe = tmp_path / "region.json"
    noframe.write_text('{"halfwidths": 0.2}')
    assert main(["classify", str(FIX / "box.json"), str(noframe)]) == 1
    capsys.readouterr()

    # a region sweeps k-planes with 2 <= k <= n - 1: a line is refused
    line = tmp_path / "line.json"
    line.write_text('{"base": [[1, 0, 0]], "halfwidths": 0.2}')
    assert main(["classify", str(FIX / "box.json"), str(line)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "k = 1" in err

    # banach compares sections of 2- or 3-planes: 4-planes in R^5 are refused
    ball5 = tmp_path / "ball5.json"
    ball5.write_text(json.dumps({"type": "ellipsoid", "Q": np.eye(5).tolist()}))
    four = tmp_path / "four.json"
    four.write_text(json.dumps({"base": np.eye(5)[:4].tolist(), "halfwidths": 0.1}))
    assert main(["banach", str(ball5), str(four)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "k = 4" in err

    # section plots need a plane, not a line
    assert main(["section", str(FIX / "box.json"), str(FIX / "direction_z.json")]) == 1
    capsys.readouterr()

    def one_error_line(argv, *words):
        assert main([str(a) for a in argv]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert all(w in err for w in words), (argv, err)

    # halfwidths and p that are no numbers
    for hw in ('"abc"', "null", '[[0.2, "x"]]', "Infinity", "[[0.2, -Infinity]]"):
        region = tmp_path / "hw.json"
        region.write_text(f'{{"base": [[1, 0, 0], [0, 1, 0]], "halfwidths": {hw}}}')
        one_error_line(["classify", FIX / "ellipsoid.json", region], "halfwidths")
    for p in ('"abc"', "null", "-Infinity"):
        pball = tmp_path / "pball.json"
        pball.write_text(f'{{"type": "pball", "p": {p}, "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}')
        one_error_line(["classify", pball, FIX / "region_xy.json"], ".p")
    # an infinite entry in a matrix, where p = Infinity alone is the cube
    ell = tmp_path / "ell.json"
    ell.write_text('{"type": "ellipsoid", "Q": [[1, 0, 0], [0, Infinity, 0], [0, 0, 1]]}')
    one_error_line(["classify", ell, FIX / "region_xy.json"], "ell.json.Q")
    poly = tmp_path / "poly.json"
    poly.write_text('{"type": "polytope", "vertices": [[Infinity, 0, 0], [-1, 0, 0], '
                    '[0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]}')
    one_error_line(["classify", poly, FIX / "region_xy.json"], "poly.json.vertices")
    cube = tmp_path / "cube.json"
    cube.write_text('{"type": "pball", "p": Infinity, "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}')
    assert load_body(cube).gauge([2.0, -1.0, 0.5]) == 2.0

    # a body whose space is not its plane's, region's or direction's: each
    # error names both dimensions
    ell2 = tmp_path / "ell2.json"
    ell2.write_text('{"type": "ellipsoid", "Q": [[1, 0], [0, 2]]}')
    for cmd in ("classify", "banach"):
        one_error_line([cmd, ell2, FIX / "region_xy.json"], "R^3", "R^2")
    for cmd in ("contract", "section"):
        one_error_line([cmd, ell2, FIX / "plane_xy.json"], "R^3", "R^2")
    plane4 = tmp_path / "plane4.json"
    plane4.write_text('{"frame": [[1, 0, 0, 0], [0, 1, 0, 0]]}')
    one_error_line(["contract", FIX / "ellipsoid.json", plane4], "R^4", "R^3")
    one_error_line(
        ["contract", FIX / "ellipsoid.json", FIX / "plane_xy.json", plane4], "R^4", "R^3"
    )


def test_grid_below_one_is_an_error(capsys):
    for cmd in ("classify", "banach"):
        for grid in ("0", "-1"):
            argv = [cmd, str(FIX / "box.json"), str(FIX / "region_xy.json"), "--grid", grid]
            assert main(argv) == 1, (cmd, grid)
            err = capsys.readouterr().err
            assert err == f"error: --grid must be at least 1, got {grid}\n", (cmd, grid)


def test_flag_and_parse_errors_exit_1_before_any_input_is_read(tmp_path, capsys):
    # argparse alone exits 2, the code of a certified negative; --tol 0 made
    # a rounding-level NonKakutani, --tol nan ran the whole classification
    # and --seed -1 ended in a numpy traceback
    report = tmp_path / "report.json"
    inputs = {
        "classify": ("ellipsoid.json", "region_xy.json"),
        "banach": ("ellipsoid.json", "region_xy.json"),
        "contract": ("box.json", "plane_xy.json"),
        "section": ("box.json", "plane_xy.json"),
    }
    bad = [["--tol", t] for t in ("0", "-1", "nan", "inf")] + [["--seed", "-1"], ["--grid", "abc"]]
    for cmd, files in inputs.items():
        for flag, value in bad:
            for body in (str(FIX / files[0]), "no-such.json"):
                argv = [cmd, body, str(FIX / files[1]), flag, value, "--report", str(report)]
                assert main(argv) == 1, argv
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
                assert flag in err and "no-such.json" not in err, (argv, err)
                assert not report.exists()
    for argv in (["classify", str(FIX / "ellipsoid.json")], [], ["bogus"]):
        assert main(argv + ["--report", str(report)]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert not report.exists()
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--help"])
    assert exc.value.code == 0


def test_malformed_body_is_reported(tmp_path, capsys):
    degenerate = tmp_path / "flat.json"
    degenerate.write_text('{"type": "ellipsoid", "Q": [[1.0, 0.0], [0.0, 0.0]]}')
    assert main(["classify", str(degenerate), str(FIX / "region_xy.json")]) == 1
    assert "MalformedBody" in capsys.readouterr().err


def test_report_to_stdout(capsys):
    code = main([
        "contract", str(FIX / "box.json"), str(FIX / "plane_xy.json"),
        str(FIX / "direction_z.json"),
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Contracting"
