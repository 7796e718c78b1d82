"""Linear equivalence of plane sections, and classification through it.

Two sections are linearly equivalent when some invertible map carries one
onto the other.  Each section is first normalized by its area and second
moment about the origin, which every linear map carries along, then radial
signatures are matched over rotations and reflections.  A body whose nearby
sections are all equivalent can be classified; one exhibiting two genuinely
different section shapes cannot, and the failing pair is reported.
"""

import numpy as np

from kkit import (
    Cylinder,
    Ellipsoid,
    GrassmannChart,
    Intersection,
    Polytope,
    Subspace,
    banach_classify,
    linear_equivalent_sections,
)
from kkit.errors import HypothesisFailed

xy = Subspace.coordinate(3, 0, 1)
xz = Subspace.coordinate(3, 0, 2)


def main():
    # sections of a triangular prism are triangles whose centroid is off the
    # origin; the moments about the origin need no centre
    tri = Polytope([[2.0, 0.0], [0.0, 2.0], [-1.0, -1.0]])
    prism = Cylinder(tri, xy, Subspace.span([0.3, -0.2, 1.0]))
    tilted = Subspace.span([1.0, 0.0, 0.3], [0.0, 1.0, -0.2])
    w = linear_equivalent_sections(prism, xy, tilted)
    print(f"triangle prism, xy vs tilted plane: residual {w.residual:.2e}")
    print()

    # any two plane sections of an ellipsoid are equivalent
    body = Ellipsoid(np.diag([1.0, 2.0, 3.0]))
    tilted = Subspace.span([1.0, 0.0, 0.4], [0.0, 1.0, -0.2])
    w = linear_equivalent_sections(body, xy, tilted)
    print(f"ellipsoid, xy vs tilted plane: residual {w.residual:.2e}")
    print(f"  witness map\n{np.round(w.map, 6)}")
    print()

    # two perpendicular unit-disk cylinders: one section is a disk, another
    # a square; no linear map relates them
    steinmetz = Intersection(
        [
            Cylinder(Ellipsoid(np.eye(2)), xy, Subspace.coordinate(3, 2)),
            Cylinder(
                Ellipsoid(np.eye(2)),
                Subspace.coordinate(3, 1, 2),
                Subspace.coordinate(3, 0),
            ),
        ]
    )
    w = linear_equivalent_sections(steinmetz, xy, xz)
    print(f"steinmetz solid, disk section vs square section: {w}")
    print("  (best residual is sqrt(pi / 2) - 1 at the corners: both normalize")
    print("   to area pi, and the square's corners stick out of the unit disk)")
    print()

    # the full pipeline: equivalence grid first, then classification
    report = banach_classify(body, GrassmannChart(xy, 0.2))
    print(
        f"banach_classify(ellipsoid): {report.verdict}, "
        f"{report.diagnostics['banach_pairs']} pairs, "
        f"worst residual {report.diagnostics['banach_worst_residual']:.2e}"
    )

    cube = Polytope(
        np.array(
            [[x, y, w] for x in (-0.8, 0.8) for y in (-0.8, 0.8) for w in (-0.8, 0.8)],
            dtype=float,
        )
    )
    mixed = Intersection([Ellipsoid(np.eye(3)), cube])
    try:
        banach_classify(mixed, GrassmannChart(xy, 0.35))
    except HypothesisFailed as exc:
        print(
            f"banach_classify(ball cut by cube): hypothesis fails, "
            f"residual {exc.residual:.4f} on a concrete plane pair"
        )


if __name__ == "__main__":
    main()
