"""Classify three bodies from their plane sections near the xy-plane.

The classifier sweeps a small chart of 2-planes and decides, for each body,
whether all nearby sections are ellipsoidal (and reconstructs the quadratic
form), cylindrical (and reconstructs the generatrix), or neither (and returns
a witness plane with a quantified violation).
"""

import numpy as np

from kkit import (
    ClassifyOptions,
    Cylinder,
    Ellipsoid,
    GrassmannChart,
    Intersection,
    PBall,
    Polytope,
    Subspace,
    classify,
)

xy = Subspace.coordinate(3, 0, 1)
z = Subspace.coordinate(3, 2)


def truncated_disk_cylinder():
    disk = Ellipsoid(np.eye(2))
    slab = Polytope([[-2.0], [2.0]])
    return Intersection([Cylinder(disk, xy, z), Cylinder(slab, z, xy)])


def show(name, report):
    print(f"{name}: {report.verdict}")
    for key, value in sorted(report.witness.items()):
        if isinstance(value, Subspace):
            value = value.frame.T  # its column vectors, as reports write frames
        if not isinstance(value, (bool, int, np.bool_, np.integer)):
            value = np.round(np.asarray(value, dtype=float), 6)
        print(f"  {key} = {value}")
    print(f"  work: {report.counters}")
    print()


def main():
    region = GrassmannChart(xy, 0.2)

    Q = np.array([[1.0, 0.2, 0.0], [0.2, 2.0, 0.1], [0.0, 0.1, 3.0]])
    report = classify(Ellipsoid(Q), region)
    show("ellipsoid {v.Qv <= 1}", report)
    print(f"  (true Q recovered; largest deviation "
          f"{np.abs(report.witness['form'] - Q).max():.2e})\n")

    show("truncated circular cylinder", classify(truncated_disk_cylinder(), region))

    tilted = GrassmannChart(Subspace.span([1.0, 0.0, 0.3], [0.0, 1.0, 0.0]), 0.25)
    pball = PBall(4.0, np.eye(3))
    show(
        "4-ball {sum v_i^4 <= 1}",
        classify(pball, tilted, opts=ClassifyOptions(grid_per_axis=3)),
    )


if __name__ == "__main__":
    main()
