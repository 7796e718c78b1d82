"""Contracting projections and dimension reduction.

A plane X is cylindrical for a body when projecting onto X along some
complementary direction never increases the gauge.  Searching for such
directions drives the classifier; combining two contracting hyperplane/line
pairs reduces the problem one dimension down and exposes a contraction
factor lambda with |lambda| <= 1.
"""

import numpy as np

from kkit import (
    Ellipsoid,
    Polytope,
    Subspace,
    find_contracting_direction,
    is_contracting,
    reduce_pair,
)

xy = Subspace.coordinate(3, 0, 1)
z = Subspace.coordinate(3, 2)


def main():
    box = Polytope(
        np.array(
            [[x, y, w] for x in (-1, 1) for y in (-1, 1) for w in (-2, 2)],
            dtype=float,
        )
    )
    cert = is_contracting(box, xy, z)
    print(f"box, project onto xy along z: holds={cert.holds} violation={cert.violation:.1e}")
    cert = is_contracting(box, xy, Subspace.span([0.5, 0.0, 1.0]))
    print(f"box, project onto xy along (0.5,0,1): holds={cert.holds} violation={cert.violation:.3f}")
    print()

    # for an ellipsoid the contracting direction is the Q-orthogonal
    # complement; the search recovers it from the gauge alone
    Q = np.diag([1.0, 2.0, 3.0])
    body = Ellipsoid(Q)
    X = Subspace.span([1.0, 0.0, 0.2], [0.0, 1.0, 0.1])
    truth = Subspace(np.linalg.solve(Q, X.orthogonal_complement().frame))
    res = find_contracting_direction(body, X)
    found = res.found[0].direction.frame[:, 0]
    want = truth.frame[:, 0]
    print(f"ellipsoid search: found direction {np.round(found, 6)}")
    print(f"  Q-complement     {np.round(want * np.sign(want[0] * found[0]), 6)}")
    print()

    # two contracting pairs on the sphere reduce to a plane problem; the
    # contraction factor of the composed projection lands inside (-1, 1)
    sphere = Ellipsoid(np.eye(3))
    X1 = Subspace.span([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    X2 = Subspace.span([0.0, 1.0, 0.0], [0.5, 0.0, 1.0])
    red = reduce_pair(
        sphere, X1, X1.orthogonal_complement(), X2, X2.orthogonal_complement()
    )
    print(f"sphere reduction: lambda = {red.lam:.6f}, W dim {red.W.dim}, Z dim {red.Z.dim}")
    print(f"  certificate violation {red.certificate.violation:.1e}, probes {red.probe_error:.1e}")

    # the midpoint case lambda = -1: the diamond with mirrored oblique pairs
    diamond = Polytope([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    red = reduce_pair(
        diamond,
        Subspace.span([1.0, 0.0]),
        Subspace.span([1.0, 1.0]),
        Subspace.span([0.0, 1.0]),
        Subspace.span([1.0, -1.0]),
    )
    print(f"diamond reduction: lambda = {red.lam:.6f} (iteration alternates, limit is the midpoint)")


if __name__ == "__main__":
    main()
