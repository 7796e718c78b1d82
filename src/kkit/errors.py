"""Exception types shared across kkit modules."""


class KkitError(Exception):
    """Base class for all kkit errors."""


class NonComplementary(KkitError):
    """Oblique projection requested along a non-complementary pair."""


class OutOfChart(KkitError):
    """Graph coordinates fall outside the chart box, or the plane is not a graph."""


class MalformedBody(KkitError):
    """Body data violates a construction invariant."""


class DirectionInGeneratrix(KkitError):
    """Boundary point requested along a direction of gauge zero."""


class NotOnBoundary(KkitError):
    """Support functional requested at a point off the unit level set."""


class UnboundedSection(KkitError):
    """Section sampling hit a direction with vanishing gauge."""


class NoGeneratrix(KkitError):
    """A plane in the sweep admits no contracting direction."""

    def __init__(self, plane, violation):
        super().__init__(f"no contracting direction (best violation {violation:.3e})")
        self.plane = plane
        self.violation = violation


class DegenerateFit(KkitError):
    """Singular-vector fit has no isolated minimizer."""


class NotLocallyQuadric(KkitError):
    """Some section in the region admits no positive definite quadric."""

    def __init__(self, plane, residual):
        super().__init__(f"section quadric fit failed (residual {residual:.3e})")
        self.plane = plane
        self.residual = residual


class InconsistentPropagation(KkitError):
    """Propagated structure disagrees with the body, worst at plane."""

    def __init__(self, plane, residual, what):
        super().__init__(f"{what} (residual {residual:.3e})")
        self.plane = plane
        self.residual = residual


class SharedLine(KkitError):
    """Reduction pair shares a direction line."""


class SameHyperplane(KkitError):
    """Reduction pair uses one hyperplane twice."""


class PreconditionNotContracting(KkitError):
    """Reduction input pair is not certified contracting."""


class DegenerateFixedPoint(KkitError):
    """Reduction composite restricts to the identity on the shared line."""


class AmbiguousDichotomy(KkitError):
    """Direction-line images are neither provably constant nor injective."""


class HypothesisFailed(KkitError):
    """A pair of sections is not linearly equivalent."""

    def __init__(self, pair, residual):
        super().__init__(f"sections not linearly equivalent (residual {residual:.3e})")
        self.pair = pair
        self.residual = residual
