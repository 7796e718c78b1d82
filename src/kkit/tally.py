"""Work counters, tallied in the functions that do the work.

tally(key, n) adds n (one call by default) to the innermost open counting()
scope and does nothing when none is open; a scope that closes adds its counts
to the enclosing one.
"""

from contextlib import contextmanager
from contextvars import ContextVar

# The report's timings keys; docs/schemas.md names the calls each one counts.
COUNTERS = (
    "certificates", "direction_searches", "planes_swept", "quadric_fits",
    "sections_sampled",
)
_scope = ContextVar("kkit_counts", default=None)


def tally(key: str, n: int = 1) -> None:
    """Count n units of work (one call by default) under key in the innermost
    open scope."""
    counts = _scope.get()
    if counts is not None:
        counts[key] += n


@contextmanager
def counting():
    """A scope of fresh counters; yields the dict, complete on exit."""
    outer = _scope.get()
    counts = dict.fromkeys(COUNTERS, 0)
    token = _scope.set(counts)
    try:
        yield counts
    finally:
        _scope.reset(token)
        if outer is not None:
            for key, n in counts.items():
                outer[key] += n
