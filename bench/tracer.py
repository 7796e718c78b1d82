"""Layer tracing for the kkit benchmark, installed from outside the package.

kkit binds names at import (``from .contracting import is_contracting``), so a
wrapper has to replace the function in every module namespace that bound it,
and Body methods on each class that defines them.  Wrappers pass arguments and
results through untouched; they only read the clock and count.

Two recording modes keep the cost in proportion to the call rate:

* the leaf layers (``kkit.bodies`` and ``kkit.linalg``, about 300k gauge calls
  in six ellipsoid instances) only aggregate count, rows and time per name;
* every other layer also keeps one span per call:
  ``(name, start, end, self, parent, instance)`` with times in seconds from the
  tracer's origin and ``parent`` the index of the enclosing span, or -1.

Self time is a call's duration minus the time of the wrapped calls it made, so
the self times of all layers plus the time spent outside any wrapped call add
up to the traced wall time.
"""

import functools
import importlib
import inspect
import time

MODULES = ("bodies", "linalg", "contracting", "quadform", "classifier", "banach", "cli")
# Leaf layers: aggregate only, no span per call.
AGGREGATED = ("bodies", "linalg")
# Private helpers that a layer metric needs as its own boundary.
PRIVATE = {"banach": ("_section_match",)}
# Calls of one group count as "outermost" only when no call of the same group
# encloses them (Intersection.gauge_many calls its members' gauge_many).
GROUPS = {
    "gauge": "gauge",
    "gauge_many": "gauge",
    "support_functional": "support",
    "shared_generatrix_cylinder": "generatrix",
    "cylinder_contains": "generatrix",
}
# Per-name statistics: calls, total, self, outermost calls, outermost total,
# outermost rows.
CALLS, TOTAL, SELF, OUTER_CALLS, OUTER_TOTAL, OUTER_ROWS = range(6)


def _rows(args):
    """Rows passed to gauge/gauge_many: args are (body, v_or_V)."""
    if len(args) < 2:
        return 0
    shape = getattr(args[1], "shape", None)
    if shape is None:
        return len(args[1]) if args[1] and hasattr(args[1][0], "__len__") else 1
    return shape[0] if len(shape) > 1 else 1


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []
        self.instance = None  # "pass.index" of the running instance
        self.held = 0  # is_contracting certificates that hold
        self._stack = []  # frames: [child time, span index]
        self._depth = {g: 0 for g in set(GROUPS.values())}
        self._patched = []
        self.top_total = 0.0  # time inside outermost wrapped calls
        self.origin = time.perf_counter()

    # ------------------------------------------------------------- install

    def install(self):
        """Wrap every public function and Body method of the kkit layers."""
        import kkit

        mods = {m: importlib.import_module(f"kkit.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(short, ()):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}", short))
        namespaces = [kkit, *mods.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(ns, attr, obj, hit[1])
        bodies = mods["bodies"]
        for cls in vars(bodies).values():
            if not (inspect.isclass(cls) and issubclass(cls, bodies.Body)):
                continue
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                name = f"bodies.{cls.__name__}.{attr}"
                self._patch(cls, attr, obj, self._wrap(obj, name, "bodies", method=attr))
        return self

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def _patch(self, ns, attr, original, wrapper):
        setattr(ns, attr, wrapper)
        self._patched.append((ns, attr, original))

    def _wrap(self, fn, name, module, method=None):
        key = method or name.rsplit(".", 1)[1]
        group = GROUPS.get(key)
        count_rows = key in ("gauge", "gauge_many")
        keep_span = module not in AGGREGATED
        on_holds = key == "is_contracting"
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0.0, 0])
        stack, depth, spans = self._stack, self._depth, self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = group is None or depth[group] == 0
            if group is not None:
                depth[group] += 1
            sid = -1
            if keep_span:
                sid = len(spans)
                spans.append(None)
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if group is not None:
                    depth[group] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.top_total += dur
                st[CALLS] += 1
                st[TOTAL] += dur
                st[SELF] += dur - frame[0]
                if outer:
                    st[OUTER_CALLS] += 1
                    st[OUTER_TOTAL] += dur
                    if count_rows:
                        st[OUTER_ROWS] += _rows(args)
                if keep_span:
                    o = tracer.origin
                    spans[sid] = (name, t0 - o, t1 - o, dur - frame[0], parent, tracer.instance)
            if on_holds and result.holds:
                tracer.held += 1
            return result

        return wrapper

    # ------------------------------------------------------------- queries

    def calls(self):
        """Snapshot of call counts per wrapped name."""
        return {name: st[CALLS] for name, st in self.stats.items()}

    def stat(self, name, field):
        st = self.stats.get(name)
        return st[field] if st else 0

    def total(self, suffixes, field):
        """Sum a statistic over names ending in any of the suffixes."""
        return sum(
            st[field]
            for name, st in self.stats.items()
            if any(name.endswith(s) for s in suffixes)
        )

    def module_self(self):
        out = {m: 0.0 for m in MODULES}
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st[SELF]
        return out

    def _ancestor_names(self, i):
        names = []
        p = self.spans[i][4]
        while p >= 0:
            names.append(self.spans[p][0])
            p = self.spans[p][4]
        return names

    def span_sums(self):
        """Span-derived layer figures that need the call tree."""
        out = {
            "classify_outer_self": 0.0,
            "cross_check": 0.0,
            "certs_in_search": 0,
            "reconstruct_rest": 0.0,
        }
        cross = {
            "classifier.phi_map",
            "classifier.fit_projective_dual",
            "classifier.support_check",
            "classifier.tangent_field_fit",
        }
        child_dur = {}
        in_cross = []
        for i, (name, t0, t1, self_t, parent, _) in enumerate(self.spans):
            anc = self._ancestor_names(i)
            nested_classify = name == "classifier.classify" and "classifier.classify" in anc
            if name == "classifier.classify" and not nested_classify:
                out["classify_outer_self"] += self_t
            is_cross = name in cross or nested_classify
            in_cross.append(is_cross)
            if is_cross and not self._any_ancestor(i, in_cross):
                out["cross_check"] += t1 - t0
            search = "contracting.find_contracting_direction"
            if name == "contracting.is_contracting" and search in anc:
                out["certs_in_search"] += 1
            if name in ("quadform.fit_section_quadric", "quadform.verify_form") and parent >= 0:
                child_dur[parent] = child_dur.get(parent, 0.0) + (t1 - t0)
        for i, (name, t0, t1, *_rest) in enumerate(self.spans):
            if name == "quadform.reconstruct_global_form":
                out["reconstruct_rest"] += (t1 - t0) - child_dur.get(i, 0.0)
        return out

    def _any_ancestor(self, i, flags):
        p = self.spans[i][4]
        while p >= 0:
            if flags[p]:
                return True
            p = self.spans[p][4]
        return False
