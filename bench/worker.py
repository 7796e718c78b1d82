"""One benchmark process: set up a workload, run it, print one JSON line.

Started by run.py with the checkout's ``src`` on PYTHONPATH and BLAS pinned to
one thread.  The clock starts before kkit (and with it numpy and scipy) is
imported, because a command-line user pays that import on every invocation.

    python3 bench/worker.py --workload W --seed S --mode setup
    python3 bench/worker.py --workload W --seed S --mode measure --seconds T --trace 0|1
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports kkit)
from tracer import CALLS, OUTER_CALLS, OUTER_ROWS, OUTER_TOTAL, SELF, TOTAL, Tracer  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"
# Leaf-layer counters that a report's `timings` claims to count.
AUDITED = {
    "certificates": "contracting.is_contracting",
    "direction_searches": "contracting.find_contracting_direction",
    "quadric_fits": "quadform.fit_section_quadric",
    "sections_sampled": "bodies.section_samples",
}


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kkit": os.path.dirname(workloads.kkit.__file__),
    }


def run_pass(instances, tracer=None, p=0):
    """Run instances back to back; per-instance (kind, seconds, outcome)."""
    rows = []
    for i, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = f"{p}.{i}"
            before = tracer.calls()
        t = time.perf_counter()
        try:
            out = inst.run()
        except Exception as exc:  # a raising instance is a failed instance
            out = workloads.Outcome("", {}, f"{type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t
        if tracer is not None:
            after = tracer.calls()
            out.wrapper_counts = {
                key: after.get(name, 0) - before.get(name, 0) for key, name in AUDITED.items()
            }
        rows.append((inst.kind, dt, out))
    return rows


def time_left(start, seconds, passes):
    """Whether another pass fits: it would end nearer to `seconds` than
    stopping now.  The number of passes is then the nearest whole number, not
    one more than fits, which keeps a 24 s pass from doubling a 30 s run."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / passes < seconds


def measure(make_pass, seed, seconds, first):
    """Untraced passes for about `seconds`; at least one."""
    passes, rows = [], []
    start = time.perf_counter()
    while not passes or time_left(start, seconds, len(passes)):
        instances = make_pass(seed, len(passes)) if passes else first
        t = time.perf_counter()
        rows += run_pass(instances)
        passes.append(time.perf_counter() - t)
    return passes, rows


def measure_traced(make_pass, seed, seconds, first, limit):
    """Pairs of (traced pass, untraced replay of the same instances)."""
    tracer = Tracer()
    traced_wall = untraced_wall = 0.0
    rows, audit = [], []
    start = time.perf_counter()
    p = 0
    while p == 0 or time_left(start, seconds, p):
        instances = (make_pass(seed, p) if p else first)[:limit]
        tracer.install()
        try:
            t = time.perf_counter()
            traced = run_pass(instances, tracer, p)
            traced_wall += time.perf_counter() - t
        finally:
            tracer.uninstall()
        t = time.perf_counter()
        plain = run_pass(instances)
        untraced_wall += time.perf_counter() - t
        for (kind, dt, a), (_, dt2, b) in zip(traced, plain):
            if a.error is None and a.fingerprint != b.fingerprint:
                a.error = "traced run changed the verdict or witness"
            rows += [(kind, dt, a), (kind, dt2, b)]
            for key, count in a.wrapper_counts.items():
                if key in a.timings:
                    audit.append((p, kind, key, a.timings[key], count))
        p += 1
    return tracer, p, traced_wall, untraced_wall, rows, audit


def layer_metrics(tr, passes, traced_wall, untraced_wall, audit):
    span = tr.span_sums()
    certs = tr.stat("contracting.is_contracting", CALLS)
    searches = tr.stat("contracting.find_contracting_direction", CALLS)
    solves = tr.stat("banach.max_inscribed_ellipsoid", CALLS)
    pairs = tr.stat("banach._section_match", CALLS)
    gauge = (".gauge", ".gauge_many")
    mods = tr.module_self()
    per_pass = {
        "bodies.gauge_evals": (tr.total(gauge, OUTER_ROWS), "count/pass"),
        "bodies.gauge_s": (tr.total(gauge, OUTER_TOTAL), "s/pass"),
        "bodies.lp_solves": (tr.stat("bodies.Polytope.gauge", CALLS), "count/pass"),
        "bodies.support_calls": (tr.total((".support_functional",), OUTER_CALLS), "count/pass"),
        "bodies.section_samples_self_s": (tr.stat("bodies.section_samples", SELF), "s/pass"),
        "linalg.sphere_directions_calls": (
            tr.stat("linalg.sphere_directions", CALLS), "count/pass"),
        "linalg.sphere_directions_s": (tr.stat("linalg.sphere_directions", TOTAL), "s/pass"),
        "contracting.certificates": (certs, "count/pass"),
        "contracting.certify_self_s": (tr.stat("contracting.is_contracting", SELF), "s/pass"),
        "contracting.searches": (searches, "count/pass"),
        "contracting.search_self_s": (
            tr.stat("contracting.find_contracting_direction", SELF), "s/pass"),
        "contracting.generatrix_s": (
            tr.total(("shared_generatrix_cylinder", "cylinder_contains"), OUTER_TOTAL), "s/pass"),
        "quadform.section_fits": (tr.stat("quadform.fit_section_quadric", CALLS), "count/pass"),
        "quadform.fit_self_s": (tr.stat("quadform.fit_section_quadric", SELF), "s/pass"),
        "quadform.verify_s": (tr.stat("quadform.verify_form", TOTAL), "s/pass"),
        "quadform.reconstruct_self_s": (span["reconstruct_rest"], "s/pass"),
        "classifier.classify_calls": (tr.stat("classifier.classify", CALLS), "count/pass"),
        "classifier.sweep_self_s": (span["classify_outer_self"], "s/pass"),
        "classifier.cross_check_s": (span["cross_check"], "s/pass"),
        "banach.inscribed_solves": (solves, "count/pass"),
        "banach.inscribed_s": (tr.stat("banach.max_inscribed_ellipsoid", TOTAL), "s/pass"),
        "banach.match_self_s": (
            tr.stat("banach.banach_classify", SELF) + tr.stat("banach._section_match", SELF),
            "s/pass"),
        "cli.load_s": (
            tr.total(("cli.load_body", "cli.load_region", "cli.load_plane"), TOTAL), "s/pass"),
        "cli.report_write_s": (tr.stat("cli.write_report", TOTAL), "s/pass"),
        "trace.counter_mismatch": (sum(1 for a in audit if a[3] != a[4]), "count/pass"),
        "trace.wall_s": (traced_wall, "s/pass"),
        "bench.self_s": (traced_wall - tr.top_total, "s/pass"),
        **{f"{m}.self_s": (v, "s/pass") for m, v in mods.items()},
    }
    metrics = {k: {"value": v / passes, "unit": u} for k, (v, u) in per_pass.items()}
    metrics["contracting.certificates_held_frac"] = {
        "value": tr.held / certs if certs else 0.0, "unit": "frac"}
    metrics["contracting.certs_per_search"] = {
        "value": span["certs_in_search"] / searches if searches else 0.0, "unit": "count"}
    metrics["banach.canon_reuse_frac"] = {
        "value": 1.0 - solves / (2 * pairs) if pairs else 0.0, "unit": "frac"}
    metrics["trace.overhead_frac"] = {
        "value": traced_wall / untraced_wall - 1.0, "unit": "frac"}
    return metrics


def write_trace(path, tracer, audit, env):
    names = ["name", "start", "end", "self", "parent", "instance"]
    doc = {
        "env": env,
        "span_fields": names,
        "spans": tracer.spans,
        "stats_fields": ["calls", "total", "self", "outer_calls", "outer_total", "outer_rows"],
        "stats": tracer.stats,
        "counter_audit_fields": ["pass", "instance", "key", "report", "wrapper"],
        "counter_audit": audit,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None, help="instances per pass")
    args = ap.parse_args()

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload]

        def make_pass(seed, p):
            return wl(seed, p, workdir)

        first = make_pass(args.seed, 0)
        setup_s = time.perf_counter() - T0
        result = {"setup_s": setup_s}
        if args.mode == "measure":
            result["env"] = environment()
            if args.trace:
                tracer, passes, tw, uw, rows, audit = measure_traced(
                    make_pass, args.seed, args.seconds, first, args.limit)
                result["layers"] = layer_metrics(tracer, passes, tw, uw, audit)
                result["trace_file"] = str(
                    OUT / f"trace-{args.workload}-seed{args.seed}.json")
                write_trace(Path(result["trace_file"]), tracer, audit, result["env"])
            else:
                pass_times, rows = measure(make_pass, args.seed, args.seconds, first)
                result["passes"] = pass_times
            result["instances"] = [
                {"kind": kind, "seconds": dt, "error": out.error} for kind, dt, out in rows
            ]
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
