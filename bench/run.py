"""kkit benchmark: time to a checked verdict on three workloads.

    python3 bench/run.py --workload ellipsoid_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --selftest

Each run starts fresh worker processes from the checkout's ``src``: two that
only set up (import kkit, build the inputs) and one that sets up and then
measures.  ``setup_s`` is the median of the three set-ups.  With ``--trace 0``
the last line of output is the end-to-end metrics; with ``--trace 1`` it is the
per-layer metrics of a traced run.  Every instance's verdict and witness is
checked; a failed check counts in ``failed`` and makes ``correct`` false.
See bench/README.md for the workloads and how to read the layer metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("ellipsoid_sweep", "fixture_cli", "banach_pairs")
SETUP_PROBES = 2  # set-up-only processes, besides the measuring one
DEADLINE_S = 170.0  # every run must end within 180 s


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    # one BLAS thread: the workloads are many small calls, and pinning keeps
    # runs comparable on a shared machine; kkit itself is not told anything
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    return env


def worker(args, deadline):
    """Run one worker process to completion; its parsed JSON result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit():
    """The checkout's commit if it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def src_digest():
    """Hash of the kkit sources, which names the code when there is no git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_checkout():
    needed = ("src/kkit/__init__.py", "fixtures/ellipsoid.json")
    missing = [p for p in needed if not (ROOT / p).exists()]
    if missing:
        raise BenchError(f"not a kkit checkout, missing {', '.join(missing)}")


def run(workload, seed, seconds, trace, limit=None):
    """One benchmark run: set-up probes, then the measuring worker."""
    check_checkout()
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [
        worker(base + ["--mode", "setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES)
    ]
    extra = ["--limit", str(limit)] if limit else []
    res = worker(
        base + ["--mode", "measure", "--seconds", str(seconds), "--trace", str(trace)] + extra,
        deadline,
    )
    res["setups"] = setups + [res["setup_s"]]
    return res


def end_to_end(res):
    return {
        "setup_s": {"value": statistics.median(res["setups"]), "unit": "s"},
        "wall_s": {"value": statistics.median(res["passes"]), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def report(args, res):
    attempted = len(res["instances"])
    failed = [i for i in res["instances"] if i["error"] is not None]
    metrics = res["layers"] if args.trace else end_to_end(res)
    env = {**res["env"], "commit": commit(), "src_sha256": src_digest()}
    print(f"# kkit benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for inst in failed:
        print(f"# FAILED {inst['kind']}: {inst['error']}")
    if not args.trace:
        times = [i["seconds"] for i in res["instances"]]
        print(f"# passes={len(res['passes'])} instances={attempted} "
              f"setup samples={len(res['setups'])}")
        # informational only: instance costs are multimodal, so the median
        # jumps between instance classes from seed to seed, and millisecond
        # commands dominate the geometric mean's noise
        print(f"# instance time over {len(times)} instances: median "
              f"{statistics.median(times):.4g} s, geometric mean "
              f"{statistics.geometric_mean(times):.4g} s (informational)")
    else:
        print(f"# trace written to {os.path.relpath(res['trace_file'], ROOT)}")
    print(f"# failed_frac {len(failed) / attempted:.4g} ({len(failed)}/{attempted})")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))


def selftest():
    """One instance per workload, traced and replayed untraced: no check may
    fail, tracing may change no report, and self times must add up."""
    ok = True
    for wl in WORKLOADS:
        res = run(wl, 0, 0, 1, limit=1)
        layers = res["layers"]
        failed = [i for i in res["instances"] if i["error"] is not None]
        parts = sum(layers[f"{m}.self_s"]["value"] for m in
                    ("bodies", "linalg", "contracting", "quadform", "classifier", "banach", "cli"))
        wall = layers["trace.wall_s"]["value"]
        gap = abs(parts + layers["bench.self_s"]["value"] - wall) / wall
        verdict = "ok" if not failed and gap < 1e-6 else "FAILED"
        ok = ok and verdict == "ok"
        print(f"selftest {wl}: {len(res['instances'])} runs, {len(failed)} failed, "
              f"self times account for the traced wall to {gap:.1e}, "
              f"overhead {layers['trace.overhead_frac']['value']:+.1%}: {verdict}")
        for inst in failed:
            print(f"  {inst['kind']}: {inst['error']}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="one traced instance per workload, checked against an untraced replay")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            ap.error("--workload is required")
        report(args, run(args.workload, args.seed, args.seconds, args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
