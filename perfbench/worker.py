"""One fresh interpreter running an in-process workload (equiv, jetkernel-k5).

Timed mode runs the first job of the rotation cold (it ends set-up), then
part ``--part`` of ``--parts`` of the rotation until ``--seconds`` have
passed:

    python perfbench/worker.py --workload equiv --seed 7 --spawned T \
        --seconds 10 --part 1 --parts 3 --out FILE

Plan mode runs the workload's fixed trace plan from a cold start, with the
tracer installed when ``--trace`` is given:

    python perfbench/worker.py --workload equiv --seed 7 --spawned T \
        --plan [--trace] --out FILE

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process; CLOCK_MONOTONIC is system-wide, so set-up time counts from
before interpreter start.  The result is written to ``--out`` as JSON.
"""

import argparse
import json
import os
import resource
import sys
import time


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--part", type=int, default=0)
    p.add_argument("--parts", type=int, default=1)
    p.add_argument("--plan", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer as tracing
    import workloads

    wl = workloads.IN_PROCESS[args.workload](args.seed, tiny=args.tiny)
    tracer = tracing.Tracer()  # wrappers only with --trace; it still times jobs
    if args.trace:
        tracer.install()
    jobs = []

    def run_job(name):
        run = tracer.run_job(name, lambda: wl.run(name))
        if run["error"] is not None:
            status, info = "failed", {"error": f"{type(run['error']).__name__}: {run['error']}"}
        else:
            status, info = wl.check(name, run["result"])
        tracer.record_job(name, status == "ok", run)
        jobs.append({"name": name, "wall_s": run["wall_s"], "status": status, "info": info})

    out = {}
    if args.plan:
        for name in wl.trace_plan:
            run_job(name)
    else:
        run_job(wl.rotation[0])
        out["setup_s"] = time.monotonic() - args.spawned
        jobs[0]["setup"] = True
        t0 = time.perf_counter()
        # each part starts at its own place in the rotation, so the parts
        # of a run together cover the rotation evenly
        i = 1 + args.part * len(wl.rotation) // args.parts
        while time.perf_counter() - t0 < args.seconds:
            run_job(wl.rotation[i % len(wl.rotation)])
            i += 1
        out["timed_wall_s"] = time.perf_counter() - t0

    if args.trace:
        tracer.uninstall()
        out["trace"] = tracer.export()
    out["jobs"] = jobs
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["blas_threads"] = blas_threads()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
