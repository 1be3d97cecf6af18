"""jetmod benchmark: seeded workloads, end-to-end timing, outside-in tracing.

    python3 perfbench/run.py --workload equiv --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --list

Run from anywhere; the package is imported from ``src/`` of the checkout
this file sits in.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` runs the workload's fixed trace plan once
untraced and once traced and reports the per-layer metrics.  The last line
of standard output is the result object; the line before it holds the
environment record and the sample counts.  Full results and span trees go
to ``.bench_out/`` in the checkout.  ``--list`` prints every metric with
its unit.  See perfbench/README.md for the metric definitions.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
# Fresh worker processes per timed run; their set-ups give setup_s.  A
# jetkernel-k5 set-up takes about 5 s, so it gets two to keep a run short.
WORKERS = {"equiv": 3, "jetkernel-k5": 2}
SETUP_PROBES = 5  # cli-session: fresh `import jetmod.cli` processes per run
CHILD_TIMEOUT_S = 150
MIN_COVERAGE = 0.95

# worker and CLI processes run single-threaded BLAS
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["JETMOD_THREADS"] = "1"
    return env


def run_child(cmd, **kwargs):
    return subprocess.run(
        cmd, env=child_env(), timeout=CHILD_TIMEOUT_S, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, **kwargs,
    )


# ---------------------------------------------------------------------------
# environment record


def environment(seed, load_at_start):
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    commit = "unknown"  # a checkout without .git has no commit to report
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
        except OSError:
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "jetmod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {var: child_env()[var] for var in THREAD_VARS},
        "loadavg_at_start": load_at_start,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# in-process workloads


def run_worker(workload, seed, tiny, extra, tag):
    out = OUT_DIR / f"worker-{os.getpid()}-{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)] + (["--tiny"] if tiny else []) + extra
    cmd += ["--spawned", repr(time.monotonic())]
    proc = run_child(cmd, cwd=str(ROOT))
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr}")
    try:
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        out.unlink()


def timed_in_process(workload, seed, seconds, tiny):
    results = []
    parts = WORKERS[workload]
    for i in range(parts):
        extra = ["--seconds", repr(seconds / parts), "--part", str(i), "--parts", str(parts)]
        results.append(run_worker(workload, seed, tiny, extra, f"t{i}"))
    timed = [j for r in results for j in r["jobs"] if not j.get("setup")]
    return {
        "setups": [r["setup_s"] for r in results],
        "all_jobs": [j for r in results for j in r["jobs"]],
        "timed_jobs": timed,
        "timed_wall_s": sum(r["timed_wall_s"] for r in results),
        "rss_mb": max(r["rss_mb"] for r in results),
        "blas_threads": results[0]["blas_threads"],
    }


def traced_in_process(workload, seed, tiny):
    plain = run_worker(workload, seed, tiny, ["--plan"], "plain")
    traced = run_worker(workload, seed, tiny, ["--plan", "--trace"], "traced")
    return {
        "plain_jobs": plain["jobs"],
        "traced_jobs": traced["jobs"],
        "trace": traced["trace"],
        "blas_threads": traced["blas_threads"],
    }


# ---------------------------------------------------------------------------
# cli-session


def cli_job(session, name, index, workdir, stats_file=None):
    out_path = str(workdir / f"{index}-{name}.json")
    args = session.argv(name, out_path)
    if stats_file is None:
        cmd = [sys.executable, "-m", "jetmod.cli"] + args
    else:
        cmd = [sys.executable, str(HERE / "launch.py"), str(stats_file), name] + args
    t0 = time.perf_counter()
    proc = run_child(cmd, cwd=str(workdir))
    wall = time.perf_counter() - t0
    status, info = session.check(name, proc.returncode, out_path)
    if status != "ok" and proc.stderr:
        info["stderr"] = proc.stderr.strip()[-300:]
    job = {"name": name, "wall_s": wall, "status": status, "info": info}
    if name in session.probes:
        job["probe"] = True
    return job


def cli_session(seed, seconds, trace, tiny):
    import workloads

    workdir = OUT_DIR / f"cli-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        session = workloads.CliSession(seed, str(workdir), tiny=tiny)
        if trace:
            plain = [cli_job(session, n, i, workdir) for i, n in enumerate(session.trace_plan)]
            traced, exports = [], []
            for i, name in enumerate(session.trace_plan):
                stats_file = workdir / f"stats-{i}.json"
                traced.append(cli_job(session, name, i, workdir, stats_file))
                with open(stats_file, encoding="utf-8") as fh:
                    exports.append(json.load(fh))
                exports[-1]["jobs"][0]["ok"] = traced[-1]["status"] == "ok"
            return {"plain_jobs": plain, "traced_jobs": traced, "trace": merge_exports(exports)}

        setups = []
        for _ in range(SETUP_PROBES):
            spawned = time.monotonic()
            proc = run_child([sys.executable, "-c",
                              "import time, jetmod.cli; print(repr(time.monotonic()))"])
            if proc.returncode != 0:
                raise BenchError(f"import probe failed:\n{proc.stderr}")
            setups.append(float(proc.stdout.strip()) - spawned)
        probes = [cli_job(session, n, f"probe{i}", workdir)
                  for i, n in enumerate(session.probes)]
        jobs = []
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            name = session.rotation[len(jobs) % len(session.rotation)]
            jobs.append(cli_job(session, name, len(jobs), workdir))
        wall = time.perf_counter() - t0
        return {
            "setups": setups,
            "all_jobs": probes + jobs,
            "timed_jobs": jobs,
            "timed_wall_s": wall,
            "rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def merge_exports(exports):
    """Sum tracer exports of several processes; spans are laid end to end."""
    merged = {"stats": {}, "counters": {}, "errors": [], "jobs": [], "spans": []}
    errors = {}
    offset = 0.0
    for ex in exports:
        for name, (calls, incl, self_s) in ex["stats"].items():
            acc = merged["stats"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for name, value in ex["counters"].items():
            old = merged["counters"].get(name, 0.0)
            merged["counters"][name] = max(old, value) if name.endswith("max_size") else old + value
        for name, exc, count in ex["errors"]:
            errors[(name, exc)] = errors.get((name, exc), 0) + count
        merged["jobs"].extend(ex["jobs"])
        base = len(merged["spans"])
        end = offset
        for name, start, stop, parent in ex["spans"]:
            merged["spans"].append([name, offset + start, offset + stop,
                                    parent + base if parent >= 0 else -1])
            end = max(end, offset + stop)
        offset = end
    merged["errors"] = [[n, e, c] for (n, e), c in sorted(errors.items())]
    return merged


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """Highest percentile with at least ten samples above it: (value, percentile)."""
    xs = sorted(values)
    i = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def counted(jobs):
    """Jobs that count in attempted and failed: all but known-defect probes."""
    return [j for j in jobs if not j.get("probe")]


def end_to_end(res):
    ok = [j["wall_s"] for j in res["timed_jobs"] if j["status"] == "ok"]
    attempted = len(counted(res["all_jobs"]))
    failed = sum(j["status"] != "ok" for j in counted(res["all_jobs"]))
    if not ok:
        raise BenchError("no job succeeded in the timed phase")
    tail_s, tail_pct = tail(ok)
    metrics = {
        "setup_s": statistics.median(res["setups"]),
        "jobs_per_s": len(ok) / res["timed_wall_s"],
        "job_p50_s": statistics.median(ok),
        "job_tail_s": tail_s,
        "success_frac": (attempted - failed) / attempted,
        "peak_rss_mb": res["rss_mb"],
    }
    detail = {
        "job_samples": len(ok), "job_tail_pct": tail_pct, "setup_samples": res["setups"],
        "timed_jobs": len(res["timed_jobs"]), "timed_wall_s": res["timed_wall_s"],
    }
    return metrics, detail


def per_layer(res):
    tr = res["trace"]
    stats, counters = tr["stats"], tr["counters"]
    errors = {(n, e): c for n, e, c in tr["errors"]}
    jobs = res["traced_jobs"]
    n_ok = max(1, sum(j["status"] == "ok" for j in counted(jobs)))

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0] / n_ok

    def incl(name):
        return stats.get(name, [0, 0.0, 0.0])[1] / n_ok

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2] / n_ok

    def layer_self(layer):
        return sum(v[2] for k, v in stats.items() if k.split(".")[0] == layer) / n_ok

    def ratio(num, den):
        return num / den if den else 0.0

    infos = [j["info"] for j in jobs if "residual_over_tol" in j["info"]]
    eq = [i["residual_over_tol"] for i in infos if i["verdict"] == "equivalent"]
    refuted = [i["residual_over_tol"] for i in infos if i["verdict"] == "not-equivalent"]
    plain_s = sum(j["wall_s"] for j in res["plain_jobs"])
    traced_s = sum(j["wall_s"] for j in jobs)
    coverage = min(j["covered_s"] / j["wall_s"] for j in tr["jobs"])

    m = {
        "jets.context_build.calls": calls("jets.context_build"),
        "jets.context_build.s": incl("jets.context_build"),
        "jets.context.max_size": counters.get("jets.context.max_size", 0.0),
        "jets.context.hit_ratio": ratio(counters.get("jets.context.hits", 0.0),
                                        stats.get("jets.context", [0])[0]),
        "jets.series_mul.calls": calls("jets.series_mul"),
        "jets.series_mul.self_s": self_s("jets.series_mul"),
        "jets.conv_pairs": counters.get("jets.conv_pairs", 0.0) / n_ok,
        "jets.conv_bytes_computed": counters.get("jets.conv_bytes_computed", 0.0) / n_ok,
    }
    for op in ("power", "log", "exp", "recip", "matmul", "matrix_inverse"):
        m[f"jets.{op}.calls"] = calls(f"jets.{op}")
        m[f"jets.{op}.s"] = incl(f"jets.{op}")
    m["jets.self_s"] = layer_self("jets")
    ej = "kernels.eval_jet"
    m.update({
        f"{ej}.calls": calls(ej),
        f"{ej}.s": incl(ej),
        f"{ej}.self_s": self_s(ej),
        f"{ej}.coeffs": counters.get(f"{ej}.coeffs", 0.0) / n_ok,
        f"{ej}.repeat_frac": ratio(counters.get(f"{ej}.repeats", 0.0), stats.get(ej, [0])[0]),
        f"{ej}.domain_errors": errors.get((ej, "DomainError"), 0) / n_ok,
        "kernels.eval_point.calls": calls("kernels.eval_point"),
        "kernels.eval_point.s": incl("kernels.eval_point"),
        "kernels.parse_kernel.s": incl("kernels.parse_kernel"),
        "kernels.pullback_affine.s": incl("kernels.pullback_affine"),
    })
    ne = "geometry.normalized_eval"
    m.update({
        f"{ne}.calls": calls(ne),
        f"{ne}.s": incl(ne),
        f"{ne}.repeat_frac": ratio(counters.get(f"{ne}.repeats", 0.0), stats.get(ne, [0])[0]),
    })
    for op in ("curvature", "covariant", "transport"):
        m[f"geometry.{op}.calls"] = calls(f"geometry.{op}")
        m[f"geometry.{op}.s"] = incl(f"geometry.{op}")
    m["geometry.self_s"] = layer_self("geometry")
    m.update({
        "jet_kernels.jet_kernel.calls": calls("jet_kernels.jet_kernel"),
        "jet_kernels.jet_kernel.s": incl("jet_kernels.jet_kernel"),
        "jet_kernels.jet_kernel.self_s": self_s("jet_kernels.jet_kernel"),
        "equivalence.invariant_array.calls": calls("equivalence.invariant_array"),
        "equivalence.invariant_array.s": incl("equivalence.invariant_array"),
        "equivalence.self_s": layer_self("equivalence"),
        "equivalence.residual_over_tol.max_equivalent": max(eq, default=0.0),
        "equivalence.residual_over_tol.min_refuted": min(refuted, default=0.0),
        "bergman_quotient.build_level.calls": calls("bergman_quotient.build_level"),
        "bergman_quotient.build_level.s": incl("bergman_quotient.build_level"),
        "bergman_quotient.quotient_kernel_partial.s": incl("bergman_quotient.quotient_kernel_partial"),
        "bergman_quotient.self_s": layer_self("bergman_quotient"),
        "multiindex.pochhammer.calls": calls("multiindex.pochhammer"),
        "multiindex.pochhammer.s": incl("multiindex.pochhammer"),
        "multiindex.self_s": layer_self("multiindex"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.s": incl("cli.main"),
        "cli.write_report.s": incl("cli.write_report"),
        "cli.self_s": layer_self("cli"),
        "trace_overhead": traced_s / plain_s - 1.0,
        "trace_coverage": coverage,
    })
    detail = {"traced_jobs": len(jobs), "successful_traced_jobs": n_ok,
              "untraced_s": plain_s, "traced_s": traced_s}
    return m, detail


# ---------------------------------------------------------------------------


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    load_at_start = list(os.getloadavg())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the benchmark's self-tests")
    p.add_argument("--list", action="store_true", help="print every metric with its unit")
    args = p.parse_args(argv)

    spec = load_spec()
    if args.list:
        for group in ("end_to_end", "per_layer"):
            for metric in spec[group]:
                print(f"{group:10s} {metric['name']:48s} {metric['unit']:8s} {metric['better']}")
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        p.error(f"--workload must be one of {', '.join(names)}")
    if not (ROOT / "src" / "jetmod" / "__init__.py").is_file():
        print(f"error: no jetmod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:  # before numpy is imported here
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    from worker import blas_threads

    OUT_DIR.mkdir(exist_ok=True)
    env = environment(args.seed, load_at_start)

    try:
        if args.workload == "cli-session":
            res = cli_session(args.seed, args.seconds, args.trace, args.tiny)
        elif args.trace:
            res = traced_in_process(args.workload, args.seed, args.tiny)
        else:
            res = timed_in_process(args.workload, args.seed, args.seconds, args.tiny)
        if args.trace:
            metrics, detail = per_layer(res)
            group = "per_layer"
            jobs = res["traced_jobs"] + res["plain_jobs"]
            scored = counted(res["traced_jobs"])
        else:
            metrics, detail = end_to_end(res)
            group = "end_to_end"
            jobs = res["all_jobs"]
            scored = counted(jobs)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        if metrics["trace_coverage"] < MIN_COVERAGE:
            detail["coverage_error"] = f"top-level spans cover {metrics['trace_coverage']:.3f} of a job"
        with open(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"jobs": res["trace"]["jobs"], "spans": res["trace"]["spans"]}, fh)
    # measured in a worker; cli-session children run with this process's settings
    env["blas_threads"] = res.get("blas_threads", blas_threads())
    units = {m["name"]: m["unit"] for m in spec[group]}
    wrong = [j for j in jobs if j["status"] == "wrong"]
    result = {
        "correct": not wrong and "coverage_error" not in detail,
        "attempted": len(scored),
        "failed": sum(j["status"] != "ok" for j in scored),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    detail["known_defect_probes"] = [
        {"name": j["name"], "status": j["status"], "exit": j["info"].get("exit")}
        for j in jobs if j.get("probe")]
    full = {"env": env, "detail": detail, "result": result, "jobs": jobs}
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    print(json.dumps({"env": env, "detail": detail,
                      "not_ok": [{k: j[k] for k in ("name", "status", "info")}
                                 for j in counted(jobs) if j["status"] != "ok"][:5]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
