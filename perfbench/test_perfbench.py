"""Self-tests for the benchmark: python3 -m pytest perfbench -q"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = re.compile(r".*\.calls$|^jets\.conv_pairs$")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )
    return proc


def tiny(workload, trace, seed=5, record=False):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    return (res, json.loads(lines[-2])) if record else res


def test_spec_follows_its_limits():
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    listed = bench("--list").stdout.split("\n")
    assert len([ln for ln in listed if ln.strip()]) == len(names)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_timed_run_reports_every_metric(workload):
    res, record = tiny(workload, 0, record=True)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    probes = record["detail"]["known_defect_probes"]
    if workload == "cli-session":
        # reported beside the result, not counted: it exits 2 until
        # eval_jet accepts g0 < 0
        assert [(p["name"], p["status"], p["exit"]) for p in probes] == [("neg-base", "failed", 2)]
    else:
        assert probes == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = tiny(workload, 1), tiny(workload, 1)
    assert first["correct"] is True
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = {k: v["value"] for k, v in first["metrics"].items() if COUNTS.match(k)}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert first["metrics"]["trace_coverage"]["value"] >= 0.95


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import jetmod
    import tracer as tracing
    from jetmod import equivalence, kernels

    before = tracing.snapshot()
    tr = tracing.Tracer().install()
    try:
        # from-imports and re-exports are wrapped too
        assert equivalence.pullback_affine is kernels.pullback_affine
        assert jetmod.pullback_affine is kernels.pullback_affine
        assert kernels.pullback_affine is not before[("kernels", "pullback_affine")]
        run = tr.run_job("probe", lambda: jetmod.curvature(jetmod.builtin_bergman([2.0]), [0.0]))
        assert run["error"] is None
        assert tr.stats["geometry.curvature"][0] == 1
        assert tr.stats["jets.series_mul"][0] > 0
    finally:
        tr.uninstall()
    after = tracing.snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "equiv", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
