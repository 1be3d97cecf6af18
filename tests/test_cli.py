"""Command-line interface: exit codes, JSON reports, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "jetmod.cli", *args],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture
def kernel_dir(tmp_path):
    (tmp_path / "b2.kernel").write_text("m = 1\nK = bergman(2)\n")
    (tmp_path / "b123.kernel").write_text("m = 3\nK = bergman(1,2,3)\n")
    (tmp_path / "b132.kernel").write_text("m = 3\nK = bergman(1,3,2)\n")
    (tmp_path / "const.kernel").write_text("m = 2\nK[1][1] = 1\n")
    (tmp_path / "neg.kernel").write_text("m = 1\nK[1][1] = (z1*wb1 - 2)^-2\n")
    (tmp_path / "bad.kernel").write_text("m = 1\nK[1][1] = (1 - z1*wb1\n")
    (tmp_path / "diag12.kernel").write_text(
        "m = 2\nr = 2\n"
        "K[1][1] = (1 - z1*wb1)^-1 * (1 - z2*wb2)^-1\n"
        "K[1][2] = 0\nK[2][1] = 0\n"
        "K[2][2] = (1 - z1*wb1)^-2 * (1 - z2*wb2)^-1\n"
    )
    (tmp_path / "diag11.kernel").write_text(
        "m = 2\nr = 2\n"
        "K[1][1] = (1 - z1*wb1)^-1 * (1 - z2*wb2)^-1\n"
        "K[1][2] = 0\nK[2][1] = 0\n"
        "K[2][2] = (1 - z1*wb1)^-1 * (1 - z2*wb2)^-1\n"
    )
    return tmp_path


class TestCurvature:
    def test_disc_kernel_at_origin(self, kernel_dir, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli(
            "curvature", "--kernel", str(kernel_dir / "b2.kernel"),
            "--points", "0", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        block = payload["results"]["points"][0]["blocks"][0][0]
        assert abs(block[0][0][0] - 2.0) < 1e-12  # [re, im] encoding

    def test_constant_kernel_zero(self, kernel_dir):
        res = run_cli(
            "curvature", "--kernel", str(kernel_dir / "const.kernel"),
            "--points", "0.1, 0.2",
        )
        assert res.returncode == 0

    def test_negative_base_kernel(self, kernel_dir):
        res = run_cli("curvature", "--kernel", str(kernel_dir / "neg.kernel"),
                      "--points", "0; 0.3")
        assert res.returncode == 0, res.stderr

    def test_malformed_file_is_exit_2(self, kernel_dir):
        res = run_cli("curvature", "--kernel", str(kernel_dir / "bad.kernel"),
                      "--points", "0")
        assert res.returncode == 2
        assert "line" in res.stderr

    def test_missing_file_is_exit_2(self, kernel_dir):
        res = run_cli("curvature", "--kernel", str(kernel_dir / "nope.kernel"),
                      "--points", "0")
        assert res.returncode == 2

    @pytest.mark.parametrize("expr, col", [
        ("1e400*z1*wb1 + (1-z1*wb1)^-2", 11), ("(1 - z1*wb1)^-1e400", 25),
    ])
    def test_non_finite_literal_is_exit_2(self, tmp_path, expr, col):
        path = tmp_path / "inf.kernel"
        path.write_text(f"m = 1\nK[1][1] = {expr}\n")
        res = run_cli("curvature", "--kernel", str(path), "--points", "0.1")
        assert res.returncode == 2
        assert f"line 2, col {col}: numeric literal '1e400' is not finite" in res.stderr
        assert "Traceback" not in res.stderr


class TestEquiv:
    def test_identical_files_exit_0(self, kernel_dir):
        res = run_cli(
            "equiv", "--kernel", str(kernel_dir / "b123.kernel"),
            "--kernel2", str(kernel_dir / "b123.kernel"),
            "--chart", "diagonal(3)", "-k", "2",
        )
        assert res.returncode == 0, res.stderr
        assert "verdict: equivalent" in res.stdout

    def test_permuted_weights_exit_3(self, kernel_dir):
        res = run_cli(
            "equiv", "--kernel", str(kernel_dir / "b123.kernel"),
            "--kernel2", str(kernel_dir / "b132.kernel"),
            "--chart", "diagonal(3)", "-k", "2",
        )
        assert res.returncode == 3
        assert "verdict: not-equivalent" in res.stdout

    def test_degenerate_pair_exit_4(self, kernel_dir):
        res = run_cli(
            "equiv", "--kernel", str(kernel_dir / "diag11.kernel"),
            "--kernel2", str(kernel_dir / "diag12.kernel"),
            "--chart", "identity(2,1)", "-k", "2",
        )
        assert res.returncode == 4, res.stdout + res.stderr
        assert "verdict: inconclusive" in res.stdout

    def test_invariant_criterion(self, kernel_dir):
        res = run_cli(
            "equiv", "--kernel", str(kernel_dir / "b123.kernel"),
            "--kernel2", str(kernel_dir / "b132.kernel"),
            "--chart", "diagonal(3)", "-k", "2", "--criterion", "invariants",
        )
        assert res.returncode == 3

    def test_invariant_criterion_in_one_variable(self, kernel_dir):
        # the default chart of an m = 1 kernel is identity(1, 1): no tangential directions
        res = run_cli(
            "equiv", "--kernel", str(kernel_dir / "b2.kernel"),
            "--kernel2", str(kernel_dir / "b2.kernel"), "--criterion", "invariants",
        )
        assert res.returncode == 0, res.stderr
        assert "verdict: equivalent" in res.stdout


class TestRecoverWeights:
    def test_round_trip(self, kernel_dir, tmp_path):
        out = tmp_path / "w.json"
        res = run_cli("recover-weights", "--weights", "1,2,3", "--out", str(out))
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        recovered = payload["results"]["recovered"]
        assert max(abs(r - w) for r, w in zip(recovered, [1, 2, 3])) < 1e-7

    def test_single_weight(self):
        res = run_cli("recover-weights", "--weights", "1.5")
        assert res.returncode == 0

    def test_single_weight_off_the_origin(self):
        res = run_cli("recover-weights", "--weights", "1.5", "--points", "5")
        assert res.returncode == 2
        assert "off the submanifold" in res.stderr

    def test_off_manifold_sample(self):
        res = run_cli("recover-weights", "--weights", "1,2,3",
                      "--points", "0.1, 0, 0.2")
        assert res.returncode == 2


class TestQuotientDemo:
    def test_default_run(self, tmp_path):
        out = tmp_path / "q.json"
        res = run_cli("quotient-demo", "--weights", "1,1,1", "--z", "0.3",
                      "--plevels", "3", "--out", str(out))
        assert res.returncode == 0, res.stderr
        payload = json.loads(out.read_text())
        assert payload["results"]["max_deviation"] < 1e-6
        assert all(row["rel_err"] < 1e-9 for row in payload["results"]["levels"])

    def test_small_pmax_reports_tail(self):
        res = run_cli("quotient-demo", "--weights", "1,1,1", "--z", "0.6",
                      "--pmax", "1", "--plevels", "1")
        assert res.returncode == 0
        # the deviation and the tail estimate are reported honestly
        assert "max |oracle - jet|" in res.stdout
        assert "tail estimate" in res.stdout

    def test_levels_past_float_factorials(self, tmp_path):
        # (1)_p and p! overflow a float from p = 171; the closed forms do not
        out = tmp_path / "q.json"
        res = run_cli("quotient-demo", "--plevels", "171", "--pmax", "1", "--out", str(out))
        assert res.returncode == 0, res.stderr
        levels = json.loads(out.read_text())["results"]["levels"]
        assert len(levels) == 172 * 6
        assert all(row["rel_err"] < 1e-9 for row in levels)

    @pytest.mark.parametrize("weights, level", [("20,20,20", 58), ("1000,1000,1000", 13)])
    def test_level_table_past_float_range_refused(self, weights, level, capsys):
        from jetmod.cli import main

        code = main(["quotient-demo", "--weights", weights, "--plevels", "200", "--pmax", "1"])
        assert code == 2
        assert f"level {level} quantities overflow a float" in capsys.readouterr().err

    def test_oversized_sum_refused_at_once(self, capsys):
        from jetmod.cli import main

        t0 = time.perf_counter()
        code = main(["quotient-demo", "--pmax", "100000", "--plevels", "0"])
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert "degree <= 100000 in m = 3 variables" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["curvature", "--kernel", "K"],
    ["equiv", "--kernel", "K", "--kernel2", "K"],
    ["recover-weights", "--weights", "1,2,3"],
])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_empty_sample_set_refused(argv, count, capsys):
    from jetmod.cli import main

    with pytest.raises(SystemExit) as exc:
        main([*argv, "--num-samples", count])
    assert exc.value.code == 2
    assert f"at least one sample is needed, got {count}" in capsys.readouterr().err


# the shared flags that each command does not read; e.g. quotient-demo -k 3
# exits 2 instead of running at order 2
UNREAD_FLAGS = {
    ("curvature", "--kernel", "K"): ["-d", "-k", "--tol"],
    ("jetkernel", "--kernel", "K"): ["--seed", "--num-samples", "--tol"],
    ("equiv", "--kernel", "K", "--kernel2", "K"): ["--trunc"],
    ("recover-weights", "--weights", "1"): ["--chart", "-d", "-k", "--tol", "--trunc"],
    ("quotient-demo",): ["--chart", "-d", "-k", "--points", "--seed",
                         "--num-samples", "--tol", "--trunc"],
}


@pytest.mark.parametrize("argv, flag", [
    pytest.param(argv, flag, id=f"{argv[0]} {flag}")
    for argv, flags in UNREAD_FLAGS.items() for flag in flags
])
def test_unread_flags_are_not_registered(argv, flag, capsys):
    from jetmod.cli import build_parser

    parser = build_parser()
    parser.parse_args(list(argv))
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([*argv, flag, "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


class TestJetKernel:
    def test_legend_and_restriction(self, kernel_dir):
        res = run_cli(
            "jetkernel", "--kernel", str(kernel_dir / "b123.kernel"),
            "--chart", "diagonal-anchored(3)", "-k", "2",
            "--points", "0, 0, 0.2", "--restrict",
        )
        assert res.returncode == 0, res.stderr
        assert "rank 0: order (0, 0)" in res.stdout

    def test_oversized_context_refused_at_once(self, kernel_dir, capsys):
        from jetmod.cli import main

        t0 = time.perf_counter()
        code = main(["jetkernel", "--kernel", str(kernel_dir / "b123.kernel"),
                     "--chart", "diagonal-anchored(3)", "-k", "9"])
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert "(6, 16) needs 30421755 product pairs" in capsys.readouterr().err

    def test_off_manifold_restriction_rejected(self, kernel_dir):
        res = run_cli(
            "jetkernel", "--kernel", str(kernel_dir / "b123.kernel"),
            "--chart", "diagonal-anchored(3)", "-k", "2",
            "--points", "0.1, 0, 0.2", "--restrict",
        )
        assert res.returncode == 2


class TestDeterminism:
    def test_reports_identical_modulo_timestamp(self, kernel_dir, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            res = run_cli(
                "equiv", "--kernel", str(kernel_dir / "b123.kernel"),
                "--kernel2", str(kernel_dir / "b132.kernel"),
                "--chart", "diagonal(3)", "-k", "2", "--seed", "7",
                "--out", str(out),
            )
            assert res.returncode == 3
            payload = json.loads(out.read_text())
            payload.pop("timestamp")
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]

    def test_no_partial_output_on_error(self, kernel_dir, tmp_path):
        out = tmp_path / "never.json"
        res = run_cli("curvature", "--kernel", str(kernel_dir / "bad.kernel"),
                      "--points", "0", "--out", str(out))
        assert res.returncode == 2
        assert not out.exists()


class TestChartSpecs:
    def test_json_chart(self, kernel_dir):
        chart = json.dumps({
            "matrix": [[1, 0], [0, 1]],
            "offset": [0, 0],
            "d": 1,
        })
        res = run_cli(
            "equiv", "--kernel", str(kernel_dir / "diag12.kernel"),
            "--kernel2", str(kernel_dir / "diag12.kernel"),
            "--chart", chart, "-k", "2",
        )
        assert res.returncode == 0, res.stderr

    def test_bad_chart(self, kernel_dir):
        res = run_cli("curvature", "--kernel", str(kernel_dir / "b2.kernel"),
                      "--chart", "spiral(9)", "--points", "0")
        assert res.returncode == 2

    def test_version(self):
        res = run_cli("--version")
        assert res.returncode == 0 and "jetmod" in res.stdout
