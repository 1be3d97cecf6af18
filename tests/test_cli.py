"""Command-line interface: exit codes, JSON reports, determinism."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
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
    # three positive-definite summands: an irreducible family after normalization
    mix = [
        "2 * B11 + B21 + B12", "B11 + 0.5 * B12", "B11 + 0.5 * B12", "B11 + 2 * B21 + 3 * B12",
    ]
    factors = {f"B{a}{b}": f"(1 - z1*wb1)^-{a} * (1 - z2*wb2)^-{b}" for a in "12" for b in "12"}
    for name, gauge in (("mix", "{}"), ("mix-gauge", "(1 + 0.2*z1) * ({}) * (1 + 0.2*wb1)")):
        lines = ["m = 2", "r = 2"]
        for (i, j), entry in zip([(1, 1), (1, 2), (2, 1), (2, 2)], mix):
            for key, factor in factors.items():
                entry = entry.replace(key, factor)
            lines.append(f"K[{i}][{j}] = " + gauge.format(entry))
        (tmp_path / f"{name}.kernel").write_text("\n".join(lines) + "\n")
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

    @pytest.mark.parametrize("scale", ["1e-20", "1e-13", "1e-12", "1e-6", "1", "1e6", "1e12"])
    def test_hermitian_check_relative_to_scale(self, tmp_path, scale, capsys):
        # an absolute 1e-8 once refused the scale 1e12 (deviation 7.6e-06), and a
        # positive-definiteness check floored at scale 1 the scales 1e-13 and 1e-20
        from jetmod.cli import main

        path = tmp_path / "scaled.kernel"
        path.write_text(f"m = 2\nK[1][1] = {scale}*(1 - z1*wb1)^-2*(1 - z2*wb2)^-3\n")
        code = main(["curvature", "--kernel", str(path), "--points", "0.1, 0.2"])
        assert code == 0, capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["1e-12", "1", "1e12"])
    def test_non_hermitian_kernel_is_exit_2(self, tmp_path, scale, capsys):
        # at 1e-12 a check floored at scale 1 let the kernel through (exit 0)
        from jetmod.cli import main

        path = tmp_path / "skew.kernel"
        path.write_text(f"m = 2\nK[1][1] = {scale}*(1 + z1*wb2)\n")
        assert main(["curvature", "--kernel", str(path), "--points", "0.1, 0.2"]) == 2
        assert "not Hermitian-symmetric" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", [
        "(1 + 1e200*z1*wb1)*(1 + 1e200*z2*wb2)", "(1 + 1e200*z1*wb1)^2",
    ])
    def test_overflowing_kernel_is_exit_2_without_warnings(self, tmp_path, expr):
        # an overflow once leaked numpy RuntimeWarnings and was reported as
        # "kernel is not Hermitian-symmetric: deviation nan"
        path = tmp_path / "huge.kernel"
        path.write_text(f"m = 2\nK[1][1] = {expr}\n")
        res = run_cli("curvature", "--kernel", str(path), "--points", "0.1,0.2")
        assert res.returncode == 2
        (line,) = res.stderr.splitlines()
        assert line.startswith("error: kernel value is not finite")

    def test_whole_power_of_a_vanishing_base(self, tmp_path):
        # the Euler recurrence divides by the base's constant term, 0 here;
        # the repeated product does not
        blocks = []
        for name, expr in [("square", "1 + (z1*wb1)^2"), ("written", "1 + z1*wb1*z1*wb1")]:
            (tmp_path / f"{name}.kernel").write_text(f"m = 1\nr = 1\nK[1][1] = {expr}\n")
            out = tmp_path / f"{name}.json"
            res = run_cli("curvature", "--kernel", str(tmp_path / f"{name}.kernel"),
                          "--points", "0; 0.3", "--out", str(out))
            assert res.returncode == 0, res.stderr
            blocks.append([p["blocks"] for p in json.loads(out.read_text())["results"]["points"]])
        assert np.allclose(*blocks, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("exponent", ["-2", "0.5"])
    def test_negative_or_fractional_power_of_a_vanishing_base_is_exit_2(self, tmp_path, exponent):
        path = tmp_path / "vanishing.kernel"
        path.write_text(f"m = 1\nK[1][1] = 1 + (z1*wb1)^{exponent}\n")
        res = run_cli("curvature", "--kernel", str(path), "--points", "0")
        assert res.returncode == 2
        assert "series power requires a constant term away from 0" in res.stderr

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

    def test_degenerate_pair_exit_3(self, kernel_dir):
        # a reducible pair whose null space holds no invertible intertwiner
        res = run_cli(
            "equiv", "--kernel", str(kernel_dir / "diag11.kernel"),
            "--kernel2", str(kernel_dir / "diag12.kernel"),
            "--chart", "identity(2,1)", "-k", "2",
        )
        assert res.returncode == 3, res.stdout + res.stderr
        assert "verdict: not-equivalent" in res.stdout
        assert "note: null space dimension 2" in res.stdout

    def test_residual_inside_the_margin_exit_4(self, tmp_path, kernel_dir):
        # weights 7 digits apart: the worst residual lies between tol and 10 tol
        (tmp_path / "b123x.kernel").write_text("m = 3\nK = bergman(1,2,3.0000001)\n")
        res = run_cli(
            "equiv", "--kernel", str(kernel_dir / "b123.kernel"),
            "--kernel2", str(tmp_path / "b123x.kernel"),
            "--chart", "diagonal(3)", "-k", "2",
        )
        assert res.returncode == 4, res.stdout + res.stderr
        assert "verdict: inconclusive" in res.stdout

    def test_witness_contract(self, kernel_dir, tmp_path):
        # an irreducible rank-2 kernel against a gauge of it: the witness is
        # unique up to a phase and its JSON fields keep their names
        out = tmp_path / "equiv.json"
        res = run_cli(
            "equiv", "--kernel", str(kernel_dir / "mix.kernel"),
            "--kernel2", str(kernel_dir / "mix-gauge.kernel"),
            "--chart", "identity(2,1)", "-k", "2", "--out", str(out),
        )
        assert res.returncode == 0, res.stdout + res.stderr
        witness = json.loads(out.read_text())["results"]["witness"]
        assert set(witness) == {"matrix", "unitarity_defect", "max_residual", "null_dim",
                                "candidate_sv_ratio"}
        assert witness["null_dim"] == 1
        assert witness["unitarity_defect"] <= 1e-12
        assert 0.5 < witness["candidate_sv_ratio"] <= 1.0
        assert witness["max_residual"] <= 1e-8
        matrix = np.array(witness["matrix"])
        assert matrix.shape == (2, 2, 2)  # [re, im] encoding
        assert np.max(np.abs(matrix[..., 0] + 1j * matrix[..., 1] - np.eye(2))) < 1e-8

    @pytest.mark.parametrize("other, code", [("b123.kernel", 0), ("b132.kernel", 3)])
    def test_rank1_report_contract(self, kernel_dir, tmp_path, other, code):
        # scalar blocks: the witness is 1 and the residual alone decides
        out = tmp_path / "equiv.json"
        res = run_cli(
            "equiv", "--kernel", str(kernel_dir / "b123.kernel"),
            "--kernel2", str(kernel_dir / other),
            "--chart", "diagonal(3)", "-k", "2", "--out", str(out),
        )
        assert res.returncode == code, res.stdout + res.stderr
        results = json.loads(out.read_text())["results"]
        assert results["params"]["r"] == 1
        assert results["notes"] == ["null space dimension 1"]
        witness = results["witness"]
        assert witness["null_dim"] == 1 and witness["matrix"] == [[[1.0, 0.0]]]
        assert witness["unitarity_defect"] == 0 and witness["candidate_sv_ratio"] == 1

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

    @pytest.mark.parametrize("flag, value, message", [
        ("--pmax", "0", "the partial sum needs --pmax >= 1, got 0"),
        ("--plevels", "-1", "the level table needs --plevels >= 0, got -1"),
        ("--pmax", "x", "invalid int value: 'x'"),
    ])
    def test_flags_checked_at_parse_time(self, flag, value, message, capsys):
        from jetmod.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["quotient-demo", flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: {message}" in err

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


@pytest.mark.parametrize("argv", [
    ["jetkernel", "--kernel", "K"],
    ["equiv", "--kernel", "K", "--kernel2", "K"],
])
@pytest.mark.parametrize("d", ["0", "-1"])
def test_codimension_below_one_refused(argv, d, capsys):
    # -d 0 once ran silently at d = 1
    from jetmod.cli import main

    with pytest.raises(SystemExit) as exc:
        main([*argv, "-d", d])
    assert exc.value.code == 2
    assert f"the codimension needs -d >= 1, got {d}" in capsys.readouterr().err


CHART_COMMANDS = [
    ["jetkernel", "--kernel", "b123.kernel", "-k", "2", "--chart", "diagonal(3)"],
    ["equiv", "--kernel", "b123.kernel", "--kernel2", "b123.kernel", "-k", "2",
     "--chart", "diagonal(3)", "--num-samples", "1"],
]


@pytest.mark.parametrize("argv", CHART_COMMANDS)
@pytest.mark.parametrize("d", ["1", "3"])
def test_codimension_differing_from_the_chart_refused(argv, d, kernel_dir, monkeypatch, capsys):
    # -d 1 beside diagonal(3), whose d is 2, once ran silently at d = 2
    from jetmod.cli import main

    monkeypatch.chdir(kernel_dir)
    assert main([*argv, "-d", d]) == 2
    err = capsys.readouterr().err
    assert f"-d {d} differs from d=2 of --chart 'diagonal(3)'" in err


@pytest.mark.parametrize("argv", CHART_COMMANDS)
def test_codimension_equal_to_the_chart_or_absent_runs(argv, kernel_dir, monkeypatch, capsys):
    from jetmod.cli import main

    monkeypatch.chdir(kernel_dir)
    outputs = []
    for extra in ([], ["-d", "2"]):
        assert main([*argv, *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    if argv[0] == "jetkernel":
        assert outputs[0].startswith("jet kernel of b123.kernel (d=2, k=2, N=2)")


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "x"])
def test_bad_tolerance_refused(tol, capsys):
    from jetmod.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["equiv", "--kernel", "K", "--kernel2", "K", "--tol", tol])
    assert exc.value.code == 2
    assert "argument --tol:" in capsys.readouterr().err


# the shared flags that each command does not read; e.g. quotient-demo -k 3
# exits 2 instead of running at order 2
UNREAD_FLAGS = {
    ("curvature", "--kernel", "K"): ["-d", "-k", "--tol", "--trunc"],
    ("jetkernel", "--kernel", "K"): ["--seed", "--num-samples", "--tol", "--trunc"],
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


@pytest.mark.parametrize("argv", [
    ["quotient-demo", "--z", "nan"],
    ["curvature", "--kernel", "b123.kernel", "--points", "0.1,nan,0"],
    ["equiv", "--kernel", "b123.kernel", "--kernel2", "b132.kernel", "--chart", "diagonal(3)",
     "--points", "0,0,nan"],
    ["recover-weights", "--weights", "1,2", "--points", "0,nan"],
])
def test_non_finite_point_refused(argv, kernel_dir, capsys, monkeypatch):
    from jetmod.cli import main

    monkeypatch.chdir(kernel_dir)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "nan" in err and ("non-finite coordinate" in err or "must be < 1" in err)


def test_curvature_samples_are_default_samples(kernel_dir, tmp_path):
    from jetmod.equivalence import default_samples

    out = tmp_path / "c.json"
    res = run_cli("curvature", "--kernel", str(kernel_dir / "b123.kernel"),
                  "--seed", "7", "--num-samples", "3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    points = [[complex(*x) for x in row["point"]]
              for row in json.loads(out.read_text())["results"]["points"]]
    assert np.array_equal(points, default_samples(3, 0, 3, 7))


@pytest.mark.parametrize("argv, text", [
    (["curvature", "--kernel", "w.kernel", "--points", "0,0,0"], "m = 3\nK = bergman({})\n"),
    (["recover-weights", "--weights", "{}"], None),
])
@pytest.mark.parametrize("weights", ["inf,1,1", "1e999,1,1", "nan,1,1", "1,nan,2"])
def test_non_finite_bergman_weights_refused(argv, text, weights, tmp_path, capsys, monkeypatch):
    from jetmod.cli import main

    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "w.kernel").write_text(text.format(weights))
    assert main([a.format(weights) for a in argv]) == 2
    out, err = capsys.readouterr()
    bad = next(w for w in weights.split(",") if not 0 < float(w) < np.inf)
    assert err == f"error: bergman weights must be finite and >= 0, got {float(bad)!r}\n"
    assert out == ""


@pytest.mark.parametrize("argv, text", [
    (["curvature", "--kernel", "ov.kernel", "--points", "0.9"], "m = 1\nK[1][1] = (1 - z1*wb1)^-500\n"),
    (["recover-weights", "--weights", "1e300,1,1"], None),
])
def test_overflow_is_exit_2(argv, text, tmp_path, capsys, monkeypatch):
    from jetmod.cli import main

    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "ov.kernel").write_text(text)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "series power: the constant term's power overflows" in err


def test_error_without_source_position_names_the_entry(kernel_dir, capsys, monkeypatch):
    from jetmod.cli import main

    monkeypatch.chdir(kernel_dir)
    assert main(["curvature", "--kernel", "b123.kernel", "--points", "0.1,0.2,1.0"]) == 2
    err = capsys.readouterr().err
    assert "None" not in err
    assert err.startswith("error: in K[1][1]: series power requires a constant term away from 0")


def jetkernel_per_point(kernel_file, chart_text, k, points_text, restrict):
    """stdout and results of ``jetmod jetkernel`` as one jet_kernel call per point."""
    from jetmod import cli, jet_kernels
    from jetmod.geometry import check_on_submanifold
    from jetmod.kernels import pullback_affine

    spec = cli.load_kernel(kernel_file)
    chart = cli.parse_chart(chart_text)
    pulled = pullback_affine(spec, chart)
    points = cli.parse_points(points_text, spec.m)
    idx = jet_kernels.JetIndexTable(chart.d, k)
    legend = [f"rank {l}: order {alpha}" for l, alpha in enumerate(idx.indices)]
    rows = []
    for point in points:
        if restrict:
            check_on_submanifold(point, chart.d, "point")
        jkv = jet_kernels.jet_kernel(pulled, chart.d, k, point, point)
        rows.append({"point": list(point), "matrix": jkv.as_matrix()})
    lines = [f"jet kernel of {kernel_file} (d={chart.d}, k={k}, N={idx.N})",
             "derivative-order legend (theta ranks):"] + ["  " + line for line in legend]
    for row in rows:
        lines.append("point: " + ", ".join(cli._fmt_complex(x) for x in row["point"]))
        for mrow in row["matrix"]:
            lines.append("  " + "  ".join(cli._fmt_complex(x) for x in mrow))
    return "\n".join(lines) + "\n", {"legend": legend, "points": rows}


@pytest.mark.parametrize("chart, k, points, restrict", [
    ("diagonal-anchored(3)", 3, "0,0,0.1+0.2j; 0,0,-0.3j; 0,0,0.25", True),
    ("identity(3,1)", 2, "0.1,0.2,0.3; -0.2j,0,0.1; 0.3,0.1j,0", False),
    ("diagonal(3)", 2, "0,0,0.1", True),
])
def test_jetkernel_batch_equals_per_point_loop(chart, k, points, restrict, tmp_path, capsys,
                                                monkeypatch):
    from jetmod import cli
    from util import oracle_text

    monkeypatch.chdir(tmp_path)
    (tmp_path / "mix.kernel").write_text(
        "m = 3\nr = 2\n"
        "K[1][1] = 2 * (1 - z1*wb1)^-1.5 * (1 - z2*wb2)^-1 * (1 - z3*wb3)^-2\n"
        "K[1][2] = 0.5 * (1 - z1*wb1)^-2 * (1 - z2*wb2)^-1 * (1 - z3*wb3)^-1\n"
        "K[2][1] = 0.5 * (1 - z1*wb1)^-2 * (1 - z2*wb2)^-1 * (1 - z3*wb3)^-1\n"
        "K[2][2] = (1 - z1*wb1)^-1 * (1 - z2*wb2)^-2.5 * (1 - z3*wb3)^-1\n"
    )
    argv = ["jetkernel", "--kernel", "mix.kernel", "--chart", chart, "-k", str(k),
            "--points", points, "--out", "r.json"] + (["--restrict"] if restrict else [])
    assert cli.main(argv) == 0
    stdout, results = jetkernel_per_point("mix.kernel", chart, k, points, restrict)
    assert capsys.readouterr().out == stdout + "report written to r.json\n"
    config = {"kernel": "mix.kernel", "chart": chart, "d": cli.parse_chart(chart).d, "k": k,
              "points": points, "restrict": restrict}
    want = oracle_text(cli.make_report("jetkernel", config, results))
    stamp = re.compile(r'\n\s*"timestamp": "[^"]*",?')
    assert stamp.sub("", (tmp_path / "r.json").read_text()) == stamp.sub("", want)


def test_restriction_checked_before_evaluation(kernel_dir, capsys, monkeypatch):
    from jetmod import cli, jet_kernels

    monkeypatch.setattr(jet_kernels, "jet_kernel", lambda *a, **k: pytest.fail("evaluated"))
    code = cli.main(["jetkernel", "--kernel", str(kernel_dir / "b123.kernel"),
                     "--chart", "diagonal-anchored(3)", "-k", "2",
                     "--points", "0,0,0.2; 0.1,0,0.2", "--restrict"])
    assert code == 2
    assert "off the submanifold" in capsys.readouterr().err


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
