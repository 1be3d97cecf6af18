"""Command-line front end.

    jetmod curvature       --kernel FILE [--chart SPEC] [--points LIST | --seed N --num-samples N]
    jetmod jetkernel       --kernel FILE --chart SPEC -k INT [--points LIST]
    jetmod equiv           --kernel FILE --kernel2 FILE --chart SPEC -k INT [--tol X]
    jetmod recover-weights --weights LIST
    jetmod quotient-demo   [--weights a,b,g] [--z POINT] [--pmax N]

Human-readable tables go to stdout; ``--out FILE.json`` additionally writes
a machine-readable report (schema 1).  Exit codes: 0 success (or verdict
"equivalent"), 2 input/parse/domain errors, 3 "not-equivalent",
4 "inconclusive".
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import sys
import tempfile

import numpy as np

from . import __version__, bergman_quotient, equivalence, geometry, jet_kernels
from .kernels import (
    AffineChart,
    DomainError,
    ParseError,
    builtin_bergman,
    diagonal_chart,
    identity_chart,
    parse_kernel,
    pullback_affine,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_EQUIVALENT = 3
EXIT_INCONCLUSIVE = 4


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# Argument parsing helpers

_CHART_FN_RE = re.compile(r"^\s*([a-z-]+)\s*\(\s*([0-9,\s]*)\s*\)\s*$")


def parse_chart(text: str) -> AffineChart:
    m = _CHART_FN_RE.match(text)
    if m:
        name, argtext = m.group(1), m.group(2)
        args = [int(x) for x in argtext.split(",") if x.strip()]
        if name == "diagonal" and len(args) == 1:
            return diagonal_chart(args[0], style="pairwise")
        if name == "diagonal-anchored" and len(args) == 1:
            return diagonal_chart(args[0], style="anchored")
        if name == "identity" and len(args) == 2:
            return identity_chart(args[0], args[1])
        raise CliError(f"unknown chart form {text!r}")
    try:
        blob = json.loads(text)
        matrix = np.array([[_from_json_number(x) for x in row] for row in blob["matrix"]])
        offset = np.array([_from_json_number(x) for x in blob["offset"]])
        return AffineChart.from_arrays(matrix, offset, int(blob["d"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"cannot parse chart {text!r}: {exc}")


def _from_json_number(x):
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return complex(x[0], x[1])
    return complex(x)


def parse_points(text: str, m: int):
    """Semicolon-separated points with comma-separated complex coordinates."""
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords = [complex(c.strip().replace(" ", "")) for c in chunk.split(",")]
        if len(coords) != m:
            raise CliError(
                f"point {chunk!r} has {len(coords)} coordinates, expected {m}"
            )
        points.append(np.array(coords, dtype=complex))
    if not points:
        raise CliError("no points given")
    return points


def random_points(m: int, count: int, seed: int, radius: float = 0.5):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        rad = radius * np.sqrt(rng.random(m))
        ang = 2 * np.pi * rng.random(m)
        out.append(rad * np.exp(1j * ang))
    return out


def _sample_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"at least one sample is needed, got {count}")
    return count


def load_kernel(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read kernel file {path}: {exc}")
    try:
        return parse_kernel(text)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# JSON encoding


def jsonable(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.complexfloating,)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    return obj


def make_report(command: str, config: dict, results: dict) -> dict:
    return {
        "schema": 1,
        "tool": "jetmod",
        "version": __version__,
        "command": command,
        "config": jsonable(config),
        "results": jsonable(results),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def write_report(report: dict, path: str):
    """Write atomically so failed runs never leave partial files."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt_complex(x: complex) -> str:
    return f"{x.real:+.6e}{x.imag:+.6e}j"


def _print_matrix(mat: np.ndarray, indent: str = "  "):
    for row in np.atleast_2d(mat):
        print(indent + "  ".join(_fmt_complex(x) for x in row))


# ---------------------------------------------------------------------------
# Commands


def cmd_curvature(args) -> tuple:
    spec = load_kernel(args.kernel)
    spec.check_hermitian()
    if args.chart:
        chart = parse_chart(args.chart)
        spec = pullback_affine(spec, chart)
    if args.points:
        points = parse_points(args.points, spec.m)
    else:
        points = random_points(spec.m, args.num_samples, args.seed)

    rows = []
    for point in points:
        g = geometry.gram_jet(spec, point, trunc=max(2, args.trunc or 2))
        curv = geometry.curvature(g)
        rows.append({
            "point": list(point),
            "blocks": curv.entries,
            "selfadjoint_defect": curv.selfadjoint_defect(),
        })
    print(f"curvature blocks of {args.kernel} (m={spec.m}, r={spec.r})")
    for row in rows:
        print("point:", ", ".join(_fmt_complex(x) for x in row["point"]))
        for i in range(spec.m):
            for j in range(spec.m):
                print(f"  K[{i + 1},{j + 1}bar]:")
                _print_matrix(row["blocks"][i][j], indent="    ")
        print(f"  self-adjointness defect: {row['selfadjoint_defect']:.3e}")
    results = {"points": rows}
    config = {
        "kernel": args.kernel, "chart": args.chart, "points": args.points,
        "seed": args.seed, "num_samples": args.num_samples, "trunc": args.trunc,
    }
    return make_report("curvature", config, results), EXIT_OK


def cmd_jetkernel(args) -> tuple:
    spec = load_kernel(args.kernel)
    chart = parse_chart(args.chart) if args.chart else identity_chart(spec.m, args.d or 1)
    d = chart.d
    pulled = pullback_affine(spec, chart)
    k = args.k
    if args.points:
        points = parse_points(args.points, spec.m)
    else:
        points = [np.zeros(spec.m, dtype=complex)]

    idx = jet_kernels.JetIndexTable(d, k)
    legend = [f"rank {l}: order {alpha}" for l, alpha in enumerate(idx.indices)]
    rows = []
    for point in points:
        jkv = jet_kernels.jet_kernel(pulled, d, k, point, point, trunc=args.trunc)
        if args.restrict:
            jet_kernels.restrict_to_Z(jkv, chart)
        rows.append({"point": list(point), "matrix": jkv.as_matrix()})

    print(f"jet kernel of {args.kernel} (d={d}, k={k}, N={idx.N})")
    print("derivative-order legend (theta ranks):")
    for line in legend:
        print(" ", line)
    for row in rows:
        print("point:", ", ".join(_fmt_complex(x) for x in row["point"]))
        _print_matrix(row["matrix"])
    config = {
        "kernel": args.kernel, "chart": args.chart, "d": d, "k": k,
        "points": args.points, "restrict": args.restrict, "trunc": args.trunc,
    }
    return make_report("jetkernel", config, {"legend": legend, "points": rows}), EXIT_OK


def cmd_equiv(args) -> tuple:
    spec_a = load_kernel(args.kernel)
    spec_b = load_kernel(args.kernel2)
    chart = parse_chart(args.chart) if args.chart else identity_chart(spec_a.m, args.d or 1)
    k = args.k
    if args.points:
        samples = parse_points(args.points, spec_a.m)
    else:
        samples = equivalence.default_samples(
            spec_a.m, chart.d, count=args.num_samples, seed=args.seed
        )
    if args.criterion == "invariants":
        report = equivalence.mthm_check(spec_a, spec_b, chart, k, samples, tol=args.tol)
    elif spec_a.r == 1 and spec_b.r == 1:
        report = equivalence.rank1_equiv(spec_a, spec_b, chart, k, samples, tol=args.tol)
    else:
        report = equivalence.rankr_equiv(spec_a, spec_b, chart, k, samples, tol=args.tol)

    print(f"verdict: {report.verdict}")
    print(f"per-sample residuals: {['%.3e' % r for r in report.residuals]}")
    for note in report.notes:
        print("note:", note)
    results = {
        "verdict": report.verdict,
        "residuals": report.residuals,
        "notes": report.notes,
        "params": report.params,
    }
    if report.witness is not None:
        print("witness unitary:")
        _print_matrix(report.witness.matrix)
        results["witness"] = {
            "matrix": report.witness.matrix,
            "unitarity_defect": report.witness.unitarity_defect,
            "max_residual": report.witness.max_residual,
            "null_dim": report.witness.null_dim,
        }
    config = {
        "kernel": args.kernel, "kernel2": args.kernel2, "chart": args.chart,
        "k": k, "criterion": args.criterion, "tol": args.tol,
        "points": args.points, "seed": args.seed, "num_samples": args.num_samples,
    }
    code = {
        "equivalent": EXIT_OK,
        "not-equivalent": EXIT_NOT_EQUIVALENT,
        "inconclusive": EXIT_INCONCLUSIVE,
    }[report.verdict]
    return make_report("equiv", config, results), code


def cmd_recover_weights(args) -> tuple:
    weights = [float(x) for x in args.weights.split(",")]
    samples = None
    if args.points:
        samples = parse_points(args.points, len(weights))
    recovered = equivalence.recover_bergman_weights(
        weights, samples=samples, num_samples=args.num_samples, seed=args.seed
    )
    err = float(np.max(np.abs(recovered - np.asarray(weights))
                        / np.maximum(1.0, np.abs(weights))))
    print("input weights:    ", ", ".join(f"{w:.12g}" for w in weights))
    print("recovered weights:", ", ".join(f"{w:.12g}" for w in recovered))
    print(f"max relative error: {err:.3e}")
    config = {"weights": weights, "points": args.points,
              "num_samples": args.num_samples, "seed": args.seed}
    results = {"recovered": list(recovered), "max_relative_error": err}
    return make_report("recover-weights", config, results), EXIT_OK


def cmd_quotient_demo(args) -> tuple:
    weights = [float(x) for x in args.weights.split(",")]
    if len(weights) != 3:
        raise CliError("the quotient demo runs on three weights a,b,g")
    a, b, g = weights
    z = complex(args.z.replace(" ", ""))
    if abs(z) >= 1:
        raise CliError(f"|z| = {abs(z):.3f} must be < 1")

    level_rows = []
    print("level table: measured vs closed-form quantities")
    print(f"{'p':>3} {'quantity':>14} {'measured':>24} {'closed form':>24} {'rel err':>10}")
    for p in range(0, args.plevels + 1):
        level = bergman_quotient.build_level(p, a, b, g)
        meas = bergman_quotient.level_measured(level)
        forms = bergman_quotient.closed_forms(p, a, b, g)
        if not np.all(np.isfinite([*meas.values(), *forms.values()])):
            raise CliError(
                f"level {p} quantities overflow a float: lower --plevels or the weights"
            )
        for key in forms:
            denom = max(1.0, abs(forms[key]))
            rel = abs(meas[key] - forms[key]) / denom
            level_rows.append(
                {"p": p, "quantity": key, "measured": meas[key],
                 "closed_form": forms[key], "rel_err": rel}
            )
            print(f"{p:>3} {key:>14} {meas[key]:>24.15e} {forms[key]:>24.15e} {rel:>10.2e}")

    oracle = bergman_quotient.quotient_kernel_partial(z, a, b, g, p_max=args.pmax)
    tail = bergman_quotient.quotient_kernel_tail_estimate(z, *weights, p_max=args.pmax)
    chart = diagonal_chart(3, style="anchored")
    pulled = pullback_affine(builtin_bergman(weights), chart)
    point = np.array([0, 0, z])
    jkv = jet_kernels.jet_kernel(pulled, 2, 2, point, point)
    jet_matrix = jkv.as_matrix()
    deviation = float(np.max(np.abs(oracle - jet_matrix)))

    print(f"\nquotient kernel at z = {z} (orthonormal-level sum, p <= {args.pmax}):")
    _print_matrix(oracle)
    print("jet kernel on the flattened diagonal (anchored chart):")
    _print_matrix(jet_matrix)
    print(f"max |oracle - jet|: {deviation:.3e}")
    print(f"partial-sum tail estimate: {tail:.3e}")

    config = {"weights": weights, "z": z, "pmax": args.pmax, "plevels": args.plevels}
    results = {
        "levels": level_rows,
        "oracle_kernel": oracle,
        "jet_kernel": jet_matrix,
        "max_deviation": deviation,
        "tail_estimate": tail,
    }
    return make_report("quotient-demo", config, results), EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetmod",
        description="jet kernels, curvature and equivalence tests for "
                    "reproducing-kernel Hilbert modules",
    )
    parser.add_argument("--version", action="version", version=f"jetmod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--kernel": dict(required=True, help="kernel file"),
        "--chart": dict(help="diagonal(m) | diagonal-anchored(m) | "
                             "identity(m,d) | JSON {matrix, offset, d}"),
        "-d": dict(type=int, default=None, help="codimension (identity chart)"),
        "-k": dict(type=int, default=2, help="vanishing order"),
        "--points": dict(help="points 'a,b;c,d' with complex coordinates"),
        "--seed": dict(type=int, default=2024),
        "--num-samples": dict(type=_sample_count, default=5),
        "--tol": dict(type=float, default=1e-8),
        "--trunc": dict(type=int, default=None),
        "--out": dict(help="write a JSON report here"),
    }

    def add(p, *names):
        """The shared flags that the command reads, and --out."""
        for name in (*names, "--out"):
            p.add_argument(name, **flags[name])

    p = sub.add_parser("curvature", help="curvature blocks at points")
    add(p, "--kernel", "--chart", "--points", "--seed", "--num-samples", "--trunc")
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("jetkernel", help="jet kernel blocks at points")
    add(p, "--kernel", "--chart", "-d", "-k", "--points", "--trunc")
    p.add_argument("--restrict", action="store_true",
                   help="require the points to lie on the flattened submanifold")
    p.set_defaults(fn=cmd_jetkernel)

    p = sub.add_parser("equiv", help="equivalence test for two kernels")
    add(p, "--kernel", "--chart", "-d", "-k", "--points", "--seed", "--num-samples", "--tol")
    p.add_argument("--kernel2", required=True, help="second kernel file")
    p.add_argument("--criterion", choices=["arrays", "invariants"], default="arrays",
                   help="derivative-array test or invariant-by-invariant test")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("recover-weights", help="recover polydisc kernel weights "
                                               "from diagonal curvature")
    add(p, "--points", "--seed", "--num-samples")
    p.add_argument("--weights", required=True, help="comma-separated positive weights")
    p.set_defaults(fn=cmd_recover_weights)

    p = sub.add_parser("quotient-demo", help="order-two quotient on the tridisc: "
                                             "brute-force levels vs jet kernel")
    add(p)
    p.add_argument("--weights", default="1,1,1")
    p.add_argument("--z", default="0.3", help="diagonal point")
    p.add_argument("--pmax", type=int, default=60)
    p.add_argument("--plevels", type=int, default=8,
                   help="levels shown in the closed-form table")
    p.set_defaults(fn=cmd_quotient_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.fn(args)
        if args.out:
            write_report(report, args.out)
            print(f"report written to {args.out}")
    except (CliError, ParseError, DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
