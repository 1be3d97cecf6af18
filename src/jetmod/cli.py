"""Command-line front end.

    jetmod curvature       --kernel FILE [--chart SPEC] [--points LIST | --seed N --num-samples N]
    jetmod jetkernel       --kernel FILE [--chart SPEC] [-d INT] -k INT [--points LIST] [--restrict]
    jetmod equiv           --kernel FILE --kernel2 FILE [--chart SPEC] [-d INT] -k INT [--tol X]
    jetmod recover-weights --weights LIST
    jetmod quotient-demo   [--weights a,b,g] [--z POINT] [--pmax N] [--plevels N]

Each command imports the layers it runs when it runs, so a process loads no
other.  Human-readable tables go to stdout, each matrix (and the whole
curvature table) formatted with one ``%`` over a cached template.
``--out FILE.json`` additionally writes a machine-readable report
(schema 1).  The report is streamed piece by piece,
each float or complex array as one piece from a template cached per shape,
and its text is byte-identical to ``json.dump(report, indent=2,
sort_keys=True)`` with complex numbers as ``[re, im]``, numpy scalars and
arrays as plain numbers and lists, and dict keys as ``str(k)``.  Exit
codes: 0 success (or verdict "equivalent"), 2 input/parse/domain errors,
3 "not-equivalent", 4 "inconclusive".
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import re
import sys
from functools import lru_cache

import numpy as np

from . import __version__
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


def pick_chart(args, m: int) -> AffineChart:
    """The chart of ``--chart``, else the identity chart of codimension ``-d``
    (default 1); a ``-d`` that differs from the chart's d is refused."""
    chart = parse_chart(args.chart) if args.chart else identity_chart(m, args.d or 1)
    if args.d not in (None, chart.d):
        raise CliError(f"-d {args.d} differs from d={chart.d} of --chart {args.chart!r}")
    return chart


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


def _int_at_least(low: int, what: str):
    """An argparse type: an int >= ``low``; ``what`` says why it must be."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{what}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _tolerance(text: str) -> float:
    from . import equivalence

    try:
        tol = float(text)
        equivalence.check_tol(tol)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return tol


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
# Report encoding and tables


def make_report(command: str, config: dict, results: dict) -> dict:
    return {
        "schema": 1,
        "tool": "jetmod",
        "version": __version__,
        "command": command,
        "config": config,
        "results": results,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def write_report(report: dict, path: str):
    """Stream the report to a temporary file beside ``path``, created as
    ``open(path, "w")`` would (mode 0o666 less the umask), then rename it
    over ``path``, so failed runs never leave partial files.  A failure
    names ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        name = os.path.join(directory, f".{os.urandom(8).hex()}.tmp")
        fd = os.open(name, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        tmp = name
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(_encode(report, 0))
            fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _encode(obj, level: int):
    """Yield the text ``json.dump(obj, indent=2, sort_keys=True)`` writes at
    indentation ``level``, with numpy values and complex numbers (as
    ``[re, im]``) read as plain JSON values and dict keys as ``str(k)``.

    A float or complex array is one piece: its values fill a template
    cached per (shape, level).
    """
    if isinstance(obj, str):
        yield json.encoder.encode_basestring_ascii(obj)
    elif obj is None or obj is True or obj is False:
        yield "null" if obj is None else "true" if obj else "false"
    elif isinstance(obj, (complex, np.complexfloating)):
        yield from _encode([float(obj.real), float(obj.imag)], level)
    elif isinstance(obj, (int, np.integer)):
        yield int.__repr__(int(obj))
    elif isinstance(obj, (float, np.floating)):
        yield _float_text(float(obj))
    elif isinstance(obj, np.ndarray):
        if obj.ndim and obj.dtype.kind in "fc" and np.can_cast(obj.dtype, complex):
            yield _float_array(obj, level)
        else:
            yield from _encode(list(obj.tolist()), level)
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        sep = "\n" + "  " * (level + 1)
        for i, (key, value) in enumerate(sorted({str(k): v for k, v in obj.items()}.items())):
            yield ("," if i else "{") + sep + json.encoder.encode_basestring_ascii(key) + ": "
            yield from _encode(value, level + 1)
        yield "\n" + "  " * level + "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        sep = "\n" + "  " * (level + 1)
        for i, item in enumerate(obj):
            yield ("," if i else "[") + sep
            yield from _encode(item, level + 1)
        yield "\n" + "  " * level + "]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float_text(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _float_array(a: np.ndarray, level: int) -> str:
    """A float or complex array of at least one axis as JSON text."""
    if a.dtype.kind == "c":
        a = np.ascontiguousarray(a, dtype=np.complex128)
        shape = a.shape + (2,)
    else:
        a = np.ascontiguousarray(a, dtype=np.float64)
        shape = a.shape
    values = a.view(np.float64).ravel().tolist()
    text = float.__repr__ if np.isfinite(a).all() else _float_text
    return _array_template(shape, level) % tuple(map(text, values))


@lru_cache(maxsize=256)
def _array_template(shape: tuple, level: int) -> str:
    """Nested JSON lists of ``shape`` at indentation ``level``, one ``%s``
    per value."""
    if not shape:
        return "%s"
    if not shape[0]:
        return "[]"
    sep = "\n" + "  " * (level + 1)
    inner = _array_template(shape[1:], level + 1)
    return "[" + sep + ("," + sep).join([inner] * shape[0]) + "\n" + "  " * level + "]"


def _fmt_complex(x: complex) -> str:
    return f"{x.real:+.6e}{x.imag:+.6e}j"


def _format_matrix(mat: np.ndarray, indent: str = "  ") -> str:
    """The rows of ``mat``, one line each, entries as ``_fmt_complex``
    writes them."""
    mat = np.atleast_2d(np.ascontiguousarray(mat, dtype=np.complex128))
    values = tuple(mat.view(np.float64).ravel().tolist())
    return _matrix_template(*mat.shape, indent) % values


@lru_cache(maxsize=256)
def _matrix_template(rows: int, cols: int, indent: str) -> str:
    return (indent + "  ".join(["%+.6e%+.6ej"] * cols) + "\n") * rows


def _curvature_table(points, entries: np.ndarray, defects: np.ndarray) -> str:
    """The curvature table below its header, for n points, their (n, m, m, r, r)
    blocks and n defects, filled by one ``%``."""
    n, m, _, r, _ = entries.shape
    values = np.concatenate([
        np.ascontiguousarray(a, dtype=np.complex128).reshape(n, -1).view(np.float64)
        for a in (points, entries)] + [np.reshape(defects, (n, 1))], axis=1)
    return _curvature_template(m, r) * n % tuple(values.ravel().tolist())


@lru_cache(maxsize=64)
def _curvature_template(m: int, r: int) -> str:
    """One point of the curvature table: the point, its m x m blocks K[i,jbar]
    and their self-adjointness defect, one ``%`` field per value."""
    blocks = "".join(f"  K[{i + 1},{j + 1}bar]:\n" + _matrix_template(r, r, "    ")
                     for i in range(m) for j in range(m))
    return ("point: " + ", ".join(["%+.6e%+.6ej"] * m) + "\n" + blocks
            + "  self-adjointness defect: %.3e\n")


# ---------------------------------------------------------------------------
# Commands


def cmd_curvature(args) -> tuple:
    from . import geometry

    spec = load_kernel(args.kernel)
    spec.check_hermitian()
    if args.chart:
        chart = parse_chart(args.chart)
        spec = pullback_affine(spec, chart)
    if args.points:
        points = parse_points(args.points, spec.m)
    else:
        points = geometry.default_samples(spec.m, 0, args.num_samples, args.seed)

    curv = geometry.curvature(geometry.gram_jet(spec, np.array(points)))
    defects = curv.selfadjoint_defect()
    rows = [
        {"point": point, "blocks": blocks, "selfadjoint_defect": defect}
        for point, blocks, defect in zip(points, curv.entries, defects)
    ]
    table = _curvature_table(points, curv.entries, defects)
    print(f"curvature blocks of {args.kernel} (m={spec.m}, r={spec.r})\n" + table, end="")
    results = {"points": rows}
    config = {
        "kernel": args.kernel, "chart": args.chart, "points": args.points,
        "seed": args.seed, "num_samples": args.num_samples,
    }
    return make_report("curvature", config, results), EXIT_OK


def cmd_jetkernel(args) -> tuple:
    from . import geometry, jet_kernels

    spec = load_kernel(args.kernel)
    chart = pick_chart(args, spec.m)
    d = chart.d
    pulled = pullback_affine(spec, chart)
    k = args.k
    if args.points:
        points = np.array(parse_points(args.points, spec.m))
    else:
        points = np.zeros((1, spec.m), dtype=complex)
    if args.restrict:
        geometry.check_on_submanifold(points, d, "point")

    idx = jet_kernels.JetIndexTable(d, k)
    legend = [f"rank {l}: order {alpha}" for l, alpha in enumerate(idx.indices)]
    jkv = jet_kernels.jet_kernel(pulled, d, k, points, points)
    rows = [{"point": point, "matrix": matrix} for point, matrix in zip(points, jkv.as_matrix())]

    print(f"jet kernel of {args.kernel} (d={d}, k={k}, N={idx.N})")
    print("derivative-order legend (theta ranks):")
    for line in legend:
        print(" ", line)
    for row in rows:
        print("point:", ", ".join(_fmt_complex(x) for x in row["point"]))
        print(_format_matrix(row["matrix"]), end="")
    config = {
        "kernel": args.kernel, "chart": args.chart, "d": d, "k": k,
        "points": args.points, "restrict": args.restrict,
    }
    return make_report("jetkernel", config, {"legend": legend, "points": rows}), EXIT_OK


def cmd_equiv(args) -> tuple:
    from . import equivalence

    spec_a = load_kernel(args.kernel)
    spec_b = load_kernel(args.kernel2)
    chart = pick_chart(args, spec_a.m)
    k = args.k
    if args.points:
        samples = parse_points(args.points, spec_a.m)
    else:
        samples = equivalence.default_samples(
            spec_a.m, chart.d, count=args.num_samples, seed=args.seed
        )
    check = equivalence.mthm_check if args.criterion == "invariants" else equivalence.rankr_equiv
    report = check(spec_a, spec_b, chart, k, samples, tol=args.tol)

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
        print(_format_matrix(report.witness.matrix), end="")
        results["witness"] = {
            "matrix": report.witness.matrix,
            "unitarity_defect": report.witness.unitarity_defect,
            "max_residual": report.witness.max_residual,
            "null_dim": report.witness.null_dim,
            "candidate_sv_ratio": report.witness.candidate_sv_ratio,
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
    from . import equivalence

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
    from . import bergman_quotient, jet_kernels

    weights = [float(x) for x in args.weights.split(",")]
    if len(weights) != 3:
        raise CliError("the quotient demo runs on three weights a,b,g")
    a, b, g = weights
    z = complex(args.z.replace(" ", ""))
    if not abs(z) < 1:
        raise CliError(f"|z| = {abs(z):.3f} must be < 1 (z = {z})")

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
    print(_format_matrix(oracle), end="")
    print("jet kernel on the flattened diagonal (anchored chart):")
    print(_format_matrix(jet_matrix), end="")
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
        "-d": dict(type=_int_at_least(1, "the codimension needs -d >= 1"),
                   help="codimension: of the identity chart (default 1), or the chart's d"),
        "-k": dict(type=int, default=2, help="vanishing order"),
        "--points": dict(help="points 'a,b;c,d' with complex coordinates"),
        "--seed": dict(type=int, default=2024),
        "--num-samples": dict(type=_int_at_least(1, "at least one sample is needed"),
                              default=5),
        "--tol": dict(type=_tolerance, default=1e-8),
        "--out": dict(help="write a JSON report here"),
    }

    def add(p, *names):
        """The shared flags that the command reads, and --out."""
        for name in (*names, "--out"):
            p.add_argument(name, **flags[name])

    p = sub.add_parser("curvature", help="curvature blocks at points")
    add(p, "--kernel", "--chart", "--points", "--seed", "--num-samples")
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("jetkernel", help="jet kernel blocks at points")
    add(p, "--kernel", "--chart", "-d", "-k", "--points")
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
    p.add_argument("--pmax", type=_int_at_least(1, "the partial sum needs --pmax >= 1"),
                   default=60)
    p.add_argument("--plevels", type=_int_at_least(0, "the level table needs --plevels >= 0"),
                   default=8, help="levels shown in the closed-form table")
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
