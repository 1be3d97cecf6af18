"""The streamed JSON report and the stdout tables against plain-Python oracles."""

import itertools
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jetmod import cli
from util import oracle_text


def written_text(report, path) -> str:
    cli.write_report(report, str(path))
    with open(path, encoding="utf-8") as fh:
        return fh.read()


strings = st.text() | st.sampled_from(["", "é ü 漢字 🙂", 'say "hi"', "back\\slash", "\x00\x1f\n\t\x7f"])
floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308, 1e300])
complexes = st.builds(complex, floats, floats)
numpy_scalars = st.one_of(
    st.builds(np.complex128, complexes),
    st.builds(np.complex64, st.builds(complex, st.floats(width=32), st.floats(width=32))),
    st.builds(np.float64, floats),
    st.builds(np.float32, st.floats(width=32)),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
    st.builds(np.int32, st.integers(-2**31, 2**31 - 1)),
)
VIEWS = {
    "c": lambda a: a,
    "fortran": np.asfortranarray,
    "transposed": lambda a: a.T,
    "strided": lambda a: a[::2],
}
arrays = st.builds(
    lambda a, view: VIEWS[view](a),
    hnp.arrays(
        st.sampled_from([np.float64, np.float32, np.complex128, np.complex64, np.int64]),
        hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=3),
    ),
    st.sampled_from(sorted(VIEWS)),
)
leaves = st.one_of(
    strings, st.none(), st.booleans(), st.integers(), floats, complexes, numpy_scalars, arrays,
)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings | st.integers(), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300)
@given(report=st.dictionaries(strings | st.integers(), values, max_size=4))
def test_stream_equals_json_dump(report, tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "r.json"
    assert written_text(report, path) == oracle_text(report)


@pytest.mark.parametrize("report", [
    {1: "int", "1": "str", 2.5: [], "b": {}, "a": ()},  # keys collapse to str(k)
    {"x": np.zeros((2, 0, 3)), "y": np.zeros((0, 2), dtype=complex), "z": np.ones((1, 1, 1))},
    {"blocks": np.arange(24.0).reshape(2, 3, 4)[:, ::2, 1:].astype(np.float32) / 3},
    {"c": (np.arange(6) * (1 + 1j) / 7).reshape(2, 3).T, "nan": np.array([np.nan, -np.inf, -0.0])},
])
def test_edge_reports(report, tmp_path):
    assert written_text(report, tmp_path / "r.json") == oracle_text(report)


def test_full_report(tmp_path):
    rng = np.random.default_rng(3)
    report = cli.make_report("curvature", {"kernel": "k.ker", "points": None, "seed": 2024}, {
        "points": [{"point": rng.random(3) + 1j * rng.random(3),
                    "blocks": rng.random((3, 3, 2, 2)) * 1j,
                    "selfadjoint_defect": np.float64(1e-17)} for _ in range(3)],
    })
    assert written_text(report, tmp_path / "r.json") == oracle_text(report)


@pytest.fixture
def kernel_path(tmp_path):
    path = tmp_path / "k.ker"
    path.write_text("m = 1\nK = bergman(2)\n")
    return str(path)


def test_failed_write_names_the_out_path(kernel_path, tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert cli.main(["curvature", "--kernel", kernel_path, "--points", "0",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "k.ker"]


def fmt_loop(mat, indent="  ") -> str:
    """The table as one _fmt_complex call per entry and one line per row."""
    return "".join(indent + "  ".join(cli._fmt_complex(x) for x in row) + "\n"
                   for row in np.atleast_2d(mat))


SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1.5, 123456.789e-300]


@pytest.mark.parametrize("indent", ["", "  ", "    "])
def test_matrix_table_equals_per_entry_format(indent):
    pairs = np.array(list(itertools.product(SPECIAL, SPECIAL)))
    mat = np.empty(len(pairs), dtype=complex)
    mat.real, mat.imag = pairs[:, 0], pairs[:, 1]
    mat = mat.reshape(8, 8)
    for case in (mat, mat.T, mat[::3, 1::2], mat[0], mat.real, mat.astype(np.complex64)):
        assert cli._format_matrix(case, indent) == fmt_loop(case, indent)


def curvature_loop(points, entries, defects) -> str:
    """The curvature table as one section per point and one fmt_loop per block."""
    out = ""
    for point, blocks, defect in zip(points, entries, defects):
        out += "point: " + ", ".join(cli._fmt_complex(x) for x in point) + "\n"
        for i, j in itertools.product(range(len(point)), repeat=2):
            out += f"  K[{i + 1},{j + 1}bar]:\n" + fmt_loop(blocks[i][j], "    ")
        out += f"  self-adjointness defect: {defect:.3e}\n"
    return out


@pytest.mark.parametrize("m, r", [(1, 1), (2, 3), (3, 2)])
def test_curvature_table_equals_per_block_format(m, r):
    rng = np.random.default_rng(10 * m + r)
    pool = SPECIAL + list(rng.normal(size=8))

    def draw(*shape):
        z = np.empty(shape, dtype=complex)
        z.real, z.imag = rng.choice(pool, size=shape), rng.choice(pool, size=shape)
        return z

    points, entries = list(draw(4, m)), draw(4, m, m, r, r)
    defects = np.abs(rng.choice(pool, size=4))
    assert cli._curvature_table(points, entries, defects) == curvature_loop(
        points, entries, defects)


def test_curvature_stdout_is_one_write(kernel_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("builtins.print", lambda *a, **k: calls.append(a))
    assert cli.main(["curvature", "--kernel", kernel_path, "--points", "0; 0.1; -0.2j"]) == 0
    assert len(calls) == 1
    lines = calls[0][0].splitlines()
    assert lines[0] == f"curvature blocks of {kernel_path} (m=1, r=1)"
    assert re.fullmatch(r"    \+2\.000000e\+00\+0\.000000e\+00j", lines[3])


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_report_mode_follows_the_umask(umask, mode, tmp_path):
    old = os.umask(umask)
    try:
        cli.write_report({"a": 1}, str(tmp_path / "r.json"))
        cli.write_report({"a": 2}, str(tmp_path / "r.json"))  # replacing keeps the rule
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "r.json").st_mode & 0o777 == mode
    assert os.listdir(tmp_path) == ["r.json"]
