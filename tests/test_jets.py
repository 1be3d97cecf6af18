"""Truncated series arithmetic: ring axioms, analytic ops, matrix inverses."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetmod.jets import (
    JetMatrix,
    JetSeries,
    jet_matrix_inverse,
    series_context,
)
from util import entry, from_entries, rand_series


def close(a, b, rtol=1e-9, atol=1e-12):
    return np.allclose(a.c, b.c, rtol=rtol, atol=atol)


def test_mul_examples():
    ctx = series_context(1, 2)
    one_plus_x = JetSeries.constant(ctx, 1.0) + JetSeries.variable(ctx, 0)
    sq = one_plus_x * one_plus_x
    assert sq.coeff((0,)) == 1 and sq.coeff((1,)) == 2 and sq.coeff((2,)) == 1

    ctx1 = series_context(1, 1)
    trunc = (JetSeries.constant(ctx1, 1.0) + JetSeries.variable(ctx1, 0))
    sq1 = trunc * trunc
    assert sq1.coeff((0,)) == 1 and sq1.coeff((1,)) == 2  # x^2 discarded

    ctx2 = series_context(2, 2)
    xy = JetSeries.variable(ctx2, 0) * JetSeries.variable(ctx2, 1)
    assert xy.coeff((1, 1)) == 1
    assert xy.coeff((2, 0)) == 0


def test_ring_axioms_random():
    rng = np.random.default_rng(0)
    ctx = series_context(3, 4)
    for _ in range(10):
        a, b, c = (rand_series(rng, ctx) for _ in range(3))
        assert close((a * b) * c, a * (b * c), rtol=1e-12, atol=1e-14)
        assert close(a * (b + c), a * b + a * c, rtol=1e-12, atol=1e-14)
        assert close(a * b, b * a, rtol=1e-12, atol=1e-14)


def test_recip():
    ctx = series_context(1, 3)
    geo = (JetSeries.constant(ctx, 1.0) - JetSeries.variable(ctx, 0)).recip()
    assert np.allclose(geo.c, [1, 1, 1, 1])
    half = JetSeries.constant(ctx, 2.0).recip()
    assert half.coeff((0,)) == 0.5
    with pytest.raises(ValueError, match="constant term"):
        JetSeries.constant(ctx, 0.0).recip()

    rng = np.random.default_rng(1)
    ctx = series_context(2, 4)
    a = rand_series(rng, ctx) + JetSeries.constant(ctx, 2.0)
    assert close(a * a.recip(), JetSeries.constant(ctx, 1.0))


def test_power():
    ctx = series_context(1, 2)
    p = (JetSeries.constant(ctx, 1.0) - JetSeries.variable(ctx, 0)).power(-2.0)
    assert np.allclose(p.c, [1, 2, 3])

    rng = np.random.default_rng(2)
    ctx = series_context(2, 3)
    a = rand_series(rng, ctx) + JetSeries.constant(ctx, 3.0)
    assert close(a.power(1.0), a)
    assert close(a.power(3.0), a * a * a)

    # power-series coefficients of (1-x)^(-lam) are the rising factorials / n!
    lam = 1.7
    ctx = series_context(1, 5)
    p = (JetSeries.constant(ctx, 1.0) - JetSeries.variable(ctx, 0)).power(-lam)
    value = 1.0
    for n in range(6):
        assert abs(p.coeff((n,)) - value) < 1e-12 * max(1.0, value)
        value *= (lam + n) / (n + 1)

    with pytest.raises(ValueError):
        JetSeries.constant(ctx, 0.0).power(0.5)
    with pytest.raises(ValueError, match="negative real axis"):
        JetSeries.constant(ctx, -1.0).log()


def test_log_exp():
    ctx = series_context(1, 3)
    x = JetSeries.variable(ctx, 0)
    assert np.allclose(JetSeries.constant(ctx, 0.0).exp().c, [1, 0, 0, 0])
    lg = (JetSeries.constant(ctx, 1.0) + x).log()
    assert np.allclose(lg.c, [0, 1, -0.5, 1 / 3])
    a = JetSeries.constant(ctx, 2.0) + x
    assert close(a.log().exp(), a)

    rng = np.random.default_rng(3)
    ctx = series_context(2, 4)
    a = rand_series(rng, ctx) + JetSeries.constant(ctx, 2.5)
    assert close(a.log().exp(), a)
    assert close(a.exp().log(), a)


def test_extract_derivative():
    ctx = series_context(2, 3)
    e_xy = (JetSeries.variable(ctx, 0) * JetSeries.variable(ctx, 1)).exp()
    assert abs(e_xy.extract((1, 1)) - 1.0) < 1e-14
    assert e_xy.extract((0, 0)) == 1.0
    with pytest.raises(ValueError, match="exceeds truncation"):
        e_xy.extract((4, 0))


def test_derivative_and_truncate():
    ctx = series_context(2, 3)
    x, y = JetSeries.variable(ctx, 0), JetSeries.variable(ctx, 1)
    f = x * x * y  # x^2 y
    fx = f.derivative(0)
    assert fx.coeff((1, 1)) == 2
    assert f.truncate(2).coeff((2, 0)) == 0
    with pytest.raises(ValueError):
        f.truncate(5)
    ctx0 = series_context(1, 0)
    refusal = "cannot differentiate a series truncated at order 0"
    with pytest.raises(ValueError, match=refusal):
        JetSeries.constant(ctx0, 1.0).derivative(0)
    # the matrix once failed building a context of truncation -1 ("need trunc >= 0")
    with pytest.raises(ValueError, match=refusal):
        JetMatrix.constant(ctx0, np.eye(2)).derivative(0)


def test_context_mismatch_errors():
    a = JetSeries.constant(series_context(1, 2), 1.0)
    b = JetSeries.constant(series_context(1, 3), 1.0)
    with pytest.raises(ValueError, match="contexts differ"):
        a + b
    with pytest.raises(ValueError, match="contexts differ"):
        a * b


def test_matrix_inverse_examples():
    ctx = series_context(2, 3)
    ident = JetMatrix.constant(ctx, np.eye(2))
    assert np.allclose(jet_matrix_inverse(ident).c, ident.c)

    # 1x1 case reduces to the scalar reciprocal
    rng = np.random.default_rng(5)
    a = rand_series(rng, ctx) + JetSeries.constant(ctx, 2.0)
    m = from_entries([[a]])
    assert np.allclose(jet_matrix_inverse(m).c[0, 0], a.recip().c)

    # diagonal of geometric series
    one = JetSeries.constant(ctx, 1.0)
    zero = JetSeries.constant(ctx, 0.0)
    x, y = JetSeries.variable(ctx, 0), JetSeries.variable(ctx, 1)
    diag = from_entries([[one - x, zero], [zero, one - y]])
    inv = jet_matrix_inverse(diag)
    assert np.allclose(inv.c[0, 0], (one - x).recip().c)
    assert np.allclose(inv.c[1, 1], (one - y).recip().c)

    prod = diag @ inv
    assert np.allclose(prod.c, JetMatrix.constant(ctx, np.eye(2)).c, atol=1e-12)

    sing = from_entries([[zero, zero], [zero, zero]])
    with pytest.raises(ValueError, match="singular"):
        jet_matrix_inverse(sing)


def test_matrix_inverse_derivative_identity():
    # d_j of the inverse equals -H0inv (d_j H0) H0inv at the base point
    rng = np.random.default_rng(6)
    ctx = series_context(2, 3)
    for _ in range(5):
        base = rng.random((3, 3)) + 1j * rng.random((3, 3))
        h0 = base @ base.conj().T + 3.0 * np.eye(3)
        m = JetMatrix.constant(ctx, h0)
        pert = JetMatrix(
            ctx,
            0.2 * (rng.random((3, 3, ctx.size)) - 0.5
                   + 1j * (rng.random((3, 3, ctx.size)) - 0.5)),
        )
        pert.c[:, :, 0] = 0.0
        m = m + pert
        minv = jet_matrix_inverse(m)
        m0 = m.constant_term()
        m0inv = np.linalg.inv(m0)
        for j in range(2):
            lhs = minv.derivative(j).constant_term()
            dj_m0 = m.derivative(j).constant_term()
            rhs = -m0inv @ dj_m0 @ m0inv
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_matrix_shape_errors():
    ctx = series_context(1, 1)
    a = JetMatrix.constant(ctx, np.eye(2))
    b = JetMatrix.constant(ctx, np.ones((3, 3)))
    with pytest.raises(ValueError, match="shape mismatch"):
        a @ b
    with pytest.raises(ValueError, match="square"):
        jet_matrix_inverse(JetMatrix.constant(ctx, np.ones((2, 3))))


def test_matmul_matches_entrywise_bincount():
    # reference: one bincount pair per output entry, as the product table orders it
    rng = np.random.default_rng(12)
    for num_vars, trunc, (rows, inner, cols) in [(2, 3, (2, 3, 2)), (3, 2, (1, 1, 1)), (1, 4, (3, 2, 1))]:
        ctx = series_context(num_vars, trunc)
        a = JetMatrix(ctx, rng.random((rows, inner, ctx.size)) - 0.5 + 1j * rng.random((rows, inner, ctx.size)))
        b = JetMatrix(ctx, rng.random((inner, cols, ctx.size)) - 0.5j + rng.random((inner, cols, ctx.size)))
        left, right, out_idx = ctx.mul_table
        prod = np.einsum("ijp,jkp->ikp", a.c[:, :, left], b.c[:, :, right])
        ref = np.zeros((rows, cols, ctx.size), dtype=complex)
        for i in range(rows):
            for j in range(cols):
                ref[i, j] = (
                    np.bincount(out_idx, weights=prod[i, j].real, minlength=ctx.size)
                    + 1j * np.bincount(out_idx, weights=prod[i, j].imag, minlength=ctx.size)
                )
        assert np.array_equal((a @ b).c, ref)


def _extract_loop(jm, exponents):
    """Reference: the per-index read, alpha! times the coefficient, one row at a time."""
    out = []
    for alpha in exponents:
        fac = 1
        for a in alpha:
            fac *= math.factorial(a)
        out.append(fac * jm.coeff(alpha))
    return np.array(out)


@pytest.mark.parametrize("num_vars, trunc", [(n, t) for n in range(5) for t in range(5)])
@pytest.mark.parametrize("r", [1, 2])
def test_derivatives_match_extract_loop(num_vars, trunc, r):
    rng = np.random.default_rng(num_vars * 10 + trunc)
    ctx = series_context(num_vars, trunc)
    jm = JetMatrix(ctx, rng.random((r, r, ctx.size)) - 0.5 + 1j * (rng.random((r, r, ctx.size)) - 0.5))
    # every monomial in shuffled order, and some twice
    rows = [ctx.indices[i] for i in rng.permutation(ctx.size)] + list(ctx.indices[::3])
    got = jm.derivatives(rows)
    assert got.shape == (len(rows), r, r)
    assert got.tobytes() == _extract_loop(jm, rows).tobytes()
    assert got[0].tobytes() == jm.extract(rows[0]).tobytes()


def test_derivatives_refuse_malformed_rows():
    jm = JetMatrix.constant(series_context(2, 3), np.eye(2))
    for rows, match in [
        ([(1, 0), (1, -1)], "non-negative"),  # its key would read the rank of (0, 0)
        ([(0, 0), (2, 2)], "exceeds truncation 3"),
        ([(1, 0, 0)], "width 2"),
        ([1, 0], "width 2"),
    ]:
        with pytest.raises(ValueError, match=match):
            jm.derivatives(rows)


def test_coeff_refuses_malformed_index():
    # the rank dict would answer these with a bare KeyError
    ctx = series_context(2, 3)
    series, matrix = JetSeries.constant(ctx, 1.0), JetMatrix.constant(ctx, np.eye(2))
    for alpha, match in [((-1, 2), "non-negative"), ((1, 0, 0), "width 2"), ((2, 2), "truncation 3")]:
        for jet in (series, matrix):
            with pytest.raises(ValueError, match=match):
                jet.coeff(alpha)
    assert series.coeff((0, 0)) == 1 and matrix.coeff((0, 0)).tolist() == [[1, 0], [0, 1]]


class TestSharedReaders:
    """The readers ``JetSeries`` and ``JetMatrix`` share, at each layout."""

    def test_series_readers_give_a_scalar_alone_and_an_array_for_a_batch(self):
        rng = np.random.default_rng(21)
        ctx = series_context(2, 3)
        batch = JetSeries(ctx, rng.random((4, ctx.size)) + 1j * rng.random((4, ctx.size)))
        for i in range(4):
            one = JetSeries(ctx, batch.c[i])
            for read in ("coeff", "extract"):
                value = getattr(one, read)((1, 2))
                assert np.isscalar(value) and isinstance(value, np.complexfloating)
                assert value == getattr(batch, read)((1, 2))[i]
        for read in (batch.coeff, batch.extract):
            assert isinstance(read((1, 2)), np.ndarray) and read((1, 2)).shape == (4,)
        assert np.array_equal(batch.extract((1, 2)), 2 * batch.coeff((1, 2)))
        # the context without variables reads its one coefficient
        const = JetSeries.constant(series_context(0, 0), 2.5 - 1j)
        assert const.coeff(()) == const.extract(()) == 2.5 - 1j and np.isscalar(const.coeff(()))

    def test_matrix_constant_of_a_stack(self):
        rng = np.random.default_rng(22)
        ctx = series_context(2, 2)
        mats = rng.random((3, 2, 2)) + 1j * rng.random((3, 2, 2))
        jm = JetMatrix.constant(ctx, mats)
        assert jm.batch == (3,) and jm.shape == (2, 2) and jm.c.shape == (3, 2, 2, ctx.size)
        assert np.array_equal(jm.constant_term(), mats) and not np.any(jm.c[..., 1:])
        for i in range(3):
            assert jm.c[i].tobytes() == JetMatrix.constant(ctx, mats[i]).c.tobytes()

    @pytest.mark.parametrize("batch", [(), (4,), (2, 3)])
    def test_derivatives_shapes(self, batch):
        rng = np.random.default_rng(len(batch))
        ctx = series_context(2, 3)
        rows = [(0, 0), (1, 0), (1, 2), (0, 3)]
        jm = JetMatrix(ctx, rng.random(batch + (2, 3, ctx.size)) + 0.5j)
        series = entry(jm, 1, 2)
        got_m, got_s = jm.derivatives(rows), series.derivatives(rows)
        assert got_m.shape == batch + (len(rows), 2, 3)
        assert got_s.shape == batch + (len(rows),)
        assert got_s.tobytes() == np.ascontiguousarray(got_m[..., 1, 2]).tobytes()
        assert got_s[..., 2].tobytes() == np.asarray(series.extract((1, 2))).tobytes()


def test_embed_is_a_ring_map():
    # variables (0, 1) of a 2-variable jet become variables (1, 3) of a 4-variable one
    rng = np.random.default_rng(13)
    small, big = series_context(2, 3), series_context(4, 3)
    a = JetMatrix(small, rng.random((2, 2, small.size)) + 1j * rng.random((2, 2, small.size)))
    b = JetMatrix(small, rng.random((2, 2, small.size)) - 1j * rng.random((2, 2, small.size)))
    ea, eb = a.embed(big, [1, 3]), b.embed(big, [1, 3])
    assert np.array_equal((a @ b).embed(big, [1, 3]).c, (ea @ eb).c)
    for rank, alpha in enumerate(big.indices):
        if alpha[0] or alpha[2]:
            assert not np.any(ea.c[:, :, rank])
        else:
            assert np.array_equal(ea.c[:, :, rank], a.coeff((alpha[1], alpha[3])))
    # a context without variables holds constants; it embeds at rank 0
    const = JetMatrix.constant(series_context(0, 3), [[2.0 + 1j]])
    assert np.array_equal(const.embed(big, []).c, JetMatrix.constant(big, [[2.0 + 1j]]).c)
    with pytest.raises(ValueError, match="cannot embed"):
        a.embed(series_context(4, 2), [1, 3])


def test_context_size_guard():
    # d=2, k=9 jet kernels of an m=3 kernel would need this context
    with pytest.raises(ValueError, match=r"\(6, 16\) needs 30421755 product pairs"):
        series_context(6, 16)
    assert len(series_context(6, 8).mul_table[0]) == 125970


def _double_loop_table(ctx):
    """Brute-force product table: every pair of indices that fits, by rank."""
    rank = {alpha: i for i, alpha in enumerate(ctx.indices)}
    triples = set()
    for i, a in enumerate(ctx.indices):
        for j, b in enumerate(ctx.indices):
            if sum(a) + sum(b) <= ctx.trunc:
                triples.add((i, j, rank[tuple(x + y for x, y in zip(a, b))]))
    return triples


@pytest.mark.parametrize(
    "num_vars, trunc",
    [(n, t) for n in range(1, 5) for t in range(5)] + [(70, 1)],  # (70, 1): keys past int64
)
def test_tables_match_loops(num_vars, trunc):
    ctx = series_context(num_vars, trunc)
    left, right, out = ctx.mul_table
    assert len(out) == math.comb(2 * num_vars + trunc, trunc)
    assert set(zip(left.tolist(), right.tolist(), out.tolist())) == _double_loop_table(ctx)
    for n in range(trunc + 1):
        chunk = out[ctx.mul_offsets[n] : ctx.mul_offsets[n + 1]]
        assert np.all(ctx.degrees[chunk] == n)
    assert ctx.mul_offsets[-1] == len(out)
    if trunc == 0:
        return
    lower = series_context(num_vars, trunc - 1)
    rank = {alpha: i for i, alpha in enumerate(ctx.indices)}
    for var in range(num_vars):
        src, fac = ctx.deriv_table(var)
        for i, beta in enumerate(lower.indices):
            up = beta[:var] + (beta[var] + 1,) + beta[var + 1 :]
            assert src[i] == rank[up] and fac[i] == beta[var] + 1


_SMALL = st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)


@st.composite
def units(draw, angles=st.floats(-math.pi, math.pi), negative_axis=False):
    """Series with a constant term of modulus 1 to 2 and small higher terms."""
    ctx = series_context(draw(st.integers(1, 3)), draw(st.integers(0, 4)))
    c = draw(st.lists(_SMALL, min_size=ctx.size, max_size=ctx.size))
    modulus = draw(st.floats(1.0, 2.0))
    if negative_axis and draw(st.booleans()):
        c[0] = -modulus
    else:
        c[0] = modulus * np.exp(1j * draw(angles))
    return JetSeries(ctx, np.array(c))


# constant terms off the negative real axis, where the principal log is analytic
_OFF_CUT = units(angles=st.floats(-3.0, 3.0))


@given(units(negative_axis=True))
def test_recip_property(a):
    assert close(a * a.recip(), JetSeries.constant(a.ctx, 1.0))


@given(_OFF_CUT)
def test_log_exp_inverse_property(a):
    assert close(a.log().exp(), a)
    assert close(a.exp().log(), a)


@given(units(negative_axis=True), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_power_exponent_law_property(a, p, q):
    assert close(a.power(p) * a.power(q), a.power(p + q))


@given(units(negative_axis=True), st.integers(-3, 3))
def test_integer_power_is_repeated_product(a, n):
    factor = a if n > 0 else a.recip()
    expect = JetSeries.constant(a.ctx, 1.0)
    for _ in range(abs(n)):
        expect = expect * factor
    assert close(a.power(n), expect)
