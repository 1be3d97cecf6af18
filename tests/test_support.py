"""Per-slot variable supports, stacked powers and the powers of a vanishing
base, the level schedule of the tape, the widening and assembly of
slots, the outer product of disjoint supports, the transverse read side of
``jet_kernel``, the bound on cached product bins and the memory of repeated
``jet_kernel`` calls."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetmod import kernels
from jetmod.geometry import transverse_blocks
from jetmod.jet_kernels import jet_kernel
from jetmod.jets import JetSeries, SeriesContext, series_context
from jetmod.kernels import (
    _binary, builtin_bergman, conjugate_by_unitary, diagonal_chart, matrix_combination,
    parse_kernel, pullback_affine,
)
from jetmod.multiindex import JetIndexTable
from test_folding import random_pool_kernel
from util import (
    binary_reference, coupled_rank2_kernel, rand_pd_matrix, rand_unitary, slotwise_run,
    widen_reference, widened_run,
)


def rand_batch(rng, ctx, batch):
    shape = (batch, ctx.size)
    return rng.random(shape) - 0.5 + 1j * (rng.random(shape) - 0.5)


def stacked_power(a, exponents):
    """The powers of ``a`` to ``exponents`` by one ``power`` call: its
    coefficients stacked once per exponent, each row with its own."""
    return JetSeries(a.ctx, np.stack([a.c] * len(exponents))).power(exponents)


class TestGroupedPower:
    EXPONENTS = [-1.5, 2.0, 0.5, -1.0, 3.0, -2.0]

    @pytest.mark.parametrize("num_vars, trunc", [(0, 0), (2, 4), (3, 3)])
    @pytest.mark.parametrize("batch", range(1, 6))
    def test_an_exponent_array_equals_one_call_per_exponent(self, num_vars, trunc, batch):
        ctx = series_context(num_vars, trunc)
        rng = np.random.default_rng(batch)
        c = rand_batch(rng, ctx, batch)
        c[:, 0] = -1.5 + rng.random(batch)  # a negative base: integer exponents only are real
        c[1::2, 0] += 0.7j
        a = JetSeries(ctx, c)
        # the base stacked once per exponent, or once with a leading axis of 1
        once = JetSeries(ctx, c[None]).power(self.EXPONENTS)
        for stacked in (stacked_power(a, self.EXPONENTS), once):
            assert stacked.c.shape == (len(self.EXPONENTS), batch, ctx.size)
            for e, got in zip(self.EXPONENTS, stacked.c):
                assert got.tobytes() == a.power(e).c.tobytes()

    def test_one_refusal_for_the_whole_array(self):
        ctx = series_context(2, 3)
        c = np.zeros((3, ctx.size), dtype=complex)
        c[:, 0] = [1.0, 1e-12, 2.0]
        with pytest.raises(ValueError, match="series power requires a constant term") as exc:
            stacked_power(JetSeries(ctx, c), [2.0, -0.5])
        # the first vanishing constant term of the stack, although its exponent is 2
        assert str(exc.value).endswith("at sample 0, 1")

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 4), st.integers(0, 3),
           st.lists(st.sampled_from([-2.5, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]),
                    min_size=1, max_size=5), st.integers(0, 2**31))
    def test_stacked_rows_equal_their_own_calls(self, num_vars, trunc, batch, exponents, seed):
        # each row its own base and exponent, with or without a sample axis
        ctx = series_context(num_vars, trunc)
        rng = np.random.default_rng(seed)
        shape = (len(exponents),) + ((batch,) if batch else ())
        c = rand_batch(rng, ctx, math.prod(shape)).reshape(shape + (ctx.size,))
        c[..., 0] = rng.choice([-1.5, 0.8, 1.2j, 2.0 - 1j], shape)
        c[..., 1::2] *= -0.0  # signed zeros must keep their sign
        stacked = JetSeries(ctx, c).power(exponents)
        assert stacked.c.shape == c.shape
        for row, e, got in zip(c, exponents, stacked.c):
            assert got.tobytes() == JetSeries(ctx, row).power(e).c.tobytes()


class TestVanishingBase:
    """A non-negative integer power n of a series whose constant term is
    closer to 0 than ``SINGULAR_TOL`` is its n-fold truncated product."""

    @staticmethod
    def product(a, n):
        want = JetSeries.constant(a.ctx, np.ones(a.c.shape[:-1]))
        for _ in range(n):
            want = want * a
        return want

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 9])
    def test_whole_powers_are_products_and_keep_the_other_samples(self, n):
        ctx = series_context(2, 4)
        c = rand_batch(np.random.default_rng(n), ctx, 4)
        c[:, 0] = [1.3, 0.0, 1e-12, -0.7 + 0.2j]
        a = JetSeries(ctx, c)
        got = a.power(n)
        near = [1, 2]
        assert np.allclose(got.c[near], self.product(a, n).c[near], rtol=1e-12, atol=1e-12)
        for i in range(4):  # batched equals unbatched, and samples away from 0 keep their bits
            assert got.c[i].tobytes() == JetSeries(ctx, c[i]).power(n).c.tobytes()
        assert np.all(stacked_power(a, [n, n]).c == got.c)
        assert np.all(JetSeries(ctx, c[None]).power([n, n]).c == got.c)

    @pytest.mark.parametrize("e", [-1.0, -2.0, 0.5, 2.5, float("inf")])
    def test_negative_or_fractional_powers_are_refused(self, e):
        ctx = series_context(1, 3)
        c = np.array([[1.0, 0.5, 0, 0], [0.0, 1.0, 0, 0]], dtype=complex)
        with pytest.raises(ValueError, match=r"series power requires a constant term .* at sample 1$"):
            JetSeries(ctx, c).power(e)

    @pytest.mark.parametrize("vary", [(True, True), (1, 0), (False, False)])
    def test_kernels_agree_with_the_product_written_kernel(self, vary):
        square, written = (parse_kernel(f"m = 2\nK[1][1] = {text}\n") for text in (
            "1 + (z1*wb1)^2 * (0.5 + z2*wb2)^3 + (z1 - z1)^0",
            "1 + z1*wb1*z1*wb1 * (0.5 + z2*wb2)^3 + 1",
        ))
        z = np.array([[0.0, 0.2], [0.3, -0.1j], [0.1j, 0.0]])
        w = np.array([[0.0, 0.3], [0.0, 0.1], [0.2, 0.4]])
        got, want = (k.varying_jet(z, w, 4, *vary)[0].c for k in (square, written))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        got, want = (k.eval_point(z, w) for k in (square, written))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def anchored_k5_kernel(seed):
    """A kernel shaped like the ``jetkernel-k5`` benchmark's: three product
    kernels combined by 2x2 weights, pulled back by the anchored diagonal
    chart of the tridisc."""
    rng = np.random.default_rng(seed)
    scalars = [builtin_bergman(0.5 + 0.5 * np.arange(3) + rng.uniform(0, 0.4, 3)) for _ in range(3)]
    spec = matrix_combination(scalars, [rand_pd_matrix(rng, 2) for _ in range(3)])
    return pullback_affine(spec, diagonal_chart(3, style="anchored"))


class TestSupports:
    def test_factor_powers_run_in_two_variable_contexts(self, monkeypatch):
        calls = []  # (context variables, (base row, exponent) of each row) of every power call
        power = JetSeries.power

        def recording(self, e):
            es = np.atleast_1d(e).tolist()
            rows = np.broadcast_to(self.c, (len(es),) + self.c.shape[1:])  # one base, or one each
            calls.append((self.ctx.num_vars, [(c.tobytes(), x) for c, x in zip(rows, es)]))
            return power(self, e)

        monkeypatch.setattr(JetSeries, "power", recording)
        q = np.array([0.0, 0.0, 0.3 - 0.2j])
        jet_kernel(anchored_k5_kernel(1), 2, 5, q, q)
        # (1 - z1 wb1) and (1 - z2 wb2) read one transverse pair each, so
        # they share a context and a level: one call of 2 bases x 3 weights;
        # the third factor reads no varying variable: 1 base x 3 weights
        assert sorted((n, len(rows)) for n, rows in calls) == [(0, 3), (2, 6)]
        assert all(len(set(rows)) == len(rows) for _, rows in calls)

    def test_outputs_are_widened_to_the_run_context(self):
        spec = builtin_bergman([1.5, 2.0])
        z = np.array([[0.1, 0.2j], [0.3, -0.1]])
        jm, variables = spec.varying_jet(z, z, 3)
        assert jm.ctx is series_context(4, 3) and variables == [0, 1, 2, 3]
        jm, _ = spec.varying_jet(z, z, 3, 1, 0)
        assert jm.ctx is series_context(1, 3)
        jm, _ = spec.varying_jet(z, z, 2, False, False)
        assert jm.ctx is series_context(0, 2) and jm.c.shape == (2, 1, 1, 1)


class TestLevelSchedule:
    """``_Tape.run`` walks the tape level by level, with one call per
    (level, op, context) for ``^``, ``exp`` and ``log``: it equals the
    slot-order run (``util.slotwise_run``) bit for bit, signed zeros
    included, and raises what it raises."""

    VARY = [(True, True), (True, False), (2, 1), (False, False)]

    @staticmethod
    def both_ways(monkeypatch, evaluate):
        def outcome():
            try:
                return evaluate()
            except ValueError as exc:  # a DomainError, or an output that is not finite
                return str(exc)

        got = outcome()
        with monkeypatch.context() as patched:
            patched.setattr(kernels._Tape, "run", slotwise_run)
            return got, outcome()

    @staticmethod
    def points(seed, m, batch):
        rng = np.random.default_rng(seed)
        shape = (m,) if batch is None else (batch, m)
        return (0.3 * (rng.random(shape) - 0.5 + 1j * (rng.random(shape) - 0.5)) for _ in range(2))

    @pytest.mark.parametrize("kernel", ["k5", "rank2", "k5-conj", "rank2-conj"])
    @pytest.mark.parametrize("batch", [None, 4])
    @pytest.mark.parametrize("vary", VARY)
    def test_kernels_equal_the_slotwise_run(self, monkeypatch, kernel, batch, vary):
        rng = np.random.default_rng(6)
        spec = anchored_k5_kernel(2) if kernel.startswith("k5") else coupled_rank2_kernel(rng, m=3)
        if kernel.endswith("conj"):
            spec = conjugate_by_unitary(spec, rand_unitary(rng, 2))
        z0, w0 = self.points(7, 3, batch)
        got, want = self.both_ways(monkeypatch, lambda: spec.varying_jet(z0, w0, 4, *vary)[0].c)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(30))
    def test_random_tapes_equal_the_slotwise_run(self, monkeypatch, seed):
        # pools of +, -, *, /, ^, exp and log over shared subtrees, some of
        # whose bases vanish
        spec = random_pool_kernel(np.random.default_rng(seed))
        for batch, vary in zip([None, 3, 1, 5], self.VARY):
            z0, w0 = self.points(seed, spec.m, batch)
            got, want = self.both_ways(monkeypatch, lambda: spec.varying_jet(z0, w0, 3, *vary)[0].c)
            assert type(got) is type(want)
            assert got == want if isinstance(got, str) else got.tobytes() == want.tobytes()

    def test_a_refusal_in_a_stacked_call_names_its_slot_and_sample(self, monkeypatch):
        spec = parse_kernel("m = 2\nK[1][1] = (1 - z1*wb1)^-2 * (0.5 - z2*wb2)^-1.5\n")
        bad = spec._tape.ops.index(next(op for op in spec._tape.ops if op[0] == "^" and op[2] == -1.5))
        z = np.array([[0.1, 0.2], [0.1, 1.0], [0.2, 0.3]])
        w = np.array([[0.1, 0.2], [0.3, 0.5], [0.1, -0.2]])  # z2 wb2 = 0.5 at sample 1 only
        shapes = []
        power = JetSeries.power
        monkeypatch.setattr(JetSeries, "power", lambda a, e: shapes.append(np.shape(e)) or power(a, e))
        got, want = self.both_ways(monkeypatch, lambda: spec.varying_jet(z, w, 3))
        # both bases are series in two variables at one level: one call
        assert shapes[0] == (2,)
        assert got == want == (f"{spec._tape.where(bad)}: series power requires a constant term "
                               "away from 0 (|a0|=0.00e+00) at sample 1")

    @pytest.mark.parametrize("text, refused, message", [
        ("(z1*wb1)^2 + (z1*wb1)^-1", -1.0, "series power requires a constant term away from 0"),
        ("(1e200 + z1*wb1)^1 + (1e200 + z1*wb1)^2", 2.0,
         "series power: the constant term's power overflows"),
    ])
    def test_a_refusal_names_the_refused_power_of_its_base(self, text, refused, message):
        # both powers of the base are one call; the first of them is accepted
        spec = parse_kernel(f"m = 1\nK[1][1] = {text}\n")
        tape = spec._tape
        bad = next(s for s, (op, _, e) in enumerate(tape.ops) if op == "^" and e == refused)
        assert tape.pos[bad] != tape.pos[bad - 1] and tape.ops[bad - 1][0] == "^"
        with pytest.raises(kernels.DomainError) as exc:
            spec.varying_jet(np.zeros(1), np.zeros(1), 2)
        assert str(exc.value).startswith(f"{tape.where(bad)}: {message}")


class TestWidening:
    """The tape widens operands and outputs with ``JetSeries.embed`` and
    copies the outputs into one array; both equal the former widening
    (``widen_reference``) and ``from_entries`` bit for bit."""

    @pytest.mark.parametrize("seed", range(40))
    def test_embed_equals_the_former_widening(self, seed):
        rng = np.random.default_rng(seed)
        trunc = int(rng.integers(0, 5))
        union = tuple(sorted(rng.choice(8, int(rng.integers(1, 5)), replace=False).tolist()))
        support = tuple(sorted(rng.choice(union, int(rng.integers(0, len(union) + 1)),
                                          replace=False).tolist()))
        # a constant slot lives in the context without variables, truncated at 0
        src = series_context(len(support), trunc if support else 0)
        batch = [(), (3,), (2, 3)][seed % 3]
        c = rand_batch(rng, src, math.prod(batch)).reshape(batch + (src.size,))
        c[..., ::3] *= -0.0  # signed zeros must keep their sign
        v = JetSeries(src, c)
        ctx = series_context(len(union), trunc)
        got = v.embed(ctx, map(union.index, support))
        want = widen_reference(v, support, union, trunc)
        assert got.ctx is want.ctx is ctx
        assert got.c.shape == want.c.shape and got.c.tobytes() == want.c.tobytes()

    MIXED = parse_kernel(
        "m = 2\nr = 2\n"
        "K[1][1] = (1 - z1*wb1)^-2 * (1 - z2*wb2)^-1\n"
        "K[1][2] = 0.5\nK[2][1] = 0.5\n"
        "K[2][2] = exp(z2*wb2)\n"
    )

    @pytest.mark.parametrize("kernel", ["bergman", "mixed", "k5"])
    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("vary", [(True, True), (1, 0), (1, 2), (False, False)])
    def test_assembly_equals_widening_then_from_entries(self, kernel, batch, vary):
        spec = {"bergman": builtin_bergman([1.5, 2.0, 0.5]),
                "mixed": self.MIXED,
                "k5": anchored_k5_kernel(2)}[kernel]
        rng = np.random.default_rng(3)
        shape = (spec.m,) if batch is None else (batch, spec.m)
        z0 = 0.3 * (rng.random(shape) - 0.5 + 1j * (rng.random(shape) - 0.5))
        w0 = 0.3 * (rng.random(shape) - 0.5 + 1j * (rng.random(shape) - 0.5))
        got, want = widened_run(spec, z0, w0, 3, *vary)
        assert got.ctx is want.ctx
        assert got.c.shape == want.c.shape and got.c.tobytes() == want.c.tobytes()


class TestJetKernelReadSide:
    """``jet_kernel`` reads the transverse jet directly; the reference is the
    2m-variable path, ``eval_jet`` followed by ``transverse_blocks``."""

    @staticmethod
    def reference(spec, d, k, z0, w0):
        jm = spec.eval_jet(z0, w0, 2 * (k - 1), vary_z=d, vary_w=d)
        return transverse_blocks(jm, JetIndexTable(d, k))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_blocks_equal_the_2m_variable_path(self, d, r, batch):
        rng = np.random.default_rng(10 * d + r)
        if r == 1:
            spec = builtin_bergman(0.5 + 2 * rng.random(3))
        else:
            spec = anchored_k5_kernel(d)
        shape = (3,) if batch is None else (batch, 3)
        z0 = 0.3 * (rng.random(shape) - 0.5 + 1j * (rng.random(shape) - 0.5))
        w0 = 0.3 * (rng.random(shape) - 0.5 + 1j * (rng.random(shape) - 0.5))
        k = 3
        got = jet_kernel(spec, d, k, z0, w0).blocks
        want = self.reference(spec, d, k, z0, w0)
        assert got.shape == want.shape == shape[:-1] + (len(JetIndexTable(d, k)),) * 2 + (r, r)
        assert got.tobytes() == want.tobytes()

    def test_an_oversized_2m_context_is_refused_before_evaluation(self, monkeypatch):
        spec = builtin_bergman([1.0, 2.0, 3.0])

        def unreachable(*args, **kwargs):
            raise AssertionError("evaluated")

        monkeypatch.setattr(type(spec), "varying_jet", unreachable)
        with pytest.raises(ValueError, match=r"\(6, 16\) needs 30421755 product pairs"):
            jet_kernel(spec, 2, 9, np.zeros(3), np.zeros(3))


class TestPairBins:
    def test_sixty_batch_sizes_keep_the_bins_of_the_largest(self):
        ctx = SeriesContext(2, 3)  # a private context: its cache starts empty
        left, _, _ = ctx.mul_table
        rng = np.random.default_rng(0)
        sizes = rng.permutation(np.arange(1, 61))
        base = JetSeries(ctx, rand_batch(rng, ctx, 60))
        other = JetSeries(ctx, rand_batch(rng, ctx, 60))
        base.c[:, 0] += 2.0
        alone = [((JetSeries(ctx, base.c[i]) * JetSeries(ctx, other.c[i])).c,
                  stacked_power(JetSeries(ctx, base.c[i]), [-1.5, 2.0]).c) for i in range(60)]
        for b in sizes:
            a, o = JetSeries(ctx, base.c[:b]), JetSeries(ctx, other.c[:b])
            prod, pw = (a * o).c, stacked_power(a, [-1.5, 2.0]).c
            for i in range(b):
                assert prod[i].tobytes() == alone[i][0].tobytes()
                assert pw[:, i].tobytes() == alone[i][1].tobytes()
        kept = sum(bins.nbytes for _, bins in ctx.pair_bins.values())
        # int64 bins, two per pair (real, imaginary), of the largest product
        # (2 exponents x 60 samples): the whole table once for products, and
        # once more split by degree for the power recurrence
        assert kept <= 2 * (2 * 60) * 2 * left.size * 8
        assert {count for count, _ in ctx.pair_bins.values()} == {60, 120}


class TestOuterProduct:
    """``*`` and ``/`` of two nonempty supports that do not overlap are a
    masked outer product written into the union's context; it equals the
    former embedding and union convolution (``binary_reference``) bit for
    bit."""

    @staticmethod
    def operands(seed):
        rng = np.random.default_rng(seed)
        trunc = seed % 9
        union = sorted(rng.choice(8, int(rng.integers(2, 5)), replace=False).tolist())
        side = rng.permutation([0, 1] + rng.integers(0, 2, len(union) - 2).tolist())
        sx = tuple(v for v, s in zip(union, side) if s == 0)
        sy = tuple(v for v, s in zip(union, side) if s == 1)
        if seed % 2 == (sy[0] < sx[0]):
            sx, sy = sy, sx  # half the cases put the right operand's variables first
        batch = [(), (3,), (3, 5)][seed % 3]
        slots = []
        for support in (sx, sy):
            ctx = series_context(len(support), trunc)
            c = rand_batch(rng, ctx, math.prod(batch)).reshape(batch + (ctx.size,))
            c[..., 1::3] *= -0.0  # signed zeros
            c[..., 0] += 1.5  # away from 0, for the reciprocal of "/"
            slots.append((JetSeries(ctx, c), support))
        return slots, trunc

    @pytest.mark.parametrize("op", ["*", "/"])
    @pytest.mark.parametrize("seed", range(36))
    def test_outer_product_equals_the_union_convolution(self, op, seed):
        (a, b), trunc = self.operands(seed)
        got, support = _binary(op, a, b, trunc)
        want, want_support = binary_reference(op, a, b, trunc)
        assert support == want_support == tuple(sorted(a[1] + b[1]))
        assert got.ctx is want.ctx is series_context(len(support), trunc)
        assert got.c.shape == want.c.shape and got.c.tobytes() == want.c.tobytes()

    def test_negative_zero_operands(self):
        # every product is a signed zero, and the convolution sums them from +0.0
        ctx = series_context(1, 4)
        x = JetSeries(ctx, np.full(ctx.size, -0.0 - 0.0j))
        y = JetSeries(ctx, np.full(ctx.size, 1.0 - 0.0j))
        got, _ = _binary("*", (x, (1,)), (y, (0,)), 4)
        want, _ = binary_reference("*", (x, (1,)), (y, (0,)), 4)
        assert got.c.tobytes() == want.c.tobytes()
        assert not np.signbit(got.c.view(float)).any()

    def test_overlapping_supports_keep_the_convolution(self, monkeypatch):
        products = []
        mul = JetSeries.__mul__
        monkeypatch.setattr(JetSeries, "__mul__", lambda s, o: products.append(1) or mul(s, o))
        rng = np.random.default_rng(4)
        ctx = series_context(2, 4)
        x, y = (JetSeries(ctx, rand_batch(rng, ctx, 3)) for _ in range(2))
        got, support = _binary("*", (x, (0, 1)), (y, (1, 2)), 4)
        assert products == [1] and support == (0, 1, 2)
        want, _ = binary_reference("*", (x, (0, 1)), (y, (1, 2)), 4)
        assert got.c.tobytes() == want.c.tobytes()

    @staticmethod
    def both_ways(monkeypatch, evaluate):
        got = evaluate()
        monkeypatch.setattr(kernels, "_binary", binary_reference)
        return got, evaluate()

    @pytest.mark.parametrize("batch", [None, 3])
    def test_k5_blocks_equal_the_union_convolution(self, monkeypatch, batch):
        spec = anchored_k5_kernel(3)
        rng = np.random.default_rng(5)
        u = 0.3 * (rng.random(batch) - 0.5 + 1j * (rng.random(batch) - 0.5))
        q = np.stack(np.broadcast_arrays(0 * u, 0 * u, u), axis=-1)
        got, want = self.both_ways(monkeypatch, lambda: jet_kernel(spec, 2, 5, q, q).blocks)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("vary", [(True, True), (2, 1), (3, 0)])
    def test_rank2_equiv_kernel_equals_the_union_convolution(self, monkeypatch, vary):
        spec = coupled_rank2_kernel(np.random.default_rng(8), m=3)
        rng = np.random.default_rng(9)
        z0 = 0.3 * (rng.random((4, 3)) - 0.5 + 1j * (rng.random((4, 3)) - 0.5))
        w0 = 0.3 * (rng.random((4, 3)) - 0.5 + 1j * (rng.random((4, 3)) - 0.5))
        got, want = self.both_ways(
            monkeypatch, lambda: spec.varying_jet(z0, w0, 4, *vary)[0].c)
        assert got.tobytes() == want.tobytes()

    def test_k5_run_makes_one_series_product(self, monkeypatch):
        spec = anchored_k5_kernel(1)
        q = np.array([0.0, 0.0, 0.3 - 0.2j])
        products = []
        mul = JetSeries.__mul__
        monkeypatch.setattr(JetSeries, "__mul__", lambda s, o: products.append(1) or mul(s, o))
        jet_kernel(spec, 2, 5, q, q)
        # the union convolutions made six: z1*wb1 and z2*wb2 under the chart,
        # and the product of the two varying factor powers in each of the
        # three scalar kernels; what is left is a product of two constants
        assert len(products) == 1

    @pytest.mark.parametrize("reference", [False, True])
    def test_an_overflowing_product_is_refused_without_warnings(self, monkeypatch, reference):
        # pytest turns a RuntimeWarning into an error, so a leaked one fails here
        if reference:
            monkeypatch.setattr(kernels, "_binary", binary_reference)
        spec = parse_kernel("m = 2\nK[1][1] = (1 + 1e200*z1*wb1)*(1 + 1e200*z2*wb2)\n")
        z = np.array([0.1, 0.2])
        with pytest.raises(ValueError, match="kernel jet is not finite"):
            spec.varying_jet(z, z, 3)
        with pytest.raises(ValueError, match="kernel value is not finite"):
            spec.eval_point(z, z)


MEMORY_CHILD = """
import os
import resource
import sys

# ru_maxrss survives exec, so a process spawned by a large one starts at
# that one's peak; a fork of this small process starts at its own
if os.fork():
    sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))

import numpy as np
from jetmod.jet_kernels import jet_kernel
from test_support import anchored_k5_kernel

specs = [anchored_k5_kernel(1), anchored_k5_kernel(2)]
points = [np.array([0.0, 0.0, 0.3 * np.exp(2j * t)]) for t in range(4)]

def calls(n):
    for i in range(n):
        q = points[i % 4]
        jet_kernel(specs[i % 2], 2, 5, q, q)

calls(200)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
calls(2000)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_repeated_jet_kernel_calls_keep_their_memory():
    """2,000 warm ``jet_kernel`` calls on two ``jetkernel-k5``-shaped kernels
    grow the peak resident set by under 1 MB, so no cache grows per call."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here)]))
    res = subprocess.run([sys.executable, "-c", MEMORY_CHILD], capture_output=True,
                         text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) < 1024  # ru_maxrss is in kB
