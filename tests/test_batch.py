"""The sample axis: a (B, m) stack of points evaluates every sample in one pass.

The reference is the per-sample loop: each batched result must equal, bit
for bit, the unbatched result at each of its samples, and a batch of one
must equal the unbatched result.  A bad sample in a batch raises what it
raises alone, and the message names it.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetmod.equivalence import invariant_array
from jetmod.geometry import (
    curvature,
    curvature_covariant_derivs,
    gram_jet,
    normalize_at,
    transport_maps,
    transverse_blocks,
)
from jetmod.jets import JetMatrix, JetSeries, jet_matrix_inverse, series_context
from jetmod.kernels import DomainError, diagonal_chart, identity_chart, parse_kernel
from jetmod.multiindex import JetIndexTable
from util import coupled_rank2_kernel, three_run_varying_jet

SCALAR = parse_kernel(
    "exp(z1*wb1/3) * (1 - z2*wb2/2)^-1.5 + log(2 + z1*wb1 + z2*wb2) * (1 - z1*wb1)^-2"
)
RANK2 = coupled_rank2_kernel(np.random.default_rng(8), m=2)
KERNELS = pytest.mark.parametrize("spec", [SCALAR, RANK2], ids=["r1", "r2"])
BATCHES = pytest.mark.parametrize("batch", [1, 2, 5])


def points(batch, m=2, seed=0, on_z=0):
    """A (batch, m) stack of points with modulus below 0.45; the first
    ``on_z`` coordinates are zero."""
    rng = np.random.default_rng(seed)
    q = 0.3 * (rng.random((batch, m)) - 0.5 + 1j * (rng.random((batch, m)) - 0.5))
    q[:, :on_z] = 0.0
    return q


def same(batched, singles):
    """Sample s of the batched array equals singles[s], bit for bit."""
    assert batched.shape == (len(singles),) + singles[0].shape
    for got, want in zip(batched, singles):
        assert got.tobytes() == want.tobytes()


class TestKernels:
    @KERNELS
    @BATCHES
    @pytest.mark.parametrize("vary_z, vary_w", [(True, True), (True, False), (False, True),
                                                (1, 2), (0, 1), (False, False)])
    def test_eval_jet_and_varying_jet(self, spec, batch, vary_z, vary_w):
        z, w = points(batch, seed=1), points(batch, seed=2)
        jm = spec.eval_jet(z, w, 3, vary_z, vary_w)
        same(jm.c, [spec.eval_jet(z[s], w[s], 3, vary_z, vary_w).c for s in range(batch)])
        vj, variables = spec.varying_jet(z, w, 3, vary_z, vary_w)
        singles = [spec.varying_jet(z[s], w[s], 3, vary_z, vary_w) for s in range(batch)]
        same(vj.c, [single.c for single, _ in singles])
        assert variables == singles[0][1]

    @KERNELS
    def test_one_point_against_a_stack(self, spec):
        # K(z, p) for a stack of z and one p, as NormalizedKernel evaluates it
        z, p = points(3, seed=3), points(1, seed=4)[0]
        same(spec.eval_jet(z, p, 2).c, [spec.eval_jet(q, p, 2).c for q in z])

    def test_entry_without_coordinates_keeps_the_batch(self):
        spec = parse_kernel("m = 2\nr = 2\nK[1][1] = 2\nK[1][2] = 0\nK[2][1] = 0\n"
                            "K[2][2] = 1 + z1*wb1\n")
        jm = spec.eval_jet(points(4), points(4), 2)
        assert jm.batch == (4,) and jm.shape == (2, 2)
        assert np.all(jm.c[:, 0, 0, 0] == 2)

    @KERNELS
    def test_batch_of_one_is_the_unbatched_result(self, spec):
        q = points(1, seed=5)
        assert spec.eval_jet(q, q, 3).c[0].tobytes() == spec.eval_jet(q[0], q[0], 3).c.tobytes()
        assert spec.eval_point(q, q)[0].tobytes() == spec.eval_point(q[0], q[0]).tobytes()


class TestGeometry:
    @KERNELS
    @BATCHES
    def test_normalized_eval_and_gram_jet(self, spec, batch):
        norm = normalize_at(spec, np.array([0.05, -0.02j]))
        q = points(batch, seed=6)
        same(norm.eval_jet(q, q, 3).c, [norm.eval_jet(z, z, 3).c for z in q])
        same(gram_jet(norm, q, 3).jet.c, [gram_jet(norm, z, 3).jet.c for z in q])

    @KERNELS
    @BATCHES
    def test_readers(self, spec, batch):
        q = points(batch, seed=7, on_z=1)
        g = gram_jet(spec, q, 3)
        singles = [gram_jet(spec, z, 3) for z in q]
        idx = JetIndexTable(1, 2)
        same(transverse_blocks(g.jet, idx), [transverse_blocks(s.jet, idx) for s in singles])
        same(curvature(g).entries, [curvature(s).entries for s in singles])
        defects = [curvature(s).selfadjoint_defect() for s in singles]
        same(curvature(g).selfadjoint_defect(), defects)
        keys, blocks = curvature_covariant_derivs(g, 1, 1)
        assert all(curvature_covariant_derivs(s, 1, 1)[0] == keys for s in singles)
        same(blocks, [curvature_covariant_derivs(s, 1, 1)[1] for s in singles])
        same(transport_maps(g, 1, 3), [transport_maps(s, 1, 3) for s in singles])

    @KERNELS
    def test_batch_of_one_is_the_unbatched_result(self, spec):
        q = points(1, seed=8, on_z=1)
        g, g1 = gram_jet(spec, q, 3), gram_jet(spec, q[0], 3)
        assert g.jet.c[0].tobytes() == g1.jet.c.tobytes()
        assert curvature(g).entries[0].tobytes() == curvature(g1).entries.tobytes()
        assert transport_maps(g, 1, 3)[0].tobytes() == transport_maps(g1, 1, 3).tobytes()

    def test_bundle_readers_share_one_inverse(self, monkeypatch):
        calls = []
        inverse = JetMatrix.inverse
        monkeypatch.setattr(JetMatrix, "inverse", lambda self: calls.append(1) or inverse(self))
        g = gram_jet(RANK2, points(3, on_z=1), 3)
        curvature_covariant_derivs(g, 1, 1)
        transport_maps(g, 1, 3)
        assert len(calls) == 1

    @BATCHES
    def test_invariant_array_is_the_per_sample_stack(self, batch):
        chart = diagonal_chart(3)
        spec = coupled_rank2_kernel(np.random.default_rng(3), m=3)
        q = points(batch, m=3, seed=9, on_z=2)
        inv = invariant_array(spec, chart, 3, q)
        for s in range(batch):
            one = invariant_array(spec, chart, 3, q[s:s + 1])
            for name in ("deriv_tables", "curvature", "transport"):
                assert getattr(inv, name)[s].tobytes() == getattr(one, name)[0].tobytes()


class TestJets:
    @BATCHES
    @pytest.mark.parametrize("r", [1, 2])
    def test_matrix_inverse(self, batch, r):
        rng = np.random.default_rng(10)
        ctx = series_context(3, 4)
        c = rng.random((batch, r, r, ctx.size)) - 0.5 + 1j * rng.random((batch, r, r, ctx.size))
        c[..., 0] += 2 * np.eye(r)
        inv = jet_matrix_inverse(JetMatrix(ctx, c))
        same(inv.c, [jet_matrix_inverse(JetMatrix(ctx, one)).c for one in c])

    @given(
        st.integers(1, 4), st.integers(1, 2), st.integers(1, 3),
        st.floats(-2.5, 2.5).filter(lambda e: abs(e) > 1e-3), st.integers(0, 2**31),
    )
    def test_operations_act_per_sample(self, batch, num_vars, trunc, e, seed):
        rng = np.random.default_rng(seed)
        ctx = series_context(num_vars, trunc)
        shape = (batch, ctx.size)
        a = JetSeries(ctx, rng.random(shape) - 0.5 + 1j * (rng.random(shape) - 0.5))
        b = JetSeries(ctx, rng.random(shape) - 0.5 + 1j * (rng.random(shape) - 0.5))
        a.c[:, 0] += 1.5  # constant terms away from 0 and from the log cut
        ops = {
            "mul": lambda x, y: x * y, "recip": lambda x, y: x.recip(),
            "power": lambda x, y: x.power(e), "log": lambda x, y: x.log(),
            "exp": lambda x, y: x.exp(),
        }
        for op in ops.values():
            got = op(a, b).c
            for s in range(batch):
                want = op(JetSeries(ctx, a.c[s]), JetSeries(ctx, b.c[s])).c
                assert got[s].tobytes() == want.tobytes()


class TestBadSample:
    """One bad sample in a batch of three raises what it raises alone, naming it."""

    def check(self, evaluate, stack, bad, error):
        with pytest.raises(error) as alone:
            evaluate(stack[bad])
        with pytest.raises(error) as batched:
            evaluate(stack)
        assert type(batched.value) is type(alone.value)
        assert f"at sample {bad}" in str(batched.value)

    def test_singular_factor(self):
        spec = parse_kernel("(1 - z1*wb1)^-2")
        q = np.array([[0.2], [1.0], [0.1]])
        self.check(lambda z: spec.eval_jet(z, z, 2), q, 1, DomainError)

    def test_singular_normalization(self):
        # K(q, p) = 1 + 4 * (-0.5) * 0.5 = 0 at the last sample
        norm = normalize_at(parse_kernel("1 + 4*z2*wb2"), np.array([0.0, 0.5]))
        q = np.array([[0.0, 0.1], [0.0, 0.2], [0.0, -0.5]])
        with pytest.raises(ValueError, match="numerically singular.* at sample 2"):
            norm.eval_jet(q, q, 2)
        self.check(lambda z: norm.eval_jet(z, z, 2), q, 2, ValueError)

    def test_gram_not_positive_definite(self):
        spec = parse_kernel("1 - 4*z1*wb1")
        q = np.array([[0.1], [0.2], [0.6]])
        with pytest.raises(ValueError, match="not positive definite"):
            gram_jet(spec, q)
        self.check(lambda z: gram_jet(spec, z), q, 2, ValueError)

    def test_off_the_submanifold(self):
        q = points(3, on_z=1)
        q[1, 0] = 0.1
        with pytest.raises(ValueError, match="off the submanifold.* at sample 1"):
            invariant_array(RANK2, identity_chart(2, 1), 2, samples=q)
        self.check(lambda z: transport_maps(gram_jet(RANK2, z, 2), 1, 2), q, 1, ValueError)

    def test_non_finite_point(self):
        q = points(3)
        q[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite coordinate"):
            SCALAR.eval_jet(q, q, 1)
        self.check(lambda z: SCALAR.eval_point(z, z), q, 0, ValueError)

    @pytest.mark.parametrize("z", [1 - 1e-13, 1.0])
    def test_eval_point_refuses_a_singular_factor_as_eval_jet(self, z):
        # K(z, 0) = [[1, z], [z, 1]]: cond ~ 2e13 just below z = 1, singular at 1
        # (eval_point once returned a value below 1, and numpy's bare error at 1)
        norm = normalize_at(parse_kernel(
            "m = 1\nr = 2\nK[1][1] = 1 + z1*wb1\nK[1][2] = z1 + wb1\n"
            "K[2][1] = z1 + wb1\nK[2][2] = 1 + z1*wb1\n"), [0.0])
        single = ([z], [0.3], "")
        stack = (np.array([[0.1], [z]]), np.full((2, 1), 0.3), " at sample 1")
        for zs, ws, where in (single, stack):
            with pytest.raises(ValueError) as jet:
                norm.eval_jet(zs, ws, 2)
            with pytest.raises(ValueError) as point:
                norm.eval_point(zs, ws)
            assert str(point.value) == str(jet.value)
            assert str(jet.value).startswith("constant-term matrix is numerically singular")
            assert str(jet.value).endswith(")" + where)

    def check_normalized(self, norm, z, w, bad, error):
        """The stacked factors refuse as one run per factor does, naming the sample."""
        cases = [(lambda: norm.eval_jet(z, w, 2), lambda: three_run_varying_jet(norm, z, w, 2)),
                 (lambda: norm.eval_point(z, w),
                  lambda: three_run_varying_jet(norm, z, w, 0, False, False))]
        for stacked, reference in cases:
            with pytest.raises(error) as want:
                reference()
            with pytest.raises(error) as got:
                stacked()
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)
            assert str(got.value).endswith(f" at sample {bad}")

    def test_refusing_middle_factor(self):
        # K(z, p) = K(p, w) = 1 at p = 0; K(z, z) = (1 - |z|^2)^-2 refuses at z = 1
        norm = normalize_at(parse_kernel("(1 - z1*wb1)^-2"), [0.0])
        q = np.array([[0.2], [0.3], [1.0]])
        self.check_normalized(norm, q, q, 2, DomainError)

    def test_refusing_right_factor(self):
        # at p = 0.5 only K(p, w) = (1 - 0.5 conj(w))^-2 refuses, at w = 2
        norm = normalize_at(parse_kernel("(1 - z1*wb1)^-2"), [0.5])
        z, w = np.full((3, 1), 0.1), np.array([[0.2], [2.0], [0.3]])
        self.check_normalized(norm, z, w, 1, DomainError)

    def test_non_finite_sample_through_the_normalization(self):
        norm = normalize_at(SCALAR, [0.1, 0.0])
        q = points(3)
        q[1, 0] = np.nan
        self.check_normalized(norm, q, q, 1, ValueError)
