"""Equivalence criteria: invariant arrays, witnesses, recovery pipelines."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetmod.equivalence import (
    NOT_EQUIVALENT_MARGIN,
    _conjugation_residuals,
    _find_witness,
    _fix_phase,
    _scale,
    _stack_constraints,
    _verdict,
    default_samples,
    invariant_array,
    lemma_em_check,
    mthm_check,
    rank1_equiv,
    rankr_equiv,
    recover_bergman_weights,
)
from jetmod.geometry import (
    NormalizedKernel,
    curvature,
    curvature_covariant_derivs,
    gram_jet,
    normalize_at,
)
from jetmod.kernels import (
    Call,
    Num,
    Var,
    builtin_bergman,
    conjugate_by_unitary,
    diagonal_chart,
    direct_sum,
    gauge_scale,
    identity_chart,
    matrix_combination,
    parse_kernel,
    pullback_affine,
)
from util import (
    coupled_rank2_kernel,
    phase_align,
    rand_nonvanishing_poly,
    rand_pd_matrix,
    rand_unitary,
)

CHART2 = identity_chart(2, 1)
CHART3 = diagonal_chart(3, style="pairwise")


class TestInvariantArray:
    def test_constant_kernel(self):
        spec = parse_kernel("m = 2\nK[1][1] = 1\n")
        inv = invariant_array(spec, CHART2, k=2)
        for table in inv.deriv_tables:
            assert abs(table[0, 0, 0, 0] - 1.0) < 1e-12
            table = table.copy()
            table[0, 0] = 0.0
            assert np.max(np.abs(table)) < 1e-12

    def test_bidisc_transverse_block(self):
        lam, mu = 1.7, 0.9
        spec = builtin_bergman([lam, mu])
        inv = invariant_array(spec, CHART2, k=2, samples=[np.zeros(2)])
        # the (1,1) entry of the table at the origin is the transverse weight
        assert abs(inv.deriv_tables[0][1, 1, 0, 0] - lam) < 1e-10

    def test_gauge_invariance_of_arrays(self):
        rng = np.random.default_rng(0)
        spec = builtin_bergman([1.0, 2.0, 1.5])
        psi = rand_nonvanishing_poly(rng, 3)
        scaled = gauge_scale(spec, Call("exp", psi))
        inv_a = invariant_array(spec, CHART3, k=2, bundle_data=False)
        inv_b = invariant_array(scaled, CHART3, k=2, bundle_data=False)
        for ta, tb in zip(inv_a.deriv_tables, inv_b.deriv_tables):
            assert np.max(np.abs(ta - tb)) < 1e-8 * max(1.0, np.max(np.abs(ta)))

    def test_off_manifold_sample_rejected(self):
        spec = builtin_bergman([1.0, 1.0])
        with pytest.raises(ValueError, match="off the submanifold"):
            invariant_array(spec, CHART2, 2, samples=[np.array([0.2, 0.0])])

    def test_one_normalized_evaluation_for_all_samples(self, monkeypatch):
        # the table and all three bundle invariants read one batched Gram jet
        calls = []
        evaluate = NormalizedKernel.varying_jet

        def counting(self, z0, w0, trunc, **kwargs):
            calls.append(trunc)
            return evaluate(self, z0, w0, trunc, **kwargs)

        monkeypatch.setattr(NormalizedKernel, "varying_jet", counting)
        samples = default_samples(3, 2, count=3)
        inv = invariant_array(coupled_rank2_kernel(np.random.default_rng(3), m=3),
                              CHART3, k=3, samples=samples, bundle_data=True)
        assert len(inv.transport) == 3
        assert calls == [4]

    def test_stacks_and_curvature_at_order_zero(self):
        # the curvature stack is the covariant table in sorted key order; its
        # order-0 entries are the transverse curvature of the same Gram jet
        spec = coupled_rank2_kernel(np.random.default_rng(5), m=3)
        samples = default_samples(3, 2, count=2)
        inv = invariant_array(spec, CHART3, k=3, samples=samples)
        assert inv.deriv_tables.shape == (2, 6, 6, 2, 2)
        assert inv.transport.shape == (2, 6, 2, 2)  # 6 transverse orders, 1 direction
        norm = normalize_at(pullback_affine(spec, CHART3), np.zeros(3))
        for s, q in enumerate(samples):
            g = gram_jet(norm, q, trunc=4)
            keys, _ = curvature_covariant_derivs(g, 2, 1)
            assert keys == sorted(keys)
            assert inv.curvature.shape == (2, len(keys), 2, 2)
            entries = curvature(g).entries
            order0 = [n for n, key in enumerate(keys) if not any(key[2] + key[3])]
            assert [keys[n][:2] for n in order0] == [(0, 0), (0, 1), (1, 0), (1, 1)]
            for n in order0:
                i, j = keys[n][:2]
                assert np.max(np.abs(inv.curvature[s, n] - entries[i, j])) < 1e-12

    def test_singular_normalization_refused(self):
        # K(q, p) = 1 + 4 * (-0.5) * 0.5 = 0, so the normalization has no inverse
        spec = parse_kernel("1 + 4*z2*wb2")
        p, q = np.array([0.0, 0.5]), np.array([0.0, -0.5])
        assert spec.eval_point(q, p)[0, 0] == 0
        with pytest.raises(ValueError, match="numerically singular"):
            invariant_array(spec, identity_chart(2, 1), 2, samples=[q], base_point=p)

    def test_no_bundle_data(self):
        inv = invariant_array(builtin_bergman([1.0, 2.0]), CHART2, k=2, bundle_data=False)
        assert inv.curvature is None and inv.transport is None
        assert inv.deriv_tables.shape == (5, 2, 2, 1, 1)


class TestRank1:
    def test_nan_in_a_later_sample_is_inconclusive(self, monkeypatch):
        import jetmod.equivalence as equivalence

        built = []

        def with_nan(spec, *args, **kwargs):
            inv = invariant_array(spec, *args, **kwargs)
            if built:  # the second kernel: a NaN block in its second sample
                inv.deriv_tables[1, 0, 0] = np.nan
            built.append(inv)
            return inv

        monkeypatch.setattr(equivalence, "invariant_array", with_nan)
        spec = builtin_bergman([1.0, 2.0])
        report = rank1_equiv(spec, spec, CHART2, 2)
        assert report.residuals[0] == 0.0 and np.isnan(report.residuals[1])
        assert np.isnan(report.witness.max_residual)
        assert report.verdict == "inconclusive"

    def test_reflexive(self):
        spec = builtin_bergman([1.0, 2.0, 3.0])
        report = rank1_equiv(spec, spec, CHART3, k=2)
        assert report.verdict == "equivalent"
        assert max(report.residuals) < 1e-14

    def test_weights_decide(self):
        a = builtin_bergman([1.0, 2.0, 3.0])
        b = builtin_bergman([1.0, 3.0, 2.0])
        assert rank1_equiv(a, b, CHART3, k=2).verdict == "not-equivalent"
        c = builtin_bergman([1.0, 2.0, 3.0])
        assert rank1_equiv(a, c, CHART3, k=2).verdict == "equivalent"

    def test_gauge_rescaled_equivalent(self):
        rng = np.random.default_rng(1)
        spec = builtin_bergman([1.0, 2.0])
        for _ in range(5):
            psi = rand_nonvanishing_poly(rng, 2)
            report = rank1_equiv(spec, gauge_scale(spec, psi), CHART2, k=2)
            assert report.verdict == "equivalent"
            assert max(report.residuals) <= 1e-8

    def test_rank_guard(self):
        spec2 = direct_sum(builtin_bergman([1.0, 1.0]), builtin_bergman([2.0, 1.0]))
        with pytest.raises(ValueError, match="rank-1"):
            rank1_equiv(spec2, spec2, CHART2, 2)

    def test_symmetry(self):
        a = builtin_bergman([1.0, 2.0, 3.0])
        b = builtin_bergman([2.0, 1.0, 3.0])
        va = rank1_equiv(a, b, CHART3, 2).verdict
        vb = rank1_equiv(b, a, CHART3, 2).verdict
        assert va == vb == "not-equivalent"


class TestRankR:
    def test_self_direct_sum_equivalent_with_identity(self):
        spec = direct_sum(builtin_bergman([1.0, 1.0]), builtin_bergman([2.0, 1.0]))
        report = rankr_equiv(spec, spec, CHART2, k=2)
        assert report.verdict == "equivalent"
        assert report.witness.null_dim > 1  # reducible pair
        aligned = phase_align(report.witness.matrix, np.eye(2))
        assert np.max(np.abs(aligned - np.eye(2))) < 1e-8

    def test_unitary_conjugation_recovered(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            spec = coupled_rank2_kernel(rng)
            u = rand_unitary(rng, 2)
            report = rankr_equiv(spec, conjugate_by_unitary(spec, u), CHART2, k=2)
            assert report.verdict == "equivalent"
            assert report.witness.null_dim == 1
            aligned = phase_align(report.witness.matrix, u)
            assert np.max(np.abs(aligned - u)) < 1e-6

    def test_distinct_direct_sums(self):
        a = direct_sum(builtin_bergman([1.0, 1.0]), builtin_bergman([2.0, 1.0]))
        b = direct_sum(builtin_bergman([1.0, 1.0]), builtin_bergman([3.0, 1.0]))
        report = rankr_equiv(a, b, CHART2, k=2)
        assert report.verdict == "not-equivalent"

    def test_degenerate_pair_not_equivalent(self):
        # the null space is reducible but holds no invertible intertwiner
        a = direct_sum(builtin_bergman([1.0, 1.0]), builtin_bergman([1.0, 1.0]))
        b = direct_sum(builtin_bergman([1.0, 1.0]), builtin_bergman([3.0, 1.0]))
        report = rankr_equiv(a, b, CHART2, k=2)
        assert report.verdict == "not-equivalent"
        assert report.witness.null_dim > 1

    def test_permuted_direct_sum_equivalent(self):
        a = direct_sum(builtin_bergman([1.0, 1.0]), builtin_bergman([2.0, 1.0]))
        b = direct_sum(builtin_bergman([2.0, 1.0]), builtin_bergman([1.0, 1.0]))
        report = rankr_equiv(a, b, CHART2, k=2)
        assert report.verdict == "equivalent"
        # the witness swaps the summands; its phases are not unique
        mod = np.abs(report.witness.matrix)
        assert np.max(np.abs(mod - [[0.0, 1.0], [1.0, 0.0]])) < 1e-8

    def test_rank_mismatch(self):
        a = builtin_bergman([1.0, 1.0])
        b = direct_sum(a, a)
        with pytest.raises(ValueError, match="ranks differ"):
            rankr_equiv(a, b, CHART2, 2)

    def test_symmetry_of_witness(self):
        rng = np.random.default_rng(3)
        spec = coupled_rank2_kernel(rng)
        u = rand_unitary(rng, 2)
        other = conjugate_by_unitary(spec, u)
        fwd = rankr_equiv(spec, other, CHART2, 2)
        bwd = rankr_equiv(other, spec, CHART2, 2)
        assert fwd.verdict == bwd.verdict == "equivalent"
        aligned = phase_align(bwd.witness.matrix, fwd.witness.matrix.conj().T)
        assert np.max(np.abs(aligned - fwd.witness.matrix.conj().T)) < 1e-8


def _weight_shifted_pair(delta):
    """A rank-2 combination A against U A' U*, where A' has the first Bergman
    weight moved from 1 to 1 + delta."""
    mats = [
        np.array([[2, 0.5j], [-0.5j, 1]]),
        np.array([[1, 0.3], [0.3, 2]]),
        np.array([[1.5, -0.4 + 0.2j], [-0.4 - 0.2j, 1]]),
    ]
    u = np.array([[np.cos(0.7), -1j * np.sin(0.7)], [-1j * np.sin(0.7), np.cos(0.7)]])

    def combination(w):
        weights = ([w, 2.0, 3.0], [2.0, 1.0, 1.5], [1.5, 2.5, 1.0])
        return matrix_combination([builtin_bergman(x) for x in weights], mats)

    return combination(1.0), conjugate_by_unitary(combination(1.0 + delta), u)


class TestMthm:
    def test_identical(self):
        rng = np.random.default_rng(4)
        spec = coupled_rank2_kernel(rng)
        report = mthm_check(spec, spec, CHART2, k=2)
        assert report.verdict == "equivalent"

    def test_agrees_with_array_criterion(self):
        rng = np.random.default_rng(5)
        spec = coupled_rank2_kernel(rng)
        u = rand_unitary(rng, 2)
        pairs = [
            (spec, conjugate_by_unitary(spec, u)),
            (
                direct_sum(builtin_bergman([1.0, 1.0]), builtin_bergman([2.0, 1.0])),
                direct_sum(builtin_bergman([1.0, 1.0]), builtin_bergman([3.0, 1.0])),
            ),
        ]
        for a, b in pairs:
            assert (
                mthm_check(a, b, CHART2, 2).verdict
                == rankr_equiv(a, b, CHART2, 2).verdict
            )
        # a reducible pair whose null space holds no invertible intertwiner
        a = direct_sum(builtin_bergman([1.0, 1.0]), builtin_bergman([1.0, 1.0]))
        b = direct_sum(builtin_bergman([1.0, 1.0]), builtin_bergman([3.0, 1.0]))
        report = mthm_check(a, b, CHART2, 2)
        assert report.witness.null_dim > 1
        assert report.verdict == rankr_equiv(a, b, CHART2, 2).verdict == "not-equivalent"
        assert report.notes[-1].startswith("first failing condition: (ii)")
        # residuals below tol with no joint null space: neither criterion says equivalent
        for delta in (3e-8, 1e-8):
            a, b = _weight_shifted_pair(delta)
            report = mthm_check(a, b, diagonal_chart(3), 3)
            assert report.witness.null_dim == 0 and max(report.residuals) <= 1e-8
            assert report.verdict == rankr_equiv(a, b, diagonal_chart(3), 3).verdict

    def test_permuted_weights_fail_curvature_condition(self):
        a = builtin_bergman([1.0, 2.0, 3.0])
        b = builtin_bergman([1.0, 3.0, 2.0])
        report = mthm_check(a, b, CHART3, k=2)
        assert report.verdict == "not-equivalent"
        assert any("(ii)" in note for note in report.notes)

    @pytest.mark.parametrize("weights_a, weights_b, verdict, residual", [
        ([2.0], [2.0], "equivalent", 0.0),
        ([2.0], [3.0], "not-equivalent", 1 / 3),
        ([1.0, 2.0], [1.0, 2.0], "equivalent", 0.0),
        ([1.0, 2.0], [2.0, 1.0], "not-equivalent", 0.5),
    ])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_no_tangential_directions(self, weights_a, weights_b, verdict, residual, k):
        # d == m: the only sample is the origin and there are no transport maps
        m = len(weights_a)
        inv = invariant_array(builtin_bergman(weights_a), identity_chart(m, m), k)
        assert inv.transport.shape == (1, 0, 1, 1)
        report = mthm_check(
            builtin_bergman(weights_a), builtin_bergman(weights_b), identity_chart(m, m), k
        )
        assert report.verdict == verdict
        assert report.residuals == pytest.approx([residual], abs=1e-15)
        if verdict != "equivalent":
            assert "first failing condition: (ii)" in report.notes[-1]


class TestScaleFree:
    """Scaling a kernel by a constant gives a unitarily equivalent module, so
    every verdict holds at any scale (``gauge_scale`` by c multiplies K by c^2)."""

    SCALES = [1e-20, 1e-13, 1e-11, 1.0, 1e13, 1e20]
    CHART = diagonal_chart(3)

    @pytest.mark.parametrize("c", SCALES)
    def test_rank1(self, c):
        spec = builtin_bergman([1.0, 2.0, 3.0])
        scaled = gauge_scale(spec, Num(c))
        assert rank1_equiv(spec, scaled, self.CHART, 3).verdict == "equivalent"
        assert mthm_check(spec, scaled, self.CHART, 2).verdict == "equivalent"
        # residuals of a few ulps, from one singular value at r = 1
        spec = builtin_bergman([6.0, 7.0, 8.0])
        scaled = gauge_scale(spec, Num(c))
        assert rankr_equiv(spec, scaled, self.CHART, 2).verdict == "equivalent"

    @pytest.mark.parametrize("c", SCALES)
    def test_rank2(self, c):
        spec = coupled_rank2_kernel(np.random.default_rng(6), m=3)
        scaled = gauge_scale(spec, Num(c))
        assert rankr_equiv(spec, scaled, self.CHART, 2).verdict == "equivalent"
        assert mthm_check(spec, scaled, self.CHART, 2).verdict == "equivalent"

    @pytest.mark.parametrize("c", SCALES)
    def test_scaled_matrices(self, c):
        rng = np.random.default_rng(10)
        scalars = [builtin_bergman(0.5 + 3.0 * rng.random(3)) for _ in range(3)]
        mats = [rand_pd_matrix(rng, 2) for _ in range(3)]
        spec = matrix_combination(scalars, mats)
        scaled = matrix_combination(scalars, [c * mat for mat in mats])
        assert rankr_equiv(spec, scaled, self.CHART, 2).verdict == "equivalent"
        assert mthm_check(spec, scaled, self.CHART, 2).verdict == "equivalent"

    def test_curvature_of_a_small_kernel(self):
        spec = builtin_bergman([2.0, 1.0])
        q = np.array([0.1, 0.2])
        want = curvature(gram_jet(spec, q)).entries
        got = curvature(gram_jet(gauge_scale(spec, Num(1e-13)), q)).entries
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestLemmaEm:
    def test_identity_pair(self):
        spec = builtin_bergman([1.0, 2.0, 1.5])
        out = lemma_em_check(spec, spec, CHART3, Num(1.0), Num(0.0), Num(0.0))
        assert out["congruence_ok"] and out["curvature_ok"]
        assert max(out["congruence_residuals"]) < 1e-12

    def test_tangential_gauge(self):
        # gauge by exp(0.4 z3): depends only on the tangential coordinate
        from jetmod.kernels import BinOp

        spec = builtin_bergman([1.0, 2.0, 1.5])
        arg = BinOp("*", Num(0.4), Var("z", 3))
        scaled = gauge_scale(spec, Call("exp", arg))
        p00 = Call("exp", BinOp("*", Num(0.4), Var("z", 3)))
        out = lemma_em_check(spec, scaled, CHART3, p00, Num(0.0), Num(0.0))
        assert out["congruence_ok"] and out["curvature_ok"]

    def test_negative_control(self):
        a = builtin_bergman([1.0, 2.0, 1.5])
        b = builtin_bergman([3.0, 0.5, 2.5])
        out = lemma_em_check(a, b, CHART3, Num(1.0), Num(0.0), Num(0.0))
        assert not out["congruence_ok"]
        assert max(out["congruence_residuals"]) > 1e-3

    def test_codimension_guard(self):
        spec = builtin_bergman([1.0, 1.0])
        with pytest.raises(ValueError, match="codimension"):
            lemma_em_check(spec, spec, CHART2, Num(1.0), Num(0.0), Num(0.0))


class TestWeightRecovery:
    def test_examples(self):
        for weights in ([1.0, 2.0, 3.0], [2.0, 2.0, 2.0], [0.7, 3.3, 1.1]):
            rec = recover_bergman_weights(weights)
            assert np.max(np.abs(rec - weights)) < 1e-10

    def test_single_weight(self):
        assert abs(recover_bergman_weights([1.8])[0] - 1.8) < 1e-12

    def test_single_weight_reads_its_samples(self):
        # one weight: the submanifold is the origin, so other samples are refused
        assert recover_bergman_weights([1.8], samples=[[0.0]])[0] == pytest.approx(1.8)
        with pytest.raises(ValueError, match="off the submanifold"):
            recover_bergman_weights([1.8], samples=[[0.3]])

    def test_random_triples(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            weights = 0.5 + 4.5 * rng.random(3)
            rec = recover_bergman_weights(weights)
            assert np.max(np.abs(rec - weights) / weights) < 1e-7

    def test_off_manifold_samples_rejected(self):
        with pytest.raises(ValueError, match="off the submanifold"):
            recover_bergman_weights(
                [1.0, 2.0, 3.0], samples=[np.array([0.1, 0.0, 0.2])]
            )

    def test_positive_weights_required(self):
        with pytest.raises(ValueError, match="positive"):
            recover_bergman_weights([1.0, -2.0, 3.0])


class TestSamples:
    def test_empty_sample_set_refused(self):
        spec = builtin_bergman([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="at least one sample"):
            invariant_array(spec, CHART3, 2, samples=[])
        with pytest.raises(ValueError, match="at least one sample"):
            rankr_equiv(spec, spec, CHART3, 2, samples=[])
        with pytest.raises(ValueError, match="at least one sample"):
            lemma_em_check(spec, spec, CHART3, Num(1.0), Num(0.0), Num(0.0), samples=[])
        with pytest.raises(ValueError, match="at least one sample"):
            recover_bergman_weights([1.0, 2.0, 3.0], samples=[])
        with pytest.raises(ValueError, match="at least one sample"):
            recover_bergman_weights([1.0, 2.0, 3.0], num_samples=0)

    def test_default_samples_deterministic(self):
        a = default_samples(3, 2)
        b = default_samples(3, 2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert all(np.max(np.abs(q[:2])) == 0 for q in a)
        assert all(np.max(np.abs(q[2:])) <= 0.5 for q in a)

    def test_full_codimension_origin_only(self):
        samples = default_samples(2, 2)
        assert len(samples) == 1 and np.array_equal(samples[0], np.zeros(2))

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("entry", [rank1_equiv, rankr_equiv, mthm_check])
    def test_tolerance_must_be_positive_and_finite(self, entry, tol, monkeypatch):
        import jetmod.equivalence as equivalence

        def unreachable(*args, **kwargs):
            raise AssertionError("evaluated")

        monkeypatch.setattr(equivalence, "invariant_array", unreachable)
        a = builtin_bergman([1.5, 2.0, 2.5])
        with pytest.raises(ValueError, match=f"tolerance must be positive and finite, got {tol}"):
            entry(a, a, diagonal_chart(3), 2, tol=tol)

    def test_tolerance_stability(self):
        # verdicts do not flap when the tolerance moves by 2x either way
        rng = np.random.default_rng(7)
        spec = coupled_rank2_kernel(rng)
        u = rand_unitary(rng, 2)
        other = conjugate_by_unitary(spec, u)
        bad = direct_sum(builtin_bergman([1.0, 1.0]), builtin_bergman([3.0, 1.0]))
        good_pairs = [(spec, other)]
        bad_pairs = [(spec, bad)]
        for tol in (5e-9, 1e-8, 2e-8):
            for a, b in good_pairs:
                assert rankr_equiv(a, b, CHART2, 2, tol=tol).verdict == "equivalent"
            for a, b in bad_pairs:
                assert rankr_equiv(a, b, CHART2, 2, tol=tol).verdict == "not-equivalent"


def _kron_constraints(a, b):
    """The constraint system built one block pair at a time, as a reference."""
    eye = np.eye(a.shape[-1], dtype=complex)
    return np.concatenate([
        np.kron(bb, eye) - np.kron(eye, aa.T)
        for sa, sb in zip(a, b) for aa, bb in zip(sa, sb)
    ], axis=0)


def _stack(blocks):
    """One sample of the given r x r blocks, as a (1, blocks, r, r) stack."""
    return np.array([blocks], dtype=complex)


class TestWitnessCore:
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("samples, blocks", [(1, 1), (2, 3), (5, 4)])
    def test_stack_constraints_match_kron(self, r, samples, blocks):
        rng = np.random.default_rng(r * 100 + samples * 10 + blocks)
        shape = (samples, blocks, r, r)
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        a[0, 0, 0, 0] = -0.0  # signed zeros travel the same way
        assert np.array_equal(_stack_constraints(a, b), _kron_constraints(a, b))

    def test_conjugation_residuals_keep_nan_and_empty_samples(self):
        a = np.ones((3, 1, 1, 1), dtype=complex)
        b = a.copy()
        b[1, 0, 0, 0] = np.nan
        got = _conjugation_residuals(a, b, np.eye(1), 1.0)
        assert got[0] == 0.0 and np.isnan(got[1]) and got[2] == 0.0
        empty = np.zeros((2, 0, 2, 2), dtype=complex)
        assert _conjugation_residuals(empty, empty, np.eye(2), 1.0) == [0.0, 0.0]

    def test_conjugation_residuals_per_sample(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 4, 2, 2)) + 1j * rng.normal(size=(3, 4, 2, 2))
        b = rng.normal(size=(3, 4, 2, 2)) + 1j * rng.normal(size=(3, 4, 2, 2))
        d = rand_unitary(rng, 2)
        want = [
            max(float(np.max(np.abs(bb - d @ aa @ d.conj().T))) for aa, bb in zip(sa, sb)) / 2.0
            for sa, sb in zip(a, b)
        ]
        assert _conjugation_residuals(a, b, d, 2.0) == pytest.approx(want, rel=1e-15)

    def test_verdict_boundaries(self):
        tol = 1e-8
        margin = NOT_EQUIVALENT_MARGIN * tol
        assert _verdict(0.0, tol, null_dim=1) == "equivalent"
        assert _verdict(tol, tol, null_dim=1) == "equivalent"
        assert _verdict(np.nextafter(tol, 1.0), tol, null_dim=1) == "inconclusive"
        assert _verdict(margin, tol, null_dim=1) == "inconclusive"
        assert _verdict(np.nextafter(margin, 1.0), tol, null_dim=1) == "not-equivalent"
        assert _verdict(float("nan"), tol, null_dim=1) == "inconclusive"
        assert "equivalent" not in {
            _verdict(x, tol, null_dim=0) for x in (0.0, tol, margin, 2 * margin, float("nan"))
        }

    def test_no_null_space_is_never_equivalent(self):
        # the residual 5e-9 is below tolerance, but the gaps |b_i - a_j| (5e-9
        # twice, 0.25 -+ 5e-9) put the smallest singular value of the system at
        # 2e-8 of the largest, above the null cut: no intertwiner exists
        verdict, witness, residuals, notes = _find_witness(
            _stack([np.diag([1.0, 1.25])]), _stack([np.diag([1.0 + 5e-9, 1.25 + 5e-9])]),
            1.0, 1e-8,
        )
        assert witness.null_dim == 0 and notes == ["null space dimension 0"]
        assert residuals[0] <= 1e-8
        assert verdict == "inconclusive"

    def test_no_null_space_far_apart(self):
        # the smallest gap |b_i - a_j| is 0.5: the witness is diagonal
        verdict, witness, residuals, _ = _find_witness(
            _stack([np.diag([0.0, 3.0])]), _stack([np.diag([1.0, 3.5])]), 1.0, 1e-8
        )
        assert witness.null_dim == 0 and residuals == [1.0]
        assert verdict == "not-equivalent"

    def test_one_dimensional_null_space_recovers_unitary(self):
        rng = np.random.default_rng(9)
        u = rand_unitary(rng, 2)
        x = rng.normal(size=(2, 3, 2, 2)) + 1j * rng.normal(size=(2, 3, 2, 2))
        a = x + np.conj(np.swapaxes(x, -1, -2))
        b = u @ a @ u.conj().T
        verdict, witness, residuals, notes = _find_witness(a, b, 1.0, 1e-8)
        assert verdict == "equivalent" and notes == ["null space dimension 1"]
        assert witness.null_dim == 1 and witness.unitarity_defect < 1e-12
        assert witness.candidate_sv_ratio == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(phase_align(witness.matrix, u) - u)) < 1e-12
        assert max(residuals) < 1e-13

    @pytest.mark.parametrize("modulus, entry", [(0.8, (1, 1)), (0.6, (1, 0))])
    def test_witness_phase_survives_a_last_bit_tie(self, modulus, entry):
        # entries of a 2x2 unitary tie in modulus in pairs; raising a later
        # entry of the largest pair by a few ulps must not move the pivot
        a = modulus * np.exp(0.3j)
        b = np.sqrt(1 - modulus**2) * np.exp(-1.1j)
        u = np.array([[a, b], [-np.conj(b), np.conj(a)]])
        first = (0, 0) if entry == (1, 1) else (0, 1)  # the entry it ties with
        bumped = u.copy()
        while np.abs(bumped)[entry] <= np.abs(bumped)[first]:
            re = bumped[entry].real
            bumped[entry] = complex(np.nextafter(re, np.copysign(np.inf, re)), bumped[entry].imag)
        assert abs(bumped[entry] - u[entry]) < 1e-15
        assert np.argmax(np.abs(bumped)) == np.ravel_multi_index(entry, (2, 2))
        assert np.max(np.abs(_fix_phase(bumped) - _fix_phase(u))) < 1e-15
        assert abs(_fix_phase(u)[first].imag) < 1e-15 and _fix_phase(u)[first].real > 0

    @pytest.mark.parametrize("eps, tol, verdict", [
        (1e-4, 1e-3, "inconclusive"),  # residual within tol, but no intertwiner
        (1e-4, 1e-8, "not-equivalent"),
        (0.0, 1e-8, "equivalent"),
    ])
    def test_non_unitary_intertwiner(self, eps, tol, verdict):
        # B = S A S^-1 with S = diag(1, 1 + eps): S intertwines the blocks but
        # not their adjoints (B* = S^-1 A S), so the adjoint rows leave no
        # null space unless S is unitary
        s = np.diag([1.0, 1.0 + eps])
        a = _stack([np.diag([1.0, 2.0]), [[0.0, 1.0], [1.0, 0.0]]])
        b = s @ a @ np.linalg.inv(s)
        got, witness, residuals, _ = _find_witness(a, b, 1.0, tol)
        assert witness.null_dim == (0 if eps > 0 else 1)
        assert got == verdict

    def test_reducible_pair_with_unitary_in_null_space(self):
        a = _stack([np.diag([1.0, 2.0])])
        verdict, witness, residuals, notes = _find_witness(a, a.copy(), 1.0, 1e-8)
        assert witness.null_dim == 2 and witness.unitarity_defect < 1e-15
        assert witness.candidate_sv_ratio == pytest.approx(1.0, abs=1e-12)
        assert verdict == "equivalent"
        assert notes == ["null space dimension 2", "witness is not unique (reducible pair)"]

    def test_reducible_pair_without_unitary_in_null_space(self):
        # B D = D A forces the second row of D to vanish: every element of the
        # null space is singular, so no unitary intertwines
        verdict, witness, _, notes = _find_witness(
            _stack([np.eye(2)]), _stack([np.diag([1.0, 3.0])]), 1.0, 1e-8
        )
        assert witness.null_dim == 2
        # the candidate's second row vanishes, so it is singular; the reported
        # witness, its polar factor, is still unitary
        assert witness.candidate_sv_ratio < 1e-12
        assert witness.unitarity_defect < 1e-15
        assert verdict == "not-equivalent"
        assert notes == ["null space dimension 2"]

    def test_zero_system(self):
        zero = np.zeros((2, 3, 2, 2), dtype=complex)
        verdict, witness, _, _ = _find_witness(zero, zero, 1.0, 1e-8)
        assert witness.null_dim == 4 and verdict == "equivalent"


def _hermitian_stack(rng, samples, blocks, r):
    x = rng.normal(size=(samples, blocks, r, r)) + 1j * rng.normal(size=(samples, blocks, r, r))
    return x + np.conj(np.swapaxes(x, -1, -2))


def _block_diag(*stacks):
    """Per block, the direct sum of the blocks of the given stacks."""
    sizes = [s.shape[-1] for s in stacks]
    out = np.zeros(stacks[0].shape[:2] + (sum(sizes), sum(sizes)), dtype=complex)
    for start, s in zip(np.cumsum([0] + sizes), stacks):
        out[..., start:start + s.shape[-1], start:start + s.shape[-1]] = s
    return out


def _witness(a, b):
    return _find_witness(a, b, _scale(a, b), 1e-8)


_SEEDS = st.integers(0, 2**32 - 1)
_SHAPES = st.tuples(st.integers(1, 3), st.integers(1, 4))  # (samples, blocks)


class TestWitnessProperties:
    """The witness core on synthetic Hermitian stacks: conjugate pairs are
    equivalent with the conjugating unitary as witness, and a reducible
    pair is decided whether or not it is equivalent."""

    @given(_SEEDS, st.integers(1, 3), _SHAPES)
    def test_conjugation_recovers_the_unitary(self, seed, r, shape):
        rng = np.random.default_rng(seed)
        a = _hermitian_stack(rng, *shape, r)
        u = rand_unitary(rng, r)
        verdict, witness, _, _ = _witness(a, u @ a @ u.conj().T)
        assert verdict == "equivalent"
        if witness.null_dim == 1:  # irreducible: the witness is unique up to a phase
            assert np.max(np.abs(phase_align(witness.matrix, u) - u)) < 1e-8

    @given(_SEEDS, st.integers(1, 3), _SHAPES)
    def test_swapped_arguments_give_the_adjoint(self, seed, r, shape):
        rng = np.random.default_rng(seed)
        a = _hermitian_stack(rng, *shape, r)
        u = rand_unitary(rng, r)
        b = u @ a @ u.conj().T
        fwd, bwd = _witness(a, b), _witness(b, a)
        assert fwd[0] == bwd[0] == "equivalent"
        assert fwd[1].null_dim == bwd[1].null_dim
        if fwd[1].null_dim == 1:
            adjoint = fwd[1].matrix.conj().T
            assert np.max(np.abs(phase_align(bwd[1].matrix, adjoint) - adjoint)) < 1e-8

    @given(_SEEDS, _SHAPES)
    def test_reducible_conjugate_pair_is_equivalent(self, seed, shape):
        rng = np.random.default_rng(seed)
        a1, a2 = (_hermitian_stack(rng, *shape, 1) for _ in range(2))
        a = _block_diag(a1, a1, a2)
        u = rand_unitary(rng, 3)
        verdict, witness, residuals, _ = _witness(a, u @ a @ u.conj().T)
        assert witness.null_dim > 1
        assert verdict == "equivalent" and max(residuals) < 1e-12
        # the defect is the reported witness's, not its candidate's
        assert witness.unitarity_defect < 1e-12 and witness.candidate_sv_ratio > 1e-8

    @given(_SEEDS, _SHAPES)
    def test_reducible_pair_without_intertwiner_is_not_equivalent(self, seed, shape):
        rng = np.random.default_rng(seed)
        a1, a2 = (_hermitian_stack(rng, *shape, 1) for _ in range(2))
        verdict, witness, _, _ = _witness(_block_diag(a1, a1), _block_diag(a1, a2))
        assert witness.null_dim > 1
        assert verdict == "not-equivalent"


_DELTAS = st.sampled_from([0.0, 3e-9, 1e-8, 3e-8, 1e-7])


class TestVerdictConsistency:
    """Kernel-level verdicts on drawn pairs K against U K' U*, where K is a
    combination of three product kernels with positive-definite r x r weights
    and K' has the first weight of its first product kernel scaled by 1 + delta."""

    CHART = diagonal_chart(3)

    @staticmethod
    def _pair(seed, r, delta):
        rng = np.random.default_rng(seed)
        # three distinct weights, gaps >= 0.1, in random order
        weights = [rng.permutation(0.5 + 0.5 * np.arange(3) + rng.uniform(0, 0.4, 3))
                   for _ in range(3)]
        mats = [rand_pd_matrix(rng, r) for _ in range(3)]
        shifted = [weights[0] * [1.0 + delta, 1.0, 1.0]] + weights[1:]
        a, b = (matrix_combination([builtin_bergman(w) for w in ws], mats)
                for ws in (weights, shifted))
        return a, conjugate_by_unitary(b, rand_unitary(rng, r))

    @given(_SEEDS, st.integers(1, 2), _DELTAS)
    def test_criteria_agree(self, seed, r, delta):
        a, b = self._pair(seed, r, delta)
        arrays = rankr_equiv(a, b, self.CHART, 2)
        invariants = mthm_check(a, b, self.CHART, 2)
        reports = [arrays, invariants]
        if r == 1:
            rank1 = rank1_equiv(a, b, self.CHART, 2)
            assert rank1.verdict == arrays.verdict and rank1.residuals == arrays.residuals
            reports.append(rank1)
        for report in reports:
            assert report.verdict != "equivalent" or report.witness.null_dim >= 1
        assert {arrays.verdict, invariants.verdict} != {"equivalent", "not-equivalent"}
        if delta == 0:
            assert arrays.verdict == invariants.verdict == "equivalent"
