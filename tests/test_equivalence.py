"""Equivalence criteria: invariant arrays, witnesses, recovery pipelines."""

import numpy as np
import pytest

from jetmod.equivalence import (
    default_samples,
    invariant_array,
    lemma_em_check,
    mthm_check,
    rank1_equiv,
    rankr_equiv,
    recover_bergman_weights,
)
from jetmod.geometry import NormalizedKernel
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
    parse_kernel,
)
from util import (
    coupled_rank2_kernel,
    phase_align,
    rand_nonvanishing_poly,
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

    def test_one_normalized_evaluation_per_sample(self, monkeypatch):
        # the table and all three bundle invariants read one Gram jet
        calls = []
        evaluate = NormalizedKernel.eval_jet

        def counting(self, z0, w0, trunc, **kwargs):
            calls.append(trunc)
            return evaluate(self, z0, w0, trunc, **kwargs)

        monkeypatch.setattr(NormalizedKernel, "eval_jet", counting)
        samples = default_samples(3, 2, count=3)
        inv = invariant_array(coupled_rank2_kernel(np.random.default_rng(3), m=3),
                              CHART3, k=3, samples=samples, bundle_data=True)
        assert len(inv.transport) == 3
        assert calls == [4, 4, 4]


class TestRank1:
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

    def test_degenerate_inconclusive(self):
        a = direct_sum(builtin_bergman([1.0, 1.0]), builtin_bergman([1.0, 1.0]))
        b = direct_sum(builtin_bergman([1.0, 1.0]), builtin_bergman([3.0, 1.0]))
        report = rankr_equiv(a, b, CHART2, k=2)
        assert report.verdict == "inconclusive"
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

    def test_permuted_weights_fail_curvature_condition(self):
        a = builtin_bergman([1.0, 2.0, 3.0])
        b = builtin_bergman([1.0, 3.0, 2.0])
        report = mthm_check(a, b, CHART3, k=2)
        assert report.verdict == "not-equivalent"
        assert any("(ii)" in note for note in report.notes)


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
    def test_default_samples_deterministic(self):
        a = default_samples(3, 2)
        b = default_samples(3, 2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert all(np.max(np.abs(q[:2])) == 0 for q in a)
        assert all(np.max(np.abs(q[2:])) <= 0.5 for q in a)

    def test_full_codimension_origin_only(self):
        samples = default_samples(2, 2)
        assert len(samples) == 1 and np.array_equal(samples[0], np.zeros(2))

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
