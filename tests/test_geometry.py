"""Gram jets, curvature, covariant derivatives, transport maps, normalization."""

import numpy as np
import pytest

from jetmod.geometry import (
    curvature,
    curvature_covariant_derivs,
    gram_jet,
    hermitian_sqrt,
    normalize_at,
    transport_maps,
)
from jetmod.jets import JetMatrix
from jetmod.kernels import (
    builtin_bergman,
    diagonal_chart,
    gauge_scale,
    parse_kernel,
    pullback_affine,
)
from util import (
    coupled_rank2_kernel,
    entry,
    rand_nonvanishing_poly,
    rand_point,
    wirtinger_fd,
)

BUILTINS = [
    builtin_bergman([2.0]),
    builtin_bergman([0.5]),
    builtin_bergman([1.0, 3.0]),
    builtin_bergman([1.5, 0.8, 2.5]),
]


class TestGramJet:
    def test_bergman_coefficients(self):
        lam = 1.3
        g = gram_jet(builtin_bergman([lam]), [0.0], trunc=2)
        assert abs(entry(g.jet, 0, 0).coeff((0, 0)) - 1.0) < 1e-14
        assert abs(entry(g.jet, 0, 0).coeff((1, 1)) - lam) < 1e-13

    def test_constant_kernel(self):
        g = gram_jet(parse_kernel("1"), [0.0], trunc=3)
        ident = JetMatrix.constant(g.jet.ctx, np.eye(1))
        assert np.allclose(g.jet.c, ident.c)

    def test_hermitian_coefficient_symmetry(self):
        rng = np.random.default_rng(0)
        spec = builtin_bergman([1.0, 2.0])
        z0 = rand_point(rng, 2)
        g = gram_jet(spec, z0, trunc=2)
        pairs = [((0, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (0, 1)), ((1, 1), (0, 0))]
        for alpha, beta in pairs:
            left = g.extract(alpha, beta)
            right = g.extract(beta, alpha)
            assert np.max(np.abs(left - right.conj().T)) < 1e-12

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError, match="positive definite"):
            gram_jet(parse_kernel("0 - 1"), [0.0], trunc=1)

    @pytest.mark.parametrize("scale", ["1", "1e-12"])
    def test_rejects_a_non_hermitian_constant_term_at_any_scale(self, scale):
        # the constant term scale * [[2, 1], [0.5, 2]] is refused relative to its entries
        spec = parse_kernel(f"m = 1\nr = 2\nK[1][1] = 2*{scale}\nK[1][2] = {scale}\n"
                            f"K[2][1] = 0.5*{scale}\nK[2][2] = 2*{scale}\n")
        with pytest.raises(ValueError, match="constant term not Hermitian"):
            gram_jet(spec, [0.0], trunc=1)

    def test_readers_slice_a_higher_truncation(self):
        # a truncation-4 jet gives what each reader gets from its minimal one
        chart = diagonal_chart(2, style="pairwise")
        spec = pullback_affine(coupled_rank2_kernel(np.random.default_rng(13)), chart)
        q = np.array([0.0, 0.3 - 0.1j])
        high = gram_jet(spec, q, trunc=4)

        def dev(a, b):
            return float(np.max(np.abs(a - b)))

        assert dev(curvature(high).entries, curvature(gram_jet(spec, q, trunc=2)).entries) < 1e-13
        keys_high, cov_high = curvature_covariant_derivs(high, d=1, max_order=1)
        keys_low, cov_low = curvature_covariant_derivs(gram_jet(spec, q, trunc=3), d=1, max_order=1)
        assert keys_high == keys_low
        for n, block in enumerate(cov_low):
            assert dev(cov_high[n], block) < 1e-13
        tm_high = transport_maps(high, d=1, k=3)
        tm_low = transport_maps(gram_jet(spec, q, trunc=3), d=1, k=3)
        assert tm_high.shape == tm_low.shape
        assert max(abs(b).max() for b in tm_low.reshape(-1, 2, 2)) > 1e-3  # non-vacuous
        for key in np.ndindex(tm_low.shape[:2]):
            assert dev(tm_high[key], tm_low[key]) < 1e-13


class TestCurvature:
    def test_disc_closed_form(self):
        lam = 2.3
        spec = builtin_bergman([lam])
        rng = np.random.default_rng(1)
        for _ in range(5):
            z = rand_point(rng, 1, radius=0.6)
            got = curvature(gram_jet(spec, z)).entries[0, 0, 0, 0]
            expect = lam / (1 - abs(z[0]) ** 2) ** 2
            assert abs(got - expect) < 1e-9 * abs(expect)

    def test_negative_base_closed_form(self):
        spec = parse_kernel("(z1*wb1 - 2)^-2")
        rng = np.random.default_rng(4)
        for _ in range(3):
            z = rand_point(rng, 1, radius=0.6)
            got = curvature(gram_jet(spec, z)).entries[0, 0, 0, 0]
            expect = 4 / (2 - abs(z[0]) ** 2) ** 2
            assert abs(got - expect) < 1e-9 * abs(expect)

    def test_constant_kernel_flat(self):
        c = curvature(gram_jet(parse_kernel("1"), [0.0]))
        assert np.max(np.abs(c.entries)) < 1e-14

    def test_product_kernel_diagonal(self):
        a, b = 1.1, 2.7
        spec = builtin_bergman([a, b])
        rng = np.random.default_rng(2)
        z = rand_point(rng, 2, radius=0.5)
        c = curvature(gram_jet(spec, z)).entries
        assert abs(c[0, 0, 0, 0] - a / (1 - abs(z[0]) ** 2) ** 2) < 1e-10
        assert abs(c[1, 1, 0, 0] - b / (1 - abs(z[1]) ** 2) ** 2) < 1e-10
        assert abs(c[0, 1, 0, 0]) < 1e-12 and abs(c[1, 0, 0, 0]) < 1e-12

    def test_selfadjointness_random_points(self):
        rng = np.random.default_rng(3)
        for spec in BUILTINS:
            for _ in range(5):
                z = rand_point(rng, spec.m, radius=0.5)
                c = curvature(gram_jet(spec, z))
                scale = max(1.0, float(np.max(np.abs(c.entries))))
                assert c.selfadjoint_defect() <= 1e-8 * scale

    def test_exponential_kernel_flat_unit_curvature(self):
        # log K(z, z) = |z|^2, so the curvature is identically 1
        spec = parse_kernel("exp(z1*wb1)")
        rng = np.random.default_rng(12)
        for _ in range(4):
            z = rand_point(rng, 1, radius=0.8)
            got = curvature(gram_jet(spec, z)).entries[0, 0, 0, 0]
            assert abs(got - 1.0) < 1e-10

    def test_gauge_invariance_rank1(self):
        rng = np.random.default_rng(4)
        spec = builtin_bergman([1.0, 2.0])
        for _ in range(5):
            psi = rand_nonvanishing_poly(rng, 2)
            scaled = gauge_scale(spec, psi)
            for _ in range(3):
                z = rand_point(rng, 2, radius=0.5)
                c0 = curvature(gram_jet(spec, z)).entries
                c1 = curvature(gram_jet(scaled, z)).entries
                scale = max(1.0, float(np.max(np.abs(c0))))
                assert np.max(np.abs(c0 - c1)) <= 1e-8 * scale

    def test_finite_difference_cross_check(self):
        # first derivatives of H and the curvature block against Wirtinger FD
        spec = builtin_bergman([1.4, 0.9])
        z0 = np.array([0.2 + 0.1j, -0.15 + 0.05j])
        g = gram_jet(spec, z0, trunc=2)

        def h_fn(z):
            return spec.eval_point(z, z)[0, 0]

        for i in range(2):
            d_i, dbar_i = wirtinger_fd(h_fn, z0, i)
            alpha = tuple(1 if v == i else 0 for v in range(2))
            assert abs(g.extract(alpha=alpha)[0, 0] - d_i) < 1e-4 * max(1, abs(d_i))
            assert abs(g.extract(beta=alpha)[0, 0] - dbar_i) < 1e-4 * max(1, abs(dbar_i))

        # mixed second derivative via nested Wirtinger differences
        def dh1(z):
            return wirtinger_fd(h_fn, z, 0, h=1e-4)[0]

        _, mixed = wirtinger_fd(dh1, z0, 1, h=1e-4)
        got = g.extract(alpha=(1, 0), beta=(0, 1))[0, 0]
        assert abs(got - mixed) < 1e-4 * max(1.0, abs(mixed))

    def test_ddbm_identity(self):
        # dbar_j d_i H = H K_ij + dbar_j H . H^-1 . d_i H at random points,
        # including gauge- and mixture-perturbed versions of the built-ins
        from jetmod.kernels import matrix_combination

        rng = np.random.default_rng(5)
        perturbed = [
            gauge_scale(builtin_bergman([1.0, 3.0]), rand_nonvanishing_poly(rng, 2)),
            matrix_combination(
                [builtin_bergman([1.0, 2.0]), builtin_bergman([2.0, 1.0])],
                [np.array([[1.0]]), np.array([[0.15]])],
            ),
        ]
        for spec in BUILTINS + perturbed:
            z0 = rand_point(rng, spec.m, radius=0.5)
            g = gram_jet(spec, z0, trunc=2)
            c = curvature(g).entries
            h = g.extract()
            hinv = np.linalg.inv(h)
            scale = max(1.0, float(np.max(np.abs(h))))
            for i in range(spec.m):
                for j in range(spec.m):
                    ei = tuple(1 if v == i else 0 for v in range(spec.m))
                    ej = tuple(1 if v == j else 0 for v in range(spec.m))
                    lhs = g.extract(alpha=ei, beta=ej)
                    rhs = h @ c[i, j] + g.extract(beta=ej) @ hinv @ g.extract(alpha=ei)
                    assert np.max(np.abs(lhs - rhs)) < 1e-8 * scale


class TestCovariantDerivs:
    def test_zero_order_matches_curvature(self):
        spec = coupled_rank2_kernel(np.random.default_rng(6))
        z0 = rand_point(np.random.default_rng(7), 2, radius=0.4)
        c = curvature(gram_jet(spec, z0)).entries
        cov = dict(zip(*curvature_covariant_derivs(gram_jet(spec, z0, trunc=2), d=2, max_order=0)))
        for i in range(2):
            for j in range(2):
                got = cov[(i, j, (0, 0), (0, 0))]
                assert np.max(np.abs(got - c[i, j])) < 1e-10

    def test_rank1_reduces_to_plain_partials(self):
        # commutators vanish for scalars, so covariant = plain derivatives of K_ij
        spec = builtin_bergman([1.2, 2.2])
        z0 = np.array([0.1 + 0.05j, -0.2j])
        cov = dict(zip(*curvature_covariant_derivs(gram_jet(spec, z0, trunc=3), d=2, max_order=1)))

        def k11(z):
            return curvature(gram_jet(spec, z)).entries[0, 0, 0, 0]

        for v in range(2):
            d_v, dbar_v = wirtinger_fd(k11, z0, v, h=1e-4)
            alpha = tuple(1 if i == v else 0 for i in range(2))
            got_z = cov[(0, 0, alpha, (0, 0))][0, 0]
            got_zbar = cov[(0, 0, (0, 0), alpha)][0, 0]
            assert abs(got_z - d_v) < 1e-3 * max(1.0, abs(d_v))
            assert abs(got_zbar - dbar_v) < 1e-3 * max(1.0, abs(dbar_v))

    def test_insufficient_truncation_guard(self):
        # each reader names the truncation it needs: 2, max_order + 2, max(k, 2)
        spec = builtin_bergman([1.0])
        cases = [
            (1, "truncation >= 2", curvature),
            (2, "truncation >= 3", lambda g: curvature_covariant_derivs(g, d=1, max_order=1)),
            (2, "truncation >= 3", lambda g: transport_maps(g, d=1, k=3)),
        ]
        for trunc, needs, read in cases:
            with pytest.raises(ValueError, match=needs):
                read(gram_jet(spec, [0.0], trunc=trunc))


class TestTransportMaps:
    def test_rank_zero_entries(self):
        spec = builtin_bergman([1.0, 1.0])
        tm = transport_maps(gram_jet(spec, np.array([0.0, 0.2])), d=1, k=2)
        assert np.max(np.abs(tm[0, 1 - 1])) < 1e-12  # rank 0, direction i = 1

    def test_constant_kernel_all_zero(self):
        tm = transport_maps(gram_jet(parse_kernel("1 + 0*z1*wb1 + 0*z2*wb2"), np.zeros(2)), 1, 2)
        assert all(np.max(np.abs(v)) < 1e-14 for v in tm.reshape(-1, 1, 1))

    def test_off_manifold_rejected(self):
        spec = builtin_bergman([1.0, 1.0])
        with pytest.raises(ValueError, match="submanifold"):
            transport_maps(gram_jet(spec, np.array([0.1, 0.0])), d=1, k=2)

    def test_finite_difference_cross_check(self):
        # coupled kernel so the transport map is nonzero
        chart = diagonal_chart(2, style="pairwise")
        spec = pullback_affine(builtin_bergman([1.0, 2.0]), chart)
        q = np.array([0.0, 0.3 + 0.1j])
        tm = transport_maps(gram_jet(spec, q), d=1, k=2)

        def g1(z):
            g = gram_jet(spec, z, trunc=1)
            return (np.linalg.inv(g.extract()) @ g.extract(alpha=(1, 0)))[0, 0]

        _, dbar2 = wirtinger_fd(g1, q, 1, h=1e-4)
        got = tm[1, 1 - 1][0, 0]  # rank 1, direction i = 1
        assert abs(got) > 1e-3  # the check is non-vacuous
        assert abs(got - dbar2) < 1e-4 * max(1.0, abs(dbar2))


class TestNormalization:
    def test_already_normalized_unchanged(self):
        lam = 1.6
        spec = builtin_bergman([lam])  # K(z, 0) = 1 already
        norm = normalize_at(spec, [0.0])
        a = spec.eval_jet([0.1], [0.05], 2)
        b = norm.eval_jet([0.1], [0.05], 2)
        assert np.max(np.abs(a.c - b.c)) < 1e-12

    def test_identity_jet_against_base_point(self):
        rng = np.random.default_rng(8)
        spec = coupled_rank2_kernel(rng)
        p = np.zeros(2)
        norm = normalize_at(spec, p)
        for z0 in (p, np.array([0.2, -0.1 + 0.15j])):
            jet = norm.eval_jet(z0, p, 3, vary_w=False)
            ident = JetMatrix.constant(jet.ctx, np.eye(2))
            assert np.max(np.abs(jet.c - ident.c)) < 1e-11
        # and the mirror identity in the second argument
        jet = norm.eval_jet(p, np.array([0.1j, 0.25]), 3, vary_z=False)
        ident = JetMatrix.constant(jet.ctx, np.eye(2))
        assert np.max(np.abs(jet.c - ident.c)) < 1e-11

    @pytest.mark.parametrize("vary", [True, 2, 1])
    def test_identity_against_base_point_in_varying_variables(self, vary):
        # a pulled-back m=3 kernel at truncation 4, with every varying count
        spec = pullback_affine(coupled_rank2_kernel(np.random.default_rng(10), m=3),
                               diagonal_chart(3))
        p = np.array([0.0, 0.0, 0.2 + 0.1j])
        norm = normalize_at(spec, p)
        q = np.array([0.1, -0.05j, 0.15])
        for jet in (norm.eval_jet(q, p, 4, vary_z=vary, vary_w=False),
                    norm.eval_jet(p, q, 4, vary_z=False, vary_w=vary)):
            assert jet.ctx.num_vars == 6 and jet.ctx.trunc == 4
            assert np.max(np.abs(jet.c - JetMatrix.constant(jet.ctx, np.eye(2)).c)) < 1e-11

    def test_gram_is_identity_at_base(self):
        spec = coupled_rank2_kernel(np.random.default_rng(9))
        norm = normalize_at(spec, np.zeros(2))
        assert np.max(np.abs(norm.eval_point(np.zeros(2), np.zeros(2)) - np.eye(2))) < 1e-12

    def test_singular_base_rejected(self):
        with pytest.raises(ValueError):
            normalize_at(parse_kernel("z1*wb1"), [0.0])


class TestHermitianSqrt:
    def test_square(self):
        rng = np.random.default_rng(10)
        x = rng.random((3, 3)) + 1j * rng.random((3, 3))
        a = x @ x.conj().T + 0.5 * np.eye(3)
        c = hermitian_sqrt(a)
        assert np.max(np.abs(c @ c - a)) < 1e-12
        assert np.max(np.abs(c - c.conj().T)) < 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            hermitian_sqrt(np.diag([1.0, -1.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1e-20, 1e-12, 1.0, 1e20])
    def test_condition_limit_at_any_scale(self, scale):
        # cond 1e11 passes and cond 1e13 is refused, with no absolute floor
        a = scale * np.diag([1.0, 1e-11])
        c = hermitian_sqrt(a)
        assert np.max(np.abs(c @ c - a)) <= 1e-15 * scale
        with pytest.raises(ValueError, match="not positive definite"):
            hermitian_sqrt(scale * np.diag([1.0, 1e-13]))

    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-20])
    def test_rejects_non_hermitian_at_any_scale(self, scale):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_sqrt(scale * np.array([[2.0, 1.0], [0.5, 2.0]]))
