"""Brute-force quotient levels: inner products, closed forms, kernel sums."""

import time

import numpy as np
import pytest

from jetmod.bergman_quotient import (
    build_level,
    closed_forms,
    coeff_c,
    coeff_table,
    level_measured,
    quotient_kernel_partial,
    quotient_kernel_tail_estimate,
)
from jetmod.jet_kernels import jet_kernel
from jetmod.kernels import builtin_bergman, diagonal_chart, pullback_affine


class TestMonomialInner:
    def test_monomial_norms(self):
        # the monomial z_i^n has squared norm 1 / c_n(w_i); n = 0 is the constant
        w = (1.5, 0.7, 2.0)
        table = coeff_table(w, 60)
        for i, lam in enumerate(w):
            for n in range(61):
                want = coeff_c(lam, n)
                assert abs(table[i, n] - want) <= 1e-13 * want, (lam, n)

    @pytest.mark.parametrize("p", [169, 171, 200])
    def test_closed_forms_past_float_factorials(self, p):
        # (3)_p and p! overflow a float from about p = 170; c_p(3) does not
        assert coeff_c(3.0, p) == (p + 1) * (p + 2) / 2
        forms = closed_forms(p, 1.0, 1.0, 1.0)
        meas = level_measured(build_level(p, 1.0, 1.0, 1.0))
        for key, want in forms.items():
            assert abs(meas[key] - want) <= 1e-9 * max(1.0, abs(want)), key

    def test_overflow_gives_inf(self):
        # c_200(3000) = C(3199, 200) is past the float range
        assert coeff_c(3000.0, 200) == float("inf")
        forms = closed_forms(100, 20.0, 20.0, 20.0)
        assert forms["norm_f3_sq"] == float("inf")
        assert np.isfinite(forms["norm_f2_sq"])
        assert level_measured(build_level(100, 20.0, 20.0, 20.0))["norm_f3_sq"] == float("inf")

    def test_constant(self):
        # level 0 is the constant alone, of weighted norm 1 whatever the weights
        level = build_level(0, 2.0, 3.0, 4.0)
        assert level.exponents.tolist() == [[0, 0, 0]]
        assert level.c.tolist() == [1.0]
        assert level.gram.tolist() == [[1.0]]


class TestLevels:
    def test_level_zero_degenerate(self):
        level = build_level(0, 1.0, 2.0, 3.0)
        assert level.g.shape == (1, 1) and level.gram.shape == (1, 1)
        assert len(build_level(1, 1.0, 2.0, 3.0).g) == 3

    def test_orthogonality_within_levels(self):
        # Cholesky-orthonormalized level vectors, in the weighted inner
        # product with c(a) taken from coeff_c
        w = (1.3, 0.8, 2.1)
        for p in range(0, 9):
            level = build_level(p, *w)
            c = np.array([np.prod([coeff_c(*wn) for wn in zip(w, a)]) for a in level.exponents])
            assert np.allclose(level.c, c, rtol=1e-13, atol=0)
            e = np.linalg.solve(np.linalg.cholesky(level.gram), level.g)
            gram = (e / c) @ e.T
            assert np.max(np.abs(gram - np.eye(len(e)))) < 1e-9

    def test_closed_forms_random_weights(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            a, b, g = 0.5 + 3.5 * rng.random(3)
            for p in range(0, 13):
                level = build_level(p, a, b, g)
                meas = level_measured(level)
                forms = closed_forms(p, a, b, g)
                for key, want in forms.items():
                    got = meas[key]
                    assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (key, p)


class TestQuotientKernel:
    def test_entry_closed_forms(self):
        a, b, g = 1.3, 0.8, 2.1
        lam = a + b + g
        for z in (0.3, 0.2 - 0.35j):
            kq = quotient_kernel_partial(z, a, b, g, p_max=60)
            r2 = abs(z) ** 2
            e11 = (1 - r2) ** -lam
            e23 = a * b * r2 * (1 - r2) ** -(lam + 2)
            e22 = (a + a * a * r2) * (1 - r2) ** -(lam + 2)
            assert abs(kq[0, 0] - e11) < 1e-10 * e11
            assert abs(kq[1, 2] - e23) < 1e-10 * max(1.0, e23)
            assert abs(kq[1, 1] - e22) < 1e-10 * e22

    def test_hermitian(self):
        kq = quotient_kernel_partial(0.1 + 0.4j, 1.0, 2.0, 0.7, p_max=40)
        assert np.max(np.abs(kq - kq.conj().T)) < 1e-12

    def test_origin_structure(self):
        a, b, g = 1.9, 0.6, 1.1
        kq = quotient_kernel_partial(0.0, a, b, g, p_max=5)
        assert abs(kq[0, 0] - 1.0) < 1e-13
        assert abs(kq[0, 1]) < 1e-13 and abs(kq[0, 2]) < 1e-13
        assert abs(kq[1, 1] - a) < 1e-12  # second derivative block at the origin

    def test_truncation_behavior(self):
        # small p_max leaves a visible geometric tail
        a = b = g = 1.0
        z = 0.65
        exact = (1 - abs(z) ** 2) ** -3.0
        coarse = quotient_kernel_partial(z, a, b, g, p_max=2)[0, 0]
        fine = quotient_kernel_partial(z, a, b, g, p_max=80)[0, 0]
        assert abs(fine - exact) < 1e-8 * exact
        assert abs(coarse - exact) > 1e-2

    def test_domain_guard(self):
        for z in (1.0, float("nan"), complex(0.0, float("inf"))):
            with pytest.raises(ValueError, match="unit disc"):
                quotient_kernel_partial(z, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="p_max"):
            quotient_kernel_partial(0.3, 1.0, 1.0, 1.0, p_max=0)

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="positive"):
            build_level(2, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="two weights"):
            build_level(2, 1.0)
        with pytest.raises(ValueError, match="three weights"):
            level_measured(build_level(2, 1.0, 1.0))

    def test_oversized_sum_refused_at_once(self):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"degree <= 100000 in m = 3 variables"):
            quotient_kernel_partial(0.3, 1.0, 1.0, 1.0, p_max=100000)
        with pytest.raises(ValueError, match=r"degree <= 400 in m = 3 variables"):
            build_level(400, 1.0, 1.0, 1.0)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_jet_kernel_on_d_m(self, m):
        # |z| = 0.3 and p_max = 30 leave a tail of about 0.09^30
        rng = np.random.default_rng(600 + m)
        weights = 0.5 + 2.5 * rng.random(m)
        z = 0.3 * np.exp(2j * np.pi * rng.random())
        oracle = quotient_kernel_partial(z, *weights, p_max=30)
        assert quotient_kernel_tail_estimate(z, *weights, p_max=30) < 1e-12
        chart = diagonal_chart(m, style="anchored")
        pulled = pullback_affine(builtin_bergman(weights), chart)
        q = np.zeros(m, dtype=complex)
        q[-1] = z
        jets = jet_kernel(pulled, m - 1, 2, q, q).as_matrix()
        assert np.max(np.abs(oracle - jets)) <= 1e-10
