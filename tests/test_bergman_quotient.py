"""Brute-force quotient levels: inner products, closed forms, kernel sums."""

import numpy as np
import pytest

from jetmod.bergman_quotient import (
    MonomialVector,
    build_level,
    closed_forms,
    coeff_c,
    level_measured,
    quotient_kernel_partial,
)


class TestMonomialInner:
    def test_monomial_norms(self):
        w = (1.5, 0.7, 2.0)
        for n, lam in [(3, 1.5), (2, 0.7), (4, 2.0)]:
            key = {0: (n, 0, 0), 1: (0, n, 0), 2: (0, 0, n)}[[1.5, 0.7, 2.0].index(lam)]
            v = MonomialVector(w, {key: 1.0})
            assert abs(v.norm_sq() - 1.0 / coeff_c(lam, n)) < 1e-13

    def test_distinct_monomials_orthogonal(self):
        w = (1.0, 1.0, 1.0)
        u = MonomialVector(w, {(1, 0, 2): 1.0})
        v = MonomialVector(w, {(0, 1, 2): 1.0})
        assert u.inner(v) == 0

    def test_constant(self):
        w = (2.0, 3.0, 4.0)
        one = MonomialVector(w, {(0, 0, 0): 1.0})
        assert one.inner(one) == 1.0

    def test_weight_mismatch(self):
        u = MonomialVector((1.0, 1.0, 1.0), {(0, 0, 0): 1.0})
        v = MonomialVector((2.0, 1.0, 1.0), {(0, 0, 0): 1.0})
        with pytest.raises(ValueError, match="weighted spaces"):
            u.inner(v)


class TestLevels:
    def test_level_zero_degenerate(self):
        level = build_level(0, 1.0, 2.0, 3.0)
        assert level.e[0] is not None
        assert level.e[1] is None and level.e[2] is None
        assert level.f[1].is_zero() and level.f[2].is_zero()

    def test_orthogonality_within_levels(self):
        for p in range(0, 9):
            level = build_level(p, 1.3, 0.8, 2.1)
            vecs = [e for e in level.e if e is not None]
            for i, u in enumerate(vecs):
                for j, v in enumerate(vecs):
                    got = u.inner(v)
                    want = 1.0 if i == j else 0.0
                    assert abs(got - want) < 1e-9

    def test_cross_level_orthogonality(self):
        la = build_level(3, 1.0, 2.0, 0.5)
        lb = build_level(5, 1.0, 2.0, 0.5)
        for u in la.e:
            for v in lb.e:
                if u is None or v is None:
                    continue
                assert abs(u.inner(v)) < 1e-12

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

    def test_span_matches_gram_schmidt(self):
        # f2 is orthogonal to g1, f3 orthogonal to both g1 and f2
        level = build_level(4, 1.7, 0.6, 1.1)
        g1 = level.g[0]
        f2, f3 = level.f[1], level.f[2]
        assert abs(f2.inner(g1)) < 1e-10 * np.sqrt(f2.norm_sq())
        assert abs(f3.inner(g1)) < 1e-9 * np.sqrt(f3.norm_sq())
        assert abs(f3.inner(f2)) < 1e-9 * np.sqrt(f3.norm_sq())


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
        with pytest.raises(ValueError, match="unit disc"):
            quotient_kernel_partial(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="p_max"):
            quotient_kernel_partial(0.3, 1.0, 1.0, 1.0, p_max=0)

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="positive"):
            build_level(2, -1.0, 1.0, 1.0)
