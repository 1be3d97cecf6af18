"""Jet kernels, module action, symmetric powers, chart transforms."""

import math

import numpy as np
import pytest

from jetmod.geometry import check_on_submanifold
from jetmod.jet_kernels import (
    chart_jet_transform,
    jet_column,
    jet_kernel,
    module_action_matrix,
    sym_power_matrix,
)
from jetmod.kernels import (
    AffineChart,
    BinOp,
    Num,
    Var,
    builtin_bergman,
    diagonal_chart,
    identity_chart,
    pullback_affine,
)
from jetmod.multiindex import JetIndexTable, multi_binom, theta
from util import coupled_rank2_kernel, entry, module_action_reference, rand_point, rand_poly_ast


class TestJetKernel:
    def test_k1_is_plain_kernel(self):
        spec = builtin_bergman([1.0, 2.0])
        z, w = [0.1, 0.2], [0.05, -0.1]
        jk = jet_kernel(spec, d=1, k=1, z0=z, w0=w)
        assert jk.N == 0
        assert np.allclose(jk.as_matrix(), spec.eval_point(z, w))

    def test_tridisc_entries(self):
        # order-two jets along the flattened diagonal of the tridisc
        a, b, g = 1.2, 0.7, 2.4
        lam = a + b + g
        z = 0.25 - 0.1j
        chart = diagonal_chart(3, style="anchored")
        pulled = pullback_affine(builtin_bergman([a, b, g]), chart)
        q = np.array([0, 0, z])
        jk = jet_kernel(pulled, d=2, k=2, z0=q, w0=q)
        grid = jk.blocks[:, :, 0, 0]
        r2 = abs(z) ** 2
        assert abs(grid[0, 0] - (1 - r2) ** -lam) < 1e-12 * (1 - r2) ** -lam
        expect_23 = a * b * r2 * (1 - r2) ** -(lam + 2)
        assert abs(grid[theta((1, 0)), theta((0, 1))] - expect_23) < 1e-12 * expect_23

    def test_hermitian_at_equal_points(self):
        spec = builtin_bergman([1.0, 2.0, 1.5])
        chart = diagonal_chart(3)
        pulled = pullback_affine(spec, chart)
        q = np.array([0, 0, 0.3j])
        m = jet_kernel(pulled, 2, 2, q, q).as_matrix()
        assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_swapped_arguments_adjoint(self):
        spec = builtin_bergman([1.0, 2.0])
        rng = np.random.default_rng(0)
        z, w = rand_point(rng, 2), rand_point(rng, 2)
        a = jet_kernel(spec, 1, 2, z, w).as_matrix()
        b = jet_kernel(spec, 1, 2, w, z).as_matrix()
        assert np.max(np.abs(a - b.conj().T)) < 1e-12

    def test_stacked_matrices_in_theta_block_order(self):
        rng = np.random.default_rng(5)
        spec = coupled_rank2_kernel(rng, m=3)
        z, w = [rand_point(rng, 3) for _ in range(3)], [rand_point(rng, 3) for _ in range(3)]
        stacked = jet_kernel(spec, 2, 3, np.array(z), np.array(w))
        mats = stacked.as_matrix()
        n, r = stacked.N + 1, 2
        assert mats.shape == (3, n * r, n * r)
        for b in range(3):
            single = jet_kernel(spec, 2, 3, z[b], w[b])
            assert np.array_equal(stacked.block(1, 2)[b], single.block(1, 2))
            # entry (l r + i, t r + j) is entry (i, j) of block (l, t)
            want = np.block([[single.block(l, t) for t in range(n)] for l in range(n)])
            assert mats[b].tobytes() == want.tobytes() == single.as_matrix().tobytes()


class TestVaryingVariables:
    def test_transverse_context_matches_full_jet(self):
        # jet_kernel evaluates over the 2d transverse variables only
        from jetmod.geometry import transverse_blocks

        spec = pullback_affine(coupled_rank2_kernel(np.random.default_rng(6), m=3),
                               diagonal_chart(3, style="anchored"))
        q = np.array([0.0, 0.0, 0.3 - 0.2j])
        jk = jet_kernel(spec, d=2, k=3, z0=q, w0=q)
        full = transverse_blocks(spec.eval_jet(q, q, 4), JetIndexTable(2, 3))
        assert np.array_equal(jk.blocks, full)

    @pytest.mark.parametrize("vary_z, vary_w", [(True, False), (2, 1), (False, 3), (0, 0)])
    def test_fixed_variables_have_zero_coefficients(self, vary_z, vary_w):
        spec = coupled_rank2_kernel(np.random.default_rng(7), m=3)
        rng = np.random.default_rng(8)
        z, w = rand_point(rng, 3), rand_point(rng, 3)
        full = spec.eval_jet(z, w, 3)
        jm = spec.eval_jet(z, w, 3, vary_z=vary_z, vary_w=vary_w)
        nz, nw = (3 * f if isinstance(f, bool) else f for f in (vary_z, vary_w))
        assert jm.ctx is full.ctx
        for rank, alpha in enumerate(full.ctx.indices):
            if any(alpha[nz:3]) or any(alpha[3 + nw:]):
                assert not np.any(jm.c[:, :, rank]), alpha
            else:
                assert np.array_equal(jm.c[:, :, rank], full.c[:, :, rank])


class TestRestrictToZ:
    def test_on_manifold_passthrough(self):
        chart = diagonal_chart(3)
        pulled = pullback_affine(builtin_bergman([1.0, 1.0, 1.0]), chart)
        q = np.array([0, 0, 0.2])
        jk = jet_kernel(pulled, 2, 2, q, q)
        check_on_submanifold(jk.z0, jk.d, "z0")
        check_on_submanifold(jk.w0, jk.d, "w0")

    def test_off_manifold_rejected(self):
        chart = diagonal_chart(3)
        pulled = pullback_affine(builtin_bergman([1.0, 1.0, 1.0]), chart)
        q = np.array([0.05, 0, 0.2])
        jk = jet_kernel(pulled, 2, 2, q, q)
        with pytest.raises(ValueError, match="z0 is off the submanifold"):
            check_on_submanifold(jk.z0, jk.d, "z0")


class TestJetGramBlocks:
    def test_block_00_is_gram(self):
        spec = builtin_bergman([1.0, 2.0])
        z = np.array([0.1, 0.2j])
        blocks = jet_kernel(spec, 1, 2, z, z)
        assert np.allclose(blocks.block(0, 0), spec.eval_point(z, z))

    def test_disc_jet_gram(self):
        # N = 1 grid [[rho, dbar rho], [d rho, d dbar rho]] for the disc kernel
        lam = 1.5
        spec = builtin_bergman([lam])
        z = np.array([0.3 + 0.1j])
        blocks = jet_kernel(spec, 1, 2, z, z)
        r2 = abs(z[0]) ** 2
        rho = (1 - r2) ** -lam
        d_rho = lam * np.conj(z[0]) * (1 - r2) ** -(lam + 1)
        ddbar = (lam + lam * lam * r2) * (1 - r2) ** -(lam + 2)
        assert abs(blocks.block(0, 0)[0, 0] - rho) < 1e-12 * rho
        assert abs(blocks.block(1, 0)[0, 0] - d_rho) < 1e-12 * max(1, abs(d_rho))
        assert abs(blocks.block(0, 1)[0, 0] - np.conj(d_rho)) < 1e-12 * max(1, abs(d_rho))
        assert abs(blocks.block(1, 1)[0, 0] - ddbar) < 1e-12 * ddbar

    def test_big_matrix_hermitian(self):
        spec = builtin_bergman([1.0, 2.0, 3.0])
        q = rand_point(np.random.default_rng(1), 3, 0.4)
        m = jet_kernel(spec, 2, 2, q, q).as_matrix()
        assert np.max(np.abs(m - m.conj().T)) < 1e-11


class TestModuleAction:
    def test_coordinate_function_matrix(self):
        z0 = np.array([0.3 + 0.1j, -0.2])
        mam = module_action_matrix(Var("z", 1), z0, d=2, k=2)
        z1 = z0[0]
        expect = np.array([[z1, 0, 0], [1, z1, 0], [0, 0, z1]])
        assert np.max(np.abs(mam.matrix - expect)) < 1e-13

    def test_constant_is_scalar_identity(self):
        mam = module_action_matrix(Num(3.5 + 1j), np.zeros(2), d=2, k=3)
        assert np.allclose(mam.matrix, (3.5 + 1j) * np.eye(mam.matrix.shape[0]))

    def test_rejects_antiholomorphic(self):
        with pytest.raises(ValueError, match="holomorphic"):
            module_action_matrix(Var("wb", 1), np.zeros(2), 2, 2)

    def test_multiplicative(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            d, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            m = d + 1
            z0 = rand_point(rng, m)
            f = rand_poly_ast(rng, m)
            g = rand_poly_ast(rng, m)
            mf = module_action_matrix(f, z0, d, k).matrix
            mg = module_action_matrix(g, z0, d, k).matrix
            mfg = module_action_matrix(BinOp("*", f, g), z0, d, k).matrix
            scale = max(1.0, np.max(np.abs(mfg)))
            assert np.max(np.abs(mfg - mf @ mg)) < 1e-9 * scale

    def test_leibniz_on_kernel_sections(self):
        # jets of f*h equal the action matrix applied to the jets of h,
        # where h is a kernel section z -> K(z, w0)
        rng = np.random.default_rng(3)
        spec = builtin_bergman([1.0, 2.0])
        d = k = 2
        for _ in range(5):
            f = rand_poly_ast(rng, 2)
            z0, w0 = rand_point(rng, 2), rand_point(rng, 2)
            jm = spec.eval_jet(z0, w0, 2 * (k - 1), vary_w=False)
            idx = JetIndexTable(d, k)
            h_col = np.array([jm.extract(alpha + (0, 0))[0, 0] for alpha in idx.indices])
            fh = BinOp("*", f, spec.entries[0][0])
            fh_spec_jet = spec.eval_jet(z0, w0, 2 * (k - 1), vary_w=False)
            # build jets of f*h directly through the kernel evaluator
            from jetmod.kernels import KernelSpec

            fh_jet = KernelSpec(2, 1, [[fh]]).eval_jet(z0, w0, 2 * (k - 1), vary_w=False)
            fh_col = np.array([fh_jet.extract(alpha + (0, 0))[0, 0] for alpha in idx.indices])
            mf = module_action_matrix(f, z0, d, k).matrix
            scale = max(1.0, np.max(np.abs(fh_col)))
            assert np.max(np.abs(fh_col - mf @ h_col)) < 1e-9 * scale

    def test_monomial_structure(self):
        # for f = z^gamma the restricted action matrix has nonzeros only on
        # subdiagonals at theta distance >= theta(gamma), one per row
        for d, k in [(1, 2), (2, 2), (2, 3), (3, 3), (1, 3), (3, 2)]:
            idx = JetIndexTable(d, k)
            m = d + 1
            q = np.zeros(m, dtype=complex)
            q[-1] = 0.3  # on the flattened submanifold
            for gamma in idx.indices:
                node = Num(1.0)
                for v, e in enumerate(gamma):
                    for _ in range(e):
                        node = BinOp("*", node, Var("z", v + 1))
                mat = module_action_matrix(node, q, d, k).matrix
                tg = theta(gamma)
                for l, alpha in enumerate(idx.indices):
                    expected_col = None
                    diff = tuple(a - g for a, g in zip(alpha, gamma))
                    if all(x >= 0 for x in diff):
                        expected_col = theta(diff)
                    gamma_fact = 1
                    for e in gamma:
                        gamma_fact *= math.factorial(e)
                    for t in range(idx.N + 1):
                        v = mat[l, t]
                        if expected_col is not None and t == expected_col:
                            want = multi_binom(alpha, diff) * gamma_fact
                            assert abs(v - want) < 1e-12, (gamma, alpha, t)
                            assert l - t >= tg
                        else:
                            assert abs(v) < 1e-12, (gamma, alpha, t)

    def test_jet_column_is_column_zero(self):
        rng = np.random.default_rng(21)
        for d, k in [(1, 3), (2, 3), (3, 2)]:
            f, z0 = rand_poly_ast(rng, 3), rand_point(rng, 3)
            assert np.array_equal(jet_column(f, z0, d, k), module_action_matrix(f, z0, d, k).matrix[:, 0])

    def test_equals_the_2m_variable_reading(self):
        # evaluated over the d transverse variables only, bit for bit the
        # reading of the jet in all 2m variables
        rng = np.random.default_rng(22)
        for _ in range(60):
            d, k = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            m = d + int(rng.integers(0, 3))
            f, z0 = rand_poly_ast(rng, m), rand_point(rng, m)
            got = module_action_matrix(f, z0, d, k).matrix
            want = module_action_reference(f, z0, d, k)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (d, m, k)

    def test_tensor(self):
        mam = module_action_matrix(Var("z", 1), np.zeros(1), 1, 2)
        big = mam.tensor(2)
        assert big.shape == (4, 4)
        assert np.allclose(big[0:2, 0:2], mam.matrix[0, 0] * np.eye(2))


class TestSymPower:
    def test_identity(self):
        for d, t in [(2, 2), (3, 3)]:
            s = sym_power_matrix(np.eye(d), t)
            assert np.allclose(s, np.eye(s.shape[0]))

    def test_diagonal(self):
        s = sym_power_matrix(np.diag([2.0, 3.0]), 2)
        assert np.allclose(s, np.diag([4.0, 6.0, 9.0]))

    def test_degree_one_is_the_matrix(self):
        rng = np.random.default_rng(4)
        j = rng.random((3, 3)) + 1j * rng.random((3, 3))
        assert np.allclose(sym_power_matrix(j, 1), j)

    def test_functorial(self):
        rng = np.random.default_rng(5)
        for t in (2, 3):
            j1 = rng.random((2, 2)) + 1j * rng.random((2, 2))
            j2 = rng.random((2, 2)) + 1j * rng.random((2, 2))
            lhs = sym_power_matrix(j1 @ j2, t)
            rhs = sym_power_matrix(j1, t) @ sym_power_matrix(j2, t)
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))

    def test_order_zero(self):
        assert np.allclose(sym_power_matrix(np.eye(2), 0), [[1.0]])


class TestChartJetTransform:
    def test_identity_chart(self):
        t = chart_jet_transform(identity_chart(3, 2), np.zeros(3), k=3)
        assert np.allclose(t.matrix, np.eye(t.matrix.shape[0]))

    def test_k1_scalar_one(self):
        t = chart_jet_transform(diagonal_chart(3), np.zeros(3), k=1)
        assert t.matrix.shape == (1, 1) and t.matrix[0, 0] == 1.0

    def test_transports_jet_columns(self):
        # chart-coordinate jets of f o inverse, transported, equal ambient jets
        rng = np.random.default_rng(6)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            m = d + int(rng.integers(1, 3))
            k = int(rng.integers(2, 5))
            lin = np.eye(m, dtype=complex)
            lin[:d, :d] += 0.5 * (rng.random((d, d)) - 0.5 + 1j * (rng.random((d, d)) - 0.5))
            lin[:d, d:] = 0.4 * (rng.random((d, m - d)) - 0.5)
            chart = AffineChart.from_arrays(lin, 0.1 * (rng.random(m) - 0.5), d)
            f = rand_poly_ast(rng, m, max_degree=k)
            z0 = rand_point(rng, m, 0.3)
            col_ambient = jet_column(f, z0, d, k)
            from jetmod.kernels import KernelSpec

            f_chart = pullback_affine(KernelSpec(m, 1, [[f]]), chart)
            col_chart = jet_column(f_chart.entries[0][0], chart.apply(z0), d, k)
            t = chart_jet_transform(chart, z0, k).matrix
            scale = max(1.0, np.max(np.abs(col_ambient)))
            assert np.max(np.abs(t @ col_chart - col_ambient)) < 1e-9 * scale

    def test_rejects_transverse_tangential_mixing(self):
        lin = np.eye(3)
        lin[2, 0] = 1.0  # tangential row depends on a transverse coordinate
        chart = AffineChart.from_arrays(lin, np.zeros(3), 2)
        with pytest.raises(ValueError, match="lower-left"):
            chart_jet_transform(chart, np.zeros(3), 2)


class TestDiagonalKernelStructure:
    def test_block_and_tangential_diagonality(self):
        # product kernels have one-variable-diagonal expansions: the jet grid
        # is nonzero only for equal transverse ranks, and each tangential
        # coefficient matrix is diagonal with the product coefficients
        from jetmod.bergman_quotient import coeff_c

        weights = [1.0, 2.0, 3.0]
        spec = builtin_bergman(weights)
        d, k = 2, 2
        idx = JetIndexTable(d, k)
        jm = spec.eval_jet(np.zeros(3), np.zeros(3), 4)
        for lam, mu in [((0,), (0,)), ((1,), (0,)), ((1,), (1,)), ((2,), (2,))]:
            for l, alpha in enumerate(idx.indices):
                for t, beta in enumerate(idx.indices):
                    za = alpha + lam
                    wb = beta + mu
                    if sum(za) + sum(wb) > 4:
                        continue
                    coeff = entry(jm, 0, 0).coeff(za + wb)
                    if alpha == beta and lam == mu:
                        expect = (
                            coeff_c(weights[0], alpha[0])
                            * coeff_c(weights[1], alpha[1])
                            * coeff_c(weights[2], lam[0])
                        )
                        assert abs(coeff - expect) < 1e-12 * max(1.0, expect)
                    else:
                        assert abs(coeff) < 1e-13, (alpha, beta, lam, mu)
