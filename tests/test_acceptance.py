"""Acceptance gate: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v``; a PASS/FAIL line per
criterion is printed in the terminal summary (see conftest).
"""

import itertools
import math

import numpy as np

from jetmod.bergman_quotient import (
    build_level,
    closed_forms,
    level_measured,
    quotient_kernel_partial,
)
from jetmod.equivalence import (
    mthm_check,
    rank1_equiv,
    rankr_equiv,
    recover_bergman_weights,
)
from jetmod.geometry import curvature, gram_jet, pad_pair
from jetmod.jet_kernels import (
    chart_jet_transform,
    jet_column,
    jet_kernel,
    module_action_matrix,
)
from jetmod.kernels import (
    AffineChart,
    BinOp,
    KernelSpec,
    Num,
    Var,
    builtin_bergman,
    conjugate_by_unitary,
    diagonal_chart,
    gauge_scale,
    identity_chart,
    pullback_affine,
)
from jetmod.multiindex import JetIndexTable, multi_binom, theta, theta_inv
from util import (
    coupled_rank2_kernel,
    phase_align,
    rand_nonvanishing_poly,
    rand_point,
    rand_poly_ast,
    rand_unitary,
    wirtinger_fd,
)


def test_criterion_01_theta_order():
    """Rank bijection agrees exhaustively with a brute-force enumerator."""
    mismatches = 0
    for d in range(1, 5):
        for k in range(1, 7):
            brute = [
                alpha
                for alpha in itertools.product(range(k), repeat=d)
                if sum(alpha) <= k - 1
            ]
            brute.sort(key=lambda a: (sum(a), tuple(reversed(a))))
            for rank, alpha in enumerate(brute):
                if theta(alpha) != rank or theta_inv(rank, d) != alpha:
                    mismatches += 1
    assert mismatches == 0


def test_criterion_02_level_closed_forms():
    """Six level identities at 1e-9 relative, against direct inner products."""
    rng = np.random.default_rng(202)
    for _ in range(10):
        a, b, g = 0.5 + 3.5 * rng.random(3)
        for p in range(0, 13):
            meas = level_measured(build_level(p, a, b, g))
            forms = closed_forms(p, a, b, g)
            for key, want in forms.items():
                err = abs(meas[key] - want) / max(1.0, abs(want))
                assert err <= 1e-9, (key, p, (a, b, g), err)


def test_criterion_03_quotient_kernel_matches_jets():
    """Brute-force partial sums equal the restricted jet kernel to 1e-6."""
    rng = np.random.default_rng(303)
    a, b, g = 1.3, 0.8, 2.1
    lam = a + b + g
    chart = diagonal_chart(3, style="anchored")
    pulled = pullback_affine(builtin_bergman([a, b, g]), chart)
    for _ in range(5):
        z = complex(rand_point(rng, 1, radius=0.5)[0])
        oracle = quotient_kernel_partial(z, a, b, g, p_max=60)
        q = np.array([0, 0, z])
        jets = jet_kernel(pulled, d=2, k=2, z0=q, w0=q).as_matrix()
        assert np.max(np.abs(oracle - jets)) <= 1e-6
        expect_23 = a * b * abs(z) ** 2 * (1 - abs(z) ** 2) ** -(lam + 2)
        assert abs(oracle[1, 2] - expect_23) <= 1e-6
        assert abs(jets[theta((1, 0)), theta((0, 1))] - expect_23) <= 1e-6


def test_criterion_04_weight_recovery_and_permutations():
    """Weights recovered to 1e-7 relative; permuted weights not equivalent."""
    rng = np.random.default_rng(404)
    chart = diagonal_chart(3, style="pairwise")
    for _ in range(10):
        weights = 0.5 + 4.5 * rng.random(3)
        recovered = recover_bergman_weights(weights)
        assert np.max(np.abs(recovered - weights) / weights) <= 1e-7

    for _ in range(3):
        weights = np.sort(0.5 + 4.5 * rng.random(3))
        weights[1] += 0.3  # guarantee distinct entries
        weights[2] += 0.6
        spec = builtin_bergman(weights)
        for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
            permuted = builtin_bergman(weights[list(perm)])
            verdict = rank1_equiv(spec, permuted, chart, k=2).verdict
            assert verdict == "not-equivalent", (weights, perm)


def test_criterion_05_gauge_invariance():
    """Scaling by |psi|^2 for non-vanishing polynomial psi changes nothing."""
    rng = np.random.default_rng(505)
    chart = identity_chart(2, 1)
    spec = builtin_bergman([1.0, 2.0])
    for _ in range(20):
        psi = rand_nonvanishing_poly(rng, 2)
        report = rank1_equiv(spec, gauge_scale(spec, psi), chart, k=2)
        assert report.verdict == "equivalent"
        assert max(report.residuals) <= 1e-8


def test_criterion_06_witness_recovery():
    """The conjugating unitary is recovered to 1e-6 after phase alignment."""
    rng = np.random.default_rng(606)
    chart = identity_chart(2, 1)
    for _ in range(10):
        spec = coupled_rank2_kernel(rng)
        u = rand_unitary(rng, 2)
        report = rankr_equiv(spec, conjugate_by_unitary(spec, u), chart, k=2)
        assert report.verdict == "equivalent"
        aligned = phase_align(report.witness.matrix, u)
        assert np.max(np.abs(aligned - u)) <= 1e-6


def test_criterion_07_curvature_identities():
    """Derivative identity residuals, self-adjointness, disc closed form."""
    rng = np.random.default_rng(707)
    builtins = [
        builtin_bergman([2.0]),
        builtin_bergman([0.5]),
        builtin_bergman([1.0, 3.0]),
        builtin_bergman([1.5, 0.8, 2.5]),
    ]
    for spec in builtins:
        for _ in range(20):
            z0 = rand_point(rng, spec.m, radius=0.5)
            grams = gram_jet(spec, z0, trunc=2)
            curv = curvature(grams)
            h = grams.extract()
            hinv = np.linalg.inv(h)
            scale = max(1.0, float(np.max(np.abs(h))))
            for i in range(spec.m):
                for j in range(spec.m):
                    ei = tuple(1 if v == i else 0 for v in range(spec.m))
                    ej = tuple(1 if v == j else 0 for v in range(spec.m))
                    lhs = grams.extract(alpha=ei, beta=ej)
                    rhs = h @ curv.entries[i, j] + (
                        grams.extract(beta=ej) @ hinv @ grams.extract(alpha=ei)
                    )
                    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale
            cscale = max(1.0, float(np.max(np.abs(curv.entries))))
            assert curv.selfadjoint_defect() <= 1e-8 * cscale

    lam = 2.3
    disc = builtin_bergman([lam])
    for _ in range(5):
        z = rand_point(rng, 1, radius=0.6)
        got = curvature(gram_jet(disc, z)).entries[0, 0, 0, 0]
        expect = lam / (1 - abs(z[0]) ** 2) ** 2
        assert abs(got - expect) <= 1e-9 * abs(expect)

        def log_h(w):
            return np.log(disc.eval_point(w, w)[0, 0].real)

        def d_log(w):
            return wirtinger_fd(log_h, w, 0, h=1e-4)[0]

        _, fd = wirtinger_fd(d_log, z, 0, h=1e-4)
        assert abs(got - fd) <= 1e-4 * max(1.0, abs(fd))


def test_criterion_08_jet_algebra():
    """Multiplicativity and the jet product rule; monomial structure."""
    rng = np.random.default_rng(808)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        m = d + int(rng.integers(0, 2))
        z0 = rand_point(rng, m)
        f = rand_poly_ast(rng, m)
        g = rand_poly_ast(rng, m)
        mf = module_action_matrix(f, z0, d, k).matrix
        mg = module_action_matrix(g, z0, d, k).matrix
        mfg = module_action_matrix(BinOp("*", f, g), z0, d, k).matrix
        scale = max(1.0, float(np.max(np.abs(mfg))))
        assert np.max(np.abs(mfg - mf @ mg)) <= 1e-9 * scale

        # product rule on a kernel section h = K(., w0)
        spec = builtin_bergman(0.5 + 2.0 * rng.random(m))
        w0 = rand_point(rng, m)
        idx = JetIndexTable(d, k)
        h_jet = spec.eval_jet(z0, w0, k - 1, vary_w=False)
        h_col = np.array(
            [h_jet.extract(pad_pair(m, alpha))[0, 0] for alpha in idx.indices]
        )
        fh_jet = KernelSpec(m, 1, [[BinOp("*", f, spec.entries[0][0])]]).eval_jet(
            z0, w0, k - 1, vary_w=False
        )
        fh_col = np.array(
            [fh_jet.extract(pad_pair(m, alpha))[0, 0] for alpha in idx.indices]
        )
        cscale = max(1.0, float(np.max(np.abs(fh_col))))
        assert np.max(np.abs(fh_col - mf @ h_col)) <= 1e-9 * cscale

    # monomial structure, exhaustively for d <= 3, k <= 3
    for d in range(1, 4):
        for k in range(1, 4):
            idx = JetIndexTable(d, k)
            m = d + 1
            q = np.zeros(m, dtype=complex)
            q[-1] = 0.2 - 0.1j
            for gamma in idx.indices:
                node = Num(1.0)
                for v, e in enumerate(gamma):
                    for _ in range(e):
                        node = BinOp("*", node, Var("z", v + 1))
                mat = module_action_matrix(node, q, d, k).matrix
                gamma_fact = 1
                for e in gamma:
                    gamma_fact *= math.factorial(e)
                for l, alpha in enumerate(idx.indices):
                    diff = tuple(x - y for x, y in zip(alpha, gamma))
                    col = theta(diff) if all(x >= 0 for x in diff) else None
                    for t in range(idx.N + 1):
                        if col is not None and t == col:
                            want = multi_binom(alpha, diff) * gamma_fact
                            assert abs(mat[l, t] - want) < 1e-12
                            assert l - t >= theta(gamma)  # subdiagonal bound
                        else:
                            assert abs(mat[l, t]) < 1e-12


def test_criterion_09_chart_transform():
    """Transported chart jets equal ambient jets on random polynomials."""
    rng = np.random.default_rng(909)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        m = d + int(rng.integers(1, 3))
        k = int(rng.integers(1, 5))
        lin = np.eye(m, dtype=complex)
        lin[:d, :d] += 0.5 * (rng.random((d, d)) - 0.5 + 1j * (rng.random((d, d)) - 0.5))
        lin[:d, d:] = 0.4 * (rng.random((d, m - d)) - 0.5)
        chart = AffineChart.from_arrays(lin, 0.1 * (rng.random(m) - 0.5), d)
        f = rand_poly_ast(rng, m, max_degree=k)
        z0 = rand_point(rng, m, radius=0.3)
        ambient = jet_column(f, z0, d, k)
        chart_spec = pullback_affine(KernelSpec(m, 1, [[f]]), chart)
        in_chart = jet_column(chart_spec.entries[0][0], chart.apply(z0), d, k)
        transform = chart_jet_transform(chart, z0, k).matrix
        scale = max(1.0, float(np.max(np.abs(ambient))))
        assert np.max(np.abs(transform @ in_chart - ambient)) <= 1e-9 * scale


def test_criterion_10_criterion_consistency():
    """Array-based and invariant-based verdicts agree across a battery."""
    rng = np.random.default_rng(1010)
    chart2 = identity_chart(2, 1)
    chart3 = diagonal_chart(3, style="pairwise")

    from jetmod.kernels import direct_sum

    b123 = builtin_bergman([1.0, 2.0, 3.0])
    b132 = builtin_bergman([1.0, 3.0, 2.0])
    b21 = builtin_bergman([2.0, 1.0])
    b31 = builtin_bergman([3.0, 1.0])
    coupled_a = coupled_rank2_kernel(rng)
    coupled_b = coupled_rank2_kernel(rng)
    u = rand_unitary(rng, 2)
    ds12 = direct_sum(builtin_bergman([1.0, 1.0]), builtin_bergman([2.0, 1.0]))
    ds13 = direct_sum(builtin_bergman([1.0, 1.0]), builtin_bergman([3.0, 1.0]))
    ds21 = direct_sum(builtin_bergman([2.0, 1.0]), builtin_bergman([1.0, 1.0]))
    psi1 = rand_nonvanishing_poly(rng, 3)
    psi2 = rand_nonvanishing_poly(rng, 2)

    battery = [
        (b123, b123, chart3, "equivalent"),
        (b123, b132, chart3, "not-equivalent"),
        (b123, gauge_scale(b123, psi1), chart3, "equivalent"),
        (b21, b31, chart2, "not-equivalent"),
        (b21, gauge_scale(b21, psi2), chart2, "equivalent"),
        (coupled_a, conjugate_by_unitary(coupled_a, u), chart2, "equivalent"),
        (coupled_a, gauge_scale(coupled_a, psi2), chart2, "equivalent"),
        (ds12, ds13, chart2, "not-equivalent"),
        (ds12, ds21, chart2, "equivalent"),
        (coupled_a, coupled_b, chart2, "not-equivalent"),
    ]
    assert len(battery) == 10
    for spec_a, spec_b, chart, expected in battery:
        arrays = rankr_equiv(spec_a, spec_b, chart, k=2)
        invariants = mthm_check(spec_a, spec_b, chart, k=2)
        assert arrays.verdict == expected, (expected, arrays.verdict)
        assert invariants.verdict == expected, (expected, invariants.verdict)
