"""One stacked base-tape run per normalized evaluation, and compile once.

``NormalizedKernel`` evaluates its factors K(z, p), K(z, w) and K(p, w) in
one run of the base tape over the points of all three, stacked.  The
reference is the evaluation with one run per factor (``util``), which it
must equal bit for bit.  ``pullback_affine`` keeps the pulled-back spec per
chart and ``normalize_at`` the last evaluator per base point, so that after
the first call each ``invariant_array`` call makes one tape run and
compiles no tape.
"""

import sys
import threading

import numpy as np
import pytest

from jetmod import kernels
from jetmod.equivalence import rank1_equiv
from jetmod.geometry import NormalizedKernel, normalize_at
from jetmod.kernels import builtin_bergman, diagonal_chart, parse_kernel, pullback_affine
from util import coupled_rank2_kernel, three_run_eval_point, three_run_varying_jet


def scalar_kernel(m):
    """A rank-1 kernel with powers, exp and log, coupling the first and last variables."""
    factors = "*".join(f"(1 - z{i}*wb{i}/2)^-{1 + i / 2}" for i in range(1, m + 1))
    total = " + ".join(f"z{i}*wb{i}" for i in range(1, m + 1))
    return parse_kernel(f"exp(z1*wb{m}/3) * {factors} + log(2 + {total}) * (1 - z1*wb1)^-2")


def points(rng, batch, m):
    return 0.3 * (rng.random((batch, m)) - 0.5 + 1j * (rng.random((batch, m)) - 0.5))


def normalized(m, r, origin):
    base = scalar_kernel(m) if r == 1 else coupled_rank2_kernel(np.random.default_rng(m), m)
    p = np.zeros(m, dtype=complex)
    if not origin:
        p[-1] = 0.2 + 0.1j
    return normalize_at(pullback_affine(base, diagonal_chart(m)), p)


def same_jet(norm, z, w, trunc, vary_z, vary_w):
    got, got_vars = norm.varying_jet(z, w, trunc, vary_z, vary_w)
    want, want_vars = three_run_varying_jet(norm, z, w, trunc, vary_z, vary_w)
    assert got_vars == want_vars
    assert got.c.shape == want.c.shape and got.c.tobytes() == want.c.tobytes()


def same_point(norm, z, w):
    """``eval_point`` is the constant term of the truncation-0 jet reference bit
    for bit, and the numpy formula to 1e-13 relative."""
    got = norm.eval_point(z, w)
    want = three_run_varying_jet(norm, z, w, 0, False, False)[0].constant_term()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    formula = three_run_eval_point(norm, z, w)
    assert np.max(np.abs(got - formula)) <= 1e-13 * np.max(np.abs(formula))


class TestParity:
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("origin", [True, False], ids=["origin", "off-origin"])
    def test_every_layout_and_truncation(self, m, r, origin):
        norm = normalized(m, r, origin)
        rng = np.random.default_rng(10 * m + r)
        for batch in (1, 3):
            q = points(rng, batch, m)
            same_point(norm, q, q)
            for d in range(1, m + 1):
                for vary_w in (d, m):  # the derivative tables, and with bundle data
                    for trunc in range(5):
                        same_jet(norm, q, q, trunc, d, vary_w)

    @pytest.mark.parametrize("r", [1, 2])
    def test_distinct_and_broadcast_arguments(self, r):
        norm = normalized(3, r, origin=False)
        rng = np.random.default_rng(r)
        z, w = points(rng, 4, 3), points(rng, 4, 3)
        for a, b in ((z, w), (z[0], w), (z, w[1]), (z[2], w[3])):
            same_point(norm, a, b)
            for vary_z, vary_w in ((True, True), (2, 3), (False, 1), (1, False), (0, 0)):
                same_jet(norm, a, b, 3, vary_z, vary_w)

    def test_one_base_call_per_evaluation(self, monkeypatch):
        assert NormalizedKernel.eval_point is kernels.KernelSpec.eval_point
        norm = normalized(3, 2, origin=False)
        calls = []
        for name in ("varying_jet", "eval_point"):
            def spy(self, *args, method=getattr(kernels.KernelSpec, name), name=name):
                calls.append(name)
                return method(self, *args)

            monkeypatch.setattr(kernels.KernelSpec, name, spy)
        q = points(np.random.default_rng(0), 5, 3)
        norm.eval_jet(q, q, 3, 2, 3)
        norm.eval_point(q, q)
        # eval_point is the constant term of the normalized truncation-0 varying_jet
        assert calls == ["varying_jet", "varying_jet"]


class TestCompileOnce:
    def test_equal_charts_share_the_pulled_spec(self):
        spec = builtin_bergman([1.0, 2.0, 3.0])
        a, b = diagonal_chart(3), diagonal_chart(3)
        assert a is not b and a == b
        pulled = pullback_affine(spec, a)
        assert pullback_affine(spec, b) is pulled
        assert pullback_affine(spec, diagonal_chart(3, style="anchored")) is not pulled
        assert pullback_affine(builtin_bergman([1.0, 2.0, 3.0]), a) is not pulled

    def test_a_new_label_pulls_back_again(self):
        spec = builtin_bergman([1.0, 2.0])
        first = pullback_affine(spec, diagonal_chart(2))
        spec.label = "renamed"
        again = pullback_affine(spec, diagonal_chart(2))
        assert again is not first and again.label == "renamed|chart"

    def test_normalize_at_keeps_the_last_base_point(self, monkeypatch):
        built = []
        init = NormalizedKernel.__init__
        monkeypatch.setattr(NormalizedKernel, "__init__",
                            lambda self, base, p: built.append(1) or init(self, base, p))
        spec = coupled_rank2_kernel(np.random.default_rng(4))
        norm = normalize_at(spec, np.zeros(2))
        assert normalize_at(spec, [0.0, 0.0]) is norm  # the same bytes as complex
        assert len(built) == 1
        other = normalize_at(spec, [0.1, 0.0])
        assert other is not norm and normalize_at(spec, np.array([0.1, 0.0])) is other
        assert normalize_at(spec, np.zeros(2)) is not norm  # one slot: rebuilt
        assert len(built) == 3

    def test_the_evaluator_keeps_its_own_base_point(self):
        spec = builtin_bergman([1.0, 2.0])
        p = np.zeros(2, dtype=complex)
        norm = normalize_at(spec, p)
        p[0] = 0.1
        assert norm.p[0] == 0
        moved = normalize_at(spec, p)
        assert moved is not norm and moved.p[0] == 0.1

    def test_threads_get_the_evaluator_of_their_own_base_point(self):
        spec = builtin_bergman([1.0, 2.0])
        bases = [np.array([0.05 * t, 0.0]) for t in range(4)]
        wrong, errors = [], []
        start = threading.Barrier(4)

        def work(t):
            try:
                start.wait(timeout=60)
                for _ in range(300):
                    if not np.array_equal(normalize_at(spec, bases[t]).p, bases[t]):
                        wrong.append(t)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        # more threads than cores, switching often, on one kernel's slot
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and not wrong

    def test_a_refused_base_point_is_refused_every_time(self):
        spec = parse_kernel("z1*wb1 + z2*wb2")
        good = normalize_at(spec, [0.1, 0.2])
        for _ in range(2):
            with pytest.raises(ValueError, match="not positive definite"):
                normalize_at(spec, [0.0, 0.0])
        assert normalize_at(spec, [0.1, 0.2]) is good

    def test_one_tape_run_per_invariant_array_after_the_first(self, monkeypatch):
        a, b = builtin_bergman([1.0, 2.0, 3.0]), builtin_bergman([1.0, 3.0, 2.0])
        chart = diagonal_chart(3)
        runs, compiles = [], []
        run, init = kernels._Tape.run, kernels._Tape.__init__
        monkeypatch.setattr(kernels._Tape, "run", lambda self, *a: runs.append(1) or run(self, *a))
        monkeypatch.setattr(kernels._Tape, "__init__",
                            lambda self, entries: compiles.append(1) or init(self, entries))
        first = rank1_equiv(a, b, chart, 3)
        # per kernel: the pullback's compile, then runs for K(p, p) and the stacked factors
        assert len(runs) == 4 and len(compiles) == 2
        runs.clear()
        compiles.clear()
        second = rank1_equiv(a, b, chart, 3)
        assert len(runs) == 2 and not compiles
        assert second.verdict == first.verdict == "not-equivalent"
        assert np.array_equal(second.residuals, first.residuals)
