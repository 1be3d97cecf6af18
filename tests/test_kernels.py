"""Parser, kernel evaluation, charts and kernel algebra."""

import numpy as np
import pytest

from jetmod import cli
from jetmod.jets import JetSeries
from jetmod.kernels import (
    MAX_NESTING,
    AffineChart,
    BinOp,
    Call,
    DomainError,
    KernelSpec,
    Num,
    ParseError,
    Pow,
    Var,
    builtin_bergman,
    conjugate_by_unitary,
    diagonal_chart,
    direct_sum,
    gauge_scale,
    identity_chart,
    matrix_combination,
    parse_expression,
    parse_kernel,
    pretty,
    pullback_affine,
)
from util import entry, rand_point, rand_unitary


class TestParser:
    def test_single_expression(self):
        spec = parse_kernel("(1 - z1*wb1)^-2.0")
        assert spec.m == 1 and spec.r == 1
        value = spec.eval_point([0.3], [0.2])[0, 0]
        assert abs(value - (1 - 0.3 * 0.2) ** -2) < 1e-14

    def test_product_kernel(self):
        spec = parse_kernel("(1-z1*wb1)^-1 * (1-z2*wb2)^-3")
        assert spec.m == 2
        z = np.array([0.1, 0.2j])
        w = np.array([0.3, -0.1])
        expect = (1 - z[0] * np.conj(w[0])) ** -1 * (1 - z[1] * np.conj(w[1])) ** -3
        assert abs(spec.eval_point(z, w)[0, 0] - expect) < 1e-14

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError, match="expected"):
            parse_kernel("(1 - z1*wb2")

    def test_unknown_identifier_with_position(self):
        with pytest.raises(ParseError, match="line 1.*foo"):
            parse_expression("1 + foo")

    def test_column_position_in_file(self):
        try:
            parse_kernel("m = 1\nK[1][1] = 1 + $\n")
        except ParseError as exc:
            assert exc.line == 2
        else:
            raise AssertionError("expected a parse error")

    def test_exponent_forms(self):
        for text, expect in [("2^2", 4.0), ("2^-1", 0.5), ("(1+1)^-2.0", 0.25)]:
            spec = parse_kernel(f"m = 1\nK[1][1] = {text}\n")
            assert abs(spec.eval_point([0.0], [0.0])[0, 0] - expect) < 1e-14

    def test_exp_log(self):
        spec = parse_kernel("exp(log(2 + z1*wb1))")
        assert abs(spec.eval_point([0.5], [0.5]) - 2.25)[0, 0] < 1e-14

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse_expression("2 z1")

    def test_file_format(self):
        text = """
        # a rank-2 kernel on the bidisc
        m = 2
        r = 2
        label = demo
        K[1][1] = (1 - z1*wb1)^-1
        K[1][2] = 0
        K[2][1] = 0
        K[2][2] = (1 - z2*wb2)^-2
        """
        spec = parse_kernel(text)
        assert spec.r == 2 and spec.label == "demo"
        v = spec.eval_point([0.0, 0.0], [0.0, 0.0])
        assert np.allclose(v, np.eye(2))

    def test_file_format_bergman(self):
        spec = parse_kernel("m = 3\nK = bergman(1, 2, 3)\n")
        ref = builtin_bergman([1.0, 2.0, 3.0])
        z, w = rand_point(np.random.default_rng(0), 3), rand_point(np.random.default_rng(1), 3)
        assert abs(spec.eval_point(z, w) - ref.eval_point(z, w))[0, 0] < 1e-14

    def test_file_errors(self):
        with pytest.raises(ParseError, match="missing header"):
            parse_kernel("K[1][1] = 1\nr = 1\n")
        with pytest.raises(ParseError, match="missing entry"):
            parse_kernel("m = 1\nr = 2\nK[1][1] = 1\n")
        with pytest.raises(ParseError, match="line 2.*out of range"):
            parse_kernel("m = 1\nK[1][1] = z2\n")
        with pytest.raises(ParseError, match="weights"):
            parse_kernel("m = 2\nK = bergman(1)\n")

    def test_out_of_range_variable_names_its_position(self):
        with pytest.raises(ParseError, match=r"line 3, col 15: variable index 3 out of range"):
            parse_kernel("m = 2\nr = 1\nK[1][1] = 1 + z3*wb1 + z3\n")
        with pytest.raises(ParseError, match="variable index 0 out of range"):
            parse_kernel("z0*wb1")

    @pytest.mark.parametrize("text, col", [
        ("1e400*z1*wb1 + (1-z1*wb1)^-2", 11),
        ("(1 - z1*wb1)^-1e400", 25),
        ("(1 - z1*wb1)^1e999", 24),
    ])
    def test_non_finite_literal_refused_at_its_position(self, text, col):
        with pytest.raises(ParseError, match=f"line 2, col {col}: .*not finite"):
            parse_kernel(f"m = 1\nK[1][1] = {text}\n")

    def test_pretty_renders_a_non_finite_number(self):
        inf = Num(complex(float("inf")))
        assert pretty(BinOp("*", inf, Var("z", 1))) == "(inf * z1)"
        with pytest.raises(ParseError, match="unknown identifier 'inf'"):
            parse_expression(pretty(inf))

    @pytest.mark.parametrize("opening, closing", [("(", ")"), ("exp(log(", "))")])
    def test_nesting_limit(self, opening, closing):
        levels = len(closing)  # nesting levels per wrapping

        def nested(depth):
            n = depth // levels
            return opening * n + "2 - z1*wb1" + closing * n

        spec = parse_kernel(nested(MAX_NESTING))
        assert abs(spec.eval_point([0.5], [0.5])[0, 0] - 1.75) < 1e-14
        col = len(opening) * (MAX_NESTING // levels) + 1  # the first refused level
        with pytest.raises(ParseError, match=f"line 1, col {col}: .*deeper than {MAX_NESTING}"):
            parse_kernel(nested(MAX_NESTING + levels))

    def test_round_trip_generated(self):
        rng = np.random.default_rng(7)
        ops = ["+", "-", "*", "/"]

        def rand_node(depth):
            kind = rng.integers(0, 6)
            if depth <= 0 or kind == 0:
                return Num(complex(float(np.round(rng.random(), 3)) + 1.0))
            if kind == 1:
                return Var("z", int(rng.integers(1, 3)))
            if kind == 2:
                return Var("wb", int(rng.integers(1, 3)))
            if kind == 3:
                return Pow(rand_node(depth - 1), float(rng.integers(-3, 4)))
            if kind == 4:
                return Call(("exp", "log")[rng.integers(0, 2)], rand_node(depth - 1))
            return BinOp(ops[rng.integers(0, 4)], rand_node(depth - 1), rand_node(depth - 1))

        for _ in range(40):
            node = rand_node(4)
            assert parse_expression(pretty(node)) == node


class TestBuiltins:
    def test_bergman_weights(self):
        spec = builtin_bergman([1.5])
        z = 0.4 + 0.1j
        assert abs(spec.eval_point([z], [z])[0, 0] - (1 - abs(z) ** 2) ** -1.5) < 1e-13

    def test_bergman_zero_weights(self):
        spec = builtin_bergman([0.0, 0.0])
        assert spec.eval_point([0.1, 0.2], [0.3, 0.4])[0, 0] == 1.0

    def test_bergman_negative(self):
        with pytest.raises(ValueError):
            builtin_bergman([-1.0])

    def test_gram_positive_definite(self):
        rng = np.random.default_rng(11)
        specs = [
            builtin_bergman([2.0]),
            builtin_bergman([1.0, 3.0]),
            builtin_bergman([0.5, 1.5, 2.5]),
        ]
        for spec in specs:
            for _ in range(5):
                z = rand_point(rng, spec.m, radius=0.7)
                gram = spec.eval_point(z, z)
                vals = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
                assert np.min(vals) > 0

    def test_hermitian_spot_check(self):
        builtin_bergman([1.0, 2.0]).check_hermitian()
        # deliberately broken kernel: K(z,w) = z1 is not Hermitian
        bad = parse_kernel("1 + z1")
        with pytest.raises(ValueError, match="Hermitian"):
            bad.check_hermitian()

    @pytest.mark.parametrize("scale", [f"1e{e}" for e in range(-20, 21, 4)])
    def test_hermitian_check_relative_to_scale(self, scale):
        # the deviation is compared with tol times the largest |K|, with no floor
        spec = parse_kernel(f"m = 2\nK[1][1] = {scale}*(1 - z1*wb1)^-2*(1 - z2*wb2)^-3\n")
        spec.check_hermitian()
        skew = parse_kernel(f"m = 2\nK[1][1] = {scale}*(1 + z1*wb2)\n")
        with pytest.raises(ValueError, match="not Hermitian-symmetric"):
            skew.check_hermitian()

    @staticmethod
    def per_pair_deviation(spec, points):
        """The largest |K(z, w) - K(w, z)*|, one eval_point call per argument."""
        worst = 0.0
        for z, w in points:
            a = spec.eval_point(z, w)
            b = spec.eval_point(w, z)
            worst = max(worst, float(np.max(np.abs(a - b.conj().T))))
        return worst

    def test_hermitian_check_is_one_batch_equal_to_the_per_pair_loop(self, monkeypatch):
        rng = np.random.default_rng(31)
        u = rand_unitary(rng, 2)
        k1, k2 = builtin_bergman([1.0, 2.0, 0.5]), builtin_bergman([2.5, 0.5, 1.5])
        specs = [
            builtin_bergman([1.0, 2.0]),
            builtin_bergman([0.5, 1.5, 2.5]),
            parse_kernel("m = 1\nK[1][1] = (z1*wb1 - 2)^-2\n"),
            matrix_combination([k1, k2], [np.eye(2), np.array([[1.0, 0.5j], [-0.5j, 2.0]])]),
            conjugate_by_unitary(direct_sum(k1, k2), u),
            parse_kernel("m = 2\nK[1][1] = exp(z1*wb2) + z2"),  # not Hermitian
        ]
        calls = []
        original = KernelSpec.eval_point
        monkeypatch.setattr(KernelSpec, "eval_point",
                            lambda self, z, w: calls.append(1) or original(self, z, w))
        for spec in specs:
            points = [(rand_point(rng, spec.m), rand_point(rng, spec.m)) for _ in range(3)]
            calls.clear()
            got = spec.check_hermitian(points, tol=np.inf)
            assert len(calls) == 1
            want = self.per_pair_deviation(spec, points)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            # the default pairs, drawn as before
            default_rng = np.random.default_rng(7)
            draw = lambda: 0.4 * (default_rng.random(spec.m) - 0.5
                                  + 1j * (default_rng.random(spec.m) - 0.5))
            default = [(draw(), draw()) for _ in range(3)]
            assert spec.check_hermitian(tol=np.inf) == self.per_pair_deviation(spec, default)
        assert specs[-1].check_hermitian(tol=np.inf) > 1e-3

    def test_hermitian_check_without_pairs(self):
        assert builtin_bergman([1.0]).check_hermitian([]) == 0.0

    def test_nan_deviation_refused(self):
        # inf * 0 evaluates to nan: max(0.0, nan) once let this pass as 0.0;
        # the tape now refuses the value itself, without a RuntimeWarning
        spec = parse_kernel("m = 1\nK[1][1] = 1e200*1e200*z1*wb1*0 + 1\n")
        with pytest.raises(ValueError, match="kernel value is not finite"):
            spec.check_hermitian()

    @pytest.mark.parametrize("weight", [np.inf, -np.inf, np.nan, -1.0])
    def test_bergman_weight_refused(self, weight):
        with pytest.raises(ValueError, match="bergman weights must be finite and >= 0"):
            builtin_bergman([1.0, weight])


class TestEvalJet:
    def test_bergman_first_coefficient(self):
        lam = 1.9
        spec = builtin_bergman([lam])
        jet = spec.eval_jet([0.0], [0.0], 2)
        assert abs(entry(jet, 0, 0).coeff((0, 0)) - 1.0) < 1e-14
        assert abs(entry(jet, 0, 0).coeff((1, 1)) - lam) < 1e-13

    def test_trunc_zero_is_plain_value(self):
        spec = builtin_bergman([1.0, 2.0])
        z, w = [0.2, 0.1], [0.05, 0.3]
        jet = spec.eval_jet(z, w, 0)
        assert np.allclose(jet.constant_term(), spec.eval_point(z, w))

    def test_hermitian_pair_symmetry(self):
        spec = builtin_bergman([1.0, 2.0])
        rng = np.random.default_rng(3)
        z, w = rand_point(rng, 2), rand_point(rng, 2)
        a = spec.eval_jet(z, w, 2)
        b = spec.eval_jet(w, z, 2)
        # d^alpha dbar^beta K(z, w) == conj(d^beta dbar^alpha K(w, z))^T
        for alpha, beta in [((1, 0), (0, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 0))]:
            left = a.extract(alpha + beta)
            right = b.extract(beta + alpha)
            assert np.max(np.abs(left - right.conj().T)) < 1e-12

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
    def test_non_finite_points_refused(self, bad):
        # the one way into the tape refuses them, for eval_point and eval_jet alike
        spec = builtin_bergman([1.0, 2.0])
        good = np.array([0.1, 0.2])
        for z, w in [([0.1, bad], good), (good, [bad, 0.0])]:
            with pytest.raises(ValueError, match="non-finite coordinate"):
                spec.eval_point(z, w)
            with pytest.raises(ValueError, match="non-finite coordinate"):
                spec.eval_jet(z, w, 2, vary_w=False)

    def test_domain_error(self):
        spec = parse_kernel("log(z1*wb1)")
        with pytest.raises(DomainError):
            spec.eval_jet([0.0], [0.0], 1)

    @pytest.mark.parametrize("text", ["(z1*wb1 - 2)^2", "(z1*wb1 - 2)^-2", "(z1*wb1 - 2)^0.5"])
    def test_negative_base_matches_eval_point(self, text):
        # integer powers take any nonzero base; others use the principal value
        spec = parse_kernel(text)
        for z, w in [([0.0], [0.0]), ([0.3], [0.2 - 0.1j])]:
            jet = spec.eval_jet(z, w, 2)
            assert np.allclose(jet.constant_term(), spec.eval_point(z, w), rtol=1e-12)


    @pytest.mark.parametrize("text", [
        "log(z1*wb1 - 2)", "log(z1*wb1)", "1/(z1*wb1)", "(z1*wb1 - 2)^0.5", "(z1*wb1 - 2)^-2",
    ])
    def test_eval_point_and_eval_jet_share_domain(self, text):
        # both raise DomainError at the origin, or both give the same value
        spec = parse_kernel(text)
        outcomes = []
        for evaluate in (
            lambda: spec.eval_point([0.0], [0.0]),
            lambda: spec.eval_jet([0.0], [0.0], 2).constant_term(),
        ):
            try:
                outcomes.append(evaluate())
            except DomainError:
                outcomes.append(None)
        point, jet = outcomes
        if point is None or jet is None:
            assert point is None and jet is None
        else:
            assert np.allclose(point, jet, rtol=1e-12)


def _pow_occurrences(node) -> int:
    if isinstance(node, Pow):
        return 1 + _pow_occurrences(node.base)
    if isinstance(node, BinOp):
        return _pow_occurrences(node.left) + _pow_occurrences(node.right)
    if isinstance(node, Call):
        return _pow_occurrences(node.arg)
    return 0


def _distinct_nodes(entries) -> int:
    seen, stack = set(), [node for row in entries for node in row]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, f) for f in ("left", "right", "base", "arg")
                         if hasattr(node, f))
    return len(seen)


def test_flat_sum_of_1200_terms(tmp_path, capsys):
    # the parser builds sums in a loop; nothing after it may recurse per term
    terms = 1200
    text = "m = 1\nK[1][1] = " + " + ".join(["z1*wb1"] * terms) + "\n"
    spec = parse_kernel(text)
    z, w = 0.3 + 0.1j, 0.2 - 0.4j
    assert abs(spec.eval_point([z], [w])[0, 0] - terms * z * np.conj(w)) < 1e-10 * terms
    assert pretty(spec.entries[0][0]).count("z1") == terms
    path = tmp_path / "deep.txt"
    path.write_text(text)
    assert cli.main(["curvature", "--kernel", str(path), "--points", "0.1"]) == 0
    assert "self-adjointness defect" in capsys.readouterr().out


def test_node_methods_on_1200_term_sum():
    text = " + ".join(["z1*wb1"] * 1200)
    node, same = parse_expression(text), parse_expression(" " + text)
    assert node == same and node.pos != same.pos
    assert hash(node) == hash(same)
    assert node != parse_expression(text + " + 1")
    assert repr(node) == f"BinOp<{pretty(node)}>"


class TestTape:
    def _rank2(self):
        scalars = [builtin_bergman(w) for w in ([0.6, 1.1, 1.7], [0.8, 1.3, 1.9], [0.7, 1.2, 2.1])]
        rng = np.random.default_rng(21)
        mats = []
        for _ in range(3):
            g = rng.random((2, 2)) + 1j * rng.random((2, 2))
            mats.append(g @ g.conj().T + 0.2 * np.eye(2))
        return matrix_combination(scalars, mats)

    def test_one_power_call_per_distinct_pow(self, monkeypatch):
        computed = []  # (base coefficients, exponent) of every power computed
        power = JetSeries.power

        def counting(self, e):
            computed.extend((self.c.tobytes(), x) for x in np.atleast_1d(e).tolist())
            return power(self, e)

        monkeypatch.setattr(JetSeries, "power", counting)
        spec = self._rank2()
        conj = conjugate_by_unitary(spec, rand_unitary(np.random.default_rng(4), 2))
        z, w = [0.1, 0.2j, -0.1], [0.05, 0.1, 0.2]
        for kernel, occurrences in ((spec, 36), (conj, 144)):
            assert sum(_pow_occurrences(n) for row in kernel.entries for n in row) == occurrences
            computed.clear()
            kernel.eval_jet(z, w, 2)
            # each distinct Pow exactly once: three bases, three weights each
            assert len(computed) == len(set(computed)) == 9
            assert len({base for base, _ in computed}) == 3

    def test_tape_built_once_per_spec(self, monkeypatch):
        from jetmod import kernels

        built = []

        class Counting(kernels._Tape):
            def __init__(self, entries):
                built.append(entries)
                super().__init__(entries)

        monkeypatch.setattr(kernels, "_Tape", Counting)
        a = builtin_bergman([1.0, 2.0])
        z, w = [0.1, 0.2], [0.3, -0.1j]
        a.eval_jet(z, w, 2)
        a.eval_jet(w, z, 3, vary_w=False)
        a.eval_point(z, w)
        assert len(built) == 1
        b = builtin_bergman([3.0, 0.5])
        b.eval_point(z, w)
        assert len(built) == 2 and a._tape is not b._tape
        assert a._tape.ops is not b._tape.ops and a._tape.out is not b._tape.out
        assert np.allclose(b.eval_point(z, w), builtin_bergman([3.0, 0.5]).eval_point(z, w))

    def test_domain_error_in_repeated_subtree_names_position(self):
        spec = parse_kernel(
            "m = 1\nr = 2\n"
            "K[1][1] = log(z1*wb1 - 2) + 1\n"
            "K[1][2] = log(z1*wb1 - 2)\n"
            "K[2][1] = log(z1*wb1 - 2)\n"
            "K[2][2] = 2 * log(z1*wb1 - 2)\n"
        )
        conj = conjugate_by_unitary(spec, rand_unitary(np.random.default_rng(5), 2))
        for kernel in (spec, conj):
            with pytest.raises(DomainError, match=r"at \(3, 11\): series log"):
                kernel.eval_jet([0.0], [0.0], 2)
            with pytest.raises(DomainError, match=r"at \(3, 11\)"):
                kernel.eval_point([0.0], [0.0])

    def test_domain_error_without_position_names_the_entry(self):
        bad = Call("log", BinOp("-", BinOp("*", Var("z", 1), Var("wb", 1)), Num(2.0)))
        spec = KernelSpec(1, 2, [[Num(1.0), Num(0.0)], [bad, BinOp("*", Num(2.0), bad)]])
        with pytest.raises(DomainError, match=r"^in K\[2\]\[1\]: series log"):
            spec.eval_jet([0.0], [0.0], 2)
        with pytest.raises(DomainError, match=r"^in K\[1\]\[1\]: series power"):
            builtin_bergman([1.0, 2.0, 3.0]).eval_point([0.1, 0.2, 1.0], [0.1, 0.2, 1.0])

    def test_pullback_shares_one_node_per_slot(self):
        spec = conjugate_by_unitary(self._rank2(), rand_unitary(np.random.default_rng(4), 2))
        pulled = pullback_affine(spec, diagonal_chart(3))
        assert _distinct_nodes(pulled.entries) == len(pulled._tape.ops)

    @pytest.mark.parametrize("node, shown", [
        (BinOp("%", Num(2.0), Var("z", 1)), "BinOp node with unknown tag '%'"),
        (Var("x", 1), "Var node with unknown tag 'x'"),
        (Call("sin", Var("z", 1), (2, 7)), "line 2, col 7: Call node with unknown tag 'sin'"),
    ])
    def test_unknown_tag_refused_at_compile(self, node, shown):
        with pytest.raises(ParseError, match=shown):
            KernelSpec(1, 1, [[BinOp("+", Num(1.0), node)]])

    def test_varying_count_out_of_range(self):
        spec = builtin_bergman([1.0, 2.0])
        with pytest.raises(ValueError, match="out of range"):
            spec.eval_jet([0.0, 0.0], [0.0, 0.0], 2, vary_z=3)


class TestCharts:
    def test_identity_chart_pullback(self):
        spec = builtin_bergman([1.0, 2.0])
        pulled = pullback_affine(spec, identity_chart(2, 1))
        rng = np.random.default_rng(5)
        z, w = rand_point(rng, 2), rand_point(rng, 2)
        assert np.allclose(pulled.eval_point(z, w), spec.eval_point(z, w))

    def test_pullback_commutes_with_evaluation(self):
        rng = np.random.default_rng(6)
        spec = builtin_bergman([1.0, 2.0, 1.5])
        for style in ("pairwise", "anchored"):
            chart = diagonal_chart(3, style=style)
            pulled = pullback_affine(spec, chart)
            for _ in range(5):
                u, v = rand_point(rng, 3, 0.3), rand_point(rng, 3, 0.3)
                direct = spec.eval_point(chart.apply_inverse(u), chart.apply_inverse(v))
                via = pulled.eval_point(u, v)
                assert np.max(np.abs(direct - via)) < 1e-9 * max(1.0, np.max(np.abs(direct)))

    def test_pairwise_diagonal_shape(self):
        # pulled-back product kernel: prod_i (1 - (sum_{j>=i} u_j)(conj sum))^-a_i
        weights = [1.0, 2.0, 3.0]
        chart = diagonal_chart(3, style="pairwise")
        pulled = pullback_affine(builtin_bergman(weights), chart)
        rng = np.random.default_rng(8)
        u = rand_point(rng, 3, 0.25)
        zs = np.array([u[0] + u[1] + u[2], u[1] + u[2], u[2]])
        expect = np.prod([(1 - abs(zs[i]) ** 2) ** -weights[i] for i in range(3)])
        assert abs(pulled.eval_point(u, u)[0, 0] - expect) < 1e-12 * abs(expect)

    def test_offset_chart(self):
        spec = builtin_bergman([2.0])
        chart = AffineChart.from_arrays(np.eye(1), np.array([0.3]), 1)
        pulled = pullback_affine(spec, chart)
        # K'(u, v) = K(u - 0.3, v - 0.3)
        assert abs(
            pulled.eval_point([0.35], [0.35])[0, 0]
            - spec.eval_point([0.05], [0.05])[0, 0]
        ) < 1e-13

    def test_singular_chart_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            AffineChart.from_arrays(np.zeros((2, 2)), np.zeros(2), 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            pullback_affine(builtin_bergman([1.0]), identity_chart(2, 1))


class TestKernelAlgebra:
    def test_gauge_scale(self):
        spec = builtin_bergman([1.0, 2.0])
        psi = BinOp("+", Num(2.0), BinOp("*", Num(0.5j), Var("z", 1)))
        scaled = gauge_scale(spec, psi)
        rng = np.random.default_rng(9)
        z, w = rand_point(rng, 2), rand_point(rng, 2)
        psi_z = 2.0 + 0.5j * z[0]
        psi_w = 2.0 + 0.5j * w[0]
        expect = psi_z * spec.eval_point(z, w)[0, 0] * np.conj(psi_w)
        assert abs(scaled.eval_point(z, w)[0, 0] - expect) < 1e-13

    def test_gauge_rejects_wb(self):
        with pytest.raises(ValueError, match="holomorphic"):
            gauge_scale(builtin_bergman([1.0]), Var("wb", 1))

    def test_conjugate_by_unitary(self):
        rng = np.random.default_rng(10)
        base = direct_sum(builtin_bergman([1.0, 2.0]), builtin_bergman([2.0, 1.0]))
        u = rand_unitary(rng, 2)
        conj = conjugate_by_unitary(base, u)
        z, w = rand_point(rng, 2), rand_point(rng, 2)
        assert np.max(np.abs(
            conj.eval_point(z, w) - u @ base.eval_point(z, w) @ u.conj().T
        )) < 1e-13

    def test_matrix_combination(self):
        rng = np.random.default_rng(12)
        k1 = builtin_bergman([1.0, 2.0])
        k2 = builtin_bergman([2.0, 0.5])
        a1 = np.array([[2.0, 0.5], [0.5, 1.0]])
        a2 = np.array([[1.0, -0.25j], [0.25j, 3.0]])
        spec = matrix_combination([k1, k2], [a1, a2])
        z, w = rand_point(rng, 2), rand_point(rng, 2)
        expect = k1.eval_point(z, w)[0, 0] * a1 + k2.eval_point(z, w)[0, 0] * a2
        assert np.max(np.abs(spec.eval_point(z, w) - expect)) < 1e-13
        spec.check_hermitian()
