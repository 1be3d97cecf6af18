"""Constant folding, slot liveness and the product workspace.

The reference for folding is the unfolded tape (``util.unfolded_jet``):
every slot a series in the run's context.  The folded run must give equal
coefficients and raise the same ``DomainError`` with the same message.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jetmod.jets as jets
from jetmod.jets import JetMatrix, JetSeries, jet_matrix_inverse, series_context
from jetmod.kernels import BinOp, Call, DomainError, KernelSpec, Num, Pow, Var, parse_kernel
from util import coupled_rank2_kernel, entry, unfolded_jet

M = 2
VARYING = [True, False, 0, 1, 2]

variables = st.builds(Var, st.sampled_from(["z", "wb"]), st.integers(1, M))
leaves = st.one_of(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False).map(Num),
    variables, variables,
)


def extend(kids):
    return st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), kids, kids),
        st.builds(Pow, kids, st.sampled_from([-2.0, -1.5, -1.0, 0.5, 2.0, 3.0])),
        st.builds(Call, st.sampled_from(["exp", "log"]), kids),
    )


trees = st.recursive(leaves, extend, max_leaves=16)


def matches_unfolded(spec, z, w, trunc, vary_z, vary_w) -> bool:
    """Assert the folded run equals the unfolded one: equal coefficients or
    the same DomainError message.  False, checking nothing, when the
    unfolded coefficients are not finite: those are outside the claim."""
    def outcome(evaluate):
        try:
            return evaluate().c
        except DomainError as exc:
            return str(exc)

    # a reference that overflows on the way is not finite: outside the
    # claim, so its warnings are not errors; the folded run's still are
    with np.errstate(all="ignore"):
        want = outcome(lambda: unfolded_jet(spec, z, w, trunc, vary_z, vary_w))
    if not isinstance(want, str) and not np.isfinite(want).all():
        return False
    got = outcome(lambda: spec.varying_jet(z, w, trunc, vary_z, vary_w)[0])
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert np.array_equal(got, want)
    return True


@settings(max_examples=200)
@given(
    st.lists(trees, min_size=1, max_size=4), st.integers(0, 3), st.sampled_from(VARYING),
    st.sampled_from(VARYING), st.integers(1, 5), st.integers(0, 2**31),
)
def test_folding_changes_no_coefficient(entries, trunc, vary_z, vary_w, batch, seed):
    r = 2 if len(entries) == 4 else 1
    spec = KernelSpec(M, r, [entries[:r], entries[r:2 * r]] if r == 2 else [entries[:1]])
    rng = np.random.default_rng(seed)
    z, w = 0.7 * (rng.random((2, batch, M)) - 0.5 + 1j * (rng.random((2, batch, M)) - 0.5))
    assume(matches_unfolded(spec, z, w, trunc, vary_z, vary_w))


def random_pool_kernel(rng, ops=40, r=2):
    """A kernel over a pool of subtrees: each op combines random earlier
    ones, so slots are shared and constants meet varying slots often.

    A power op raises one base to one to three exponents, integer and not,
    so the tape groups several ``^`` slots on a base; now and then the base
    is one whose constant term is 0 (``z1 - z1`` or a product with it)."""
    pool = [Var(kind, i) for kind in ("z", "wb") for i in range(1, M + 1)]
    pool += [Num(complex(*rng.uniform(-2, 2, 2))) for _ in range(3)]
    zero = BinOp("-", Var("z", 1), Var("z", 1))
    zeros = [zero, BinOp("*", zero, Var("wb", 2))]
    for _ in range(ops):
        a, b = (pool[i] for i in rng.integers(len(pool), size=2))
        kind = rng.integers(5)
        if kind < 3:
            pool.append(BinOp("+-*/"[rng.integers(4)], a, b))
        elif kind == 3:
            if rng.random() < 0.05:
                a = zeros[rng.integers(2)]
            count = int(rng.integers(1, 4))
            for e in rng.choice([-1.5, -1.0, 0.5, 2.0, 2.5, 3.0], count, replace=False):
                pool.append(Pow(a, float(e)))
        else:
            pool.append(Call(("exp", "log")[rng.integers(2)], a))
    last = pool[-r * r:]
    return KernelSpec(M, r, [last[i * r:(i + 1) * r] for i in range(r)])


@pytest.mark.parametrize("seed", range(40))
def test_folding_on_larger_random_tapes(seed):
    rng = np.random.default_rng(seed)
    spec = random_pool_kernel(rng)
    z, w = 0.7 * (rng.random((2, 3, M)) - 0.5 + 1j * (rng.random((2, 3, M)) - 0.5))
    for vary_z, vary_w in [(True, False), (False, True), (1, 1), (0, 2), (True, True)]:
        matches_unfolded(spec, z, w, 3, vary_z, vary_w)


def test_random_pools_group_powers_of_every_kind():
    """The pools above hold bases raised to several exponents, integer and
    not, and powers of a base whose constant term is 0."""
    groups, zero_based = [], 0
    for seed in range(40):
        tape = random_pool_kernel(np.random.default_rng(seed))._tape
        groups += [[tape.ops[s][2] for s in group] for group in tape.powers.values()]
        zero_based += sum(tape.ops[tape.ops[s][1]][0] == "-" and tape.ops[tape.ops[s][1]][1]
                          == tape.ops[tape.ops[s][1]][2] for s in tape.powers)
    mixed = [g for g in groups if len(g) > 1 and {float(e).is_integer() for e in g} == {True, False}]
    assert len(mixed) >= 20 and zero_based >= 1


@pytest.mark.parametrize("vary_z, vary_w", [(True, False), (False, False), (1, 0)])
def test_benchmark_shaped_kernels_equal_the_unfolded_run(vary_z, vary_w):
    spec = coupled_rank2_kernel(np.random.default_rng(4), m=3)
    z = 0.3 * np.exp(1j * np.arange(15).reshape(5, 3))
    p = np.array([0.0, 0.0, 0.1j])
    assert matches_unfolded(spec, z, p, 3, vary_z, vary_w)


class TestRefusalOnConstants:
    """A constant slot refuses what the same slot refuses while varying."""

    @pytest.mark.parametrize("text, w1, what", [
        ("z1 / (wb1 - 0.5)", [0.1, 0.5, 0.2], "series reciprocal requires a constant term"),
        ("z1 * log(wb1 - 0.5)", [0.9, 0.2, 0.7], "series log: constant term on the negative"),
        ("z1 * (wb1 - 0.5)^0.5", [0.1, 0.5, 0.2], "series power requires a constant term"),
    ])
    def test_same_message_folded_and_varying(self, text, w1, what):
        spec = parse_kernel(text)
        z = np.full((3, 1), 0.1)
        w = np.array(w1)[:, None]  # bad at sample 1 only
        with pytest.raises(DomainError) as varying:
            spec.eval_jet(z, w, 2, True, True)
        with pytest.raises(DomainError) as folded:
            spec.eval_jet(z, w, 2, True, False)
        message = str(folded.value)
        assert message == str(varying.value)
        assert message.startswith("at (1, ") and what in message and message.endswith("at sample 1")


def first_reading_entry(tape, s):
    """The first entry, in row-major order, whose expression reads slot s."""
    readers = {s}
    for t, (op, x, y) in enumerate(tape.ops[s + 1:], start=s + 1):
        operands = (x, y) if op in BinOp.tags else (x,) if op in Pow.tags + Call.tags else ()
        if readers.intersection(operands):
            readers.add(t)
    return next((i + 1, j + 1) for i, row in enumerate(tape.out)
                for j, t in enumerate(row) if t in readers)


@pytest.mark.parametrize("seed", range(20))
def test_a_slot_without_position_is_named_by_its_first_reading_entry(seed):
    # pool kernels share subtrees between entries and have no source positions
    tape = random_pool_kernel(np.random.default_rng(seed))._tape
    for s in range(len(tape.ops)):
        assert tape.where(s) == "in K[{}][{}]".format(*first_reading_entry(tape, s))


class TestLiveness:
    def test_dead_slots_are_read_no_later_and_outputs_stay(self):
        spec = parse_kernel("m = 1\nr = 2\nK[1][1] = (1 + z1*wb1)^2\nK[1][2] = z1*wb1\n"
                            "K[2][1] = exp(z1*wb1 + 1)\nK[2][2] = 3\n")
        tape = spec._tape
        outputs = {s for row in tape.out for s in row}
        dropped = [slot for dead in tape.dead for slot in dead]
        assert len(dropped) == len(set(dropped)) and not outputs & set(dropped)
        for s, dead in enumerate(tape.dead):
            for slot in dead:
                later = [t for t, (op, x, y) in enumerate(tape.ops) if t > s
                         and (x == slot and op not in ("num", "z", "wb")
                              or y == slot and op in ("+", "-", "*", "/"))]
                assert slot < s and not later

    def test_a_long_chain_keeps_few_slots_alive(self):
        # 200 varying slots in a chain, each (5, 28) complex: 450 kB if all stay alive
        node = Var("z", 1)
        for i in range(100):
            node = BinOp("*", BinOp("+", node, Num(complex(i % 7 + 1))), Var("wb", 1))
        spec = KernelSpec(1, 1, [[node]])
        z = np.full((5, 1), 0.1)
        spec.varying_jet(z, z, 6)  # warm the tables
        tracemalloc.start()
        spec.varying_jet(z, z, 6)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 200_000


class TestWorkspace:
    def products(self, ctx, batch):
        return list(self.each_product(ctx, batch))

    def each_product(self, ctx, batch):
        rng = np.random.default_rng(batch)
        shape = (batch, 2, 2, ctx.size)
        c = rng.random(shape) - 0.5 + 1j * (rng.random(shape) - 0.5)
        c[..., 0] += 2 * np.eye(2)
        a = JetMatrix(ctx, c)
        s = entry(a, 0, 0)
        yield s * entry(a, 1, 1)
        yield s.power(-1.5)
        yield s.log()
        yield (a @ a).c
        yield jet_matrix_inverse(a)

    def test_products_interleaved_across_contexts(self):
        # one workspace serves every context: each product reads its buffers
        # before the next one, in whichever context, asks for them
        def coeffs(results):
            return [getattr(r, "c", r).tobytes() for r in results]

        runs = [(series_context(2, 3), 3), (series_context(3, 4), 2), (series_context(1, 5), 4)]
        alone = [coeffs(self.products(ctx, batch)) for ctx, batch in runs]
        steps = zip(*(self.each_product(ctx, batch) for ctx, batch in runs))
        assert [coeffs(step) for step in zip(*steps)] == alone
        assert len(jets._WORKSPACE.buffers) == 3

    def test_results_do_not_share_the_workspace(self):
        ctx = series_context(2, 3)
        results = self.products(ctx, 3)
        buffers = jets._WORKSPACE.buffers.values()
        assert len(buffers) == 3
        for result in results:
            c = getattr(result, "c", result)
            assert not any(np.shares_memory(c, buf) for buf in buffers)

    def test_one_buffer_per_role_whatever_the_batch(self):
        ctx = series_context(2, 2)
        for batch in (5, 1, 3, 2, 4):
            self.products(ctx, batch)
        sizes = {role: buf.size for role, buf in jets._WORKSPACE.buffers.items()}
        self.products(ctx, 2)
        assert sizes == {role: buf.size for role, buf in jets._WORKSPACE.buffers.items()}

    def test_threads_give_the_serial_results(self):
        spec = coupled_rank2_kernel(np.random.default_rng(5), m=2)
        points = [0.3 * np.exp(1j * np.arange(2 * b, 4 * b).reshape(b, 2)) for b in (1, 3, 5)]
        serial = [spec.eval_jet(q, q, 4).c for q in points]
        results, errors = {}, []

        def work(t):
            try:
                for rep in range(10):
                    i = (t + rep) % len(points)
                    results[t, rep] = i, spec.eval_jet(points[i], points[i], 4).c
            except Exception as exc:  # surfaced below
                errors.append(exc)

        # more threads than cores, switching often, on one shared context
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
        assert not errors and len(results) == 40
        for i, c in results.values():
            assert np.array_equal(c, serial[i])

    def test_a_product_over_the_bound_leaves_no_buffer(self, monkeypatch):
        ctx = series_context(3, 5)  # 462 pairs: 7,392 bytes a buffer unbatched
        a = JetSeries(ctx, np.arange(ctx.size) + 1j)
        monkeypatch.setattr(jets, "WORKSPACE_BYTES", 4096)
        kept = {}

        def multiply():  # a fresh thread starts with an empty workspace
            want = a * a
            kept["over"] = dict(jets._WORKSPACE.buffers)
            monkeypatch.setattr(jets, "WORKSPACE_BYTES", 8192)
            assert np.array_equal((a * a).c, want.c)
            kept["under"] = dict(jets._WORKSPACE.buffers)

        thread = threading.Thread(target=multiply)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert kept["over"] == {}
        assert sorted(kept["under"]) == ["left", "product", "right"]
