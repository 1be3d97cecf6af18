"""Replay plans: a tape compiled once per run context and coordinate
supports, replayed over raw coefficient arrays.

The reference is ``util.slotwise_run``: one series operation per slot, in
tape order, as the tape ran before it was compiled.  A replay must give
its bytes, or raise its message.
"""

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetmod.jets as jets
from jetmod import kernels
from jetmod.jets import series_context
from jetmod.kernels import builtin_bergman, diagonal_chart, parse_kernel, pullback_affine
from test_folding import random_pool_kernel
from test_support import anchored_k5_kernel
from util import coupled_rank2_kernel, slotwise_run

BATCHES = [(), (3,), (2, 3)]


def build(kind, rng):
    """A random pool kernel (m = 2), or one of the paper's product kernels (m = 3)."""
    if kind == "pool":
        return random_pool_kernel(rng)
    if kind == "bergman":
        return builtin_bergman(0.5 + 2.5 * rng.random(3))
    if kind == "rank2":
        return coupled_rank2_kernel(rng, m=3)
    if kind == "rank2-chart":
        return pullback_affine(coupled_rank2_kernel(rng, m=3), diagonal_chart(3))
    return anchored_k5_kernel(int(rng.integers(2**31)))


def points(rng, batch, m):
    shape = batch + (m,)
    return (0.6 * (rng.random(shape) - 0.5 + 1j * (rng.random(shape) - 0.5)) for _ in range(2))


def outcome(evaluate):
    """The bytes of a jet's coefficients, or the message of its refusal."""
    try:
        return evaluate()[0].c.tobytes()
    except ValueError as exc:  # a DomainError, or an output that is not finite
        return str(exc)


def both_ways(spec, z, w, trunc, nz, nw):
    """The replayed run and the slot-by-slot reference run."""
    got = outcome(lambda: spec.varying_jet(z, w, trunc, nz, nw))
    with mock.patch.object(kernels._Tape, "run", slotwise_run):
        return got, outcome(lambda: spec.varying_jet(z, w, trunc, nz, nw))


def level_plans(tape):
    return {key: plan for key, plan in tape.plans.items() if not key[2]}


@pytest.mark.parametrize("trunc", range(5))
@pytest.mark.parametrize("nz, nw", [(nz, nw) for nz in range(4) for nw in range(4)])
@settings(max_examples=3)
@given(st.sampled_from(["pool", "pool", "bergman", "rank2", "rank2-chart", "k5"]),
       st.integers(0, 2**31))
def test_replay_equals_the_slotwise_run(nz, nw, trunc, kind, seed):
    # every batch shape replays the plan that the first run compiled; a pool
    # kernel (m = 2) takes a count of 3 as all of its coordinates
    rng = np.random.default_rng(seed)
    spec = build(kind, rng)
    nz, nw = min(nz, spec.m), min(nw, spec.m)
    first = None
    for batch in BATCHES:
        z, w = points(rng, batch, spec.m)
        got, want = both_ways(spec, z, w, trunc, nz, nw)
        assert got == want
        ((key, plan),) = level_plans(spec._tape).items()
        first = first or (key, plan)
        assert key == first[0] and plan is first[1]


def test_a_refused_run_leaves_the_plan_usable():
    spec = parse_kernel("m = 2\nK[1][1] = (1 - z1*wb1)^-2 * log(0.5 - z2*wb2) + z1*wb2\n")
    bad_z = np.array([[0.1, 0.2], [0.3, 1.0], [0.0, 0.1j]])
    bad_w = np.array([[0.2, 0.1], [0.1, 1.0], [0.3, 0.2]])  # z2 wb2 = 1 at sample 1 only
    got, want = both_ways(spec, bad_z, bad_w, 3, 2, 2)
    assert got == want and got.endswith("series log: constant term on the negative real axis "
                                        "(principal branch undefined) at sample 1")
    (plan,) = level_plans(spec._tape).values()
    assert len(spec._tape.plans) == 2  # and the slotwise plan that named the refusal
    rng = np.random.default_rng(2)
    for batch in BATCHES:
        z, w = points(rng, batch, 2)
        got, want = both_ways(spec, z, w, 3, 2, 2)
        assert got == want and isinstance(got, bytes)
    (again,) = level_plans(spec._tape).values()
    assert again is plan and len(spec._tape.plans) == 2


def test_threads_share_one_plan_and_keep_their_workspaces():
    # two threads run one kernel, whose plan neither has compiled yet, at
    # different points at once; each gets the bits of a serial run
    spec, twin = anchored_k5_kernel(3), anchored_k5_kernel(3)
    rng = np.random.default_rng(11)
    work = [tuple(points(rng, batch, 3)) for batch in [(4,), ()]]
    serial = [twin.varying_jet(z, w, 6, 2, 2)[0].c.tobytes() for z, w in work]
    start = threading.Barrier(2)
    results, buffers, errors = {}, {}, []

    def run(t):
        try:
            start.wait(timeout=60)
            for rep in range(5):
                results[t, rep] = spec.varying_jet(*work[t], 6, 2, 2)[0].c.tobytes()
            buffers[t] = jets._WORKSPACE.buffers
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(t,)) for t in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors
    assert all(got == serial[t] for (t, _), got in results.items()) and len(results) == 10
    assert list(spec._tape.plans) == [(series_context(4, 6), ((0,), (1,), (), (2,), (3,), ()), False)]
    assert buffers[0] is not buffers[1]


def test_a_warm_run_makes_few_python_calls():
    """A warm ``jetkernel-k5``-shaped run (truncation 8, two transverse
    variables on each side) stays within a budget of Python-level calls,
    so per-slot dispatch cannot creep back: the tape it replays has 64
    slots, and a run that dispatched each through series objects made 381."""
    spec = anchored_k5_kernel(1)
    q = np.array([0.0, 0.0, 0.3 - 0.2j])
    spec.varying_jet(q, q, 8, 2, 2)
    calls = []

    def count(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        spec.varying_jet(q, q, 8, 2, 2)
    finally:
        sys.setprofile(previous)
    assert len(spec._tape.ops) == 64
    assert len(calls) <= 200, sorted(set(calls))


def test_a_constant_subtracted_keeps_the_sign_of_zero():
    # the power's zero coefficients are -0.0 at this point, and ``x - c``
    # adds -0.0 to them, as the difference of full series does
    spec = parse_kernel("m = 2\nK[1][1] = (z1*wb2 - 2)^-1.5 - 1\n")
    got, want = both_ways(spec, np.zeros(2), np.zeros(2), 3, 2, 2)
    assert got == want and np.signbit(np.frombuffer(got, float)).any()
