"""Shared helpers for the test suite: random objects and independent oracles."""

import json
import operator
import sys

import numpy as np

from jetmod.geometry import pad_pair
from jetmod.jets import JetMatrix, JetSeries, embedding, series_context
from jetmod.kernels import (
    BinOp, DomainError, KernelSpec, Num, Var, _fold_add, _fold_mul, _Tape, builtin_bergman,
    matrix_combination,
)
from jetmod.multiindex import JetIndexTable, multi_binom


def rand_series(rng, ctx, scale=1.0):
    c = scale * (rng.random(ctx.size) - 0.5 + 1j * (rng.random(ctx.size) - 0.5))
    return JetSeries(ctx, c)


def rand_poly_ast(rng, m, max_degree=3, terms=5, const_floor=0.0):
    """Random polynomial expression in z1..zm with complex coefficients."""
    node = Num(complex(const_floor + rng.random()))
    for _ in range(terms):
        term = Num(complex(rng.random() - 0.5 + 1j * (rng.random() - 0.5)))
        for _ in range(int(rng.integers(1, max_degree + 1))):
            term = BinOp("*", term, Var("z", int(rng.integers(1, m + 1))))
        node = BinOp("+", node, term)
    return node


def rand_nonvanishing_poly(rng, m, max_degree=2, terms=3):
    """Polynomial with a large constant term and small higher coefficients.

    Non-vanishing on the closed polydisc of radius ~0.7, so it is a safe
    gauge factor at the points the tests evaluate.
    """
    node = Num(complex(1.5 + rng.random()))
    for _ in range(terms):
        c = 0.1 * (rng.random() - 0.5 + 1j * (rng.random() - 0.5))
        term = Num(complex(c))
        for _ in range(int(rng.integers(1, max_degree + 1))):
            term = BinOp("*", term, Var("z", int(rng.integers(1, m + 1))))
        node = BinOp("+", node, term)
    return node


def rand_pd_matrix(rng, r):
    x = rng.random((r, r)) + 1j * rng.random((r, r))
    return x @ x.conj().T + 0.5 * np.eye(r)


def rand_unitary(rng, r):
    q, _ = np.linalg.qr(rng.random((r, r)) + 1j * rng.random((r, r)))
    return q


def coupled_rank2_kernel(rng, m=2, label="coupled"):
    """A rank-2 kernel whose normalized invariants form an irreducible family.

    Three positive-definite matrix weights on three product kernels; two
    summands would become a commuting family after normalization.
    """
    scalars = [builtin_bergman(0.5 + 3.0 * rng.random(m)) for _ in range(3)]
    mats = [rand_pd_matrix(rng, 2) for _ in range(3)]
    return matrix_combination(scalars, mats, label=label)


def phase_align(d, target):
    """Multiply d by the unimodular scalar minimizing ||d - target||_F."""
    w = np.vdot(target, d)
    if abs(w) == 0:
        return d
    return d * (abs(w) / w)


def wirtinger_fd(f, z, i, h=1e-4):
    """(d_i f, dbar_i f) at z by central differences in two real directions."""
    z = np.asarray(z, dtype=complex)
    e = np.zeros_like(z)
    e[i] = 1.0
    d_re = (f(z + h * e) - f(z - h * e)) / (2 * h)
    d_im = (f(z + 1j * h * e) - f(z - 1j * h * e)) / (2j * h)
    return (d_re + d_im) / 2.0, (d_re - d_im) / 2.0


def rand_point(rng, m, radius=0.4):
    rad = radius * np.sqrt(rng.random(m))
    ang = 2 * np.pi * rng.random(m)
    return rad * np.exp(1j * ang)


def from_entries(entries) -> JetMatrix:
    """A ``JetMatrix`` from a nested list of ``JetSeries`` sharing one context and batch."""
    ctx = entries[0][0].ctx
    if any(e.ctx is not ctx for row in entries for e in row):
        raise ValueError("matrix entries use different contexts")
    c = np.stack([e.c for row in entries for e in row], axis=-2)
    return JetMatrix(ctx, c.reshape(c.shape[:-2] + (len(entries), len(entries[0]), ctx.size)))


def entry(jm: JetMatrix, i: int, j: int) -> JetSeries:
    """Entry (i, j) of every sample of ``jm``, as a series."""
    return JetSeries(jm.ctx, jm.c[..., i, j, :].copy())


_UNFOLDED_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "^": lambda a, e: a.power(e), "exp": lambda a, _: a.exp(), "log": lambda a, _: a.log(),
}


def unfolded_jet(spec, z0, w0, trunc, vary_z=True, vary_w=True) -> JetMatrix:
    """``spec.varying_jet(...)[0]`` without constant folding.

    Every slot of the tape, constants and fixed coordinates included, is a
    series in the context of the varying variables, and every op is the
    plain series operation: the reference the folded run must equal.
    """
    z0, w0 = np.broadcast_arrays(np.asarray(z0, complex), np.asarray(w0, complex))
    nz, nw = spec._varying(vary_z), spec._varying(vary_w)
    ctx = series_context(nz + nw, trunc)
    zs = [JetSeries.constant(ctx, z0[..., i]) for i in range(spec.m)]
    wbs = [JetSeries.constant(ctx, np.conj(w0[..., i])) for i in range(spec.m)]
    for i in range(nz):
        zs[i] = zs[i] + JetSeries.variable(ctx, i)
    for i in range(nw):
        wbs[i] = wbs[i] + JetSeries.variable(ctx, nz + i)
    tape = spec._tape
    vals = []
    for s, (op, x, y) in enumerate(tape.ops):
        try:
            if op == "num":
                v = JetSeries.constant(ctx, np.full(z0.shape[:-1], x))
            elif op in ("z", "wb"):
                v = (zs if op == "z" else wbs)[x]
            else:
                v = _UNFOLDED_OPS[op](vals[x], vals[y] if op in ("+", "-", "*", "/") else y)
        except ValueError as exc:
            raise DomainError(f"{tape.where(s)}: {exc}") from None
        vals.append(v)
    return from_entries([[vals[s] for s in row] for row in tape.out])


def widen_reference(v: JetSeries, support: tuple, union: tuple, trunc: int) -> JetSeries:
    """``v``, a series over the run variables ``support``, as a series over
    the run variables ``union``: its coefficients placed at their
    monomials, zeros elsewhere.  The kernel tape's widening before
    ``JetSeries.embed`` took it over, kept as the reference."""
    ctx = series_context(len(union), trunc)
    if v.ctx is ctx:
        return v
    c = np.zeros(v.c.shape[:-1] + (ctx.size,), dtype=complex)
    c[..., embedding(v.ctx, ctx, tuple(map(union.index, support)))] = v.c
    return JetSeries(ctx, c)


def binary_reference(op: str, a: tuple, b: tuple, trunc: int) -> tuple:
    """The tape's slot ``a op b`` as it was computed before the outer product:
    two nonempty supports that differ are both embedded in their union's
    context, and ``*`` and ``/`` run the full convolution there.  The
    reference the outer product of disjoint supports must equal bit for bit."""
    (x, sx), (y, sy) = a, b
    if op == "-":
        y = -y
    elif op == "/":
        y = y.recip()
    if sx and sy and sx != sy:
        union = tuple(sorted({*sx, *sy}))
        ctx = series_context(len(union), trunc)
        x = x.embed(ctx, map(union.index, sx))
        y = y.embed(ctx, map(union.index, sy))
        sx = sy = union
    if op in "+-":
        return _fold_add(x, y, -0.0 if op == "-" and not sy else 0.0), sx or sy
    return _fold_mul(x, y), sx or sy


def widened_run(spec, z0, w0, trunc, vary_z=True, vary_w=True):
    """``spec.varying_jet(...)[0]``, and the same outputs assembled the way
    ``_Tape.run`` once did: each output slot widened to the run's context
    (``widen_reference``), then stacked by ``from_entries``.

    The slots are read from the run's own frame as it returns, so both
    matrices come from one evaluation.
    """
    frames = []

    def watch(frame, event, arg):
        if event == "return" and frame.f_code is _Tape.run.__code__:
            frames.append(dict(frame.f_locals))

    previous = sys.getprofile()
    sys.setprofile(watch)
    try:
        jm, _ = spec.varying_jet(z0, w0, trunc, vary_z, vary_w)
    finally:
        sys.setprofile(previous)
    (run,) = frames
    everything = tuple(range(run["ctx"].num_vars))
    rows = [[widen_reference(*run["vals"][s], everything, trunc) for s in row]
            for row in spec._tape.out]
    return jm, from_entries(rows)


def three_run_varying_jet(norm, z0, w0, trunc, vary_z=True, vary_w=True):
    """``NormalizedKernel.varying_jet`` with one base-tape run per factor.

    K(z, p) and K(p, w) are evaluated over the variables of their one
    varying argument, inverted there and embedded in the context of
    K(z, w): the reference the stacked run must equal bit for bit, and
    whose refusals it must raise.
    """
    left, _ = norm.base.varying_jet(z0, norm.p, trunc, vary_z, False)
    mid, variables = norm.base.varying_jet(z0, w0, trunc, vary_z, vary_w)
    right, _ = norm.base.varying_jet(norm.p, w0, trunc, False, vary_w)
    nz, ctx = left.ctx.num_vars, mid.ctx  # the z-variables lead
    out = left.inverse().embed(ctx, range(nz)) @ mid
    out = out @ right.inverse().embed(ctx, range(nz, ctx.num_vars))
    return out.left_const(norm.c).right_const(norm.c), variables


def three_run_eval_point(norm, z, w):
    """The normalized kernel's value by the numpy formula, one base evaluation
    per factor: a reference for ``NormalizedKernel.eval_point`` independent of
    the series inverse."""
    left = norm.base.eval_point(z, norm.p)
    mid = norm.base.eval_point(z, w)
    right = norm.base.eval_point(norm.p, w)
    return norm.c @ np.linalg.inv(left) @ mid @ np.linalg.inv(right) @ norm.c


def module_action_reference(f, z0, d, k) -> np.ndarray:
    """``module_action_matrix(f, z0, d, k).matrix`` read off the jet of f in all
    2m variables (``eval_jet``) at ``pad_pair`` rows: the reference the
    transverse-only evaluation must equal bit for bit."""
    m = len(z0)
    idx = JetIndexTable(d, k)
    jm = KernelSpec(m, 1, [[f]]).eval_jet(z0, np.zeros(m), k - 1, vary_w=False)
    rows = [pad_pair(m, np.maximum(np.subtract(a, b), 0)) for a in idx.indices for b in idx.indices]
    derivs = jm.derivatives(rows)[:, 0, 0].reshape(len(idx), len(idx))
    binom = np.array([[multi_binom(a, b) for b in idx.indices] for a in idx.indices])
    return np.where(binom != 0, binom * derivs, 0)


def jsonable(obj):
    """The report encoding before streaming: plain JSON values for json.dump."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.complexfloating,)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    return obj


def oracle_text(report) -> str:
    """What ``json.dump(jsonable(report), fh, indent=2, sort_keys=True)`` and
    a final newline write."""
    return json.dumps(jsonable(report), indent=2, sort_keys=True) + "\n"
