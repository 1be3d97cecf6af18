"""Truncated multivariate complex power series ("jets") and matrices of them.

This is the computational substrate of the package: every derivative that
the geometry and equivalence layers need is read off as a Taylor
coefficient of one of these series.

Representation
--------------
A series in ``num_vars`` variables truncated at total degree ``trunc`` is
a dense complex vector laid out in graded colexicographic rank order (see
:mod:`jetmod.multiindex`).  Because the order is graded, the coefficient
block of a lower truncation is a prefix of that of a higher one, so
truncating is a slice.  Products use one convolution table per
``(num_vars, trunc)`` context: the coefficient pairs whose degrees sum to
at most ``trunc``, ordered by the degree of their product, with the offset
of each degree kept beside it.  All terms above the truncation degree are
discarded.  A context whose table would exceed
:data:`jetmod.multiindex.MAX_TABLE` pairs is refused before anything is
built.  A context may have no variables; its series are the constants.
``embedding`` gives the ranks at which a context's monomials sit in a
context with more variables, by the exponent-key lookup the tables use,
one cached map per (source, target, positions), which ``embed`` and its
inverse ``restrict`` read.  ``outer_table``, cached beside it, pairs the
monomials of two contexts whose variables split a third's: a product of
series in disjoint variables is then one gather and multiply there.

Coefficient arrays may carry leading batch axes, one jet per sample
point: ``(*batch, size)`` for a ``JetSeries``, ``(*batch, rows, cols,
size)`` for a ``JetMatrix``.  Every operation acts on the last axis, so
the two share one base that defines the structural operations once.  A
product sums the pairs of every entry of every sample with one
``bincount``, each in its own bins, so each bin adds its pairs in table
order as it would alone.  The bins of entry e do not depend on how many
entries a product has, so a context keeps, per degree, the bins of the
largest product it has summed and reads a smaller one's as a prefix.
Constant terms are computed per sample with the scalar operations, and a
failed check names the first failing sample.

Products (``JetSeries`` and ``JetMatrix`` multiplication and each degree
of the Euler recurrence) gather their operands into a workspace of three
buffers, left, right and product, one per thread and reused by every
later product whatever its context and batch (each buffer is read before
the next request for its role).  A buffer grows to the largest request up
to :data:`WORKSPACE_BYTES`; a larger one gets a buffer of its own, dropped
with the product.  No returned array is a view of the workspace.

Reciprocal, log, exp and real powers are solved degree by degree from the
Euler identity ``g E(g^e) = e g^e E(g)`` with ``E = sum_i x_i d/dx_i``
(Neidinger, Math. Comp. 74, 2005): degree ``n`` of the result is one pass
over the degree-``n`` slice of the product table, so each operation costs
about one convolution.  ``power`` raises a stack of bases, each row to
its own exponent, in one recurrence, each row equal bit for bit to its
own call; a power n >= 0 of a constant term near 0 is the n-fold product.

All values are double-precision complex.  The identities these series are
used to verify are exact; the tests check them numerically at relative
tolerance 1e-9 / absolute 1e-12 (``close`` in ``tests/test_jets.py``).
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np

from .multiindex import check_table_size, degree_slice

# pow/log/recip refuse constant terms closer to 0 than this
SINGULAR_TOL = 1e-10

COND_LIMIT = 1e12  # a constant-term matrix of larger condition number is singular

# the largest product buffer the workspace keeps, in bytes
WORKSPACE_BYTES = 4 << 20


class _Workspace(threading.local):
    """Flat complex buffers by role, for the thread that reads them."""

    def __init__(self):
        self.buffers = {}

    def buffer(self, role: str, shape) -> np.ndarray:
        """An uninitialised complex array of ``shape`` on the buffer ``role``."""
        size = math.prod(shape)
        buf = self.buffers.get(role)
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype=complex)
            if buf.nbytes <= WORKSPACE_BYTES:
                self.buffers[role] = buf
        return buf[:size].reshape(shape)


_WORKSPACE = _Workspace()


def check_context_size(num_vars: int, trunc: int):
    """Refuse a (num_vars, trunc) context whose product table would exceed
    ``MAX_TABLE`` pairs."""
    # pairs (alpha, beta) with |alpha| + |beta| <= trunc are the monomials
    # of degree <= trunc in 2 * num_vars variables
    check_table_size(
        math.comb(2 * num_vars + trunc, trunc),
        f"series context (num_vars, trunc) = ({num_vars}, {trunc})", "product pairs",
    )


class SeriesContext:
    """Shared index and convolution tables for one (num_vars, trunc) pair."""

    def __init__(self, num_vars: int, trunc: int):
        if num_vars < 0:
            raise ValueError("need num_vars >= 0")
        if trunc < 0:
            raise ValueError("need trunc >= 0")
        check_context_size(num_vars, trunc)
        self.num_vars = num_vars
        self.trunc = trunc
        if num_vars:
            indices = [a for t in range(trunc + 1) for a in degree_slice(num_vars, t)]
        else:
            indices = [()]  # without variables the series are the constants
        self.indices = tuple(indices)
        self.size = len(indices)
        self.exponents = np.array(self.indices, dtype=np.int64)
        self.degrees = self.exponents.sum(axis=1)
        # ranks of degree t are degree_starts[t]:degree_starts[t + 1]
        self.degree_starts = np.searchsorted(self.degrees, np.arange(trunc + 2))
        # mixed-radix key sum_i e_i (trunc+1)^i: additive, and without carries
        # for exponents of total degree <= trunc; Python ints once it
        # outgrows int64
        radix = trunc + 1
        dtype = np.int64 if radix**num_vars < 2**63 else object
        self._weights = np.array([radix**i for i in range(num_vars)], dtype=dtype)
        self._keys = (self.exponents * self._weights).sum(axis=1)
        self._key_order = np.argsort(self._keys, kind="stable")
        self._mul_table = None
        self.mul_offsets = None
        self._deriv_tables = {}
        self.pair_bins = {}  # degree -> (entries, bins) of _sum_pairs, the most entries seen

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """Ranks of the monomials with the given exponent keys."""
        pos = np.searchsorted(self._keys[self._key_order], keys)
        return self._key_order[pos]

    def _ranks(self, exponents: np.ndarray) -> np.ndarray:
        """Ranks of the monomials with the given exponent rows (degree <= trunc)."""
        return self._lookup((exponents * self._weights).sum(axis=1))

    def checked_ranks(self, exponents):
        """The exponent rows as an int array, and their ranks.

        Negative entries, rows of degree above the truncation and rows of
        another width than ``num_vars`` are refused: the rank lookup would
        misread them.
        """
        e = np.asarray(exponents, dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != self.num_vars:
            raise ValueError(
                f"exponent rows must have width {self.num_vars}, got shape {e.shape}"
            )
        if e.min(initial=0) < 0:
            raise ValueError("exponent rows must have non-negative entries")
        if e.sum(axis=1).max(initial=0) > self.trunc:
            raise ValueError(f"an exponent row exceeds truncation {self.trunc}")
        return e, self._ranks(e)

    def derivative_ranks(self, exponents):
        """The ranks of checked exponent rows e, and e! as floats: what
        ``read_derivatives`` reads."""
        e, ranks = self.checked_ranks(exponents)
        fac = np.array([math.prod(map(math.factorial, row)) for row in e.tolist()], dtype=float)
        return ranks, fac

    @property
    def mul_table(self):
        """Product pairs ``(left, right, out)`` ordered by output degree.

        Pairs whose product has degree n are the slice
        ``mul_offsets[n]:mul_offsets[n + 1]``.
        """
        if self._mul_table is None:
            # beside a left factor of degree t fits the graded prefix of
            # right factors of degree <= trunc - t
            fit = self.degree_starts[self.trunc + 1 - self.degrees]
            left = np.repeat(np.arange(self.size), fit)
            right = np.arange(left.size) - np.repeat(np.cumsum(fit) - fit, fit)
            out = self._lookup(self._keys[left] + self._keys[right])
            by_degree = np.argsort(self.degrees[out], kind="stable")
            self.mul_offsets = np.searchsorted(
                self.degrees[out[by_degree]], np.arange(self.trunc + 2)
            )
            self._mul_table = (left[by_degree], right[by_degree], out[by_degree])
        return self._mul_table

    def deriv_table(self, var: int):
        """Source ranks and multipliers mapping coefficients to the d/dx_var image.

        The image lives in the context with truncation one lower.
        """
        if self.trunc == 0:
            raise ValueError("cannot differentiate a series truncated at order 0")
        if var not in self._deriv_tables:
            lower = series_context(self.num_vars, self.trunc - 1)
            up = lower.exponents.copy()
            up[:, var] += 1
            src = self._ranks(up)
            self._deriv_tables[var] = (src, up[:, var].astype(float))
        return self._deriv_tables[var]


@lru_cache(maxsize=None)
def series_context(num_vars: int, trunc: int) -> SeriesContext:
    return SeriesContext(num_vars, trunc)


@lru_cache(maxsize=None)
def embedding(src: SeriesContext, dst: SeriesContext, positions: tuple) -> np.ndarray:
    """Ranks in ``dst`` of the monomials of ``src``, variable i of ``src``
    becoming variable ``positions[i]`` of ``dst``."""
    if len(positions) != src.num_vars or dst.trunc < src.trunc:
        raise ValueError(
            f"cannot embed context ({src.num_vars}, {src.trunc}) "
            f"into ({dst.num_vars}, {dst.trunc}) at variables {list(positions)}"
        )
    exponents = np.zeros((src.size, dst.num_vars), dtype=np.int64)
    exponents[:, list(positions)] = src.exponents
    return dst._ranks(exponents)


@lru_cache(maxsize=None)
def outer_table(left: SeriesContext, right: SeriesContext, dst: SeriesContext, positions: tuple):
    """Ranks (l, r) in ``left`` and ``right`` of the one pair of monomials
    whose product is each monomial of ``dst``, as two arrays in its rank
    order.  ``positions`` places the variables of ``left``, then those of
    ``right``, in ``dst``, and must name each of its variables once."""
    split = left.num_vars
    el = dst.exponents[embedding(left, dst, positions[:split])]
    er = dst.exponents[embedding(right, dst, positions[split:])]
    l, r = np.nonzero(left.degrees[:, None] + right.degrees <= dst.trunc)
    table = np.empty((2, dst.size), dtype=np.int64)
    table[:, dst._ranks(el[l] + er[r])] = l, r
    return table


def _pair_products(a, b, left, right, matmul=False) -> np.ndarray:
    """Products of the gathered coefficients ``a[..., left]`` and
    ``b[..., right]``, elementwise or as matrices, in the thread's
    workspace."""
    ws = _WORKSPACE
    ga = a.take(left, -1, ws.buffer("left", a.shape[:-1] + left.shape), "clip")
    gb = b.take(right, -1, ws.buffer("right", b.shape[:-1] + right.shape), "clip")
    if not matmul:
        shape = ga.shape if ga.shape == gb.shape else np.broadcast_shapes(ga.shape, gb.shape)
        return np.multiply(ga, gb, out=ws.buffer("product", shape))
    batch = np.broadcast_shapes(ga.shape[:-3], gb.shape[:-3])
    out = ws.buffer("product", batch + (ga.shape[-3], gb.shape[-2], left.size))
    return np.einsum("...ijp,...jkp->...ikp", ga, gb, out=out)


def _sum_pairs(ctx: SeriesContext, prod: np.ndarray, degree: int = None) -> np.ndarray:
    """Sum (*lead, pairs) products of the table, or of its degree slice,
    into the (*lead, hi - lo) output coefficients of those pairs.

    Pairs land in ranks lo:hi; entry e of the flattened lead owns the bins
    e * hi + out, so one bincount sums them all, each bin in table order.
    Real and imaginary parts are summed in one pass over the interleaved
    parts, into interleaved bins.  The bins of ``count`` entries are a
    prefix of those of more, so the context keeps one array per degree,
    for the most entries summed so far.
    """
    lead = prod.shape[:-1]
    count = math.prod(lead)
    lo, hi = (0, ctx.size) if degree is None else ctx.degree_starts[degree : degree + 2]
    kept = ctx.pair_bins.get(degree)
    if kept is None or kept[0] < count:
        out = ctx.mul_table[2]
        if degree is not None:
            out = out[ctx.mul_offsets[degree] : ctx.mul_offsets[degree + 1]]
        bins = 2 * (np.arange(count)[:, None] * hi + out)
        kept = ctx.pair_bins[degree] = (count, np.stack([bins, bins + 1], axis=-1).ravel())
    weights = prod.reshape(-1).view(float)
    sums = np.bincount(kept[1][: weights.size], weights, 2 * count * hi).view(complex)
    return sums.reshape(*lead, hi)[..., lo:]


def refuse(bad, message):
    """Raise ValueError(message(i)) at the first flat index i where ``bad``
    holds; a batch-shaped ``bad`` names that sample."""
    if np.count_nonzero(bad):
        i, batch = np.flatnonzero(bad)[0], np.shape(bad)
        where = f" at sample {', '.join(map(str, np.unravel_index(i, batch)))}" if batch else ""
        raise ValueError(message(i) + where)


class _Jet:
    """What a series and a matrix of series share: a context and one complex
    coefficient array ``(*batch, *items, size)``, with ``_items`` item axes
    (none for a series, rows and cols for a matrix) before the monomial
    axis.  Immutable; operations return new jets of the same type."""

    __slots__ = ("ctx", "c")
    _items = 0

    def __init__(self, ctx: SeriesContext, coeffs: np.ndarray):
        self.ctx = ctx
        self.c = np.asarray(coeffs, dtype=complex)
        if self.c.ndim <= self._items or self.c.shape[-1] != ctx.size:
            raise ValueError(f"coefficients of shape {self.c.shape} do not fit "
                             f"{type(self).__name__} layout (*batch, *items, {ctx.size})")

    @classmethod
    def constant(cls, ctx: SeriesContext, value):
        """The constant ``value``, shaped (*batch, *items): a scalar or a
        (rows, cols) matrix, or an array of them for a batch."""
        value = np.asarray(value, dtype=complex)
        c = np.zeros(value.shape + (ctx.size,), dtype=complex)
        c[..., 0] = value
        return cls(ctx, c)

    def _check_same(self, other: "_Jet"):
        if self.ctx is not other.ctx:
            raise ValueError(
                f"{type(self).__name__} contexts differ "
                f"(({self.ctx.num_vars},{self.ctx.trunc}) vs "
                f"({other.ctx.num_vars},{other.ctx.trunc})); truncate first"
            )

    def __add__(self, other):
        self._check_same(other)
        return type(self)(self.ctx, self.c + other.c)

    def __neg__(self):
        return type(self)(self.ctx, -self.c)

    def _product(self, other, matmul=False):
        """The truncated product with ``other``, entrywise or as matrices."""
        self._check_same(other)
        left, right, _ = self.ctx.mul_table
        prod = _pair_products(self.c, other.c, left, right, matmul)
        return type(self)(self.ctx, _sum_pairs(self.ctx, prod))

    def derivative(self, var: int):
        """Partial derivative; the result is truncated one order lower."""
        src, fac = self.ctx.deriv_table(var)
        lower = series_context(self.ctx.num_vars, self.ctx.trunc - 1)
        return type(self)(lower, self.c.take(src, axis=-1) * fac)

    def truncate(self, trunc: int):
        if trunc > self.ctx.trunc:
            raise ValueError(f"cannot raise the truncation order of a {type(self).__name__}")
        lower = series_context(self.ctx.num_vars, trunc)
        return type(self)(lower, self.c[..., : lower.size])

    def embed(self, ctx: SeriesContext, variables):
        """This jet in a context with more variables.

        Variable i of this jet's context becomes variable ``variables[i]``
        of ``ctx``; coefficients of monomials in the other variables of
        ``ctx`` are zero.
        """
        variables = tuple(variables)
        if ctx is self.ctx and variables == tuple(range(ctx.num_vars)):
            return self
        c = np.zeros(self.c.shape[:-1] + (ctx.size,), dtype=complex)
        c[..., embedding(self.ctx, ctx, variables)] = self.c
        return type(self)(ctx, c)

    def restrict(self, ctx: SeriesContext, variables):
        """The inverse of ``embed``: the terms in ``variables``, ``variables[i]`` as variable i."""
        return type(self)(ctx, self.c.take(embedding(ctx, self.ctx, tuple(variables)), axis=-1))

    def constant_term(self) -> np.ndarray:
        """The coefficients of the monomial 1, (*batch, *items)."""
        return self.c[..., 0].copy()

    def coeff(self, alpha):
        """Taylor coefficients of x^alpha, (*batch, *items): a scalar for one series."""
        _, ranks = self.ctx.checked_ranks([alpha])
        return self.c[..., ranks[0]].copy()[()]

    def extract(self, alpha):
        """Derivative values at the base point, alpha! * coeff(alpha)."""
        return np.take(self.derivatives([alpha]), 0, axis=-1 - self._items)[()]

    def derivatives(self, exponents) -> np.ndarray:
        """Derivative values e! * [x^e] at the base point, one per row e.

        ``exponents`` holds one exponent row per derivative, each of width
        ``num_vars``; the result has shape (*batch, rows of exponents,
        *items).  Malformed rows are refused (``SeriesContext.checked_ranks``).
        """
        return self.read_derivatives(*self.ctx.derivative_ranks(exponents))

    def read_derivatives(self, ranks, fac) -> np.ndarray:
        """``derivatives`` at rows already ranked by ``SeriesContext.derivative_ranks``."""
        items = self._items
        values = np.moveaxis(self.c.take(ranks, axis=-1), -1, -1 - items)
        return fac.reshape((-1,) + (1,) * items) * values

    def __repr__(self):
        return (
            f"{type(self).__name__}(shape={self.c.shape[:-1]}, "
            f"vars={self.ctx.num_vars}, trunc={self.ctx.trunc})"
        )


class JetSeries(_Jet):
    """One truncated power series, or a batch of them (coefficients
    ``(*batch, size)``)."""

    __slots__ = ()

    @classmethod
    def variable(cls, ctx: SeriesContext, var: int) -> "JetSeries":
        """The series of the coordinate function x_var (0-based)."""
        if not 0 <= var < ctx.num_vars:
            raise ValueError(f"variable index {var} out of range")
        c = np.zeros(ctx.size, dtype=complex)
        if ctx.trunc >= 1:
            c[1 + var] = 1.0  # the degree-1 monomials follow 1 in variable order
        return cls(ctx, c)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, JetSeries):
            other = JetSeries.constant(self.ctx, other)
        return _Jet.__add__(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, JetSeries) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, JetSeries):
            return self._product(other)
        return JetSeries(self.ctx, self.c * complex(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, JetSeries):
            return self * other.recip()
        return JetSeries(self.ctx, self.c / complex(other))

    def __rtruediv__(self, other):
        return self.recip() * other

    # -- analytic operations ----------------------------------------------

    def _constants(self, what: str = None) -> list:
        """The constant term of each sample as a Python complex; given
        ``what``, refuses one closer to 0 than ``SINGULAR_TOL``."""
        if what is not None:
            size = np.abs(self.c[..., 0])
            refuse(size < SINGULAR_TOL, lambda i: (
                f"{what} requires a constant term away from 0 (|a0|={size.flat[i]:.2e})"))
        return [complex(v) for v in self.c[..., 0].ravel()]

    def _euler(self, alpha, beta, c, h0, a=None) -> "JetSeries":
        """Solve for h = F(self) degree by degree from an Euler identity.

        With g = self, each operation's identity (g E(h) = e h E(g) for
        h = g^e, E(h) = h E(g) for exp, g E(h) = E(g) for log) has the
        degree-n part, summed over the product pairs (l, r) of output
        degree n,

            h_n = (n a_n + sum (alpha deg_l + beta (n - deg_l)) g_l h_r) / (n c)

        where ``a`` is g for log and absent otherwise.  The pairs with r in
        degree n read h_n while it is still zero, so they add nothing.  The
        per-sample ``c`` is a list in the flattened batch order; ``alpha``
        may be an array (*batch, 1) broadcast against g, one exponent per
        row, and ``h0`` gives h's constant terms in the broadcast batch.
        """
        ctx = self.ctx
        left, right, _ = ctx.mul_table
        offsets = ctx.mul_offsets
        g = self.c
        c = np.reshape(c, g.shape[:-1] + (1,))
        eg = (alpha - beta) * ctx.degrees * g
        h = np.zeros(eg.shape, dtype=complex)
        h[..., 0] = np.reshape(h0, eg.shape[:-1])
        for n in range(1, ctx.trunc + 1):
            pairs = slice(offsets[n], offsets[n + 1])
            prod = _pair_products(eg + beta * n * g, h, left[pairs], right[pairs])
            acc = _sum_pairs(ctx, prod, n)
            lo, hi = ctx.degree_starts[n], ctx.degree_starts[n + 1]
            if a is not None:
                acc += n * a[..., lo:hi]
            h[..., lo:hi] = acc / (n * c)
        return JetSeries(ctx, h)

    def recip(self) -> "JetSeries":
        """Multiplicative inverse up to the truncation order."""
        a0 = self._constants("series reciprocal")
        return self._euler(-1.0, -1.0, a0, [1.0 / v for v in a0])

    def log(self) -> "JetSeries":
        """Principal-branch logarithm; rejects constant terms on (-inf, 0]."""
        a0 = self._constants("series log")
        c0 = self.c[..., 0]
        refuse((c0.real < 0) & (np.abs(c0.imag) <= 1e-12 * np.abs(c0)), lambda i: (
            "series log: constant term on the negative real axis (principal branch undefined)"))
        return self._euler(0.0, -1.0, a0, [np.log(v) for v in a0], self.c)

    def exp(self) -> "JetSeries":
        h0 = [np.exp(v) for v in self._constants()]
        return self._euler(1.0, 0.0, [1.0] * len(h0), h0)

    def power(self, e) -> "JetSeries":
        """Real power of a series, or of each row of a stack of them.

        An integer exponent takes any nonzero constant term; otherwise the
        constant term of the result is the principal value a0 ** e.  An
        array ``e`` broadcasts against the leading batch axes: R exponents
        raise bases stacked as (R, *batch, size), or one (1, *batch, size),
        in one recurrence, each row equal bit for bit to its own call.  A
        constant term closer to 0 than ``SINGULAR_TOL`` is refused unless
        every such sample's exponent is an integer n >= 0: its n-fold product.
        """
        g = self.c
        e = np.asarray(e, dtype=float)
        e = e.reshape(e.shape + (1,) * (g.ndim - 1 - e.ndim))  # one exponent per row
        near = np.abs(g[..., 0]) < SINGULAR_TOL
        if near.any():
            e, near = np.broadcast_arrays(e, near)
            whole = e[near]
            if not np.all((whole >= 0) & (np.floor(whole) == whole) & np.isfinite(whole)):
                self._constants("series power")  # refuses the first sample near 0
            g = np.broadcast_to(g, near.shape + g.shape[-1:])
            c = g.copy()
            c[near, 0] = 1.0  # the recurrence runs on every sample; these are replaced
            h = JetSeries(self.ctx, c).power(e)
            for n in set(whole.tolist()):
                rows = near & (e == n)
                base = JetSeries(self.ctx, g[rows])
                p = JetSeries.constant(self.ctx, np.ones(base.c.shape[:-1]))
                for bit in bin(int(n))[2:]:  # repeated squaring, the highest bit first
                    p = p * p * base if bit == "1" else p * p
                h.c[rows] = p.c
            return h
        a0 = self._constants()
        with np.errstate(all="ignore"):  # Python's complex power may overflow a square it drops
            try:
                h0 = np.array(a0, object).reshape(g.shape[:-1]) ** e.astype(object)
            except OverflowError:  # Python's complex power raises where numpy gives inf
                raise ValueError("series power: the constant term's power overflows") from None
        return self._euler(e[..., None], -1.0, a0, h0)


class JetMatrix(_Jet):
    """A rows x cols matrix of series sharing one context.

    Stored as one complex array of shape (*batch, rows, cols, context size).
    """

    __slots__ = ()
    _items = 2

    @property
    def shape(self):
        """(rows, cols), without the batch axes."""
        return self.c.shape[-3:-1]

    @property
    def batch(self):
        return self.c.shape[:-3]

    def __sub__(self, other: "JetMatrix") -> "JetMatrix":
        self._check_same(other)
        return JetMatrix(self.ctx, self.c - other.c)

    def __matmul__(self, other: "JetMatrix") -> "JetMatrix":
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        return self._product(other, matmul=True)

    def left_const(self, mat) -> "JetMatrix":
        """Constant matrix times self."""
        mat = np.asarray(mat, dtype=complex)
        return JetMatrix(self.ctx, np.einsum("ij,...jkp->...ikp", mat, self.c))

    def right_const(self, mat) -> "JetMatrix":
        """Self times constant matrix."""
        mat = np.asarray(mat, dtype=complex)
        return JetMatrix(self.ctx, np.einsum("...ijp,jk->...ikp", self.c, mat))

    def inverse(self) -> "JetMatrix":
        """Multiplicative inverse as a series, via Newton iteration.

        Seeded with the numeric inverse of the constant term; each step
        doubles the number of correct orders.
        """
        return jet_matrix_inverse(self)


def refuse_singular(a0: np.ndarray):
    """Refuse a square matrix, or the first sample of a stack, whose condition
    number exceeds ``COND_LIMIT`` or is NaN."""
    cond = np.linalg.cond(a0)
    refuse(~(cond <= COND_LIMIT), lambda i: (  # NaN counts as singular
        f"constant-term matrix is numerically singular (cond ~ {cond.flat[i]:.3e})"))


def jet_matrix_inverse(m: JetMatrix) -> JetMatrix:
    """Newton inverse of every sample; one stacked cond check and inverse seed."""
    rows, cols = m.shape
    if rows != cols:
        raise ValueError(f"matrix is {rows}x{cols}, not square")
    a0 = m.constant_term()
    refuse_singular(a0)
    x = JetMatrix.constant(m.ctx, np.linalg.inv(a0))
    ident = JetMatrix.constant(m.ctx, np.eye(rows))
    steps = max(1, math.ceil(math.log2(m.ctx.trunc + 1)))
    for _ in range(steps):
        x = x + x @ (ident - m @ x)
    return x
