"""Matrix-valued reproducing kernels: a small expression language and evaluators.

A kernel ``K(z, w)`` is holomorphic in ``z = (z1..zm)`` and anti-holomorphic
in ``w``; the conjugated arguments are modeled as independent variables
``wb1..wbm`` so that every mixed derivative becomes a plain Taylor
coefficient.  Evaluation substitutes ``wb_i = conj(w_i)``.

Expression grammar (whitespace-insensitive, no implicit multiplication,
no unary minus outside exponents)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := base ("^" snumber)?
    base   := number | "z" int | "wb" int | "(" expr ")"
            | "exp(" expr ")" | "log(" expr ")"
    snumber := ("-")? number

Kernel file format: header lines ``m = <int>``, optional ``r = <int>``
(default 1) and ``label = <text>``, followed either by ``K = bergman(a1,
..., am)`` or by r^2 lines ``K[i][j] = <expr>`` with 1-based indices.
Blank lines and ``#`` comments are ignored.  ``parse_kernel`` also accepts
a bare expression, giving a rank-1 kernel with ``m`` inferred from the
variables used.

Literals and exponents must be finite, and parentheses and exp/log calls
nest at most ``MAX_NESTING`` deep.

A ``KernelSpec`` compiles its entries when built into a tape (a
straight-line program in the manner of Griewank & Walther, *Evaluating
Derivatives*, ch. 13) with one slot per distinct subtree.  The compile is
the only walk over an expression tree, with an explicit stack, so depth
is unbounded, and it refuses node tags it does not know; the range check,
node equality, hashing and ``repr``, ``pretty``, ``uses_wb``,
``pullback_affine`` and ``gauge_scale`` read the slots.  ``eval_jet`` runs
the tape over only the variables that vary (``vary_z``/``vary_w`` give
all, none or a count of leading coordinates) and embeds the result in the
2m-variable context; ``eval_point`` runs it with no varying variable.  A
run computes each slot over its support, the varying variables it reads,
folding a slot that none reaches to one coefficient per sample.  None of
this reads a value, so the tape compiles it once per truncation and
coordinate supports into a plan, a flat list of steps that each run
replays over raw coefficient arrays (``_Tape``); given a (B, m) stack of
points, one run evaluates all B samples.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, NamedTuple

import numpy as np

from .jets import (COND_LIMIT, JetMatrix, JetSeries, _pair_products, _sum_pairs, embedding,
                   outer_table, refuse, series_context)


class ParseError(ValueError):
    """Syntax or validation error, carrying a 1-based line/column position."""

    def __init__(self, message: str, line: int = None, col: int = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class DomainError(ValueError):
    """Kernel evaluation left the domain of a pow/log/division subterm."""


# --------------------------------------------------------------------------
# AST


class _Node:
    """Equality, hash and repr of an expression tree, without recursion.

    Two trees are equal when their tapes have the same op keys, which
    leave out source positions; ``repr`` is the ``pretty`` rendering.
    Each node class lists in ``tags`` the tape tags its nodes may carry.
    """

    def _key(self) -> tuple:
        tape = _Tape([[self]])
        return tuple(tape.ops), tape.out[0][0]

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        try:
            return f"{type(self).__name__}<{pretty(self)}>"
        except (TypeError, ValueError):  # not a valid tree: no rendering
            return object.__repr__(self)


@dataclass(frozen=True, eq=False, repr=False)
class Num(_Node):
    tags: ClassVar[tuple] = ("num",)
    value: complex
    pos: tuple = None


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    tags: ClassVar[tuple] = ("z", "wb")
    kind: str
    index: int  # 1-based
    pos: tuple = None


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(_Node):
    tags: ClassVar[tuple] = ("+", "-", "*", "/")
    op: str
    left: object
    right: object
    pos: tuple = None


@dataclass(frozen=True, eq=False, repr=False)
class Pow(_Node):
    tags: ClassVar[tuple] = ("^",)
    base: object
    exponent: float
    pos: tuple = None


@dataclass(frozen=True, eq=False, repr=False)
class Call(_Node):
    tags: ClassVar[tuple] = ("exp", "log")
    func: str
    arg: object
    pos: tuple = None


_VARS = Var.tags


def uses_wb(node) -> bool:
    return any(op == "wb" for op, _, _ in _Tape([[node]]).ops)


def _fmt_number(x) -> str:
    x = complex(x)
    if x.imag == 0:
        r = x.real
        if r.is_integer() and abs(r) < 1e15:
            return str(int(r))
        return repr(r)
    # complex literals arise only in programmatically built kernels; this
    # rendering is not part of the text grammar
    return f"complex({x.real!r},{x.imag!r})"


def pretty(node) -> str:
    """Render an expression; reparsing the result gives an equal tree."""
    tape = _Tape([[node]])
    text = []  # text[s]: the rendering of slot s
    for op, x, y in tape.ops:
        if op == "num":
            text.append(_fmt_number(x))
        elif op in _VARS:
            text.append(f"{op}{x + 1}")
        elif op == "^":
            text.append(f"({text[x]})^{_fmt_number(y)}")
        elif op in ("exp", "log"):
            text.append(f"{op}({text[x]})")
        else:
            text.append(f"({text[x]} {op} {text[y]})")
    return text[tape.out[0][0]]


# --------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


class _Tokenizer:
    def __init__(self, text: str, line: int = 1, col_offset: int = 0):
        self.text = text
        self.pos = 0
        self.line = line
        self.col_offset = col_offset
        self.current = None
        self.advance()

    def _position(self, idx: int) -> tuple:
        return (self.line, self.col_offset + idx + 1)

    def advance(self):
        if self.pos >= len(self.text):
            self.current = ("eof", "", self._position(self.pos))
            return
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None or m.end() == self.pos:
            stripped = self.text[self.pos :].lstrip()
            idx = len(self.text) - len(stripped)
            if not stripped:
                self.current = ("eof", "", self._position(len(self.text)))
                return
            raise ParseError(
                f"unexpected character {stripped[0]!r}", *self._position(idx)
            )
        start = m.start(m.lastgroup)
        tok = (m.lastgroup, m.group(m.lastgroup), self._position(start))
        self.pos = m.end()
        self.current = tok


_VAR_RE = re.compile(r"(z|wb)([0-9]+)$")

MAX_NESTING = 100  # deepest nesting of parentheses and exp/log calls


def _finite(value: str, pos) -> float:
    x = float(value)
    if not np.isfinite(x):
        raise ParseError(f"numeric literal {value!r} is not finite", *pos)
    return x


class _Parser:
    def __init__(self, text: str, line: int = 1, col_offset: int = 0):
        self.toks = _Tokenizer(text, line, col_offset)
        self.depth = 0

    def parse(self):
        node = self.expr()
        kind, value, pos = self.toks.current
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {value!r}", *pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, pos = self.toks.current
            if kind == "op" and value in "+-":
                self.toks.advance()
                node = BinOp(value, node, self.term(), pos)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, pos = self.toks.current
            if kind == "op" and value in "*/":
                self.toks.advance()
                node = BinOp(value, node, self.factor(), pos)
            else:
                return node

    def factor(self):
        node = self.base()
        kind, value, pos = self.toks.current
        if kind == "op" and value == "^":
            self.toks.advance()
            node = Pow(node, self.snumber(), pos)
        return node

    def snumber(self) -> float:
        kind, value, pos = self.toks.current
        sign = 1.0
        if kind == "op" and value == "-":
            sign = -1.0
            self.toks.advance()
            kind, value, pos = self.toks.current
        if kind != "number":
            raise ParseError("expected a numeric exponent", *pos)
        self.toks.advance()
        return sign * _finite(value, pos)

    def base(self):
        kind, value, pos = self.toks.current
        if kind == "number":
            self.toks.advance()
            return Num(complex(_finite(value, pos)), pos)
        if kind == "ident":
            m = _VAR_RE.match(value)
            if m:
                self.toks.advance()
                return Var(m.group(1), int(m.group(2)), pos)
            if value in ("exp", "log"):
                self.toks.advance()
                self.expect("(")
                return Call(value, self.nested(pos), pos)
            raise ParseError(f"unknown identifier {value!r}", *pos)
        if kind == "op" and value == "(":
            self.toks.advance()
            return self.nested(pos)
        shown = value if value else "end of input"
        raise ParseError(f"expected a value, got {shown!r}", *pos)

    def nested(self, pos):
        """The expression up to the closing parenthesis, one level deeper."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"parentheses and calls nested deeper than {MAX_NESTING}", *pos
            )
        node = self.expr()
        self.expect(")")
        self.depth -= 1
        return node

    def expect(self, op: str):
        kind, value, pos = self.toks.current
        if kind != "op" or value != op:
            shown = value if value else "end of input"
            raise ParseError(f"expected {op!r}, got {shown!r}", *pos)
        self.toks.advance()


def parse_expression(text: str, line: int = 1, col_offset: int = 0):
    """Parse a single kernel expression into an AST."""
    return _Parser(text, line, col_offset).parse()


# --------------------------------------------------------------------------
# Kernel specifications


class KernelSpec:
    """An r x r matrix of kernel expressions in z1..zm and wb1..wbm."""

    def __init__(self, m: int, r: int, entries, label: str = ""):
        if m < 1 or r < 1:
            raise ValueError("need m >= 1 and r >= 1")
        self.m = m
        self.r = r
        self.entries = tuple(tuple(row) for row in entries)
        if len(self.entries) != r or any(len(row) != r for row in self.entries):
            raise ValueError(f"entries must form an {r}x{r} grid")
        self.label = label
        self._pullbacks = {}  # (chart, label) -> the pulled-back spec
        self._tape = tape = _Tape(self.entries)
        for (op, x, _), pos in zip(tape.ops, tape.pos):
            if op in _VARS and not 0 <= x < m:
                raise ParseError(
                    f"variable index {x + 1} out of range for m = {m}", *(pos or ())
                )

    # -- evaluation -------------------------------------------------------

    def eval_point(self, z, w) -> np.ndarray:
        """Plain value K(z, w) as an (r, r) complex matrix.

        Runs the tape with no varying variable at truncation 0, so it and
        ``eval_jet`` accept and reject the same inputs.
        """
        return self.varying_jet(z, w, 0, False, False)[0].constant_term()

    def eval_jet(self, z0, w0, trunc: int, vary_z=True, vary_w=True) -> JetMatrix:
        """Jet of K around (z0, w0) as a matrix of series in 2m variables.

        ``z0`` and ``w0`` are points of length m or (B, m) stacks of them
        (broadcast against each other); a stack gives a batch of B jets
        from one tape run.  Variables 0..m-1 are the holomorphic
        displacements of z; variables m..2m-1 are the displacements of
        conj(w).  ``extract`` with the concatenated index (alpha, beta)
        yields the mixed derivative taken alpha times in z and beta times
        in conj(w).

        ``vary_z`` and ``vary_w`` say which displacements vary: ``True``
        (all m), ``False`` (none, the argument is held fixed) or a count n
        of leading coordinates.  The kernel is evaluated over the varying
        variables only (``varying_jet``) and scattered into the 2m-variable
        context; coefficients of the fixed variables are zero.
        """
        # refuses an oversized output context before anything is evaluated
        ctx = series_context(2 * self.m, trunc)
        jm, variables = self.varying_jet(z0, w0, trunc, vary_z, vary_w)
        return jm.embed(ctx, variables)

    def varying_jet(self, z0, w0, trunc: int, vary_z=True, vary_w=True):
        """Jet of K around (z0, w0) in its varying variables only.

        With nz and nw the counts that ``vary_z`` and ``vary_w`` give (see
        ``eval_jet``), the context has nz + nw variables: the displacements
        of z_1..z_nz, then those of conj(w_1)..conj(w_nw).  Returns the jet
        and the indices of its variables among the 2m of ``eval_jet``.
        """
        z0 = np.asarray(z0, dtype=complex)
        w0 = np.asarray(w0, dtype=complex)
        if z0.shape[-1:] != (self.m,) or w0.shape[-1:] != (self.m,):
            raise ValueError(f"points must have length m = {self.m}")
        for point in (z0, w0):
            refuse(~np.isfinite(point).all(axis=-1), lambda i: (
                f"point {point.reshape(-1, self.m)[i]} has a non-finite coordinate"))
        nz, nw = self._varying(vary_z), self._varying(vary_w)
        ctx = series_context(nz + nw, trunc)
        z0, w0 = np.broadcast_arrays(z0, w0)  # every coordinate has the batch
        # z_1..z_m, wb_1..wb_m as constants, and as series in one variable where they vary
        points = np.concatenate([z0, np.conj(w0)], axis=-1)
        points = points.transpose(-1, *range(points.ndim - 1))
        one = series_context(1, trunc)
        fixed = JetSeries.constant(series_context(0, 0), points).c
        varying = (JetSeries.constant(one, points) + JetSeries.variable(one, 0)).c
        supports = (*[(i,) if i < nz else () for i in range(self.m)],
                    *[(nz + i,) if i < nw else () for i in range(self.m)])
        coords = [varying[k] if support else fixed[k] for k, support in enumerate(supports)]
        variables = [*range(nz), *range(self.m, self.m + nw)]
        return self._tape.run(ctx, coords, supports), variables

    def _varying(self, flag) -> int:
        """Number of leading coordinates that vary: True is m, False is 0."""
        if isinstance(flag, (bool, np.bool_)):
            return self.m if flag else 0
        n = operator.index(flag)
        if not 0 <= n <= self.m:
            raise ValueError(f"varying count {n} out of range 0..{self.m}")
        return n

    # -- structure --------------------------------------------------------

    def check_hermitian(self, points=None, tol: float = 1e-8) -> float:
        """Spot-check K(z, w) == K(w, z)* at sample point pairs (by default three seeded ones).

        Returns the largest deviation found; raises if it exceeds ``tol``
        times the largest |K| at the pairs, or is NaN.  All pairs (z, w) and
        (w, z) are evaluated in one batch.
        """
        if points is None:
            rng = np.random.default_rng(7)

            def draw():
                return 0.4 * (rng.random(self.m) - 0.5 + 1j * (rng.random(self.m) - 0.5))
            points = [(draw(), draw()) for _ in range(3)]
        if not len(points):
            return 0.0
        z, w = np.array(points, dtype=complex).swapaxes(0, 1)
        values = self.eval_point(np.concatenate([z, w]), np.concatenate([w, z]))
        forward, backward = np.split(values, 2)
        worst = float(np.max(np.abs(forward - backward.conj().swapaxes(-1, -2))))
        if not worst <= tol * float(np.max(np.abs(values))):
            raise ValueError(
                f"kernel is not Hermitian-symmetric: deviation {worst:.3e}"
            )
        return worst

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"KernelSpec(m={self.m}, r={self.r}{tag})"


_ANALYTIC = Pow.tags + Call.tags


class _Plan(NamedTuple):
    """A run of a tape, compiled (see ``_Tape``)."""

    leaves: tuple  # (literal slots, their values, (slot, coordinate index) pairs)
    steps: tuple  # (kind, slot, x, y, what the kind reads), in run order
    outputs: tuple  # (i, j, slot, its ranks in the run's context) per entry
    supports: tuple  # the run variables of each slot


class _Tape:
    """The entries of a kernel as one straight-line program.

    Subtrees are interned bottom-up by ``(op, child slots)``, so each
    distinct subtree has one slot, shared by all r^2 entries and evaluated
    once per ``run``.  ``ops[s]`` is ``("num", value, None)``, a
    coordinate ``("z" | "wb", index, None)`` (0-based), a binary operator
    ``("+" | "-" | "*" | "/", slot, slot)``, a power ``("^", slot,
    exponent)`` or ``("exp" | "log", slot, None)``; operands precede the
    slots that use them.  ``pos[s]`` is the source position of the first
    occurrence of the subtree that has one.  ``out[i][j]`` is the slot of
    entry (i, j).  ``levels[k]`` lists, in tape order, the slots k ops
    above the leaves (the longest chain); ``dead[s]`` lists the slots
    whose last reader in level order is s, outputs excepted.

    A run computes each slot over its support, the run variables it reads (a
    coordinate's own, an op's the union of its operands'); a folded slot is
    computed by the same series operations as a varying one, so it gets
    every check (``SINGULAR_TOL``, the log branch, the sample index).
    ``plan`` compiles a run once per run context and coordinate supports
    (the taping model of Griewank & Walther, *Evaluating Derivatives*, 2nd
    ed., ch. 6) into steps that hold their contexts and gather ranks, and
    ``run`` replays them over raw (*batch, size) arrays.  A binary step
    (``_binary_step``, shared by every plan) negates its right operand for
    ``-`` or inverts it (``recip``) for ``/``; then ``outer`` writes the
    masked outer product of disjoint supports (a constant's empty one
    scales) into their union's context (``outer_table``); ``fold+`` adds a
    constant to coefficient 0, and its zeros' sign to the rest; ``+`` and
    ``*`` add or convolve in one context, other differing supports embedded
    in their union's first.  The ``^`` slots of a level whose bases share a
    context are one ``power`` step, the bases stacked as rows, each with its
    own exponent; so are its ``exp`` and its ``log`` slots.  A ``drop`` step
    frees what ``dead`` names after its level.  A refusal replays the
    slotwise plan, one step per slot in tape order, to name the first
    refused slot and sample.  Non-finite outputs are refused, without a
    warning.  For finite values each coefficient equals the unfolded run's
    over all run variables, up to the sign of a zero: a monomial's
    coefficient reads only monomials of its own support, in the same order.
    """

    def __init__(self, entries):
        self.ops, self.pos = [], []
        slots = {}  # op -> slot
        seen = {}  # id(node) -> slot: a node object shared by entries is walked once
        # nodes whose slot is pending, the next one last; a node stays below
        # its operands until they have slots
        stack = [node for row in entries for node in row][::-1]
        while stack:
            node = stack[-1]
            if id(node) in seen:
                stack.pop()
                continue
            if isinstance(node, BinOp):
                tag, kids, extra = node.op, (node.left, node.right), ()
            elif isinstance(node, Pow):
                tag, kids, extra = "^", (node.base,), (node.exponent,)
            elif isinstance(node, Call):
                tag, kids, extra = node.func, (node.arg,), (None,)
            elif isinstance(node, Num):
                tag, kids, extra = "num", (), (node.value, None)
            elif isinstance(node, Var):
                tag, kids, extra = node.kind, (), (node.index - 1, None)
            else:
                raise TypeError(f"not an expression node: {node!r}")
            if tag not in node.tags:
                raise ParseError(
                    f"{type(node).__name__} node with unknown tag {tag!r}", *(node.pos or ())
                )
            todo = [kid for kid in kids if id(kid) not in seen]
            if todo:
                stack.extend(reversed(todo))  # the left operand first
                continue
            stack.pop()
            op = (tag, *(seen[id(kid)] for kid in kids), *extra)
            slot = slots.setdefault(op, len(self.ops))
            if slot == len(self.ops):
                self.ops.append(op)
                self.pos.append(node.pos)
            elif self.pos[slot] is None:
                self.pos[slot] = node.pos
            seen[id(node)] = slot
        self.out = [[seen[id(node)] for node in row] for row in entries]
        reads = [(x, y) if op in BinOp.tags else (x,) if op in _ANALYTIC else ()
                 for op, x, y in self.ops]
        level = []
        for operands in reads:
            level.append(1 + max((level[t] for t in operands), default=-1))
        self.levels = [[] for _ in range(max(level) + 1)]
        for s, k in enumerate(level):
            self.levels[k].append(s)
        # slot -> the last slot, in run order, that reads it
        last = {t: s for slots in self.levels for s in slots for t in reads[s]}
        outputs = {s for row in self.out for s in row}
        self.dead = [[] for _ in self.ops]
        for operand, s in last.items():
            if operand not in outputs:
                self.dead[s].append(operand)
        self.plans = {}  # (run context, coordinate supports, slotwise) -> _Plan

    def where(self, s: int) -> str:
        """Slot s's source position, else the first entry (row-major) reading it:
        the first with a slot >= s, as each entry's walk adds its own slot last."""
        if self.pos[s] is not None:
            return f"at {self.pos[s]}"
        i, j = divmod(next(n for n, t in enumerate(np.ravel(self.out)) if t >= s), len(self.out))
        return f"in K[{i + 1}][{j + 1}]"

    def run(self, ctx, coords, supports) -> JetMatrix:
        """The entries in ``ctx``, the context of all the run variables, with
        coordinate k (z_1..z_m, then wb_1..wb_m) the (*batch, size) array
        ``coords[k]`` over the run variables ``supports[k]``."""
        plan = self.plan(ctx, supports)
        with np.errstate(all="ignore"):  # an overflow is refused below, not warned of
            try:
                vals = self._replay(plan, coords)
            except ValueError:  # raise the first refusal in tape order
                vals = self._replay(self.plan(ctx, supports, slotwise=True), coords)
        out = np.zeros(coords[0].shape[:-1] + (len(self.out),) * 2 + (ctx.size,), dtype=complex)
        for i, j, s, ranks in plan.outputs:
            out[..., i, j, ranks] = vals[s]
        refuse(~np.isfinite(out).all(axis=(-3, -2, -1)), lambda i: (
            f"kernel {'value' if ctx.trunc == 0 else 'jet'} is not finite (an overflow)"))
        return JetMatrix(ctx, out)

    def plan(self, ctx, supports, slotwise=False) -> _Plan:
        """The run at ``ctx`` over coordinates of ``supports``, level by level or ``slotwise``
        (a step per slot in tape order), compiled once and kept for every thread and batch."""
        key = ctx, supports, slotwise
        if key in self.plans:
            return self.plans[key]
        sup, nums, inputs, steps = [()] * len(self.ops), [], [], []  # sup: each slot's support
        for slots in [[s] for s in range(len(self.ops))] if slotwise else self.levels:
            groups = {}  # (op, context) -> the slots of one call
            for s in slots:
                op, x, y = self.ops[s]
                if op == "num":
                    nums.append(s)
                elif op in _VARS:
                    inputs.append((s, x + len(supports) // 2 * (op == "wb")))
                    sup[s] = supports[inputs[-1][1]]
                elif op in BinOp.tags:
                    kind, sup[s], arg = _binary_step(op, sup[x], sup[y], ctx.trunc)
                    steps.append((kind, s, x, y, arg))
                else:
                    sup[s] = sup[x]
                    groups.setdefault((op, _context(sup[x], ctx.trunc)), []).append(s)
            for (op, actx), group in groups.items():
                bases, exps = zip(*(self.ops[t][1:] for t in group))
                rows = len(group) > 1 and (group, bases if len(set(bases)) > 1 else bases[:1])
                steps.append((op, group[0], bases[0], exps if rows else exps[0], (actx, rows)))
            dead = () if slotwise else tuple(t for s in slots for t in self.dead[s])
            steps += [("drop", None, dead, None, None)] if dead else []
        outputs = tuple((i, j, s, embedding(_context(sup[s], ctx.trunc), ctx, sup[s]))
                        for i, row in enumerate(self.out) for j, s in enumerate(row))
        values = np.array([self.ops[s][1] for s in nums], dtype=complex)
        plan = _Plan((nums, values, inputs), tuple(steps), outputs, tuple(sup))
        return self.plans.setdefault(key, plan)

    def _replay(self, plan, coords) -> list:
        """The array of every slot ``plan`` keeps alive; a refusal names its step's (first) slot."""
        vals = [None] * len(self.ops)
        nums, values, inputs = plan.leaves
        block = np.empty((len(nums),) + coords[0].shape[:-1] + (1,), dtype=complex)
        block.T[...] = values  # literal i fills row i, across the batch
        for s, row in zip(nums, block):
            vals[s] = row
        for s, k in inputs:
            vals[s] = coords[k]
        try:
            for kind, s, x, y, arg in plan.steps:
                if kind == "drop":
                    for t in x:
                        vals[t] = None
                elif kind in _ANALYTIC:
                    actx, rows = arg
                    if not rows:
                        vals[s] = _analytic(kind, JetSeries(actx, vals[x]), y).c
                        continue
                    group, bases = rows  # one base is stacked once
                    stack = np.empty((len(bases),) + vals[x].shape, dtype=complex)
                    for i, t in enumerate(bases):
                        stack[i] = vals[t]
                    for t, c in zip(group, _analytic(kind, JetSeries(actx, stack), y).c):
                        vals[t] = c
                else:
                    neg, inv, ex, ey, rctx, how = arg
                    a, b = vals[x], -vals[y] if neg else vals[y]
                    if inv is not None:
                        b = JetSeries(inv, b).recip().c
                    a = a if ex is None else JetSeries(ex[0], a).embed(rctx, ex[1]).c
                    b = b if ey is None else JetSeries(ey[0], b).embed(rctx, ey[1]).c
                    if kind == "+":
                        v = a + b
                    elif kind == "*":
                        v = _sum_pairs(rctx, _pair_products(a, b, *how))
                    elif kind == "outer":
                        v = a.take(how[0], -1) * b.take(how[1], -1)
                        np.add(v, 0.0, out=v)  # a convolution adds its one product to +0.0
                    else:  # "fold+"
                        v = np.add(b if how[0] else a, how[1])
                        v[..., 0] = a[..., 0] + b[..., 0]
                    vals[s] = v
        except ValueError as exc:
            raise DomainError(f"{self.where(s)}: {exc}") from None
        return vals


def _context(support: tuple, trunc: int):
    """The context of a slot over ``support``, without variables for a constant."""
    return series_context(len(support), trunc if support else 0)


@lru_cache(maxsize=None)
def _binary_step(op: str, sx: tuple, sy: tuple, trunc: int) -> tuple:
    """(kind, support, what it reads) of a binary step on supports sx, sy; every plan shares it."""
    union = tuple(sorted({*sx, *sy}))
    positions, rctx = tuple(map(union.index, sx + sy)), _context(union, trunc)
    cx, cy = _context(sx, trunc), _context(sy, trunc)
    kind, ex, ey, how = "+" if op in "+-" else "*", None, None, None
    if sx != sy and kind == "*" and len(positions) == len(union):  # disjoint, or a scaling
        kind, how = "outer", tuple(outer_table(cx, cy, rctx, positions))
    elif sx != sy and sx and sy:  # a side short of the union is embedded in its context
        ex = None if sx == union else (cx, positions[: len(sx)])
        ey = None if sy == union else (cy, positions[len(sx) :])
    elif sx != sy:  # the constant side, and the sign of its zeros
        kind, how = "fold+", (not sx, -0.0 if op == "-" and not sy else 0.0)
    if kind == "*":
        how = rctx.mul_table[:2]
    return kind, union, (op == "-", cy if op == "/" else None, ex, ey, rctx, how)


def _analytic(op: str, a: JetSeries, exponent) -> JetSeries:
    """``a ^ exponent``, ``exp(a)`` or ``log(a)``: one series or a stack of them."""
    return a.power(exponent) if op == "^" else a.exp() if op == "exp" else a.log()


# --------------------------------------------------------------------------
# Parsing kernel files

_HEADER_RE = re.compile(r"^\s*(m|r|label)\s*=\s*(.*?)\s*$")
_ENTRY_RE = re.compile(r"^\s*K\s*\[\s*(\d+)\s*\]\s*\[\s*(\d+)\s*\]\s*=\s*(.*?)\s*$")
_WHOLE_RE = re.compile(r"^\s*K\s*=\s*(.*?)\s*$")
_BERGMAN_RE = re.compile(r"^bergman\s*\(\s*(.*?)\s*\)\s*$")


def parse_kernel(text: str) -> KernelSpec:
    """Parse kernel-file text, or a bare expression, into a KernelSpec."""
    lines = text.splitlines()
    has_header = any(_HEADER_RE.match(ln) for ln in lines)
    if not has_header:
        node = parse_expression(text)
        m = max([1] + [x + 1 for op, x, _ in _Tape([[node]]).ops if op in _VARS])
        return KernelSpec(m, 1, [[node]])

    m = r = None
    label = ""
    entries = {}
    whole = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        hm = _HEADER_RE.match(line)
        if hm:
            key, value = hm.group(1), hm.group(2)
            if key == "label":
                label = value
            else:
                try:
                    parsed = int(value)
                except ValueError:
                    raise ParseError(f"{key} must be an integer", lineno, 1)
                if key == "m":
                    m = parsed
                else:
                    r = parsed
            continue
        em = _ENTRY_RE.match(line)
        if em:
            i, j = int(em.group(1)), int(em.group(2))
            expr_text = em.group(3)
            col0 = line.index(expr_text) if expr_text else len(line)
            entries[(i, j)] = parse_expression(expr_text, lineno, col0)
            continue
        wm = _WHOLE_RE.match(line)
        if wm:
            whole = (wm.group(1), lineno)
            continue
        raise ParseError(f"unrecognized line: {line.strip()!r}", lineno, 1)

    if m is None:
        raise ParseError("missing header line 'm = <int>'", 1, 1)
    if r is None:
        r = 1

    if whole is not None:
        value, lineno = whole
        bm = _BERGMAN_RE.match(value)
        if not bm:
            raise ParseError(
                "only 'K = bergman(a1,...,am)' is supported for whole-matrix "
                "assignment", lineno, 1,
            )
        try:
            weights = [float(x) for x in bm.group(1).split(",")]
        except ValueError:
            raise ParseError("bergman weights must be numbers", lineno, 1)
        if len(weights) != m:
            raise ParseError(
                f"bergman needs {m} weights, got {len(weights)}", lineno, 1
            )
        spec = builtin_bergman(weights)
        spec.label = label or spec.label
        return spec

    grid = []
    for i in range(1, r + 1):
        row = []
        for j in range(1, r + 1):
            if (i, j) not in entries:
                raise ParseError(f"missing entry K[{i}][{j}]", len(lines), 1)
            row.append(entries[(i, j)])
        grid.append(row)
    return KernelSpec(m, r, grid, label=label)


# --------------------------------------------------------------------------
# Built-in kernels and kernel algebra


def builtin_bergman(weights) -> KernelSpec:
    """Rank-1 product kernel prod_i (1 - z_i*wb_i)^(-weights[i]) on the polydisc."""
    weights = [float(w) for w in np.atleast_1d(weights)]
    bad = [w for w in weights if not 0 <= w < np.inf]
    if bad:
        raise ValueError(f"bergman weights must be finite and >= 0, got {bad[0]!r}")
    m = len(weights)
    node = None
    for i, lam in enumerate(weights, start=1):
        if lam == 0:
            continue
        factor = Pow(
            BinOp("-", Num(1.0), BinOp("*", Var("z", i), Var("wb", i))), -lam
        )
        node = factor if node is None else BinOp("*", node, factor)
    if node is None:
        node = Num(1.0)
    label = "bergman(" + ",".join(repr(w) for w in weights) + ")"
    return KernelSpec(m, 1, [[node]], label=label)


def _linear_combination(variables, coeffs, constant) -> object:
    """AST for constant + sum_j coeffs[j] * variables[j], skipping zeros."""
    node = None
    if constant != 0:
        node = Num(complex(constant))
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        term = variables[j]
        if c != 1:
            term = BinOp("*", Num(complex(c)), term)
        node = term if node is None else BinOp("+", node, term)
    return node if node is not None else Num(0.0)


def _rebuild(tape: _Tape, leaf) -> list:
    """One node per slot of ``tape``, in slot order.

    ``leaf(op, x, pos)`` gives the node of a ``num``/``z``/``wb`` slot;
    every other slot is rebuilt over the nodes of its operands, so a slot
    that several entries share becomes one shared node.
    """
    nodes = []
    for (op, x, y), pos in zip(tape.ops, tape.pos):
        if op == "num" or op in _VARS:
            node = leaf(op, x, pos)
        elif op == "^":
            node = Pow(nodes[x], y, pos)
        elif op in ("exp", "log"):
            node = Call(op, nodes[x], pos)
        else:
            node = BinOp(op, nodes[x], nodes[y], pos)
        nodes.append(node)
    return nodes


@dataclass(frozen=True)
class AffineChart:
    """An affine coordinate change flattening a submanifold.

    Maps ambient coordinates to chart coordinates by ``u = linear @ z +
    offset``; the submanifold of interest becomes ``u_1 = ... = u_d = 0``.
    """

    linear: tuple
    offset: tuple
    d: int

    @classmethod
    def from_arrays(cls, linear, offset, d: int) -> "AffineChart":
        linear = np.asarray(linear, dtype=complex)
        offset = np.asarray(offset, dtype=complex)
        m = linear.shape[0]
        if linear.shape != (m, m):
            raise ValueError("chart linear part must be square")
        if offset.shape != (m,):
            raise ValueError("chart offset length must match the linear part")
        if not 1 <= d <= m:
            raise ValueError(f"codimension d={d} out of range for m={m}")
        cond = np.linalg.cond(linear)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise ValueError("chart linear part is numerically singular")
        return cls(
            tuple(map(tuple, linear.tolist())), tuple(offset.tolist()), d
        )

    @property
    def m(self) -> int:
        return len(self.offset)

    def linear_array(self) -> np.ndarray:
        return np.array(self.linear, dtype=complex)

    def offset_array(self) -> np.ndarray:
        return np.array(self.offset, dtype=complex)

    def inverse_parts(self):
        """(A, b) with z = A @ u + b inverting the chart."""
        L = self.linear_array()
        A = np.linalg.inv(L)
        b = -A @ self.offset_array()
        return A, b

    def apply(self, z) -> np.ndarray:
        return self.linear_array() @ np.asarray(z, dtype=complex) + self.offset_array()

    def apply_inverse(self, u) -> np.ndarray:
        A, b = self.inverse_parts()
        return A @ np.asarray(u, dtype=complex) + b


def identity_chart(m: int, d: int) -> AffineChart:
    return AffineChart.from_arrays(np.eye(m), np.zeros(m), d)


def diagonal_chart(m: int, style: str = "pairwise") -> AffineChart:
    """Affine chart flattening the diagonal of the m-fold polydisc.

    ``style="pairwise"`` uses consecutive differences: ``u_i = z_i -
    z_{i+1}`` for i < m and ``u_m = z_m``, so ``z_i = sum_{j >= i} u_j``.
    Its inverse nests the chart variables, which makes the diagonal
    curvature assemble cumulative sums of the kernel weights.

    ``style="anchored"`` subtracts the last coordinate: ``u_i = z_i - z_m``
    for i < m and ``u_m = z_m``.  Its pullback has the property that chart
    transverse derivatives coincide with the ambient derivatives along
    z_1..z_{m-1}, which is the frame in which the order-two quotient kernel
    of the tridisc is usually written down.
    """
    if m < 2:
        raise ValueError("diagonal chart needs m >= 2")
    L = np.zeros((m, m))
    for i in range(m - 1):
        L[i, i] = 1.0
        if style == "pairwise":
            L[i, i + 1] = -1.0
        elif style == "anchored":
            L[i, m - 1] = -1.0
        else:
            raise ValueError(f"unknown diagonal chart style {style!r}")
    L[m - 1, m - 1] = 1.0
    return AffineChart.from_arrays(L, np.zeros(m), m - 1)


def pullback_affine(spec: KernelSpec, chart: AffineChart) -> KernelSpec:
    """Kernel in chart coordinates: K'(u, v) = K(inv(u), inv(v)).  ``spec``
    keeps it per chart (and label), so each chart compiles once."""
    if chart.m != spec.m:
        raise ValueError(f"chart dimension {chart.m} != kernel dimension {spec.m}")
    if (chart, spec.label) in spec._pullbacks:
        return spec._pullbacks[chart, spec.label]
    A, b = chart.inverse_parts()
    subs = {}  # kind -> the node of each ambient variable, over shared chart variables
    for kind, lin, off in (("z", A, b), ("wb", A.conj(), b.conj())):
        us = [Var(kind, j + 1) for j in range(spec.m)]
        subs[kind] = [_linear_combination(us, lin[i], off[i]) for i in range(spec.m)]
    tape = spec._tape
    nodes = _rebuild(tape, lambda op, x, pos: subs[op][x] if op in _VARS else Num(x, pos))
    entries = [[nodes[s] for s in row] for row in tape.out]
    label = f"{spec.label}|chart" if spec.label else ""
    pulled = KernelSpec(spec.m, spec.r, entries, label=label)
    return spec._pullbacks.setdefault((chart, spec.label), pulled)


def gauge_scale(spec: KernelSpec, psi) -> KernelSpec:
    """The kernel psi(z) K(z, w) conj(psi(w)) for a holomorphic expression psi.

    ``psi`` is an AST in the z variables only.
    """
    tape = _Tape([[psi]])
    if any(op == "wb" for op, _, _ in tape.ops):
        raise ValueError("gauge factor must be holomorphic (z variables only)")
    if any(op == "z" and x >= spec.m for op, x, _ in tape.ops):
        raise ValueError("gauge factor uses variables beyond the kernel dimension")
    # conj(psi(w)) as an expression in wb: conjugate literals, z -> wb
    psi_bar = _rebuild(
        tape,
        lambda op, x, pos: Var("wb", x + 1, pos) if op == "z" else Num(np.conj(x), pos),
    )[tape.out[0][0]]
    entries = [
        [BinOp("*", BinOp("*", psi, node), psi_bar) for node in row]
        for row in spec.entries
    ]
    label = f"{spec.label}|gauge" if spec.label else ""
    return KernelSpec(spec.m, spec.r, entries, label=label)


def _weighted_sum(terms) -> object:
    """AST for sum c * node over the (c, node) pairs, skipping zeros."""
    node = None
    for c, term in terms:
        if c != 0:
            term = BinOp("*", Num(c), term)
            node = term if node is None else BinOp("+", node, term)
    return node if node is not None else Num(0.0)


def conjugate_by_unitary(spec: KernelSpec, u) -> KernelSpec:
    """The kernel U K(z, w) U* for a constant matrix U."""
    u = np.asarray(u, dtype=complex)
    r = spec.r
    if u.shape != (r, r):
        raise ValueError(f"matrix must be {r}x{r}")
    entries = [[None] * r for _ in range(r)]
    for i, j in np.ndindex(r, r):
        entries[i][j] = _weighted_sum(
            (u[i, a] * np.conj(u[j, b]), spec.entries[a][b]) for a, b in np.ndindex(r, r)
        )
    label = f"{spec.label}|conj" if spec.label else ""
    return KernelSpec(spec.m, r, entries, label=label)


def matrix_combination(scalar_specs, matrices, label: str = "") -> KernelSpec:
    """The matrix kernel sum_s matrices[s] * k_s(z, w) from rank-1 kernels.

    Positive definiteness holds when each matrix is Hermitian PSD and each
    scalar kernel is positive definite; this is not checked globally.
    """
    if len(scalar_specs) != len(matrices) or not scalar_specs:
        raise ValueError("need one matrix per scalar kernel")
    m = scalar_specs[0].m
    r = np.asarray(matrices[0]).shape[0]
    for s in scalar_specs:
        if s.r != 1 or s.m != m:
            raise ValueError("scalar kernels must be rank 1 with a common m")
    mats = [np.asarray(mat, dtype=complex) for mat in matrices]
    entries = [[None] * r for _ in range(r)]
    for i, j in np.ndindex(r, r):
        entries[i][j] = _weighted_sum(
            (complex(mat[i, j]), s.entries[0][0]) for s, mat in zip(scalar_specs, mats)
        )
    return KernelSpec(m, r, entries, label=label)


def direct_sum(spec_a: KernelSpec, spec_b: KernelSpec, label: str = "") -> KernelSpec:
    """Block-diagonal kernel diag(K_a, K_b)."""
    if spec_a.m != spec_b.m:
        raise ValueError("direct sum requires a common ambient dimension")
    r = spec_a.r + spec_b.r
    zero = Num(0.0)
    entries = [[zero] * r for _ in range(r)]
    for i in range(spec_a.r):
        for j in range(spec_a.r):
            entries[i][j] = spec_a.entries[i][j]
    for i in range(spec_b.r):
        for j in range(spec_b.r):
            entries[spec_a.r + i][spec_a.r + j] = spec_b.entries[i][j]
    return KernelSpec(spec_a.m, r, entries, label=label)
