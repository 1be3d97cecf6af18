"""Outside-in tracer for jetmod.

The tracer replaces public jetmod functions by timing wrappers at every
name they are bound to: the defining module's attribute, ``from``-imports
in other jetmod modules (``equivalence.pullback_affine``), re-exports in
``jetmod/__init__`` and, for the methods listed in ``METHODS``, every class
attribute that holds the same function (``JetSeries.__rmul__`` is
``__mul__``).  ``uninstall`` puts the original objects back.

Per traced name it keeps calls, inclusive time (outermost call only, so
recursion is not counted twice) and self time (inclusive time minus the
time of traced callees).  Spans ``(name, start, end, parent)`` are kept
for each job and for each call that crosses from one layer (jetmod
module) into another.  The engine layers ``jets`` and ``multiindex`` are
called 10^5-10^6 times per job, so they are counted but get no spans.

Wrappers record only inside ``run_job``; outside it they call through.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "multiindex", "jets", "kernels", "geometry", "jet_kernels",
    "bergman_quotient", "equivalence", "cli",
)
ENGINE_LAYERS = ("jets", "multiindex")

# metric names for module functions whose own names are long or ambiguous
RENAME = {
    "jets.jet_matrix_inverse": "jets.matrix_inverse",
    "jets.series_context": "jets.context",
    "geometry.curvature_covariant_derivs": "geometry.covariant",
    "geometry.transport_maps": "geometry.transport",
}

# (module, class, attribute, traced name)
METHODS = (
    ("jets", "SeriesContext", "__init__", "jets.context_build"),
    ("jets", "JetSeries", "__mul__", "jets.series_mul"),
    ("jets", "JetSeries", "recip", "jets.recip"),
    ("jets", "JetSeries", "log", "jets.log"),
    ("jets", "JetSeries", "exp", "jets.exp"),
    ("jets", "JetSeries", "power", "jets.power"),
    ("jets", "JetMatrix", "__matmul__", "jets.matmul"),
    ("kernels", "KernelSpec", "eval_jet", "kernels.eval_jet"),
    ("kernels", "KernelSpec", "eval_point", "kernels.eval_point"),
    ("geometry", "NormalizedKernel", "eval_jet", "geometry.normalized_eval"),
)

# Tables a series context builds on first use: (class, attribute, cache
# attribute).  Their build time is added to jets.context_build without
# adding calls; a use that finds the table already built is not timed.
LAZY_TABLES = (
    ("SeriesContext", "mul_table", "_mul_table"),
    ("SeriesContext", "deriv_table", "_deriv_tables"),
)

# Computed memory traffic of one dense truncated product pair: three index
# reads (8 bytes each), two gathered complex operands and one complex
# product (16 bytes each).
BYTES_PER_PAIR = 3 * 8 + 3 * 16


def product_pairs(ctx) -> int:
    """Coefficient pairs in a dense product truncated at ctx.trunc.

    Pairs (alpha, beta) in n variables with |alpha| + |beta| <= t are the
    monomials of degree <= t in 2n variables: C(2n + t, t).
    """
    return math.comb(2 * ctx.num_vars + ctx.trunc, ctx.trunc)


def jetmod_modules() -> dict:
    mods = {name: importlib.import_module(f"jetmod.{name}") for name in LAYERS}
    mods["__init__"] = importlib.import_module("jetmod")
    return mods


def snapshot() -> dict:
    """Every attribute of the jetmod modules and traced classes, by identity."""
    mods = jetmod_modules()
    snap = {}
    for mname, mod in mods.items():
        for attr, value in vars(mod).items():
            snap[(mname, attr)] = value
    for mname, cname, _, _ in METHODS:
        cls = getattr(mods[mname], cname)
        for attr, value in vars(cls).items():
            snap[(mname, cname, attr)] = value
    return snap


class Tracer:
    def __init__(self):
        self.on = False
        self.stats = {}  # name -> [calls, inclusive_s, self_s, depth]
        self.counters = defaultdict(float)
        self.errors = defaultdict(int)  # (name, exception class) -> count
        self.spans = []  # [name, start, end, parent index]
        self.jobs = []  # per job: name, ok, wall_s, covered_s
        self._stack = []  # frames: [child_s, layer]
        self._open = []  # indices of open spans
        self._patches = []
        self._seen = {}
        self._alive = []
        self._t0 = time.perf_counter()

    # -- installation ---------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = jetmod_modules()
        bindings = list(mods.items())
        for layer in LAYERS:
            mod = mods[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = RENAME.get(f"{layer}.{attr}", f"{layer}.{attr}")
                wrapper = self._wrap(name, obj)
                for _, owner in bindings:
                    for battr, value in list(vars(owner).items()):
                        if value is obj:
                            self._patch(owner, battr, wrapper)
        for mname, cname, attr, name in METHODS:
            cls = getattr(mods[mname], cname, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for battr, value in list(vars(cls).items()):
                if value is original:
                    self._patch(cls, battr, wrapper)
        for cname, attr, cache in LAZY_TABLES:
            cls = getattr(mods["jets"], cname, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                continue
            self._patch(cls, attr, self._wrap_lazy(original, cache))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name, fn, count=True):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        layer = name.split(".", 1)[0]
        spanned = layer not in ENGINE_LAYERS
        hook = _HOOKS.get(name)
        if hook is not None:
            hook = hook(self, name, fn)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            span = None
            if spanned and stat[3] == 0 and stack[-1][1] != layer:
                span = tracer._open_span(name)
            frame = [0.0, layer]
            stack.append(frame)
            stat[3] += 1
            token = hook.before(args, kwargs) if hook is not None else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stat[3] -= 1
                if count:
                    stat[0] += 1
                if stat[3] == 0:
                    stat[1] += dt
                stat[2] += dt - frame[0]
                stack[-1][0] += dt
                if span is not None:
                    tracer._close_span(span)
            if hook is not None:
                hook.after(token, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _wrap_lazy(self, original, cache):
        """Time a lazily built table as context build; pass through reuses."""
        is_property = isinstance(original, property)
        fn = original.fget if is_property else original
        timed = self._wrap("jets.context_build", fn, count=False)

        if is_property:
            def fget(ctx):
                if getattr(ctx, cache, None) is not None:
                    return fn(ctx)
                return timed(ctx)
            return property(fget, doc=original.__doc__)

        def method(ctx, key):
            if key in getattr(ctx, cache, ()):
                return fn(ctx, key)
            return timed(ctx, key)
        method.__wrapped__ = fn
        return method

    # -- spans and jobs -------------------------------------------------

    def _open_span(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter() - self._t0, None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _close_span(self, index):
        self.spans[index][2] = time.perf_counter() - self._t0
        self._open.pop()

    def run_job(self, name, fn) -> dict:
        """Run fn() as one job, traced when the wrappers are installed.

        Returns the result or the exception it raised, the job's wall
        time, and the time spent inside traced jetmod calls made directly
        by the job (its top-level layer spans).
        """
        if self.on:
            raise RuntimeError("jobs do not nest")
        frame = [0.0, "job"]
        self._stack.append(frame)
        span = self._open_span(f"job:{name}")
        out = {"result": None, "error": None}
        self.on = True
        t0 = time.perf_counter()
        try:
            out["result"] = fn()
        except Exception as exc:  # the caller records the job as failed
            out["error"] = exc
        finally:
            out["wall_s"] = time.perf_counter() - t0
            self.on = False
            self._close_span(span)
            self._stack.pop()
            self._seen = {}
            self._alive = []
        out["covered_s"] = frame[0]
        return out

    def record_job(self, name, ok, run):
        self.jobs.append({
            "name": name, "ok": bool(ok), "wall_s": run["wall_s"],
            "covered_s": run["covered_s"],
        })

    def export(self) -> dict:
        return {
            "stats": {k: v[:3] for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "errors": [[n, e, c] for (n, e), c in sorted(self.errors.items())],
            "jobs": self.jobs,
            "spans": self.spans,
        }


# -- per-name hooks -----------------------------------------------------


class _Hook:
    def __init__(self, tracer, name, fn):
        self.t = tracer

    def before(self, args, kwargs):
        return None


class _SeriesMul(_Hook):
    def after(self, token, args, kwargs, result):
        a, b = args[0], args[1]
        if type(b) is type(a):
            pairs = product_pairs(a.ctx)
            self.t.counters["jets.conv_pairs"] += pairs
            self.t.counters["jets.conv_bytes_computed"] += BYTES_PER_PAIR * pairs


class _MatMul(_Hook):
    def after(self, token, args, kwargs, result):
        a, b = args[0], args[1]
        rows, inner = a.shape
        pairs = rows * inner * b.shape[1] * product_pairs(a.ctx)
        self.t.counters["jets.conv_pairs"] += pairs
        self.t.counters["jets.conv_bytes_computed"] += BYTES_PER_PAIR * pairs


class _ContextBuild(_Hook):
    def after(self, token, args, kwargs, result):
        c = self.t.counters
        c["jets.context.max_size"] = max(c["jets.context.max_size"], args[0].size)


class _ContextLookup(_Hook):
    def before(self, args, kwargs):
        return self.t.stats["jets.context_build"][0]

    def after(self, token, args, kwargs, result):
        if self.t.stats["jets.context_build"][0] == token:
            self.t.counters["jets.context.hits"] += 1


class _EvalJet(_Hook):
    """Counts coefficients computed and evaluations that repeat earlier ones.

    An evaluation repeats when the same kernel object was already evaluated
    in this job at the same point pair and variable set, at the same or a
    higher truncation (a lower truncation is a slice of a higher one).
    """

    def __init__(self, tracer, name, fn):
        self.t = tracer
        self.name = name
        self.sig = inspect.signature(fn)

    def before(self, args, kwargs):
        bound = self.sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        obj = a["self"]
        key = (
            self.name, id(obj),
            np.asarray(a["z0"], dtype=complex).tobytes(),
            np.asarray(a["w0"], dtype=complex).tobytes(),
            bool(a.get("vary_z", True)), bool(a.get("vary_w", True)),
        )
        trunc = int(a["trunc"])
        seen = self.t._seen
        if key in seen and seen[key] >= trunc:
            self.t.counters[f"{self.name}.repeats"] += 1
        else:
            seen[key] = trunc
        self.t._alive.append(obj)  # keeps id(obj) unique within the job
        return None

    def after(self, token, args, kwargs, result):
        c = getattr(result, "c", None)
        if c is not None:
            self.t.counters[f"{self.name}.coeffs"] += c.size


_HOOKS = {
    "jets.series_mul": _SeriesMul,
    "jets.matmul": _MatMul,
    "jets.context_build": _ContextBuild,
    "jets.context": _ContextLookup,
    "kernels.eval_jet": _EvalJet,
    "geometry.normalized_eval": _EvalJet,
}
