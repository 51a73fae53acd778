"""Span tracing of the library's public functions, installed from outside.

A ``Tracer`` replaces each traced function with a wrapper at every place
the function is bound: its defining module, every ``cfmoments`` module
that imported it with ``from ... import``, and both names of an aliased
method (``QPoly.__mul__`` is also ``QPoly.__rmul__``).  Nothing under
``src/`` knows about it, and untraced runs never install it.

Each wrapper records a span (id, name, start, end, parent span, operation
id).  Counts and self time are aggregated as spans close, so they cover
every call; the spans themselves are kept in memory only for the first
operations, up to ``KEEP_SPANS``, because a compare over ints makes tens
of thousands of ``exact_div`` calls.  ``write`` dumps them as JSON lines
when the run ends.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time

import cfmoments  # noqa: F401  (loads every submodule that binds a traced name)
import cfmoments.cli  # noqa: F401
from cfmoments.ring import QPoly, QRat

# Layer metric name -> (defining module, attribute).
FUNCTIONS = {
    "ring.exact_div": ("cfmoments.ring", "exact_div"),
    "ring.field_div": ("cfmoments.ring", "field_div"),
    "ring.render": ("cfmoments.ring", "render"),
    "ring.parse_scalar": ("cfmoments.ring", "parse_scalar"),
    "triangle.generate": ("cfmoments.triangle", "generate"),
    "triangle.invert": ("cfmoments.triangle", "invert"),
    "triangle.mul": ("cfmoments.triangle", "mul"),
    "triangle.production_of": ("cfmoments.triangle", "production_of"),
    "triangle.hankel_det": ("cfmoments.triangle", "hankel_det"),
    "triangle.rescale_columns": ("cfmoments.triangle", "rescale_columns"),
    "cfrac.moments_from_sfraction": ("cfmoments.cfrac", "moments_from_sfraction"),
    "cfrac.moments_from_jfraction": ("cfmoments.cfrac", "moments_from_jfraction"),
    "cfrac.qd_sfraction_from_moments": ("cfmoments.cfrac", "qd_sfraction_from_moments"),
    "cfrac.s_to_j": ("cfmoments.cfrac", "s_to_j"),
    "cfrac.hankel_from_sfraction": ("cfmoments.cfrac", "hankel_from_sfraction"),
    "series.riordan_matrix": ("cfmoments.series", "riordan_matrix"),
    "series.series_from_rational": ("cfmoments.series", "series_from_rational"),
    "series.riordan_inverse": ("cfmoments.series", "riordan_inverse"),
    "series.schroder_column": ("cfmoments.series", "schroder_column"),
    "pipeline.compare": ("cfmoments.pipeline", "compare"),
    "pipeline.build_N_via_behead": ("cfmoments.pipeline", "build_N_via_behead"),
    "pipeline.build_N_via_rescale": ("cfmoments.pipeline", "build_N_via_rescale"),
    "pipeline.build_M": ("cfmoments.pipeline", "build_M"),
    "pipeline.verify_example": ("cfmoments.pipeline", "verify_example"),
    "cli.run": ("cfmoments.cli", "run"),
    "cli.parse_spec": ("cfmoments.cli", "parse_spec"),
}

# Layer metric name -> (class, attribute names sharing one function).
METHODS = {
    "ring.qpoly_mul": (QPoly, ("__mul__", "__rmul__")),
    "ring.qpoly_add": (QPoly, ("__add__", "__radd__")),
    "ring.qrat_make": (QRat, ("make",)),
}

LAYER_NAMES = tuple(sorted(list(FUNCTIONS) + list(METHODS)))

# Spans are kept in memory for whole operations until this many are held.
KEEP_SPANS = 100_000


def _compare_key(a, n):
    return (a.terms, n)


def _binding_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "cfmoments" or name.startswith("cfmoments."))
    ]


class Tracer:
    """Wrappers, spans and per-name aggregates for one traced phase."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in LAYER_NAMES}  # calls, self, total
        self.op_self = []  # per operation: {span name: self seconds}
        self._op_self = collections.defaultdict(float)
        self.spans = []
        self.dropped = 0
        self.compare_keys = []
        self._stack = []
        self._next_id = 0
        self._op = None
        self._keeping = True
        self._saved = []
        self._restored = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Replace every binding of every traced name with its wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _binding_modules()
        for name, (modname, attr) in FUNCTIONS.items():
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, bound, orig))
                        setattr(mod, bound, wrapper)
        for name, (cls, attrs) in METHODS.items():
            raw = cls.__dict__[attrs[0]]
            is_static = isinstance(raw, staticmethod)
            wrapper = self._wrap(name, raw.__func__ if is_static else raw)
            for attr in attrs:
                if cls.__dict__[attr] is not raw:
                    raise RuntimeError(f"{cls.__name__}.{attr} is not an alias of {attrs[0]}")
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, staticmethod(wrapper) if is_static else wrapper)

    def uninstall(self):
        """Put every original back, newest replacement first."""
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._restored, self._saved = self._saved, []

    def restored(self):
        """True when every binding replaced by the last install holds its
        original again."""
        return not self._saved and all(
            vars(owner).get(attr) is orig for owner, attr, orig in self._restored
        )

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans ---------------------------------------------------------------

    def _open(self):
        stack = self._stack
        entry = [self._next_id, 0.0, 0.0, stack[-1][0] if stack else None]
        self._next_id += 1
        stack.append(entry)
        entry[1] = time.perf_counter()  # last, so the span holds no tracer work
        return entry  # id, start, time covered by children, parent id

    def _close(self, name, entry, stats=None):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        dur = end - entry[1]
        own = dur - entry[2]
        if stats is not None:
            stats[0] += 1
            stats[1] += own
            stats[2] += dur
        self._op_self[name] += own
        if stack:
            stack[-1][2] += dur
        if self._keeping:
            self.spans.append((entry[0], name, entry[1], end, entry[3], self._op))
        else:
            self.dropped += 1

    def _wrap(self, name, fn):
        stats = self.stats[name]
        keys = self.compare_keys if name == "pipeline.compare" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.append(_compare_key(*args, **kwargs))
            entry = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, entry, stats)

        return wrapper

    def op(self, op_id):
        """Context manager for the root span of one benchmark operation."""
        return _OpSpan(self, op_id)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self):
        out = {}
        for name in LAYER_NAMES:
            calls, self_s, _ = self.stats[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        return out

    def callers(self, name):
        """Calls of ``name`` among the kept spans, counted by caller name."""
        names = {span[0]: span[1] for span in self.spans}
        return collections.Counter(names.get(span[4]) for span in self.spans if span[1] == name)

    def repeat_ratio(self):
        """Share of compare calls whose (coefficients, n) occurred earlier."""
        if not self.compare_keys:
            return 0.0
        return 1.0 - len(set(self.compare_keys)) / len(self.compare_keys)

    def write(self, path):
        """Dump the kept spans as JSON lines after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"],
                                 "kept": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _OpSpan:
    __slots__ = ("tracer", "op_id", "entry")

    def __init__(self, tracer, op_id):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        t = self.tracer
        if t._stack:
            raise RuntimeError("operation spans do not nest")
        t._op = self.op_id
        t._keeping = len(t.spans) < KEEP_SPANS
        t._op_self = collections.defaultdict(float)
        self.entry = t._open()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t._close("op", self.entry)
        t.op_self.append(dict(t._op_self))
        return False
