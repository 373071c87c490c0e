"""Layer spans from outside the library.

The library calls its layers through module-level names (``membership``
inside ``counterexample``, ``linprog`` inside ``closure_lab``, ...).
While a :class:`Tracer` is installed, each of those names is replaced by
a wrapper that records a span: its metric name, the span that was open
when it started (its parent), its start and end, and a few counts read
from the call.  A layer's self time is its span's time minus the time of
its child spans; a ``cli.run`` span reports its whole time, the
command as run in-process.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time

#: (module, name bound in it, layer metric name).  The same function can
#: be bound in several modules; every binding reports under one name.
TARGETS = (
    ("block_sequences", "delta2_witnesses", "orlicz_functions.delta2_witnesses"),
    ("cli", "delta2_witnesses", "orlicz_functions.delta2_witnesses"),
    ("counterexample", "conjugate", "orlicz_functions.conjugate"),
    ("norms", "conjugate", "orlicz_functions.conjugate"),
    ("cli", "conjugate", "orlicz_functions.conjugate"),
    ("block_sequences", "build_disjoint_sequence", "block_sequences.build_disjoint_sequence"),
    ("counterexample", "build_disjoint_sequence", "block_sequences.build_disjoint_sequence"),
    ("counterexample", "build_instance", "counterexample.build_instance"),
    ("counterexample", "instance_from_json", "counterexample.instance_from_json"),
    ("counterexample", "t_operator", "counterexample.t_operator"),
    ("counterexample", "membership", "counterexample.membership"),
    ("counterexample", "rho_c", "counterexample.rho_c"),
    ("counterexample", "gap_exhibit", "counterexample.gap_exhibit"),
    ("counterexample", "weak_approx_select", "counterexample.weak_approx_select"),
    ("counterexample", "pairing", "finite_model.pairing"),
    ("counterexample", "linprog", "counterexample.linprog"),
    ("closure_lab", "linprog", "closure_lab.linprog"),
    ("duality", "linprog", "duality.linprog"),
    ("norms", "luxemburg_norm", "norms.luxemburg_norm"),
    ("closure_lab", "luxemburg_norm", "norms.luxemburg_norm"),
    ("norms", "orlicz_norm", "norms.orlicz_norm"),
    ("norms", "modular", "norms.modular"),
    ("closure_lab", "modular", "norms.modular"),
    ("closure_lab", "split_with_budget", "closure_lab.split_with_budget"),
    ("closure_lab", "mazur_min_norm", "closure_lab.mazur_min_norm"),
    ("closure_lab", "order_dominator", "closure_lab.order_dominator"),
    ("risk_measures", "avar_scenarios", "risk_measures.avar_scenarios"),
    ("risk_measures", "scenario_eval", "risk_measures.scenario_eval"),
    ("duality", "conjugate_rho", "duality.conjugate_rho"),
    ("cli", "run", "cli.run"),
)


def _lp_shape(args, kwargs):
    """Constraint rows and variable columns of a ``linprog`` call."""
    c = args[0] if args else kwargs["c"]
    rows = 0
    for key in ("A_ub", "A_eq"):
        a = kwargs.get(key)
        if a is not None:
            rows += len(a)
    return rows, len(c)


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child", "error",
                 "count")

    def __init__(self, name, op, parent, start):
        self.name, self.op, self.parent, self.start = name, op, parent, start
        self.end = None
        self.child = 0.0   # time covered by child spans
        self.error = None  # exception class name, when the call raised
        self.count = None  # (rows, cols) of an LP, vertices of a scenario set

    def self_time(self) -> float:
        return self.end - self.start - self.child

    def within(self, name: str) -> bool:
        span = self.parent
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False


class Tracer:
    """Spans of the operations run while installed, kept in memory."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._open = None
        self._saved = []

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            span = Span(name, tracer.op, tracer._open, time.perf_counter())
            if name.endswith(".linprog"):
                span.count = _lp_shape(args, kwargs)
            tracer._open = span
            try:
                result = fn(*args, **kwargs)
                if name == "risk_measures.avar_scenarios":
                    span.count = len(result)
                return result
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._open = span.parent
                if span.parent is not None:
                    span.parent.child += span.end - span.start
                tracer.spans.append(span)

        return traced

    @contextlib.contextmanager
    def installed(self, op):
        """Trace one operation, labelled ``op``."""
        self.op = op
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(f"orlicz_lab.{module_name}")
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        try:
            yield
        finally:
            while self._saved:
                module, attr, fn = self._saved.pop()
                setattr(module, attr, fn)
            self.op = None

    def layer_totals(self, scale):
        """Per-layer totals: calls, self ms (each span's time multiplied by
        ``scale[span.op]``) and the layer-specific counts."""
        out = {}

        def add(key, value):
            out[key] = out.get(key, 0.0) + value

        for s in self.spans:
            add(f"{s.name}.calls", 1)
            # a command's whole time, the other layers' own time
            seconds = s.end - s.start if s.name == "cli.run" else s.self_time()
            add(f"{s.name}.ms", 1e3 * seconds * scale[s.op])
            if s.name.endswith(".linprog"):
                add(f"{s.name}.rows", s.count[0])
                add(f"{s.name}.cols", s.count[1])
                if s.within("counterexample.gap_exhibit"):
                    add("counterexample.gap_exhibit.linprog_calls", 1)
            elif s.name == "risk_measures.avar_scenarios":
                add(f"{s.name}.vertices", s.count)
            elif s.name == "counterexample.membership":
                add(f"{s.name}.nonmembers", s.error == "NotAMember")
                if s.within("counterexample.rho_c"):
                    add("counterexample.rho_c.membership_calls", 1)
            elif s.name == "norms.luxemburg_norm" and s.within("closure_lab.mazur_min_norm"):
                add("closure_lab.mazur_min_norm.luxemburg_calls", 1)
        return out

    def dump(self, fh) -> None:
        """Write the spans, one JSON array per line:
        ``[op, name, parent index or -1, start, end, error]``."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        for s in self.spans:
            parent = index.get(id(s.parent), -1) if s.parent else -1
            fh.write(json.dumps([s.op, s.name, parent, s.start, s.end, s.error]))
            fh.write("\n")
