"""Outside-in spans around the package's public functions.

A `Tracer` replaces a function at the module attribute through which the
pipeline looks it up (for example `bandforge.krawczyk.select_square_rows`,
the name `krawczyk_test` calls) with a wrapper that records a span: a
name, a start, an end, the enclosing span and the op it belongs to.
Wrappers record nothing outside an op, so setup and the output checks
leave no spans.  Spans stay in memory until the run writes them out.

A name that a later refactor removes is skipped, and every metric fed
only by missing names is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time

# prefix of the stderr line on which a traced child process returns its spans
SPAN_MARKER = "\x1eperfbench-spans "

# span name -> (module, attribute) lookups it is recorded at
TARGETS = {
    "tri.parse": [("bandforge.tri", "parse_triangulation"),
                  ("bandforge.fixtures", "parse_triangulation"),
                  ("bandforge.cli", "parse_triangulation")],
    "tri.serialize": [("bandforge.tri", "serialize_triangulation")],
    "tri.validate": [("bandforge.tri", "validate"),
                     ("bandforge.krawczyk", "validate_triangulation")],
    "fixtures.load": [("bandforge.fixtures", "fixture_text"),
                      ("bandforge.fixtures", "load_fixture")],
    "gluing.build": [("bandforge.gluing", "build_equations"),
                     ("bandforge.krawczyk", "build_equations"),
                     ("bandforge.cli", "build_equations")],
    "gluing.select_rows": [("bandforge.gluing", "select_square_rows"),
                           ("bandforge.krawczyk", "select_square_rows")],
    "gluing.newton": [("bandforge.gluing", "newton_solve"),
                      ("bandforge.krawczyk", "newton_solve"),
                      ("bandforge.cli", "newton_solve")],
    "krawczyk.certify": [("bandforge.krawczyk", "certify_hyperbolic"),
                         ("bandforge.cli", "certify_hyperbolic")],
    "krawczyk.test": [("bandforge.krawczyk", "krawczyk_test"),
                      ("bandforge.cli", "krawczyk_test")],
    "krawczyk.interval_volume": [("bandforge.krawczyk", "interval_volume")],
    "dilog.volume": [("bandforge.dilog", "volume"),
                     ("bandforge.krawczyk", "point_volume"),
                     ("bandforge.cli", "shape_volume")],
    "tangle.call": [("bandforge.cli", name) for name in (
        "check_conway", "conway_expand", "cosmetic_band_partner",
        "eval_conway", "four_move_signature_obstruction",
        "is_unlinking_number_one", "mirror_two_bridge",
        "normalize_two_bridge", "signature_two_bridge",
        "two_bridge_equivalent", "verify_chirally_cosmetic")],
    "surgery.call": [("bandforge.cli", name) for name in (
        "bhw_example_report", "double_branched_cover", "lens_equivalent",
        "lens_mirror", "matignon_family", "normalize_lens",
        "slope_distance")],
}


def _observe_newton(result):
    return {"iters": getattr(result, "iterations", 0)}


def _observe_krawczyk(result):
    enc = getattr(result, "volume_enclosure", None)
    width = enc.hi - enc.lo if enc is not None else 0.0
    return {"valid": bool(getattr(result, "valid", False)), "width": width}


OBSERVERS = {"gluing.newton": _observe_newton,
             "krawczyk.test": _observe_krawczyk}


class Tracer:
    def __init__(self):
        # span: [op, name, start_ns, end_ns, parent index or None, attrs]
        self.spans = []
        self._stack = []
        self._op = None
        self.present = set()     # span names with at least one live target

    # ------------------------------------------------------------ spans
    def begin_op(self, op):
        self._op = op
        self._stack = []

    def end_op(self):
        self._op = None

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self._op, name, time.perf_counter_ns(), None,
                           parent, {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx, **attrs):
        span = self.spans[idx]
        span[3] = time.perf_counter_ns()
        span[5].update(attrs)
        self._stack.pop()

    def add(self, op, name, start, end, parent=None, attrs=None):
        self.spans.append([op, name, start, end, parent, attrs or {}])

    # ------------------------------------------------------------ wrapping
    def install(self):
        """Wrap every target in an already imported module.

        Importing nothing keeps the traced process's import graph the
        same as the untraced one.  `present` collects the span names found.
        """
        for name, targets in TARGETS.items():
            for module, attr in targets:
                if self._wrap(module, attr, name):
                    self.present.add(name)

    def _wrap(self, module, attr, name):
        mod = sys.modules.get(module)
        if mod is None:
            return False
        fn = getattr(mod, attr, None)
        if not callable(fn):
            return False
        if getattr(fn, "__perfbench_span__", None):
            return True
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, error=type(exc).__name__)
                raise
            tracer.close(idx, **(observe(result) if observe else {}))
            return result

        traced.__perfbench_span__ = name
        setattr(mod, attr, traced)
        return True


def self_times(spans):
    """Per-span self time in ns: duration minus the union its children cover."""
    children = {}
    for idx, span in enumerate(spans):
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[2], span[3]
        covered, cursor = 0, start
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append(end - start - covered)
    return out


def count_constructions(cls, fn):
    """Run fn() while counting calls of cls.__init__; returns the count."""
    original = cls.__init__
    calls = [0]

    def counting(self, *args, **kwargs):
        calls[0] += 1
        original(self, *args, **kwargs)

    cls.__init__ = counting
    try:
        fn()
    finally:
        cls.__init__ = original
    return calls[0]
