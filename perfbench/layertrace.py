"""Span tracing of spiraldet's layers from outside the package.

Every public function of the traced modules, plus LaurentPoly's ``__mul__``,
``__rmul__``, ``__add__`` and ``__radd__``, is replaced by a wrapper that
records a span (layer, start, end, parent) and a few exact counters.  Modules
bind names at import (``from .exponent_algebra import evaluate`` in four of
them), so a wrapper is installed on every module attribute that holds the
original, not only on the defining module.  ``install`` refuses to trace when
a binding it cannot reach still holds an original.

Spans are kept in memory and written out by the caller when the run ends.  A
layer's self time is its span time minus the time of its direct child spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from fractions import Fraction

MODULES = ("exponent_algebra", "spiral_builder", "closed_forms",
           "determinant_engine", "sequences", "funceq", "cli")

# Public functions that form a named layer; every other public function of a
# module falls into "<module>.other".  The module-level add()/mul() helpers
# stay in "other" so that mul/add calls count operator calls only once.
_LAYERS = {
    "determinant_engine": {
        "det_cofactor": "determinant_engine.cofactor",
        "det_bareiss_rational": "determinant_engine.bareiss",
        "numeric_matrix": "determinant_engine.numeric_matrix",
        "wedge_eliminate_even": "determinant_engine.wedge",
        "wedge_eliminate_odd": "determinant_engine.wedge",
    },
    "exponent_algebra": {"evaluate": "exponent_algebra.evaluate"},
    "closed_forms": {
        **{f"thm{k}_{p}": "closed_forms.expand" for k in (1, 2, 3) for p in ("even", "odd")},
        "verify_reduction": "closed_forms.reduce",
        "reduce_odd": "closed_forms.reduce",
        "reduce_even": "closed_forms.reduce",
        "qreduction_check": "closed_forms.reduce",
    },
    "spiral_builder": {
        name: "spiral_builder.build"
        for name in ("build_additive", "build_qpower", "build_bracket", "build_bracket_xx",
                     "build_generalized_bracket", "specialize_additive")
    },
    "funceq": {"check_relation": "funceq.check_relation"},
    "cli": {"main": "cli.main"},
}
_OPERATORS = {"__mul__": "exponent_algebra.mul", "__rmul__": "exponent_algebra.mul",
              "__add__": "exponent_algebra.add", "__radd__": "exponent_algebra.add"}

#: Layers whose self time is reported by name; the rest add up to "other".
NAMED_LAYERS = (
    "determinant_engine.cofactor", "exponent_algebra.mul", "exponent_algebra.add",
    "exponent_algebra.evaluate", "closed_forms.expand", "determinant_engine.bareiss",
    "determinant_engine.numeric_matrix", "determinant_engine.wedge", "closed_forms.reduce",
    "sequences", "funceq.check_relation", "spiral_builder.build", "cli.main",
)

#: Counters that must repeat exactly between two traced passes at one seed.
COUNTERS = (
    "determinant_engine.cofactor.calls", "exponent_algebra.mul.calls",
    "exponent_algebra.mul.term_pairs", "exponent_algebra.add.calls",
    "exponent_algebra.evaluate.calls", "exponent_algebra.evaluate.terms",
    "closed_forms.expand.calls", "closed_forms.expand.terms",
    "determinant_engine.bareiss.calls", "determinant_engine.bareiss.result_bits",
    "determinant_engine.wedge.calls", "closed_forms.reduce.trials", "funceq.check_relation.samples",
    "spiral_builder.build.cells",
)


def _term_pairs(args, result):
    left, right = args
    right_terms = len(right.terms) if hasattr(right, "terms") else int(right != 0)
    return len(left.terms) * right_terms


def _fraction_bits(value):
    value = Fraction(value)
    return value.numerator.bit_length() + value.denominator.bit_length()


# layer -> ((counter suffix, f(args, result) -> int), ...); "calls" is implicit.
_COUNTS = {
    "exponent_algebra.mul": (("term_pairs", _term_pairs),),
    "exponent_algebra.evaluate": (("terms", lambda args, result: len(args[0].terms)),),
    "closed_forms.expand": (("terms", lambda args, result: len(result.terms)),),
    "determinant_engine.bareiss": (("result_bits", lambda args, result: _fraction_bits(result)),),
    # verify_reduction and qreduction_check return reports; reduce_odd/even do not.
    "closed_forms.reduce": (("trials", lambda args, result: getattr(result, "trials", 0)),),
    "funceq.check_relation": (("samples", lambda args, result: result.samples),),
    "spiral_builder.build": (("cells", lambda args, result: sum(len(row) for row in result)),),
}


class Tracer:
    """Spans and counters of one traced pass; ``ROOT`` is the pass itself."""

    ROOT = "perfbench"

    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def begin(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def end(self, index: int, layer: str, start: int) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (layer, start, time.perf_counter_ns(), parent)

    def wrap(self, layer: str, fn):
        counts = _COUNTS.get(layer, ())
        counters = self.counters

        def traced(*args, **kwargs):
            index = self.begin()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index, layer, start)
                counters[f"{layer}.calls"] += 1
            if result is not NotImplemented:
                for suffix, count in counts:
                    counters[f"{layer}.{suffix}"] += count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_root(self, fn):
        """Run one pass under the root span and return its result."""
        index = self.begin()
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            self.end(index, self.ROOT, start)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: span time minus the time of direct child spans."""
        child = [0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for (layer, start, end, _), inner in zip(self.spans, child):
            totals[layer] += end - start - inner
        return {layer: ns / 1e9 for layer, ns in totals.items()}

    def inclusive_times(self) -> dict[str, float]:
        """Seconds per layer including its callees, not counting a layer inside itself."""
        totals: Counter = Counter()
        for layer, start, end, parent in self.spans:
            while parent >= 0 and self.spans[parent][0] != layer:
                parent = self.spans[parent][3]
            if parent < 0:
                totals[layer] += end - start
        return {layer: ns / 1e9 for layer, ns in totals.items()}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "spiraldet" or name.startswith("spiraldet."))]


def _layer_of(module: str, name: str) -> str:
    if module == "sequences":  # the whole module is one layer
        return module
    return _LAYERS.get(module, {}).get(name, f"{module}.other")


def _holds(value, originals) -> bool:
    if inspect.isfunction(value):
        return value in originals
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return any(inspect.isfunction(v) and v in originals for v in value)
    return False


def install(tracer: Tracer):
    """Install wrappers on every binding; return a callable that removes them."""
    from spiraldet.exponent_algebra import LaurentPoly

    wrappers = {}
    for short in MODULES:
        module = sys.modules[f"spiraldet.{short}"]
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrappers[obj] = tracer.wrap(_layer_of(short, name), obj)
    undo = []
    for module in _package_modules():
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                undo.append((module, name, obj))
                setattr(module, name, wrappers[obj])
    for name, layer in _OPERATORS.items():
        original = LaurentPoly.__dict__[name]
        undo.append((LaurentPoly, name, original))
        setattr(LaurentPoly, name, tracer.wrap(layer, original))

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    missed = [f"{module.__name__}.{name}" for module in _package_modules()
              for name, value in vars(module).items() if _holds(value, wrappers)]
    if missed:
        uninstall()
        raise RuntimeError(f"untraced bindings of wrapped functions: {', '.join(missed)}")
    return uninstall
