"""Spans and counters around calls into loopwitt's layers.

Everything here is installed from the benchmark's side by replacing a
public function or method with a wrapper, and removed again afterwards;
nothing under ``src/`` knows about it.  A module-level function is
replaced at every place it is bound, not only where it is defined:
``act`` is imported by name into ``opcheck`` and ``suites``,
``burnside_dim`` into ``opcheck`` and ``suites``, ``build_irrep`` into
``suites`` and ``cli``, and ``suites.RUNNERS`` holds the suite runners.
Methods are wrapped per name, so an alias such as
``GaussRat.__radd__ = __add__`` gets its own wrapper.

A span's self time is its duration minus the time of the spans it
called.  A leaf span is one that called no other span.  Span times
leave out the core-speed samples that ``refclock`` takes meanwhile.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable, Dict, List, Optional, Tuple

from refclock import work_clock

OPCHECK_SPANS = [
    "product_bracket_residual", "reduced_bracket_residual",
    "evaluated_bracket_residual", "product_to_reduced_residual",
    "scaled_product_bracket_residual", "zero_mode_scalar_residual",
    "coefficient_collapse_residual", "evaluated_preserves_differences",
    "quotient_intertwining_check", "bottom_slice_algebra_dim",
]

Work = Optional[Callable[[tuple, object], int]]


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work = 0


class Tracer:
    """Per-name call counts, inclusive and self times and work counts."""

    def __init__(self):
        self.stats: Dict[str, Stat] = {}
        self.leaf_self_s = 0.0
        self._stack: List[list] = []  # per open span: [child seconds, child count]

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def span(self, name: str, fn: Callable, work: Work = None) -> Callable:
        st = self.stat(name)
        stack = self._stack
        clock = work_clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                    stack[-1][1] += 1
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame[0]
                if not frame[1]:
                    self.leaf_self_s += dur
            if work is not None:
                st.work += work(args, result)
            return result
        return wrapper

    def counter(self, name: str, fn: Callable, work: Work = None) -> Callable:
        st = self.stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            st.calls += 1
            if work is not None:
                st.work += work(args, result)
            return result
        return wrapper


class Patches:
    """Replacements made on modules, dicts and classes, undone in reverse."""

    def __init__(self):
        self._undo: List[Tuple[Callable, object, str, object]] = []

    def function(self, module_name: str, attr: str, make: Callable):
        """Replace the function ``module_name.attr`` wherever a loopwitt
        module or ``suites.RUNNERS`` binds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name != "loopwitt" and not name.startswith("loopwitt."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(setattr, mod, key, wrapper, original)
        runners = sys.modules["loopwitt.suites"].RUNNERS
        for key, value in list(runners.items()):
            if value is original:
                self._set(dict.__setitem__, runners, key, wrapper, original)

    def method(self, cls: type, attr: str, make: Callable):
        self._set(setattr, cls, attr, make(cls.__dict__[attr]),
                  cls.__dict__[attr])

    def _set(self, setter, owner, key, value, original):
        setter(owner, key, value)
        self._undo.append((setter, owner, key, original))

    def undo(self):
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)


def _in_slices(args, result) -> int:
    return len(args[1].data)


def _term_pairs(args, result) -> int:
    return len(args[0].terms) * len(args[1].terms)


def _accepted(args, result) -> int:
    return 1 if result else 0


def install_spans(tracer: Tracer) -> Patches:
    """Spans around the public functions of every layer, plus counters on
    the linear-algebra core."""
    import loopwitt.cli  # noqa: F401  (imports every layer)
    from loopwitt import linalg, loop, suites
    p = Patches()
    try:
        p.function("loopwitt.cli", "main",
                   lambda f: tracer.span("cli.main", f))
        for suite, runner in list(suites.RUNNERS.items()):
            p.function("loopwitt.suites", runner.__name__,
                       lambda f, s=suite: tracer.span(f"suites.{s}", f))
        for name in OPCHECK_SPANS:
            p.function("loopwitt.opcheck", name,
                       lambda f, n=name: tracer.span(f"opcheck.{n}", f))
        p.function("loopwitt.tensmod", "act",
                   lambda f: tracer.span("tensmod.act", f, _in_slices))
        p.function("loopwitt.tensmod", "module_axiom_residual",
                   lambda f: tracer.span("tensmod.module_axiom_residual", f))
        for name in ("build_irrep", "burnside_dim"):
            p.function("loopwitt.glnrep", name,
                       lambda f, n=name: tracer.span(f"glnrep.{n}", f))
        p.method(loop.LoopElem, "bracket",
                 lambda f: tracer.span("loop.bracket", f, _term_pairs))
        p.method(linalg.SpanBasis, "insert",
                 lambda f: tracer.counter("linalg.span_insert", f, _accepted))
        p.method(linalg.SpanBasis, "coords",
                 lambda f: tracer.counter("linalg.span_coords", f))
        p.function("loopwitt.linalg", "mat_mul",
                   lambda f: tracer.counter("linalg.mat_mul", f))
    except BaseException:
        p.undo()
        raise
    return p


SCALAR_OPS = {
    "scalars.mul": ("__mul__", "__rmul__"),
    "scalars.add": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"),
    "scalars.inverse": ("inverse",),
}
COEFF_OPS = {
    "coeff.mul": ("__mul__", "__rmul__"),
    "coeff.psi": ("psi",),
}


def install_counts(tracer: Tracer) -> Patches:
    """Call counters on Gaussian-rational arithmetic and on B elements,
    with no timing, so the counts repeat exactly."""
    from loopwitt.coeff import BElem
    from loopwitt.scalars import GaussRat
    p = Patches()
    try:
        for cls, table in ((GaussRat, SCALAR_OPS), (BElem, COEFF_OPS)):
            for name, attrs in table.items():
                for attr in attrs:
                    p.method(cls, attr,
                             lambda f, n=name: tracer.counter(n, f))
    except BaseException:
        p.undo()
        raise
    return p
