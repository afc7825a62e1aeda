"""Span tracing of kickedtop's layers, from outside the package.

`Tracer` wraps each traced function and rebinds the wrapper under every
name by which a kickedtop module refers to the original (for example
both `kickedtop.numerics.hermitian_eigen` and the imported copies in
`kickedtop.pairwise` and `kickedtop.concurrence`), so calls between
modules are seen without editing the package.  `uninstall` puts the
originals back.

Each call records one span (name, start, end, parent), kept in flat
in-memory arrays and written out by `save` when the run ends.  A
function that no longer exists is listed in `absent` and traced as
never called.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "kickedtop"

# module -> the functions whose spans make up that layer.
LAYERS = {
    "cli": ["main"],
    "kicked_top": ["concurrence_series", "time_average", "floquet", "evolve"],
    "spin": ["collective_operators", "coherent_from_angles", "number_state", "spin_coherent"],
    "pairwise": ["collective_expectations", "reduce_symmetric", "epr_reduce"],
    "concurrence": ["wootters", "dicke_concurrence_closed"],
    "numerics": ["hermitian_eigen", "unitary_from_hermitian"],
    "analytic3": ["analytic_concurrence_series"],
    "classical": ["lyapunov_running"],
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # "module.function", indexed by span name id
        self.absent: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack = [-1]
        self._bindings = []  # (namespace, attribute, original, wrapper)
        for module, functions in LAYERS.items():
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                mod = None
            for function in functions:
                label = f"{module}.{function}"
                original = getattr(mod, function, None)
                if not callable(original):
                    self.absent.append(label)
                    continue
                wrapper = self._wrap(len(self.names), original)
                self.names.append(label)
                for namespace in list(sys.modules.values()):
                    ns_name = getattr(namespace, "__name__", "")
                    if ns_name != PACKAGE and not ns_name.startswith(PACKAGE + "."):
                        continue
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._bindings.append((namespace, attr, original, wrapper))

    def _wrap(self, idx: int, fn):
        start, end, name, parent, stack = self.start, self.end, self.name, self.parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for namespace, attr, _, wrapper in self._bindings:
            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original, _ in self._bindings:
            setattr(namespace, attr, original)

    def arrays(self):
        """(name, parent, duration, self time) of every span, as numpy arrays.

        Self time is the span's duration minus the durations of its
        direct children.
        """
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(len(dur))
        inside = parent >= 0
        np.add.at(child, parent[inside], dur[inside])
        return name, parent, dur, dur - child

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )
