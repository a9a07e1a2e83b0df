"""In-memory span tracer that wraps the package's public functions.

Spans are (name, start, end, parent) rows kept in flat arrays while the run
lasts and written out once at exit.  A wrapper is installed on every public
function of the nine modules under each name a module of the package binds
it to -- ``relations.apply_combo_to_basis`` and ``functor.apply_combo_to_basis``
get the same wrapper -- and on the public methods of the package's classes,
so a call is traced whichever caller makes it.

Nothing here is imported by the package: the tracer only replaces attributes
from outside, after the modules are loaded.
"""

from __future__ import annotations

import gzip
import inspect
import os
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List

LAYERS = (
    "octonion",
    "albert",
    "exactla",
    "ratfield",
    "diagram",
    "functor",
    "relations",
    "derivations",
    "cli",
)
PACKAGE = "f4diagrams"

# Operators that the per-layer metrics name; other dunders (``__eq__``,
# ``__hash__``, ``__getitem__`` ...) run far too often and measure nothing a
# metric asks for.
_DUNDERS = {
    "Octonion": ("__mul__",),
    "DiagramCombo": ("__add__", "__sub__", "__neg__", "__matmul__"),
}

#: called after a traced call returns, with (args, kwargs, result, seconds)
Hook = Callable[[tuple, dict, object, float], None]


class Tracer:
    """Records one span per wrapped call; single-threaded by design."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.paused = False
        self.hooks: Dict[str, Hook] = {}
        self._index: Dict[int, List[int]] = {}
        self._index_size = -1

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, name: str, fn: Callable) -> Callable:
        sid = self._id(name)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            # A recursive call stays inside its outermost span.
            if tracer.paused or (stack and tracer.nid[stack[-1]] == sid):
                return fn(*args, **kwargs)
            i = len(tracer.nid)
            tracer.nid.append(sid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.start.append(clock())
            tracer.end.append(0.0)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = clock()
                stack.pop()
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(args, kwargs, result, tracer.end[i] - tracer.start[i])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the loaded layers.

        Layers that are not imported yet are skipped, so a process pays
        only for what it loads.
        """
        mods = {
            name: sys.modules[f"{PACKAGE}.{name}"]
            for name in LAYERS
            if f"{PACKAGE}.{name}" in sys.modules
        }
        wrapped: Dict[int, Callable] = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # Rebind each wrapped function under every name a module binds it to.
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    setattr(mod, attr, w)

    def _wrap_class(self, layer: str, cls: type) -> None:
        extra = _DUNDERS.get(cls.__name__, ())
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))

    # -- analysis ----------------------------------------------------------

    def group(self, names: Iterable[str]) -> Dict[str, float]:
        """Calls and inclusive seconds of a group of span names, counting a
        span only when no enclosing span belongs to the same group (so
        ``then`` calling ``compose`` counts once)."""
        ids = {self._ids[nm] for nm in names if nm in self._ids}
        calls, secs = 0, 0.0
        for sid in ids:
            for i in self._by_name().get(sid, ()):
                p = self.parent[i]
                while p >= 0 and self.nid[p] not in ids:
                    p = self.parent[p]
                if p < 0:
                    calls += 1
                    secs += self.end[i] - self.start[i]
        return {"calls": calls, "s": secs}

    def _by_name(self) -> Dict[int, List[int]]:
        if self._index_size != len(self.nid):
            self._index = {}
            for i, sid in enumerate(self.nid):
                self._index.setdefault(sid, []).append(i)
            self._index_size = len(self.nid)
        return self._index

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time per layer: each span's time minus its child spans'
        time, summed over the spans of the layer's functions."""
        n = len(self.nid)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        out = {layer: 0.0 for layer in LAYERS}
        for i in range(n):
            layer = layer_of[self.nid[i]]
            if layer in out:
                out[layer] += own[i]
        return out

    def write(self, path: str) -> None:
        """Write the spans as gzipped tab-separated rows: name, start, end,
        parent (the row index of the enclosing span, or -1)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.nid)):
                fh.write(
                    "%s\t%.9f\t%.9f\t%d\n"
                    % (self.names[self.nid[i]], self.start[i], self.end[i], self.parent[i])
                )
