"""Outside-in layer tracing: wrap a program's public functions in place.

A :class:`Tracer` replaces named functions and methods with thin
wrappers and keeps a span stack in memory.  Each wrapped call whose
caller is in another layer opens a span; a call from inside its own
layer passes straight through, so a layer's recursion or internal helper
calls never double-count.  When a span closes, its duration minus the
time its child spans covered is added to the layer's *self time*, and
its full duration to the (parent layer -> layer) edge.  Self times of
all layers therefore sum exactly to the time spent inside top-level
spans (``totals()["wall_s"]``).

Nothing is written while the program runs: totals live in memory until
:meth:`Tracer.totals` is read.  The wrappers only observe — arguments,
results and exceptions pass through unchanged — so a traced run must
produce the same bytes as an untraced one (the benchmark checks this).

Target paths::

    "pkg.mod:func"          a module-level function; every module of the
                            traced package that bound the same object
                            (``from .mod import func``) is rebound too
    "pkg.mod:Class.meth"    one method (set on ``Class`` even if inherited)
    "pkg.mod:Class.*"       every plain function defined in ``Class``
                            (``__init__`` included, other dunders not;
                            functions an earlier target wraps are kept)
    "pkg.mod:Base+.meth"    ``meth`` on ``Base`` and on every loaded
                            subclass that defines its own
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Target", "Tracer", "ONE", "leftover_wrappers"]

# fn(state, args, result) -> amount added to a named counter.  ``state``
# is a per-phase dict the counter may keep memory in (cleared by reset).
Counter = Tuple[str, Callable[[Dict[str, Any], tuple, Any], float]]

_MISSING = object()
_ROOT = ""          # layer name of the sentinel frame under every span
_MARK = "__bench_original__"


def ONE(state: Dict[str, Any], args: tuple, result: Any) -> int:
    """Counter function: one per call."""
    return 1


@dataclass(frozen=True)
class Target:
    """A function or method to wrap, the layer it belongs to, its counters.

    Counters run after every call that returns, spans or not.
    """

    layer: str
    path: str
    counters: Tuple[Counter, ...] = ()


class Tracer:
    """Span stack + per-layer / per-edge aggregation for wrapped calls.

    ``calls`` and ``errors`` count spans: calls into a layer from another
    layer, and those that raised.  A call made from inside its own layer
    is no span and is not counted there.
    """

    def __init__(self, package: str = "repro"):
        self.package = package
        # Open spans, root sentinel first: their layers, and the time
        # their children have covered so far.
        self._layers: List[str] = [_ROOT]
        self._child: List[float] = [0.0]
        # Per layer: [self seconds], {parent layer: seconds}, [spans,
        # failed spans].  Wrappers hold these objects, so they are zeroed
        # in place, never rebound.
        self._self: Dict[str, List[float]] = {}
        self._edges: Dict[str, Dict[str, float]] = {}
        self._cells: Dict[str, List[int]] = {}
        self.counts: Dict[str, float] = defaultdict(int)
        self.state: Dict[str, Any] = {}
        self.missing: List[str] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        self.installed = False

    # ------------------------------------------------------------ totals

    def reset(self) -> None:
        """Zero every total in place (wrappers hold references to them)."""
        if len(self._layers) != 1:
            raise RuntimeError("cannot reset inside an open span")
        self._child[0] = 0.0
        for acc in self._self.values():
            acc[0] = 0.0
        for into in self._edges.values():
            into.clear()
        for cell in self._cells.values():
            cell[0] = cell[1] = 0
        self.counts.clear()
        self.state.clear()

    def totals(self) -> Dict[str, Any]:
        """Totals since the last reset, as plain JSON-able data."""
        return {
            "wall_s": self._child[0],
            "self_s": {layer: acc[0] for layer, acc in sorted(self._self.items())},
            "edges": {f"{parent or '-'}>{child}": seconds
                      for child, into in sorted(self._edges.items())
                      for parent, seconds in sorted(into.items())},
            "calls": {layer: cell[0] for layer, cell in sorted(self._cells.items())},
            "errors": {layer: cell[1] for layer, cell in sorted(self._cells.items())
                       if cell[1]},
            "counts": dict(sorted(self.counts.items())),
        }

    # ----------------------------------------------------------- wrapping

    def install(self, targets: Sequence[Target]) -> int:
        """Wrap every target in place; returns the number of wrappers.

        A path that names nothing (the code moved on) is skipped and
        listed in :attr:`missing`, so a refactor loses that seam's
        attribution instead of the whole trace.
        """
        if self.installed:
            raise RuntimeError("tracer already installed")
        self.installed = True
        try:
            for target in targets:
                try:
                    found = _resolve(target.path)
                except (ImportError, AttributeError, LookupError):
                    self.missing.append(target.path)
                    continue
                for owner, name, original, is_class in found:
                    if hasattr(original, _MARK):
                        continue    # an earlier target already wraps it
                    wrapper = self._wrapper(original, target.layer,
                                            target.counters)
                    setattr(wrapper, _MARK, original)
                    if is_class:
                        self._restore.append(
                            (owner, name, owner.__dict__.get(name, _MISSING)))
                        setattr(owner, name, wrapper)
                    else:
                        for module in _package_modules(self.package):
                            for attr, value in list(vars(module).items()):
                                if value is original:
                                    self._restore.append((module, attr, original))
                                    setattr(module, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise
        return len(self._restore)

    def uninstall(self) -> None:
        """Put every original back, newest first; idempotent."""
        while self._restore:
            owner, name, original = self._restore.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        # A module imported while tracing may have bound a wrapper by
        # name (``from .mod import func``): point it at the original.
        for module in _package_modules(self.package):
            for attr, value in list(vars(module).items()):
                original = getattr(value, _MARK, None)
                if original is not None and callable(value):
                    setattr(module, attr, original)
        self.installed = False

    def _wrapper(self, fn: Callable, layer: str,
                 counters: Tuple[Counter, ...]) -> Callable:
        # Span bookkeeping uses only preallocated lists and floats: a
        # list or dict allocated per call would add garbage-collector
        # passes that the untraced run does not make.
        layers = self._layers
        child = self._child
        acc = self._self.setdefault(layer, [0.0])
        into = self._edges.setdefault(layer, defaultdict(float))
        cell = self._cells.setdefault(layer, [0, 0])
        counts = self.counts
        state = self.state
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = layers[-1]
            if parent == layer:
                result = fn(*args, **kwargs)
            else:
                cell[0] += 1
                layers.append(layer)
                child.append(0.0)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    cell[1] += 1
                    raise
                finally:
                    elapsed = perf() - start
                    layers.pop()
                    acc[0] += elapsed - child.pop()
                    child[-1] += elapsed
                    into[parent] += elapsed
            for name, count in counters:
                counts[name] += count(state, args, result)
            return result

        return _named(wrapper, fn)


def leftover_wrappers(package: str = "repro") -> List[str]:
    """Names of tracer wrappers still reachable from the package's modules
    or their classes (empty after a clean :meth:`Tracer.uninstall`)."""
    found = []
    for module in _package_modules(package):
        for attr, value in vars(module).items():
            if hasattr(value, _MARK) and callable(value):
                found.append(f"{module.__name__}:{attr}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found.extend(f"{module.__name__}:{value.__qualname__}.{name}"
                             for name, member in vars(value).items()
                             if hasattr(member, _MARK))
    return sorted(set(found))


# ------------------------------------------------------------- resolution


def _resolve(path: str) -> List[Tuple[Any, str, Any, bool]]:
    """(owner, attribute, original, is_class_attribute) for one path."""
    module_name, _, qual = path.partition(":")
    module = importlib.import_module(module_name)
    if "." not in qual:
        return [(module, qual, getattr(module, qual), False)]
    class_name, attr = qual.rsplit(".", 1)
    with_subclasses = class_name.endswith("+")
    cls = getattr(module, class_name.rstrip("+"))
    classes = [cls] + (_subclasses(cls) if with_subclasses else [])
    found = []
    for owner in classes:
        if attr == "*":
            names = [name for name, value in vars(owner).items()
                     if isinstance(value, types.FunctionType)
                     and (not name.startswith("__") or name == "__init__")]
        elif with_subclasses:
            names = [attr] if attr in vars(owner) else []
        else:
            names = [attr]
        for name in names:
            value = getattr(owner, name)
            function = getattr(value, "__func__", value)
            if not isinstance(vars(owner).get(name, function), types.FunctionType):
                raise TypeError(f"{path}: {owner.__name__}.{name} is not a "
                                f"plain method")
            found.append((owner, name, function, True))
    if not found:
        raise LookupError(f"{path} matches nothing")
    return found


def _subclasses(cls: type) -> List[type]:
    out: List[type] = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return list(dict.fromkeys(out))


def _package_modules(package: str) -> List[types.ModuleType]:
    prefix = package + "."
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == package or name.startswith(prefix))]


def _named(wrapper: Callable, fn: Callable) -> Callable:
    for attr in ("__name__", "__qualname__", "__doc__", "__module__"):
        try:
            setattr(wrapper, attr, getattr(fn, attr))
        except (AttributeError, TypeError):
            pass
    return wrapper
