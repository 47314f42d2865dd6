"""Cold-start control and layer tracing for gencosec, applied from outside.

The benchmark never edits the package.  ``discover_caches`` finds every
``functools`` cache the package defines, so each operation can start cold
the way a fresh CLI process does.  ``Tracer`` records a span around each
call into a layer by rebinding the package's public callables to timing
wrappers, and puts the original objects back afterwards.

Spans live in flat arrays (name, start, end, parent, operation) and are
written out only when a run ends.  A layer's self time is its spans'
duration minus the part of each span that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from collections import Counter
from types import ModuleType
from typing import Any, Callable, Sequence

PACKAGE = "gencosec"

#: Class methods traced besides each module's public functions, keyed by
#: the layer name they report under.
METHODS = {
    "exactnum.RhoPolynomial.add": "__add__",
    "exactnum.RhoPolynomial.mul": "__mul__",
    "exactnum.RhoPolynomial.scale": "scale",
    "exactnum.RhoPolynomial.times_rho": "times_rho",
    "genseries.OracleStream.extend": "extend",
    "symzeta.PowerSums.build": "build",
}

#: Layers whose results are rows (polynomials in rho); the bit lengths of
#: their coefficients give ``row_bits_max``.
ROW_PRODUCERS = frozenset(
    {
        "genseries.partition_transform",
        "genseries.gen_cosecant",
        "genseries.gen_secant",
        "genseries.OracleStream.extend",
    }
)


def package_modules(package: str = PACKAGE) -> dict[str, ModuleType]:
    """Import every submodule of ``package``; return them by short name.

    The package itself is keyed by its own name, each submodule by the
    part after ``package.``, so ``gencosec.exactnum`` becomes ``exactnum``.
    Names starting with ``_`` (such as a ``__main__``) are not imported.
    """
    root = importlib.import_module(package)
    for info in pkgutil.iter_modules(root.__path__):
        if not info.name.startswith("_"):
            importlib.import_module(f"{package}.{info.name}")
    prefix = package + "."
    modules = {package: root}
    for name, module in list(sys.modules.items()):
        if name.startswith(prefix) and module is not None:
            modules[name[len(prefix):]] = module
    return modules


def _short_name(module_name: str, qualname: str) -> str:
    module = module_name.split(".", 1)[1] if "." in module_name else module_name
    return f"{module}.{qualname}"


def discover_caches(modules: dict[str, ModuleType]) -> dict[str, Any]:
    """Every functools cache defined in the given modules, by layer name.

    Looks at module-level objects and at the attributes of classes the
    modules define (plain, class and static methods).  A cache imported
    from another module is found once, under the module that defines it.
    """
    found: dict[str, Any] = {}
    for module in modules.values():
        for obj in list(vars(module).values()):
            candidates = [obj]
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                candidates += [getattr(m, "__func__", m) for m in vars(obj).values()]
            for cand in candidates:
                if not (
                    callable(getattr(cand, "cache_clear", None))
                    and callable(getattr(cand, "cache_info", None))
                ):
                    continue
                owner = getattr(cand, "__module__", "") or ""
                if owner in (m.__name__ for m in modules.values()):
                    found[_short_name(owner, cand.__qualname__)] = cand
    return found


def reset_caches(caches: dict[str, Any]) -> None:
    for cache in caches.values():
        cache.cache_clear()


class Spans:
    """Spans in parallel arrays, indexed in the order they opened."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.outermost = array("b")
        self.op_id = -1
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.outermost.append(self._active[nid] == 0)
        self._active[nid] += 1
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()
        self._active[self.name[idx]] -= 1

    @property
    def open_count(self) -> int:
        return len(self._stack)

    def write(self, path: str) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n"
                )


def self_times(
    start: Sequence[float], end: Sequence[float], parent: Sequence[int]
) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Spans must be indexed in the order they opened, so each parent sees
    its children sorted by start; child intervals are clipped to the
    parent's own interval before they are merged.
    """
    n = len(start)
    covered = [0.0] * n
    reach = list(start)  # per parent: furthest end covered so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


class _TimedIterator:
    """Times each ``next()`` of a generator as one span, nothing else."""

    __slots__ = ("_it", "_nid", "_tracer")

    def __init__(self, it, nid: int, tracer: "Tracer"):
        self._it = it
        self._nid = nid
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        idx = tracer.spans.open(self._nid)
        try:
            item = next(self._it)
        except StopIteration:
            tracer.spans.close(idx)
            raise
        except BaseException:
            tracer.spans.close(idx)
            tracer.errors[self._nid] += 1
            raise
        tracer.spans.close(idx)
        tracer.yielded[self._nid] += 1
        return item


class Tracer:
    """Wraps the public callables of every package module in timing spans.

    The traced set is each module's ``__all__`` functions that the module
    itself defines, plus ``METHODS``.  Wrappers sit outside any
    ``lru_cache``, so cache hits are counted as calls.  ``install`` rebinds
    every module-level name (and module-level dict value) that refers to a
    traced object, which covers ``from .x import f`` copies and dispatch
    tables; ``uninstall`` restores each original binding.  A layer that no
    longer exists is simply not traced and reports zero calls.
    """

    def __init__(
        self,
        modules: dict[str, ModuleType],
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.modules = modules
        self.spans = Spans(clock)
        self.calls: Counter = Counter()
        self.yielded: Counter = Counter()
        self.errors: Counter = Counter()
        self.row_bits_max = 0
        self._functions: dict[int, tuple[Any, Callable]] = {}
        self._methods: list[tuple[type, str, Any, Any]] = []
        self._restore: list[Callable[[], None]] = []
        for module in modules.values():
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr, None)
                if (
                    callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    name = _short_name(module.__name__, attr)
                    self._functions[id(obj)] = (obj, self._wrap(name, obj))
        for name, attr in METHODS.items():
            short, cls_name, _ = name.split(".")
            cls = getattr(modules.get(short), cls_name, None)
            if not isinstance(cls, type) or attr not in vars(cls):
                continue
            original = vars(cls)[attr]
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            self._methods.append((cls, attr, original, replacement))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self.spans.name_id(name)
        spans = self.spans
        calls = self.calls
        errors = self.errors

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                calls[nid] += 1
                return _TimedIterator(fn(*args, **kwargs), nid, self)

            return traced_generator

        rows = name in ROW_PRODUCERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            idx = spans.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.close(idx)
                errors[nid] += 1
                raise
            spans.close(idx)
            if rows:
                self._note_row(result)
            return result

        return traced

    def _note_row(self, row) -> None:
        for c in getattr(row, "coefficients", ()):
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > self.row_bits_max:
                self.row_bits_max = bits

    def install(self, op_id: int) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.spans.op_id = op_id
        functions = self._functions
        for module in self.modules.values():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
                    self._restore.append(functools.partial(setattr, module, key, value))
                elif isinstance(value, dict) and not key.startswith("__"):
                    self._rebind_dict(value)
        for cls, attr, original, replacement in self._methods:
            setattr(cls, attr, replacement)
            self._restore.append(functools.partial(setattr, cls, attr, original))

    def _rebind_dict(self, table: dict) -> None:
        for key, value in list(table.items()):
            hit = self._functions.get(id(value))
            if hit is not None and hit[0] is value:
                table[key] = hit[1]
                self._restore.append(functools.partial(table.__setitem__, key, value))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()
        if self.spans.open_count:
            raise RuntimeError(f"{self.spans.open_count} spans left open")

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, yielded, errors, self_s and total_s.

        ``total_s`` sums only outermost spans of a layer, so recursion
        (``pochhammer_poly`` calls itself) is not counted twice.
        """
        spans = self.spans
        selfs = self_times(spans.start, spans.end, spans.parent)
        totals = {
            name: {"calls": 0, "yielded": 0, "errors": 0, "self_s": 0.0, "total_s": 0.0}
            for name in spans.names
        }
        for i, own in enumerate(selfs):
            entry = totals[spans.names[spans.name[i]]]
            entry["self_s"] += own
            if spans.outermost[i]:
                entry["total_s"] += spans.end[i] - spans.start[i]
        for counter, key in ((self.calls, "calls"), (self.yielded, "yielded"), (self.errors, "errors")):
            for nid, count in counter.items():
                totals[spans.names[nid]][key] = count
        return totals


def add_cache_counts(total: dict[str, list[int]], caches: dict[str, Any]) -> None:
    """Add each cache's (hits, misses) since its last reset to ``total``."""
    for name, cache in caches.items():
        info = cache.cache_info()
        entry = total.setdefault(name, [0, 0])
        entry[0] += info.hits
        entry[1] += info.misses
