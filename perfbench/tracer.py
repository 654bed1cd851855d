"""Per-layer tracing from outside the package: wrap each layer's public
entry points at every module that binds them, and keep one span stack.

A layer is a module of ``richmult``.  Every public function a layer module
defines is replaced by a wrapper in the defining module and in every
module that imported the name (``from .charts import schubert_ideal``
binds a second reference in ``engine`` and ``cli``, so patching only
``charts`` would miss those calls).  The number of sites patched is
checked against the module-level ``from ... import`` statements found by
parsing the package source, so a binding made some other way (an alias
assignment, say) stops the run instead of hiding calls.

One stack of open spans is kept.  A span's self time is its duration
minus the durations of the spans opened directly inside it, so the self
times of all spans add up to the time covered by the outermost spans.
``poly`` is the arithmetic substrate and is not wrapped: wrapping every
polynomial operation would cost more than the work it measures, so its
time is charged to the layer that called it.  Functions of modules
outside ``LAYERS`` are likewise charged to their caller.  A layer
module or function that no longer exists reads as zero calls and zero
seconds, so a refactor changes the numbers instead of breaking the run.

Only :func:`install` changes the package, and :meth:`Tracer.uninstall`
undoes every change; a process that never calls :func:`install` runs the
package unmodified.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

PACKAGE = "richmult"
LAYERS = ("weyl", "groebner", "hilbert", "localmult", "charts", "engine", "quadric", "cli")
# PolyIdeal methods that do work (basis computation, membership, keys).
POLYIDEAL_METHODS = (
    "groebner", "is_unit", "contains", "leading_exponents", "vanishes_at", "canonical_key",
)
CACHES = ("_MULT_CACHE", "_DIM_CACHE", "_DEGREE_CACHE")


class TraceSetupError(RuntimeError):
    """The patches could not be installed completely."""


class CountingDict(dict):
    """A memo table that counts ``get`` hits and misses."""

    def __init__(self, *args):
        super().__init__(*args)
        self.hits = 0
        self.misses = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value


def _coeff_bits(basis) -> int:
    bits = 0
    for g in basis:
        for c in g.terms.values():
            c = Fraction(c)
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    """Span bookkeeping for the wrapped functions of one process."""

    def __init__(self):
        self.names: list[str] = []  # "layer.function" per wrapped function
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.layer_self_ns = {layer: 0 for layer in LAYERS}
        self.layer_entries = {layer: 0 for layer in LAYERS}
        self.max_basis_len = 0
        self.max_coeff_bits = 0
        self._stack: list = []  # open spans: [layer, child_ns]
        self._undo: list = []  # (owner, attribute, original)
        self.sites: dict[str, int] = {}

    def reset(self):
        """Zero the counters; patches stay installed."""
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        for layer in LAYERS:
            self.layer_self_ns[layer] = 0
            self.layer_entries[layer] = 0
        self.max_basis_len = 0
        self.max_coeff_bits = 0
        for name in CACHES:
            table = getattr(sys.modules.get(f"{PACKAGE}.engine"), name, None)
            if isinstance(table, CountingDict):
                table.hits = table.misses = 0

    def _wrap(self, layer: str, name: str, fn, post=None):
        index = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.calls.append(0)
        self.self_ns.append(0)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = stack[-1][0] if stack else None
            span = [layer, 0]
            stack.append(span)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                own = duration - span[1]
                if stack:
                    stack[-1][1] += duration
                tracer.calls[index] += 1
                tracer.self_ns[index] += own
                tracer.layer_self_ns[layer] += own
                if outer != layer:
                    tracer.layer_entries[layer] += 1
            if post is not None:
                post(result)
            return result

        return wrapper

    def _basis_stats(self, basis):
        self.max_basis_len = max(self.max_basis_len, len(basis))
        self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(basis))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reading the counters -------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[self.names.index(name)] if name in self.names else 0

    def seconds(self, name: str) -> float:
        return self.self_ns[self.names.index(name)] / 1e9 if name in self.names else 0.0

    def layer_seconds(self, layer: str) -> float:
        return self.layer_self_ns[layer] / 1e9

    def cache_hit_ratio(self, cache: str) -> float:
        """Hits over lookups; 0 without lookups or without the table."""
        table = getattr(sys.modules.get(f"{PACKAGE}.engine"), cache, None)
        if not isinstance(table, CountingDict):
            return 0.0
        lookups = table.hits + table.misses
        return table.hits / lookups if lookups else 0.0


def _package_modules():
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }


def _declared_sites(src_dir: Path) -> dict[tuple[str, str], int]:
    """(defining layer, name) -> 1 + number of module-level imports of the
    name by any package module, read from the source."""
    sites: dict[tuple[str, str], int] = {}
    for path in sorted((src_dir / PACKAGE).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level == 1:
                origin = node.module
            elif node.level == 0 and node.module.startswith(PACKAGE + "."):
                origin = node.module[len(PACKAGE) + 1:]
            else:
                continue
            for alias in node.names:
                key = (origin, alias.name)
                sites[key] = sites.get(key, 0) + 1
    return sites


def install(src_dir: Path) -> Tracer:
    """Wrap every public function of every layer at all its binding sites,
    the working PolyIdeal methods, and those of the engine's memo tables
    that exist."""
    tracer = Tracer()
    for layer in LAYERS:
        try:
            importlib.import_module(f"{PACKAGE}.{layer}")
        except ModuleNotFoundError:
            continue
    modules = _package_modules()
    declared = _declared_sites(src_dir)
    try:
        for layer in LAYERS:
            mod = modules.get(f"{PACKAGE}.{layer}")
            for name, fn in list(vars(mod).items()) if mod else ():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                post = tracer._basis_stats if (layer, name) == ("groebner", "reduced_groebner_basis") else None
                wrapper = tracer._wrap(layer, name, fn, post)
                patched = 0
                for owner in modules.values():
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            tracer._undo.append((owner, attr, fn))
                            setattr(owner, attr, wrapper)
                            patched += 1
                expected = 1 + declared.get((layer, name), 0)
                if patched != expected:
                    raise TraceSetupError(
                        f"{layer}.{name}: patched {patched} binding sites, "
                        f"the source declares {expected}"
                    )
                tracer.sites[f"{layer}.{name}"] = patched

        cls = getattr(modules.get(f"{PACKAGE}.groebner"), "PolyIdeal", None)
        for name in POLYIDEAL_METHODS:
            fn = vars(cls).get(name) if cls else None
            if fn is None:
                continue
            tracer._undo.append((cls, name, fn))
            setattr(cls, name, tracer._wrap("groebner", f"PolyIdeal.{name}", fn))
            tracer.sites[f"groebner.PolyIdeal.{name}"] = 1

        engine = modules.get(f"{PACKAGE}.engine")
        for name in CACHES:
            table = getattr(engine, name, None)
            if isinstance(table, dict):
                tracer._undo.append((engine, name, table))
                setattr(engine, name, CountingDict(table))

    except BaseException:
        tracer.uninstall()
        raise
    tracer.reset()
    return tracer
