"""Spans around the calls into each ulamcode module, recorded from outside.

``Tracer.install`` replaces module-level names with wrappers that record a
span per call: name, layer, start, end, parent span and run id, plus a few
attributes read from the arguments and the result.  Spans stay in memory
until the caller writes them out.  The library itself is not changed.

A span's name is ``<namespace>:<function>``, the binding that was called;
its layer is the module that defines the function, so ``search:ulam_distance``
is a ``perm`` span made from inside ``search``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

# Explicit bindings to wrap, by namespace.  Besides these, every function
# ``ulamcode.cli`` imports from another ulamcode module is wrapped.
TARGETS = {
    "ulamcode.cli": ("main",),
    "ulamcode.search": (
        "find_singleton_optimal",
        "max_code_search",
        "sphere_packing_bounds",
        "ulam_distance",
        "_lis_lengths_batch",
    ),
    "ulamcode.ilp": ("solve_lp",),
    "ulamcode.ball": ("lis_distribution_exact", "sample_lis_lengths", "_lis_lengths_batch"),
}


def _search_attrs(args, result):
    return {"n": args[0].n, "d": args[0].d, "nodes": result.nodes_explored}


# Attributes recorded per function, read from positional arguments and the result.
ATTRS = {
    "_lis_lengths_batch": lambda args, result: {"rows": args[0].shape[0], "n": args[0].shape[1]},
    "find_singleton_optimal": _search_attrs,
    "max_code_search": _search_attrs,
    "solve_ilp": lambda args, result: {
        "n": args[0].n, "d": args[0].d,
        "nodes": result.nodes_explored, "value": result.objective_value,
    },
    "solve_lp": lambda args, result: {"rows": len(args[1])},
    "sample_lis_lengths": lambda args, result: {"n": args[0], "samples": args[1]},
    "lis_distribution_exact": lambda args, result: {"n": args[0]},
}


class Tracer:
    """Collects spans; ``run`` is the id of the operation in progress."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        layer = fn.__module__.rpartition(".")[2]
        attrs = ATTRS.get(fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            span = [sid, self._stack[-1] if self._stack else None, self.run, name, layer,
                    0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(sid)
            span[5] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[6] = perf_counter()
                self._stack.pop()
            if attrs is not None:
                try:
                    span[7] = attrs(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # the signature changed; metrics reading these attributes go missing
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target binding; a binding that no longer exists is
        recorded in ``missing`` instead of failing the run."""
        cli = importlib.import_module("ulamcode.cli")
        imported = [
            attr for attr, value in vars(cli).items()
            if inspect.isfunction(value)
            and value.__module__.startswith("ulamcode.")
            and value.__module__ != cli.__name__
        ]
        targets = dict(TARGETS)
        targets["ulamcode.cli"] = tuple(targets["ulamcode.cli"]) + tuple(imported)
        for module_name, attrs in targets.items():
            module = importlib.import_module(module_name)
            namespace = module_name.rpartition(".")[2]
            for attr in attrs:
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(f"{namespace}:{attr}")
                    continue
                setattr(module, attr, self.wrap(fn, f"{namespace}:{attr}"))
