"""Per-layer tracing by wrapping the program's public functions from outside.

`from .numeric import eigenvalues_sym` copies the reference into the importing
module, so each function is replaced at every module that binds it, found by
identity.  A span's self time is its duration minus the durations of the
spans that ran inside it; spans of one group (for example the closed forms)
add up into one number.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

MODULES = ("graph", "numeric", "spectra", "invariants", "cli")

Count = Callable[..., dict]

# (module, attribute, span group, counts taken from the arguments on entry,
# counts taken from the result on return).
SPANS: tuple[tuple[str, str, str, Optional[Count], Optional[Count]], ...] = (
    ("graph", "parse_edge_list", "graph.parse_edge_list", None, None),
    ("graph", "Graph.from_edges", "graph.Graph.from_edges", None, None),
    ("graph", "triangulate", "graph.triangulate",
     None, lambda r: {"vertices_out": r.num_vertices}),
    ("graph", "analyze", "graph.analyze", None, None),
    ("graph", "format_edge_list", "graph.format_edge_list", None, None),
    ("numeric", "normalized_laplacian", "numeric.normalized_laplacian", None, None),
    ("numeric", "eigenvalues_sym", "numeric.eigenvalues_sym",
     lambda m, *a, **k: {"order3_sum": m.order ** 3}, None),
    ("numeric", "resistance_distances", "numeric.resistance_distances",
     lambda g, *a, **k: {"order3_sum": g.num_vertices ** 3}, None),
    ("numeric", "spanning_trees_matrix_tree", "numeric.spanning_trees_matrix_tree",
     lambda g, *a, **k: {"order3_sum": (g.num_vertices - 1) ** 3}, None),
    ("spectra", "build_descriptor", "spectra.build_descriptor",
     None, lambda r: {"bands_out": len(r.exceptional)}),
    ("spectra", "descriptor_for", "spectra.descriptor_for", None, None),
    ("spectra", "reciprocal_sum", "spectra.reciprocal_sum", None, None),
    ("spectra", "expand_descriptor", "spectra.expand_descriptor",
     None, lambda r: {"values_out": len(r)}),
    ("invariants", "verify_all", "invariants.verify_all",
     lambda g, max_n, *a, **k: {"depths": max_n + 1},
     lambda r: {"oracle_depths": sum("direct_oracle" in x.routes["kf_star"]
                                     for x in r.reports)}),
    ("invariants", "seed_data", "invariants.seed_data", None, None),
    ("invariants", "kf_star_closed", "invariants.closed_forms", None, None),
    ("invariants", "kemeny_closed", "invariants.closed_forms", None, None),
    ("invariants", "spanning_trees_closed", "invariants.closed_forms", None, None),
    ("invariants", "kappa", "invariants.closed_forms", None, None),
    ("invariants", "kf_star_recursive", "invariants.recursions", None, None),
    ("invariants", "kemeny_recursive", "invariants.recursions", None, None),
    ("invariants", "spanning_trees_step", "invariants.recursions", None, None),
    ("invariants", "SpanningTreeCount.json_value",
     "invariants.SpanningTreeCount.json_value", None, None),
    ("cli", "main", "cli", None, None),
)


class Tracer:
    """Aggregates self time, inclusive time and counts per span group.

    `install()` replaces every traced function at every binding site;
    `uninstall()` puts the originals back.  Single-threaded by design: the
    benchmark drives the program from one client.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = {name: importlib.import_module(f"trispectral.{name}") for name in MODULES}
        for module, attr, group, on_entry, on_return in SPANS:
            name = f"{module}.{attr}"
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(modules[module], owner_name)
                raw = owner.__dict__[method]
                func = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(func, group, name, on_entry, on_return)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                self._patches.append((owner, method, raw, wrapped))
                continue
            original = getattr(modules[module], attr)
            wrapped = self._wrap(original, group, name, on_entry, on_return)
            for mod in modules.values():
                for binding, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, binding, original, wrapped))

    def _wrap(self, func, group: str, name: str, on_entry: Optional[Count],
              on_return: Optional[Count]):
        stack, self_s, inclusive_s, counts = self._stack, self.self_s, self.inclusive_s, self.counts
        calls_key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if on_entry is not None:
                for key, value in on_entry(*args, **kwargs).items():
                    counts[f"{name}.{key}"] += value
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_s[group] += elapsed - children[0]
                inclusive_s[group] += elapsed
            if on_return is not None:
                for key, value in on_return(result).items():
                    counts[f"{name}.{key}"] += value
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def install(self) -> None:
        for owner, name, _, wrapped in self._patches:
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def take(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Return and reset the totals gathered since the last call."""
        totals = (dict(self.self_s), dict(self.inclusive_s), dict(self.counts))
        self.self_s.clear()
        self.inclusive_s.clear()
        self.counts.clear()
        return totals
