"""Outside-in per-layer tracing of covdex, with no change to the program.

While a ``Tracer`` is active, each traced function is replaced by a timing
wrapper in every covdex module that holds a reference to it, and the
original objects are put back on exit.  Binding by reference matters:
``decomposer`` imports ``codensity`` by name while ``gupta_bound`` calls it
through ``density``'s globals, so both references must be swapped, and
``covdex.special_coloring`` is the re-exported function, not the module,
so modules are fetched with ``importlib.import_module``.

Spans nest: a layer's self time is its wall time minus the wall time of
traced calls made inside it.  Work counters are derived from arguments and
return values only, because the program keeps no counters of its own (the
colouring solver's node count, for one, is a local that is discarded).
"""

from __future__ import annotations

import importlib
import inspect
import sys
from dataclasses import dataclass
from math import comb
from time import perf_counter_ns

# Traced functions as (module, function); a span is named "module.function".
LAYERS = (
    ("decomposer", "decompose"),
    ("decomposer", "regularize"),
    ("decomposer", "puncture"),
    ("decomposer", "contract_blocks"),
    ("decomposer", "orient_and_augment"),
    ("decomposer", "map_back"),
    ("density", "gupta_bound"),
    ("density", "codensity"),
    ("density", "min_optimal_containing"),
    ("density", "all_min_optimal_sets"),
    ("multigraph", "split_off"),
    ("coloring", "find_coloring"),
    ("coloring", "is_proper"),
    ("coloring", "chain"),
    ("coloring", "kempe_swap"),
    ("special_coloring", "special_coloring"),
    ("special_coloring", "potentials"),
    ("dense_lift", "make_block"),
    ("dense_lift", "permute_block_palette"),
    ("dense_lift", "assemble_lift"),
    ("oracle", "verify_decomposition"),
)

# Stages that run only because blocks exist (or run trivially without them).
BLOCK_PATH = (
    "decomposer.contract_blocks",
    "special_coloring.special_coloring",
    "dense_lift.make_block",
    "dense_lift.permute_block_palette",
    "dense_lift.assemble_lift",
    "decomposer.orient_and_augment",
)

COUNTERS = (
    "density.odd_sets",
    "decomposer.splits",
    "decomposer.blocks",
    "decomposer.block_vertices",
    "decomposer.instances_with_blocks",
    "coloring.find_coloring.capped",
)


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def _universe_size(bound: inspect.BoundArguments) -> int:
    restrict = bound.arguments.get("restrict_to")
    return len(restrict) if restrict is not None else bound.arguments["g"].vertex_count


class Tracer:
    """Context manager that times the LAYERS and derives work counters."""

    def __init__(self) -> None:
        self.stats = {f"{m}.{f}": LayerStats() for m, f in LAYERS}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._modules = {m: importlib.import_module(f"covdex.{m}") for m, _ in LAYERS}
        self._derive = {
            "density.codensity": self._count_codensity,
            "density.min_optimal_containing": self._count_min_optimal,
            "decomposer.regularize": self._count_splits,
            "decomposer.puncture": self._count_blocks,
        }

    def __enter__(self) -> "Tracer":
        holders = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "covdex" or name.startswith("covdex.")
        ]
        try:
            for m, f in LAYERS:
                name = f"{m}.{f}"
                original = getattr(self._modules[m], f)
                wrapper = self._wrap(name, original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self.patched.append((holder, attr, original))
                            setattr(holder, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        for holder, attr, original in reversed(self.patched):
            setattr(holder, attr, original)

    def unrestored(self) -> list[str]:
        """Patched attributes that do not hold their original object."""
        return [
            f"{holder.__name__}.{attr}"
            for holder, attr, original in self.patched
            if getattr(holder, attr) is not original
        ]

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        derive = self._derive.get(name)
        signature = inspect.signature(fn) if derive is not None else None
        capped = name == "coloring.find_coloring"
        budget_exhausted = importlib.import_module("covdex.errors").BudgetExhausted

        def traced(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except budget_exhausted:
                if capped:
                    self.counters["coloring.find_coloring.capped"] += 1
                raise
            finally:
                elapsed = perf_counter_ns() - start
                inner = stack.pop()
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if derive is not None:
                derive(signature.bind(*args, **kwargs), result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_codensity(self, bound, result) -> None:
        size = _universe_size(bound)
        self.counters["density.odd_sets"] += sum(comb(size, s) for s in range(3, size + 1, 2))

    def _count_min_optimal(self, bound, cert) -> None:
        size = _universe_size(bound)
        restrict = bound.arguments.get("restrict_to")
        if restrict is not None and bound.arguments["x"] not in restrict:
            return
        # Sets of size s containing x number comb(size - 1, s - 1); the
        # search stops after the size level of the first certificate.
        largest = cert.size if cert is not None else size
        self.counters["density.odd_sets"] += sum(
            comb(size - 1, s - 1) for s in range(3, largest + 1, 2)
        )

    def _count_splits(self, bound, result) -> None:
        self.counters["decomposer.splits"] += len(result[1].records)

    def _count_blocks(self, bound, result) -> None:
        punctures = result[1]
        self.counters["decomposer.blocks"] += len(punctures)
        self.counters["decomposer.block_vertices"] += sum(len(p.block) for p in punctures)
        self.counters["decomposer.instances_with_blocks"] += bool(punctures)
