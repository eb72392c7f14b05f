"""Per-layer tracing of propb from outside the package.

`Tracer.install` replaces each probed public function, in every propb module
that binds it, with a wrapper that records a span while an op is open.
`Tracer.restore` puts the originals back and checks that it did.  Nothing
under ``src/`` changes, so the traced code is the code users run.

`_bits` is not probed: its helpers run millions of times per op, so wrapping
them would time the wrapper, not the helper.  Its cost shows as self time of
the callers.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

# A 2**16-colouring block is the census's unit of work in the ROADMAP; the
# count is derived from the vertex count, not read from the engine.
CENSUS_BLOCK_BITS = 16

CountFn = Callable[[tuple, dict, Any], dict[str, int]]


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _census_name(args: tuple, kwargs: dict) -> str:
    materialize = _arg(args, kwargs, 1, "materialize", False)
    return "colouring.census_materialize" if materialize else "colouring.census_count"


def _census_counts(args: tuple, kwargs: dict, report: Any) -> dict[str, int]:
    v = _arg(args, kwargs, 0, "h").v
    scan_bits = max(v - 1, 0)
    return {
        "edges": _arg(args, kwargs, 0, "h").edge_count,
        "proper": report.total_proper,
        "colourings_scanned": 1 << scan_bits,
        "blocks": 1 << max(scan_bits - CENSUS_BLOCK_BITS, 0),
    }


def _alteration_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    h, report = result
    return {
        "survivors": report.survivor_count,
        "blocking_edges": h.edge_count - report.h1.edge_count,
        "retries": report.retries_used,
    }


def _decide_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    return {"colourable": 1} if result[0] else {"uncolourable": 1}


@dataclass(frozen=True)
class Probe:
    """One probed function and how to name and count its calls."""

    module: str
    func: str
    name: Callable[[tuple, dict], str] | None = None
    counts: CountFn | None = None

    @property
    def layer(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.func}"


PROBES = (
    Probe("propb.cli", "cli"),
    Probe("propb.formats", "parse", counts=lambda a, k, r: {"bytes": len(_arg(a, k, 0, "text"))}),
    Probe("propb.formats", "serialize", counts=lambda a, k, r: {"bytes": len(r)}),
    Probe("propb.alteration", "run_alteration", counts=_alteration_counts),
    Probe(
        "propb.alteration",
        "sample_uniform_edges",
        counts=lambda a, k, r: {"edges_drawn": _arg(a, k, 2, "m")},
    ),
    Probe("propb.core", "make_hypergraph", counts=lambda a, k, r: {"edges": r.edge_count}),
    Probe("propb.core", "union", counts=lambda a, k, r: {"edges": r.edge_count}),
    Probe("propb.core", "q_value", counts=lambda a, k, r: {"edges": _arg(a, k, 0, "h").edge_count}),
    Probe("propb.colouring", "enumerate_proper", name=_census_name, counts=_census_counts),
    Probe("propb.colouring", "is_two_colourable", counts=_decide_counts),
    Probe("propb.colouring", "pair_opposites"),
    Probe("propb.constructions", "affine_plane_gf4"),
    Probe("propb.constructions", "derive_h8"),
    Probe("propb.analysis", "verify_paper_example"),
    Probe(
        "propb.analysis",
        "design_check",
        counts=lambda a, k, r: {
            "subsets": math.comb(_arg(a, k, 1, "point_count"), _arg(a, k, 2, "t"))
        },
    ),
)

# Span names the probes produce; enumerate_proper splits by its materialize flag.
LAYERS = (
    "cli.cli",
    "formats.parse",
    "formats.serialize",
    "alteration.run_alteration",
    "alteration.sample_uniform_edges",
    "core.make_hypergraph",
    "core.union",
    "core.q_value",
    "colouring.census_materialize",
    "colouring.census_count",
    "colouring.is_two_colourable",
    "colouring.pair_opposites",
    "constructions.affine_plane_gf4",
    "constructions.derive_h8",
    "analysis.verify_paper_example",
    "analysis.design_check",
)
COUNTS = {
    "colouring.census_materialize": ("edges", "proper", "colourings_scanned", "blocks"),
    "colouring.census_count": ("edges", "proper", "colourings_scanned", "blocks"),
    "colouring.is_two_colourable": ("colourable", "uncolourable"),
    "alteration.run_alteration": ("survivors", "blocking_edges", "retries"),
    "alteration.sample_uniform_edges": ("edges_drawn",),
    "core.make_hypergraph": ("edges",),
    "core.union": ("edges",),
    "core.q_value": ("edges",),
    "formats.parse": ("bytes",),
    "formats.serialize": ("bytes",),
    "analysis.design_check": ("subsets",),
}
ROOT = "op"


class Tracer:
    """Spans and counts for the calls made while an op is open.

    A span is ``[name, start, end, parent, op]`` where ``parent`` indexes
    ``spans`` (None for an op's root).  Spans stay in memory until the run
    ends.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._bound: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        """Rebind every probed function in every loaded propb module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "propb"]
        for probe in PROBES:
            original = getattr(sys.modules[probe.module], probe.func)
            wrapper = self._wrap(probe, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bound.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every original back; raises if any binding is still a wrapper."""
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        stale = [f"{m.__name__}.{a}" for m, a, o in self._bound if getattr(m, a) is not o]
        self._bound = []
        if stale:
            raise RuntimeError(f"bindings not restored: {stale}")

    def _wrap(self, probe: Probe, original: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return original(*args, **kwargs)
            name = probe.name(args, kwargs) if probe.name else probe.layer
            result = tracer._call(name, original, args, kwargs)
            if probe.counts is not None:
                for key, value in probe.counts(args, kwargs, result).items():
                    tracer.counts[f"{name}.{key}"] += value
            return result

        return traced

    def _call(self, name: str, func: Callable, args: tuple, kwargs: dict) -> Any:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return func(*args, **kwargs)
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def run_op(self, op_id: int, func: Callable, *args: Any) -> Any:
        """Call func under a root span for op `op_id`."""
        self.op = op_id
        try:
            return self._call(ROOT, func, args, {})
        finally:
            self.op = None


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, op in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent, op), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer calls, busy and self time, errors and counts, by metric name."""
    selfs = self_times(tracer.spans)
    busy: Counter[str] = Counter()
    own: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for span, self_s in zip(tracer.spans, selfs):
        busy[span[0]] += span[2] - span[1]
        own[span[0]] += self_s
        calls[span[0]] += 1
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_s"] = float(busy[layer])
        out[f"{layer}.self_s"] = float(own[layer])
        out[f"{layer}.errors"] = tracer.errors[layer]
        for key in COUNTS.get(layer, ()):
            out[f"{layer}.{key}"] = tracer.counts[f"{layer}.{key}"]
    for layer in ("colouring.census_materialize", "colouring.census_count"):
        scanned = out[f"{layer}.colourings_scanned"]
        out[f"{layer}.ns_per_colouring"] = 1e9 * busy[layer] / scanned if scanned else 0.0
    census = busy["colouring.census_count"]
    decide = busy["colouring.is_two_colourable"]
    out["colouring.decide_over_count"] = decide / census if census else 0.0
    return out


def root_self_gap(tracer: Tracer) -> float:
    """Largest gap, over ops, between the sum of self times and the root's duration."""
    selfs = self_times(tracer.spans)
    sums: Counter[int] = Counter()
    walls: dict[int, float] = {}
    for span, self_s in zip(tracer.spans, selfs):
        sums[span[4]] += self_s
        if span[3] is None:
            walls[span[4]] = span[2] - span[1]
    return max((abs(sums[op] - wall) for op, wall in walls.items()), default=0.0)
