"""Per-layer spans recorded from outside the program.

`LayerTracer.install()` replaces public functions of the `statebc` modules with
wrappers that record one span per call: name, start, end, parent span and run
id (the index of the CLI command being served). Every module attribute bound
to a wrapped function is replaced, so aliases such as `statebc.cli.capacity_polygon`
or `statebc.outerbound.entropy` are traced too. Spans stay in memory until
`write_spans` saves them at the end of the process.

`iter_lattice` is a generator: each `next()` on it is one span, so lattice
time is the time spent producing blocks, not the consumer's loop body.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _rows(arr, axis: int = -1) -> int:
    """Number of distributions in a batch whose `axis` holds one distribution."""
    a = np.asarray(arr)
    return a.size // a.shape[axis] if a.ndim else 1


def _count_entropy(counts, args, kwargs, result):
    p = np.asarray(args[0])
    counts["infotheory.entropy.rows"] += _rows(p, kwargs.get("axis", args[1] if len(args) > 1 else -1))
    # Computed from the input's size as float64, not measured traffic.
    counts["kernel.bytes_computed"] += p.size * 8


def _count_component_entropies(counts, args, kwargs, result):
    counts["channel.component_entropies.rows"] += _rows(args[1])


def _count_evals(name):
    def count(counts, args, kwargs, result):
        counts[name + ".evals"] += int(result.evaluations)

    return count


# (module, function, span name). A span name's prefix is the layer.
TRACED = (
    ("statebc.cli", "main", "cli.main"),
    ("statebc.regions", "capacity_polygon", "regions.capacity_polygon"),
    ("statebc.regions", "proposition_regions", "regions.proposition_regions"),
    ("statebc.regions", "primed_regions", "regions.primed_regions"),
    ("statebc.regions", "support_inner", "regions.support_inner"),
    ("statebc.regions", "halfplane_vertices", "regions.halfplane_vertices"),
    ("statebc.regions", "make_polygon", "regions.make_polygon"),
    ("statebc.regions", "pareto_front", "regions.pareto_front"),
    ("statebc.outerbound", "verify_converse", "outerbound.verify_converse"),
    ("statebc.outerbound", "support_outer", "outerbound.support_outer"),
    ("statebc.simplexopt", "maximize_simplex", "simplexopt.maximize_simplex"),
    ("statebc.simplexopt", "maximize_joint", "simplexopt.maximize_joint"),
    ("statebc.channel", "component_entropies", "channel.component_entropies"),
    ("statebc.infotheory", "entropy", "infotheory.entropy"),
)
COUNTERS = {
    "simplexopt.maximize_simplex": _count_evals("simplexopt.maximize_simplex"),
    "simplexopt.maximize_joint": _count_evals("simplexopt.maximize_joint"),
    "channel.component_entropies": _count_component_entropies,
    "infotheory.entropy": _count_entropy,
}
LATTICE = ("statebc.simplexopt", "iter_lattice", "simplexopt.lattice")
GEOMETRY = ("regions.halfplane_vertices", "regions.make_polygon", "regions.pareto_front")


class LayerTracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = 0
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)

    # -- span recording ---------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _span(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _lattice(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open(LATTICE[2])
                try:
                    block = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                counts["simplexopt.lattice.blocks"] += 1
                counts["simplexopt.lattice.rows"] += int(block.shape[0])
                yield block

        return wrapper

    def install(self) -> None:
        """Replace every `statebc` module attribute bound to a traced function."""
        targets = [
            (mod, fn, self._span(name, getattr(sys.modules[mod], fn), COUNTERS.get(name)))
            for mod, fn, name in TRACED
        ]
        mod, fn, _ = LATTICE
        targets.append((mod, fn, self._lattice(getattr(sys.modules[mod], fn))))
        modules = [m for name, m in sys.modules.items() if name == "statebc" or name.startswith("statebc.")]
        for mod, fn, wrapper in targets:
            original = getattr(sys.modules[mod], fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds (own
        duration minus the durations of direct child spans)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name_id[i]]]
            rec["calls"] += 1
            rec["s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
        return out

    def write_spans(self, path) -> None:
        """Spans as an .npz of parallel arrays: `names` (the name table),
        `name_id`, `start` and `end` (perf_counter seconds), `parent` (span
        index, -1 at the top) and `run` (CLI command index)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64).astype(np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64).astype(np.int32),
            run=np.frombuffer(self.run, dtype=np.int64).astype(np.int32),
        )

    def metrics(self) -> dict:
        """This process's per-layer metrics: name -> (value, unit)."""
        totals = self.layer_totals()
        counts = self.counts

        def span(name, key):
            return totals.get(name, {}).get(key, 0)

        out = {
            "cli.self_s": (span("cli.main", "self_s"), "s"),
            "regions.support_inner.calls": (span("regions.support_inner", "calls"), "count"),
            "regions.support_inner.s": (span("regions.support_inner", "s"), "s"),
            "regions.capacity_polygon.s": (span("regions.capacity_polygon", "s"), "s"),
            "regions.proposition_regions.s": (span("regions.proposition_regions", "s"), "s"),
            "regions.primed_regions.s": (span("regions.primed_regions", "s"), "s"),
            "regions.geometry.s": (sum(span(name, "self_s") for name in GEOMETRY), "s"),
            "regions.pareto_front.calls": (span("regions.pareto_front", "calls"), "count"),
            "outerbound.verify_converse.s": (span("outerbound.verify_converse", "s"), "s"),
            "outerbound.support_outer.calls": (span("outerbound.support_outer", "calls"), "count"),
            "outerbound.support_outer.s": (span("outerbound.support_outer", "s"), "s"),
        }
        for opt in ("simplexopt.maximize_simplex", "simplexopt.maximize_joint"):
            out[opt + ".calls"] = (span(opt, "calls"), "count")
            out[opt + ".s"] = (span(opt, "s"), "s")
            out[opt + ".self_s"] = (span(opt, "self_s"), "s")
            out[opt + ".evals"] = (counts[opt + ".evals"], "count")
        out["simplexopt.lattice.blocks"] = (counts["simplexopt.lattice.blocks"], "count")
        out["simplexopt.lattice.rows"] = (counts["simplexopt.lattice.rows"], "count")
        out["simplexopt.lattice.s"] = (span(LATTICE[2], "s"), "s")
        for kernel in ("channel.component_entropies", "infotheory.entropy"):
            out[kernel + ".calls"] = (span(kernel, "calls"), "count")
            out[kernel + ".rows"] = (counts[kernel + ".rows"], "count")
            out[kernel + ".s"] = (span(kernel, "s"), "s")
        calls = span("infotheory.entropy", "calls")
        rows = counts["infotheory.entropy.rows"]
        out["kernel.rows_per_call"] = (rows / calls if calls else 0.0, "rows/call")
        out["kernel.bytes_computed"] = (counts["kernel.bytes_computed"], "bytes")
        return out
