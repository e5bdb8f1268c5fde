"""Per-layer spans and counters, recorded from outside the program.

The layers are the modules under ``src/schurkit/``. A Tracer replaces each
function of one layer where another layer's module binds it (for example
``schurkit.schur.cg_block``) with a wrapper that records a span, and reads
the ``cache_info()`` counters of the cached constructions. A span's self time is
its duration minus the time covered by the wrapped spans it caused, so the
self times of all layers add up to the time spent in the program.

A wrapper costs under a microsecond a call, which matters only in the cold
set-up, where millions of small calls are wrapped; the end-to-end metrics
are measured with no Tracer installed at all.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = (
    "partitions",
    "bases",
    "wigner",
    "clebsch_gordan",
    "schur",
    "oracle",
    "circuit",
    "cli",
)

# The unit of every per-layer metric, in report order.
PER_LAYER = {
    "partitions.calls": "count",
    "partitions.self_s": "s",
    "bases.calls": "count",
    "bases.self_s": "s",
    "wigner.coefficients": "count",
    "wigner.self_s": "s",
    "clebsch_gordan.blocks_built": "count",
    "clebsch_gordan.build_self_s": "s",
    "clebsch_gordan.block_hit_ratio": "ratio",
    "clebsch_gordan.block_bytes": "bytes",
    "clebsch_gordan.block_nnz": "count",
    "schur.forward_s": "s",
    "schur.inverse_s": "s",
    "schur.cascade_self_s": "s",
    "schur.sector_bytes_peak": "bytes_computed",
    "schur.unitary_s": "s",
    "oracle.verify_s": "s",
    "oracle.conjugate_s": "s",
    "oracle.extract_irrep_s": "s",
    "circuit.decompose_s": "s",
    "circuit.replay_s": "s",
    "circuit.census_s": "s",
    "circuit.gates": "count",
    "cli.self_s": "s",
    "cli.json_bytes": "bytes",
}


def _module(layer: str):
    return importlib.import_module(f"schurkit.{layer}")


def _cache_counters() -> dict:
    """Cumulative counters of the program's own caches."""
    cg = _module("clebsch_gordan").cg_block.cache_info()
    wig = _module("wigner")._value.cache_info()
    return {
        "cg.hits": cg.hits,
        "cg.misses": cg.misses,
        "wigner.coefficients": wig.misses,
    }


class Tracer:
    """Span and counter collector; spans are kept in memory as sums."""

    def __init__(self):
        self.active = False
        self._stack: list[float] = []
        self._undo: list[tuple] = []
        self._start: dict = {}
        self._blocks: dict[int, object] = {}
        self.spans: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: Counter = Counter()

    # -- spans --------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn as a span called ``name`` ("<layer>.<what>")."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn, on_result=None):
        """fn, recording a span per call while the tracer is active.

        The hottest wrapped functions run millions of times in a cold
        set-up, so the bookkeeping is inlined and kept to list updates: the
        stack holds the time covered by each open span's children, and
        ``rec`` is [calls, total seconds, self seconds] of this span name.
        """
        stack = self._stack
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                covered = stack.pop()
                if stack:
                    stack[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - covered
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name: str, on_result=None) -> None:
        orig = vars(owner)[attr]
        setattr(owner, attr, self._wrap(name, orig, on_result))
        self._undo.append((owner, attr, orig))

    def install(self) -> None:
        """Wrap every cross-layer binding, plus the spans named in the metrics."""
        hooks = {
            "clebsch_gordan.cg_block": self._record_block,
            "circuit.two_level_decompose": self._record_gates,
        }
        for caller in LAYERS:
            mod = _module(caller)
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) or not callable(obj):
                    continue
                owner = getattr(obj, "__module__", None) or ""
                if not owner.startswith("schurkit."):
                    continue
                layer = owner.split(".", 1)[1]
                if layer == caller or layer not in LAYERS:
                    continue
                name = f"{layer}.{getattr(obj, '__name__', attr)}"
                self._patch(mod, attr, name, hooks.get(name))
        # Same-layer entry points: reached through their own module's
        # namespace (oracle.verify_report imports schur_unitary at call time)
        # or called by the benchmark itself.
        for layer, attr in (
            ("schur", "schur_unitary"),
            ("circuit", "two_level_decompose"),
            ("oracle", "conjugate_by_schur"),
            ("oracle", "extract_irrep"),
        ):
            name = f"{layer}.{attr}"
            self._patch(_module(layer), attr, name, hooks.get(name))
        # Constructors and methods: patched on the class so isinstance holds.
        self._patch(_module("partitions").Partition, "__init__", "partitions.Partition")
        self._patch(_module("bases").GzPattern, "__init__", "bases.GzPattern")
        self._patch(_module("bases").YyPath, "__init__", "bases.YyPath")
        self._patch(_module("circuit").GateList, "replay", "circuit.replay")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _record_block(self, block) -> None:
        self._blocks.setdefault(id(block.matrix), block.matrix)

    def _record_gates(self, gate_list) -> None:
        self.counts["circuit.gates"] += len(gate_list.gates)

    # -- traced sections ----------------------------------------------------

    def resume(self) -> None:
        """Start or continue a traced section."""
        self._start = _cache_counters()
        self.active = True

    def pause(self) -> None:
        """Leave a traced section; cache counters count only inside one."""
        self.active = False
        end = _cache_counters()
        for key, value in end.items():
            self.counts[key] += value - self._start[key]

    def finish(self) -> None:
        """Count the bytes and nonzeros of the distinct blocks seen so far."""
        for matrix in self._blocks.values():
            self.counts["cg.block_bytes"] += matrix.nbytes
            self.counts["cg.block_nnz"] += int(np.count_nonzero(matrix))
        self._blocks.clear()

    def clear(self) -> None:
        """Forget everything recorded (a forked child starts from zero)."""
        self._blocks.clear()
        for rec in self.spans.values():
            rec[:] = [0, 0.0, 0.0]
        self.counts.clear()

    def export(self) -> dict:
        """Plain-data form, so a child process can send it to its parent."""
        return {"spans": self.spans, "counts": dict(self.counts)}

    def merge(self, data: dict) -> None:
        self.counts.update(data["counts"])
        for name, (calls, total, own) in data["spans"].items():
            rec = self.spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own

    # -- report -------------------------------------------------------------

    def _layer(self, layer: str, field: int):
        return sum(r[field] for k, r in self.spans.items() if k.split(".", 1)[0] == layer)

    def metrics(self, sector_bytes_peak: int) -> dict:
        c = self.counts
        empty = [0, 0.0, 0.0]

        def total(name: str) -> float:
            return self.spans.get(name, empty)[1]

        def own(name: str) -> float:
            return self.spans.get(name, empty)[2]

        lookups = c["cg.hits"] + c["cg.misses"]
        values = {
            "partitions.calls": self._layer("partitions", 0),
            "partitions.self_s": self._layer("partitions", 2),
            "bases.calls": self._layer("bases", 0),
            "bases.self_s": self._layer("bases", 2),
            "wigner.coefficients": c["wigner.coefficients"],
            "wigner.self_s": self._layer("wigner", 2),
            "clebsch_gordan.blocks_built": c["cg.misses"],
            "clebsch_gordan.build_self_s": self._layer("clebsch_gordan", 2),
            "clebsch_gordan.block_hit_ratio": c["cg.hits"] / lookups if lookups else 0.0,
            "clebsch_gordan.block_bytes": c["cg.block_bytes"],
            "clebsch_gordan.block_nnz": c["cg.block_nnz"],
            "schur.forward_s": total("schur.forward"),
            "schur.inverse_s": total("schur.inverse"),
            "schur.cascade_self_s": own("schur.forward") + own("schur.inverse"),
            "schur.sector_bytes_peak": sector_bytes_peak,
            "schur.unitary_s": total("schur.schur_unitary"),
            "oracle.verify_s": total("oracle.verify_report"),
            "oracle.conjugate_s": total("oracle.conjugate_by_schur"),
            "oracle.extract_irrep_s": total("oracle.extract_irrep"),
            "circuit.decompose_s": total("circuit.two_level_decompose"),
            "circuit.replay_s": total("circuit.replay"),
            "circuit.census_s": total("circuit.gate_count_report"),
            "circuit.gates": c["circuit.gates"],
            "cli.self_s": own("cli.run"),
            "cli.json_bytes": c["cli.json_bytes"],
        }
        return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
