"""Per-layer tracing of polmem from outside the package.

polmem modules bind each other's functions with `from .x import y`, so a
function is reachable under several names.  `Tracer.install` wraps every
public function of each layer module and puts the wrapper at every binding:
the defining module, each importing module and the `polmem` package.  Each
call records a span (name, start, end, causing span); a layer's self time is
its span's duration minus the part of that interval its child spans cover.

`streams.map_chunks` additionally gets its per-chunk callable wrapped, so the
time spent inside chunks is recorded on the pool threads that run them, with
the `map_chunks` span as parent.
"""

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("noise_model", "streams", "memory_sim", "polarization", "histogram_analysis", "cli")
# public methods traced besides the module-level functions: (module, class, method)
METHODS = (("memory_sim", "ArrivalHistogram", "save"), ("memory_sim", "ArrivalHistogram", "load"))
CHUNK_SPAN = "streams.chunk_fn"

# Extra per-call counts, taken after the call from its bound arguments and result.
HOOKS = {
    "noise_model.mc_detection_oracle": lambda a, r: {"trials": a["trials"]},
    "streams.map_chunks": lambda a, r: {"workers": a["workers"], "chunks": len(r)},
    "memory_sim.simulate_histogram": lambda a, r: {"trials": a["trials"], "photons": r.total()},
    "memory_sim.simulate_reference": lambda a, r: {"trials": a["trials"], "photons": r.total()},
    "memory_sim.ArrivalHistogram.save": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "memory_sim.ArrivalHistogram.load": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "cli.main": lambda a, r: {"nonzero_exits": int(r != 0)},
}

# Per-layer metrics reported by a traced run: (name, unit).  Names of the form
# <module>.<function>.<stat> come straight from the spans; the others are
# derived in `per_layer_metrics` or supplied by the harness.
_COUNT, _SECONDS = "count", "s"
PER_LAYER = (
    [(f"noise_model.detection_probs.{s}", u) for s, u in (("calls", _COUNT), ("self_s", _SECONDS))]
    + [(f"noise_model.mc_detection_oracle.{s}", u)
       for s, u in (("calls", _COUNT), ("self_s", _SECONDS), ("trials", _COUNT))]
    + [(f"streams.map_chunks.{s}", u)
       for s, u in (("calls", _COUNT), ("self_s", _SECONDS), ("chunks", _COUNT), ("workers", _COUNT))]
    + [("streams.chunk_rng.calls", _COUNT), ("streams.chunk_rng.self_s", _SECONDS),
       ("streams.chunk_fn.busy_s", _SECONDS), ("streams.worker_util", "frac"),
       ("streams.scaling_eff", "frac")]
    + [(f"memory_sim.{f}.{s}", u)
       for f in ("simulate_histogram", "simulate_reference")
       for s, u in (("calls", _COUNT), ("self_s", _SECONDS), ("trials", _COUNT), ("photons", _COUNT))]
    + [("memory_sim.ns_per_photon", "ns")]
    + [(f"memory_sim.{f}.{s}", u)
       for f in ("simulate_polarimetry_sweep", "simulate_decay_series", "simulate_background_sweep")
       for s, u in (("calls", _COUNT), ("self_s", _SECONDS))]
    + [(f"memory_sim.ArrivalHistogram.{f}.{s}", u)
       for f in ("save", "load")
       for s, u in (("calls", _COUNT), ("self_s", _SECONDS), ("bytes", "B"))]
    + [(f"polarization.{f}.{s}", u)
       for f in ("fit_stokes", "fit_rotation", "write_polarimetry_csv", "read_polarimetry_csv")
       for s, u in (("calls", _COUNT), ("self_s", _SECONDS))]
    + [(f"histogram_analysis.{f}.{s}", u)
       for f in ("build_report", "storage_efficiency", "fit_exponential_decay", "fit_sqrt_background")
       for s, u in (("calls", _COUNT), ("self_s", _SECONDS))]
    + [("cli.main.calls", _COUNT), ("cli.main.self_s", _SECONDS), ("cli.main.nonzero_exits", _COUNT),
       ("cli.build_parser.calls", _COUNT), ("cli.build_parser.self_s", _SECONDS),
       ("cli.bytes_written", "B"), ("cli.files_written", _COUNT)]
    + [("trace_overhead_s", _SECONDS)]
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "children", "stats")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.children = []  # (start, end) of child spans, possibly on other threads
        self.stats = None

    def self_time(self) -> float:
        covered, reach = 0.0, self.start
        for lo, hi in sorted(self.children):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (self.end - self.start) - covered


class Tracer:
    """Collects spans in memory while installed; `uninstall` restores polmem."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._patched = []  # (owner, attribute, original value)

    def _open(self, name, parent=None):
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, parent if parent is not None else (stack[-1] if stack else None))
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._local.stack.pop()
        if span.parent is not None:
            span.parent.children.append((span.start, span.end))
        self.spans.append(span)

    def _chunk_fn(self, fn, parent):
        def chunk(rng, size):
            span = self._open(CHUNK_SPAN, parent)
            try:
                return fn(rng, size)
            finally:
                self._close(span)
        return chunk

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook or name == "streams.map_chunks" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                if sig is None:
                    return fn(*args, **kwargs)
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if name == "streams.map_chunks":
                    bound.arguments["fn"] = self._chunk_fn(bound.arguments["fn"], span)
                result = fn(*bound.args, **bound.kwargs)
            finally:
                self._close(span)
            if hook:
                span.stats = hook(bound.arguments, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        layers = {name: importlib.import_module(f"polmem.{name}") for name in LAYERS}
        modules = [m for n, m in sys.modules.items() if n == "polmem" or n.startswith("polmem.")]
        for layer, mod in layers.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                for m in modules:
                    for a, v in list(vars(m).items()):
                        if v is obj:
                            self._patch(m, a, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(layers[layer], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                self._patch(cls, meth, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch(cls, meth, self._wrap(name, raw))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def layer_self_s(self) -> dict:
        """Self time per layer.  A chunk's time goes to the layer that called
        map_chunks, whose kernel it runs."""
        out = defaultdict(float)
        for span in self.spans:
            owner = span
            if span.name == CHUNK_SPAN and span.parent is not None and span.parent.parent is not None:
                owner = span.parent.parent
            out[owner.name.split(".", 1)[0]] += span.self_time()
        return dict(out)

    def aggregate(self) -> dict:
        """name -> {"calls", "self_s", "total_s", <hook stats summed>}."""
        agg = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            row = agg[span.name]
            row["calls"] += 1
            row["self_s"] += span.self_time()
            row["total_s"] += span.end - span.start
            for key, value in (span.stats or {}).items():
                row[key] += value
            if span.name == "streams.map_chunks":
                st = span.stats or {}
                serial = st.get("workers", 1) <= 1 or st.get("chunks", 1) <= 1
                used = 1 if serial else min(st["workers"], st["chunks"])
                row["capacity_s"] += (span.end - span.start) * used
        return agg


def per_layer_metrics(agg: dict, extra: dict) -> dict:
    """Every PER_LAYER metric from aggregated spans; `extra` supplies the
    harness-measured ones (scaling_eff, cli bytes/files, trace overhead)."""

    def get(name, stat):
        return float(agg[name][stat]) if name in agg else 0.0

    busy = get(CHUNK_SPAN, "total_s")
    capacity = get("streams.map_chunks", "capacity_s")
    map_calls = get("streams.map_chunks", "calls")
    photons = get("memory_sim.simulate_histogram", "photons") + get("memory_sim.simulate_reference", "photons")
    sim_s = get("memory_sim.simulate_histogram", "total_s") + get("memory_sim.simulate_reference", "total_s")
    derived = {
        "streams.map_chunks.workers": get("streams.map_chunks", "workers") / map_calls if map_calls else 0.0,
        "streams.chunk_fn.busy_s": busy,
        "streams.worker_util": busy / capacity if capacity else 0.0,
        "memory_sim.ns_per_photon": 1e9 * sim_s / photons if photons else 0.0,
        **extra,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        else:
            span_name, stat = name.rsplit(".", 1)
            value = get(span_name, stat)
        out[name] = {"value": value, "unit": unit}
    return out
