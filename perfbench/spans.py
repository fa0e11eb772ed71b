"""Host-time spans around the simulator's layers, recorded from outside.

:func:`install` wraps every method of every class, and every module-level
function, that the ``repro.<pkg>`` modules define, each wrapper recording a
span of the layer its module belongs to. Nothing in the simulator is
edited. Modules hoist bound methods and imported functions, so the wrappers
go in before any testbed is built, and each module-level function is
replaced in every module that imported it.

Spans are kept in memory as an aggregate call tree, (caller layer, layer)
→ calls and total seconds, which bounds memory however many per-cache-line
calls a run makes, and are written out when the benchmark ends. A layer's
self time is the time its spans cover minus the part their child spans
cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: Module prefix → layer; the first match wins. ``None`` leaves a module
#: unwrapped: metric counters and address values are called from every
#: layer on every packet and are billed to their caller.
LAYERS: Tuple[Tuple[str, Optional[str]], ...] = (
    ("repro.host.cache", "host.cache"),
    ("repro.host", "host"),
    ("repro.nic.rings", "nic.rings"),
    ("repro.nic.notification", "nic.notification"),
    ("repro.nic", "nic"),
    ("repro.core.nic_dataplane", "core.nic_dataplane"),
    ("repro.core.library", "core.library"),
    ("repro.core.control_plane", "core.control_plane"),
    ("repro.core.norman", "dataplanes.kopi"),
    ("repro.core", "core"),
    ("repro.sim.fastforward", "sim.fastforward"),
    ("repro.sim.metrics", None),
    ("repro.sim", "sim.engine"),
    ("repro.interpose", "interpose"),
    ("repro.net.addresses", None),
    ("repro.net", "net"),
    ("repro.cluster", "cluster"),
    ("repro.kernel.netfilter", "kernel.netfilter"),
    ("repro.kernel.qdisc", "kernel.qdisc"),
    ("repro.kernel", "kernel"),
    ("repro.dataplanes.kernel_path", "dataplanes.kernel"),
    ("repro.dataplanes.bypass", "dataplanes.bypass"),
    ("repro.dataplanes.sidecar", "dataplanes.sidecar"),
    ("repro.dataplanes.hypervisor", "dataplanes.hypervisor"),
    ("repro.dataplanes", "dataplanes.testbed"),
    ("repro.trace", "trace"),
    ("repro.apps", "apps"),
    ("repro.tools", "tools"),
    ("repro.overlay", "overlay"),
)

#: Dunder methods that are layer entry points: construction (set-up is
#: mostly constructors) and callable tools (``iptables(...)``). Hashing and
#: comparison dunders run inside every dict lookup and stay unwrapped.
SPANNED_DUNDERS = ("__init__", "__call__")

#: Every layer a span can be recorded for.
ALL_LAYERS = tuple(dict.fromkeys(l for _, l in LAYERS if l is not None))


def layer_of(module: str) -> Optional[str]:
    for prefix, layer in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class SpanRecorder:
    """The open-span stack and the aggregate call tree of one traced run."""

    def __init__(self):
        self.active = False
        self.phase = ""
        #: Open spans: [layer, seconds covered by child spans so far].
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: (phase, layer) → seconds of spans entering the layer from
        #: another layer (or from the benchmark itself).
        self.entry_s: Dict[Tuple[str, str], float] = defaultdict(float)
        #: (caller layer, layer) → [calls, seconds].
        self.edges: Dict[Tuple[str, str], list] = {}
        #: Seconds covered by spans the benchmark itself opened.
        self.top_s = 0.0
        self.wall_s = 0.0
        self._t0 = 0.0

    def start(self, phase: str) -> None:
        self.phase = phase
        self.active = True
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.wall_s += time.perf_counter() - self._t0
        self.active = False

    def wrap(self, layer: str, fn):
        perf = time.perf_counter
        stack = self.stack
        self_s, calls, entry_s, edges = (self.self_s, self.calls,
                                         self.entry_s, self.edges)
        rec = self

        def span(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                calls[layer] += 1
                caller = stack[-1][0] if stack else "bench"
                if stack:
                    stack[-1][1] += dt
                else:
                    rec.top_s += dt
                if caller != layer:
                    entry_s[(rec.phase, layer)] += dt
                edge = edges.get((caller, layer))
                if edge is None:
                    edges[(caller, layer)] = [1, dt]
                else:
                    edge[0] += 1
                    edge[1] += dt

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", "span")
        span.__qualname__ = getattr(fn, "__qualname__", span.__name__)
        span.__doc__ = getattr(fn, "__doc__", None)
        return span

    def driver_s(self) -> float:
        """Traced wall time no layer span covers: the benchmark's own
        driving code."""
        return self.wall_s - self.top_s

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({
                "wall_s": self.wall_s,
                "driver_s": self.driver_s(),
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "entry_s": {f"{p}:{l}": v for (p, l), v in self.entry_s.items()},
                "edges": [{"caller": c, "layer": l, "calls": n, "seconds": s}
                          for (c, l), (n, s) in sorted(self.edges.items())],
            }, f, indent=1)


def install(rec: SpanRecorder):
    """Wrap the layers of every loaded ``repro`` module; returns an undo
    function that puts the originals back."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("repro") and m is not None]
    undo = []
    #: id(original) → (original, wrapper) for module-level functions.
    functions: Dict[int, tuple] = {}
    for module in modules:
        layer = layer_of(module.__name__)
        if layer is None:
            continue
        for name, obj in list(vars(module).items()):
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("__") and attr not in SPANNED_DUNDERS:
                        continue
                    if isinstance(member, staticmethod):
                        wrapped = staticmethod(rec.wrap(layer, member.__func__))
                    elif isinstance(member, classmethod):
                        wrapped = classmethod(rec.wrap(layer, member.__func__))
                    elif callable(member) and hasattr(member, "__code__"):
                        wrapped = rec.wrap(layer, member)
                    else:
                        continue
                    setattr(obj, attr, wrapped)
                    undo.append((obj, attr, member))
            elif (callable(obj) and hasattr(obj, "__code__")
                  and getattr(obj, "__module__", None) == module.__name__
                  and not name.startswith("__")):
                functions[id(obj)] = (obj, rec.wrap(layer, obj))
    # A module-level function is replaced wherever it was imported.
    for module in modules:
        for name, obj in list(vars(module).items()):
            entry = functions.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, name, entry[1])
                undo.append((module, name, obj))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
