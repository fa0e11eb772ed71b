"""One stats dump per simulation, read from every modelled component.

The simulator has no central registry yet, so the dump finds the
components of the live simulations by type among the objects the garbage
collector tracks. A round drops every reference to its testbeds before the
next one is built, so what is found belongs to the simulation just run.
"""

from __future__ import annotations

import gc
import hashlib
import json
from typing import Dict, List


def live(*classes) -> Dict[type, List[object]]:
    """Every live instance of each class (one pass over the tracked
    objects), after a full collection so garbage from earlier rounds is
    not counted."""
    gc.collect()
    found: Dict[type, List[object]] = {cls: [] for cls in classes}
    for obj in gc.get_objects():
        for cls in classes:
            if isinstance(obj, cls):
                found[cls].append(obj)
    return found


def counted_state(metric_sets, llcs, fastpaths, ffs, sims) -> Dict[str, float]:
    """Every counted simulated statistic, keyed by component name.

    Components of one kind that share a name (two testbeds' ``host_rx``
    links, every per-connection ring) are summed under that name, so the
    result does not depend on the order objects are found in.
    """
    out: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for ms in metric_sets:
        for key, value in ms.snapshot().items():
            add(f"metric:{key}", value)
    for llc in llcs:
        for key, value in llc.stats.items():
            add(f"llc:{key}", value)
    for fp in fastpaths:
        for key, value in fp.stats().items():
            add(f"fastpath:{key}", value)
    for ff in ffs:
        stats = ff.stats()
        for key in ("promotions", "epochs", "group_epochs", "fluid_packets"):
            add(f"ff:{key}", stats[key])
        for reason, n in stats["demotions"].items():
            add(f"ff:demote:{reason}", n)
    for sim in sims:
        add("sim:events", sim.events_fired)
        add("sim:now_ns", sim.now)
    return out


def digest(state: Dict[str, float]) -> str:
    """A short hash over a counted-state dump (floats rounded to 9
    significant digits, so summation order cannot move it)."""
    canon = {k: float(f"{v:.9g}") for k, v in sorted(state.items())}
    blob = json.dumps(canon, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def drops_by_reason(metric_sets) -> Dict[str, int]:
    """Every drop counter in the simulation, summed per counter name."""
    out: Dict[str, int] = {}
    for ms in metric_sets:
        for key, value in ms.snapshot().items():
            parts = key.split(".")
            if "drop" in parts[-1] and value:
                reason = f"{parts[0]}.{parts[-1]}"
                out[reason] = out.get(reason, 0) + int(value)
    return out
