"""One stats snapshot per simulation, and one parity check between two.

:func:`snapshot` walks a simulation's ownership graph from its root (a
``Testbed`` or a ``Rack``) when it is called and returns every counted
statistic under a hierarchical name: the attribute path from the root to
the component that keeps it, then the statistic's own name —
``hostA/dataplane/nic/metrics/rx_pkts``. A rack's hosts are named by host
name, list items by index, dict items by key; attribute names drop their
leading underscores. Nothing registers at construction, so building and
running a simulation pays nothing for it.

It reads every :class:`~repro.sim.metrics.MetricSet` (counters, histogram
``.count``/``.mean``, rate-meter ``.bytes``) and the components that keep
statistics outside one (:data:`_READERS`): the LLC, the verdict cache's
size, the copy ledger, conntrack totals and per-flow entries, policy
commits, the fast-forward controllers, the migration coordinator, CPU
busy time, and the tracer's per-stage service work with a
span-conservation flag.

:func:`parity` compares two snapshots key by key; a difference is excused
only where the single :data:`EXEMPT` table names the key, with a reason.
"""

from __future__ import annotations

from collections import Counter, deque
from fnmatch import fnmatchcase
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..cluster import MigrationCoordinator
from ..core.conntrack import ConntrackTable
from ..host.cache import WayPartitionedCache
from ..host.copies import CopyLedger
from ..host.cpu import CpuSet
from ..interpose import FlowFastPath, PolicyEngine
from ..trace import Tracer
from .engine import Simulator
from .fastforward import FastForwardController, RackFastForward
from .metrics import MetricSet

Stats = Dict[str, float]

#: Keys :func:`parity` lets differ: a name pattern (``fnmatch``, where
#: ``*`` also crosses ``/``) and why it may differ between a packet-exact
#: and a hybrid run of one schedule. Fluid packets stay counted exactly
#: by NIC ``rx_pkts``/``tx_pkts``, the verdict cache and the copy ledger.
EXEMPT: Tuple[Tuple[str, str], ...] = (
    ("*/[rt]x/metrics/posted",
     "fluid RX credit reaches the application without an RX descriptor, "
     "and an absorbed send never posts a TX descriptor"),
    ("*/[rt]x/metrics/consumed",
     "reading fluid RX credit consumes no RX descriptor, and the NIC "
     "fetches no TX descriptor for an absorbed send"),
    ("*/[rt]x/metrics/burst_consumes",
     "a drain or fetch that finds only fluid packets makes no ring burst"),
    ("*/notifq/*/metrics/posted",
     "fluid RX credit raises no per-packet notification"),
    ("*/ff/*",
     "the fast-forward controller's own counters; only a hybrid run has one"),
    ("rack/*",
     "the rack coordinator's own counters; only a cross-machine hybrid run "
     "has one"),
)


def is_modelled_time(key: str) -> bool:
    """The one naming rule for modelled time: the key ends in ``_ns`` or
    ``_ns.mean`` (CPU busy time, per-stage service work, the mean of a
    nanosecond histogram). Every other key is a count or a byte total."""
    return key.endswith("_ns") or key.endswith("_ns.mean")


def _exempt_reason(key: str) -> Optional[str]:
    """The reason of the first :data:`EXEMPT` pattern matching ``key``."""
    return next((r for p, r in EXEMPT if fnmatchcase(key, p)), None)


# -- reading components -------------------------------------------------------


def _metric_set(ms: MetricSet) -> Stats:
    out = {name: float(c.value) for name, c in ms._counters.items()}
    for name, hist in ms._histograms.items():
        out[f"{name}.count"] = float(hist.count)
        out[f"{name}.mean"] = hist.mean
    for name, meter in ms._meters.items():
        out[f"{name}.bytes"] = float(meter.total_bytes)
    return out


def _tracer(tracer: Tracer) -> Stats:
    if not tracer.enabled:
        return {}
    work = tracer.work_by_stage(include_wait=False)
    out = {f"{stage}.work_ns": float(ns) for stage, ns in work.items()}
    out["conserved"] = float(all(
        c.span_sum() == c.latency_ns() for c in tracer.closed_contexts()))
    return out


def _conntrack(ct: ConntrackTable) -> Stats:
    entries = ct.entries()
    out = {"entries": float(len(entries)),
           "packets": float(sum(e.packets for e in entries)),
           "bytes": float(sum(e.bytes for e in entries))}
    for e in entries:
        out[f"flows/{e.flow}/packets"] = float(e.packets)
        out[f"flows/{e.flow}/bytes"] = float(e.bytes)
    return out


def _flat(stats: Dict[str, object]) -> Stats:
    """A stats dict with at most one level of nested dicts."""
    out: Stats = {}
    for key, value in stats.items():
        if isinstance(value, dict):
            out.update((f"{key}.{sub}", float(v)) for sub, v in value.items())
        else:
            out[key] = float(value)  # type: ignore[arg-type]
    return out


#: What the walk reads from each kind of stat-keeping component, and
#: whether it goes on into the component's attributes. It stops at the
#: LLC (millions of lines), the tracer (every context and span) and the
#: fast-forward controllers (they refer to components owned elsewhere, so
#: walking them could name those by a path only a hybrid run has).
_READERS: Tuple[Tuple[type, Callable[..., Stats], bool], ...] = (
    (MetricSet, _metric_set, False),
    (WayPartitionedCache, lambda llc: dict(llc.stats), False),
    (CpuSet, lambda cpus: {"busy_ns": float(cpus.total_busy_ns())}, False),
    (CopyLedger, lambda ledger: _flat(ledger.snapshot()), False),
    (Tracer, _tracer, False),
    (FastForwardController, lambda ff: _flat(ff.stats()), False),
    (RackFastForward, lambda rack: _flat(rack.stats()), False),
    (FlowFastPath, lambda fp: {"entries": float(len(fp))}, True),
    (ConntrackTable, _conntrack, True),
    (PolicyEngine, lambda engine: {
        "commits": float(len(engine.history)),
        "epoch": float(engine.epoch),
        "stale_evals": float(sum(c.stale_evals for c in engine.history)),
    }, True),
    (MigrationCoordinator, lambda mc: _flat(mc.stats()), True),
)


def _children(obj) -> Iterator[Tuple[str, object]]:
    if isinstance(obj, (list, tuple, deque)):
        yield from ((str(i), v) for i, v in enumerate(obj))
    elif isinstance(obj, dict):
        yield from ((str(k), v) for k, v in obj.items())
    elif type(obj).__module__.startswith("repro."):
        for name, value in getattr(obj, "__dict__", {}).items():
            yield name.lstrip("_"), value
        for cls in type(obj).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                if slot != "__dict__" and hasattr(obj, slot):
                    yield slot.lstrip("_"), getattr(obj, slot)


def components(root) -> Iterator[Tuple[str, object, Stats]]:
    """Every stat-keeping component reachable from ``root``, breadth
    first, as ``(path, component, its stats)``. A component reachable by
    several paths takes the first (shortest). The simulator is not
    walked: its queue holds pending work, not state."""
    start = [(host.name, host) for host in getattr(root, "hosts", ())]
    start.append(("", root))
    seen = {id(obj) for _, obj in start}
    queue = deque(start)
    while queue:
        path, obj = queue.popleft()
        reader = next((r for r in _READERS if isinstance(obj, r[0])), None)
        if reader is not None:
            yield path, obj, reader[1](obj)
            if not reader[2]:
                continue
        for name, child in _children(obj):
            if (isinstance(child, (int, float, str, bytes, type(None),
                                   Simulator))
                    or id(child) in seen):
                continue
            seen.add(id(child))
            queue.append((f"{path}/{name}" if path else name, child))


def snapshot(root) -> Stats:
    """Every counted statistic of the simulation under ``root``, keyed by
    hierarchical name. Two statistics under one name are an error."""
    out: Stats = {}
    for path, _obj, stats in components(root):
        for name, value in stats.items():
            key = f"{path}/{name}"
            if key in out:
                raise ValueError(f"duplicate stats path {key!r}")
            out[key] = value
    return out


# -- comparing two snapshots --------------------------------------------------


def parity(a: Stats, b: Stats, tolerance: float) -> Dict[str, object]:
    """Compare two snapshots of one schedule, key by key.

    A key absent on one side reads as 0 (metrics are created on first
    use). Modelled-time keys (:func:`is_modelled_time`) must agree within
    ``tolerance`` relative error, every other key exactly. A key that
    disagrees but matches an :data:`EXEMPT` pattern is excused: listed
    with its reason instead of failing.

    Returns ``ok``, the ``failed`` keys, ``exempt`` (key -> reason), the
    ``keys`` and ``equal`` counts, and, over the keys not excused,
    ``max_rel_err`` and one ``rows`` entry each for ``fmt_table``.
    """
    rows: List[Dict[str, object]] = []
    failed: List[str] = []
    exempt: Dict[str, str] = {}
    keys = sorted(set(a) | set(b))
    for key in keys:
        x, y = a.get(key, 0.0), b.get(key, 0.0)
        err = abs(y - x) / max(abs(x), 1e-9)
        ok = err <= tolerance if is_modelled_time(key) else x == y
        reason = None if ok else _exempt_reason(key)
        if reason is not None:
            exempt[key] = reason
            continue
        if not ok:
            failed.append(key)
        rows.append({"key": key, "a": x, "b": y, "rel_err": err, "ok": ok})
    return {
        "ok": not failed,
        "failed": failed,
        "exempt": exempt,
        "keys": len(keys),
        "equal": sum(1 for k in keys if a.get(k, 0.0) == b.get(k, 0.0)),
        "max_rel_err": max((float(r["rel_err"]) for r in rows), default=0.0),
        "rows": rows,
    }


def coverage(result: Dict[str, object]) -> str:
    """What a :func:`parity` result covered, in one line:
    ``N of M snapshot keys equal; K exempt: pattern (count), ...``."""
    counts = Counter(result["exempt"].values())  # type: ignore[union-attr]
    listed = ", ".join(f"{p} ({counts[r]})" for p, r in EXEMPT if counts[r])
    return (f"{result['equal']} of {result['keys']} snapshot keys equal; "
            f"{len(result['exempt'])} exempt: {listed or 'none'}")
