"""E21, E22 and E23 — hybrid fidelity: fast-forward must be invisible in
the numbers and decisive in the wall clock.

Fast-forward (:mod:`repro.sim.fastforward`) turns steady flows, whose
packets all hit the verdict cache, into fluid epochs that charge ``N x``
the cached per-stage cost, and demotes them back to packet-exact
simulation at every interposition boundary. One driver makes the safety
case, and a frozen :class:`Spec` says what each experiment runs: E21 the
peer bursting at KOPI listeners that drain them (RX), E22 the same plus
application sends to the peer (TX, so flow groups form on both
directions), E23 A -> switch -> B sends on a two-host rack, bound end to
end by :class:`~repro.sim.fastforward.RackFastForward`. Each has two legs:

* **parity** — the spec's traffic runs packet-exact and hybrid from
  identical schedules, and :func:`repro.sim.stats.parity` diffs the two
  whole-simulation snapshots (plus the ``app/*`` counts): counters
  exactly, modeled time within ``CostModel.ff_tolerance``, differences
  only where :data:`repro.sim.stats.EXEMPT` names the key. Trace-span
  conservation must agree between the legs and, on one host, hold
  outright. On a rack it need not: a cross-host TX context closes at the
  far end of the uplink, exact mode charges the downlink's wire time to
  the closed context, and fluid replay reproduces exactly that.
* **scale** — every flow is warmed to promotion with exact rounds, then
  absorbed in bulk (``FastForwardController.absorb``) and flushed; the
  parity leg has shown that absorbed packets charge what exact ones do.
  With a probe, the parity traffic also runs packet-exact on a sample at
  the same scale, and the headline is the packets-per-wall-second ratio.
  Without one (E22) the check is structural: every epoch is a group
  epoch, and epoch events are O(groups), not O(flows).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import units
from ..config import DEFAULT_COSTS, CostModel
from ..core import NormanOS
from ..dataplanes import Testbed
from ..dataplanes.multihost import HostSpec, Rack, rack_ip
from ..dataplanes.testbed import HOST_IP, PEER_IP
from ..net.flow import FiveTuple
from ..net.headers import PROTO_TCP, PROTO_UDP
from ..sim.stats import parity, snapshot
from .common import (Row, drain_until_dry, ff_stats, fmt_table, parity_report,
                     snapshot_digest)

PAYLOAD = 1_458
#: Packets per connection of each kind of traffic in one parity round.
PER_CONN = 4
#: Spacing between consecutive application sends across the population.
#: Wide enough that each send's TX chain (doorbell -> PCIe fetch ->
#: pipeline -> wire, and on a rack switch -> downlink) completes before
#: the next begins: rings, qdisc and links stay empty, which is the
#: steady state the TX profile captures.
SEND_GAP_NS = 2_000
#: E22's structural bar: each group epoch must stand for more than this
#: many flow-rounds, where one epoch per flow per round would give one.
MIN_FLOW_ROUNDS_PER_EPOCH = 10
#: Packet-exact parity rounds a scale leg's probe times.
PROBE_ROUNDS = 2


@dataclass(frozen=True)
class Scale:
    """The scale leg: ``warmup`` exact rounds of one packet per flow
    (enough to promote every flow with ``ff_promote_after=1``), then
    ``rounds`` rounds that absorb ``bulk`` packets into each of ``conns``
    flows and flush. ``probe`` > 0 also times ``PROBE_ROUNDS`` parity
    rounds, packet-exact, on that many of the connections."""

    conns: int
    bulk: int
    rounds: int
    warmup: int
    probe: int = 0


@dataclass(frozen=True)
class Spec:
    """One fidelity experiment: its topology, the traffic of one parity
    round, the two legs' sizes, and its bars."""

    name: str
    #: What the parity leg shows to be invisible, for the headline.
    subject: str
    #: False: one KOPI :class:`Testbed` and its traffic peer. True: a
    #: two-host :class:`Rack`, A -> switch -> B.
    rack: bool
    #: Each parity round runs these in order: ``"rx"`` peer bursts that
    #: the application drains, ``"tx"`` application sends to the peer
    #: (both on a Testbed), ``"a2b"`` A's sends drained on B (a Rack).
    traffic: Tuple[str, ...]
    conns: int
    rounds: int
    scale: Scale
    #: The parity leg's hybrid ``ff_promote_after``; None keeps the cost
    #: model's.
    promote_after: Optional[int] = None
    #: Bars: the parity leg's fluid fraction must exceed ``min_fluid``;
    #: with a probe, the speedup must reach ``min_speedup``; ``grouped``
    #: requires flow groups on both directions; a nonzero
    #: ``min_flow_rounds_per_epoch`` is the O(groups) structural check.
    min_fluid: float = 0.0
    min_speedup: float = 0.0
    grouped: bool = False
    min_flow_rounds_per_epoch: int = 0


# E21 and E22: warm-up packets stay exact, so the 16-packet-per-flow
# parity schedule tops out under 50% fluid.
E21 = Spec(
    name="e21", subject="fluid epochs", rack=False, traffic=("rx",),
    conns=512, rounds=4,
    scale=Scale(conns=100_000, bulk=254, rounds=1, warmup=2, probe=2_048),
    min_fluid=0.25, min_speedup=20.0,
)
E22 = Spec(
    name="e22", subject="flow groups and TX fast-forward", rack=False,
    traffic=("rx", "tx"), conns=256, rounds=4,
    scale=Scale(conns=100_000, bulk=64, rounds=4, warmup=2),
    min_fluid=0.25, grouped=True,
    min_flow_rounds_per_epoch=MIN_FLOW_ROUNDS_PER_EPOCH,
)
# promote_after=2: the receiver promotes on its 3rd packet, the sender's
# first gate attempt is vetoed (the receiver's promotion races one wire
# latency behind), and the rebuilt streak binds the flow end to end on
# send 5, leaving most of the schedule fluid. At scale (promote_after=1)
# the receiver promotes after a miss and a hit, and the gated sender needs
# more rounds to see a promoted receiver: 4 warm-up rounds.
E23 = Spec(
    name="e23", subject="cross-machine fluid epochs", rack=True,
    traffic=("a2b",), conns=128, rounds=6, promote_after=2,
    scale=Scale(conns=10_000, bulk=64, rounds=4, warmup=4, probe=512),
    min_fluid=0.5, min_speedup=5.0,
)
SPECS = {spec.name: spec for spec in (E21, E22, E23)}


#: Unprivileged port pool per protocol (1025..65535).
_PORT_BASE = 1_025
_PORTS_PER_PROTO = 65_535 - _PORT_BASE + 1


def _schedule(sim, calls, per_conn: int, gap: int) -> int:
    """``per_conn`` passes over ``calls`` (``fn, *args``), one call every
    ``gap`` ns from 1 us from now. Returns the number scheduled."""
    base = sim.now + 1_000
    i = 0
    for _ in range(per_conn):
        for fn, *args in calls:
            sim.at(base + i * gap, fn, *args)
            i += 1
    return i


def _conn_slots(n_conns: int) -> List[Tuple[int, int]]:
    """(proto, port) for each of ``n_conns``: UDP first, TCP once the UDP
    port space is exhausted (how 100k connections fit on one host)."""
    if n_conns > 2 * _PORTS_PER_PROTO:
        raise ValueError(f"{n_conns} connections exceed both port pools")
    return [(PROTO_UDP if i < _PORTS_PER_PROTO else PROTO_TCP,
             _PORT_BASE + i % _PORTS_PER_PROTO) for i in range(n_conns)]


class _Host:
    """A KOPI testbed with one listener per connection spread over the
    application cores. ``readers`` are the listeners; the fast-forward
    controller absorbs the peer -> listener flows."""

    def __init__(self, n_conns: int, costs: CostModel):
        tb = self.root = Testbed(
            NormanOS, costs=costs, n_cores=8,
            structural_cache=False, shared_rings=True,
        )
        procs = [tb.spawn(f"srv{c}", "bob", core_id=c)
                 for c in range(1, len(tb.machine.cpus))]
        self.slots = _conn_slots(n_conns)
        self.readers = [
            tb.dataplane.open_endpoint(procs[i % len(procs)], proto, port)
            for i, (proto, port) in enumerate(self.slots)
        ]
        tb.run_all()
        self.ff = tb.machine.ff
        self.flows = [FiveTuple(proto, PEER_IP, 600, HOST_IP, port)
                      for proto, port in self.slots]

    def send(self, kind: str, per_conn: int, idx: Sequence[int]) -> int:
        """Schedule ``per_conn`` packets per connection in ``idx``:
        ``"rx"`` E8-style peer bursts, interleaved across connections as a
        loaded NIC would deliver them, or ``"tx"`` spaced single sends
        from the listeners to the peer. Returns the number scheduled."""
        tb = self.root
        if kind == "rx":
            gap = units.transmit_time_ns(PAYLOAD + 50, tb.ingress.rate_bps) + 10
            sends = {PROTO_UDP: tb.peer.send_udp, PROTO_TCP: tb.peer.send_tcp}
            return _schedule(tb.sim, [
                (sends[self.slots[e][0]], 600, self.slots[e][1], PAYLOAD)
                for e in idx], per_conn, gap)
        if kind == "tx":
            return _schedule(tb.sim, [
                (self.readers[e].send, PAYLOAD, (PEER_IP, 600))
                for e in idx], per_conn, SEND_GAP_NS)
        raise ValueError(f"a testbed has no {kind!r} traffic")

    def settle(self) -> None:
        self.root.run_all()

    def warm(self, rounds: int) -> None:
        for _ in range(rounds):
            _round(self, ("rx",), 1, range(len(self.readers)), {})

    def promoted(self) -> int:
        return self.ff.promoted_count

    def flush(self) -> None:
        self.ff.flush_all()


#: Host A (the sender) and host B (the receiver) on the rack address plan;
#: B listens on one port range, A sends from its own.
A_IP, B_IP = rack_ip(0), rack_ip(1)
B_PORT_BASE = 2_000
A_PORT_BASE = 22_000


class _RackPair:
    """Two Norman hosts on one switch with one A -> B connection each;
    ``readers`` are B's listeners, and A's controller absorbs the A -> B
    flows. The switch is taught where B lives (one B -> A packet, the
    ARP-reply analogue: without it every A -> B frame floods and no switch
    path is ever frozen); that is the same in every leg, so it cancels in
    parity."""

    def __init__(self, n_conns: int, costs: CostModel):
        n_cores = 4
        rack = self.root = Rack([HostSpec.indexed(0, "hostA", NormanOS),
                                 HostSpec.indexed(1, "hostB", NormanOS)],
                                costs=costs, n_cores=n_cores)
        host_a, host_b = rack.hosts
        a_procs = [host_a.spawn(f"cli{c}", "bob", core_id=c)
                   for c in range(1, n_cores)]
        b_procs = [host_b.spawn(f"srv{c}", "carol", core_id=c)
                   for c in range(1, n_cores)]
        self.senders = [
            host_a.dataplane.open_endpoint(
                a_procs[i % len(a_procs)], PROTO_UDP, A_PORT_BASE + i)
            for i in range(n_conns)
        ]
        self.readers = [
            host_b.dataplane.open_endpoint(
                b_procs[i % len(b_procs)], PROTO_UDP, B_PORT_BASE + i)
            for i in range(n_conns)
        ]
        rack.run_all()
        self.readers[0].send(64, (A_IP, A_PORT_BASE))
        rack.run_all()
        self.ff = host_a.machine.ff
        self.flows = [FiveTuple(PROTO_UDP, A_IP, A_PORT_BASE + i,
                                B_IP, B_PORT_BASE + i)
                      for i in range(n_conns)]

    def send(self, kind: str, per_conn: int, idx: Sequence[int]) -> int:
        """Schedule ``per_conn`` spaced single sends from each A endpoint
        in ``idx`` to its B counterpart. Returns the number scheduled."""
        if kind != "a2b":
            raise ValueError(f"a rack pair has no {kind!r} traffic")
        return _schedule(self.root.sim, [
            (self.senders[e].send, PAYLOAD, (B_IP, B_PORT_BASE + e))
            for e in idx], per_conn, SEND_GAP_NS)

    def settle(self) -> None:
        """Run until idle; on a hybrid rack, then push the senders' fluid
        epochs through the switch to B and charge them there."""
        self.root.run_all()
        if self.root.rack is not None:
            self.root.rack.flush_all()
            self.root.run_all()

    def warm(self, rounds: int) -> None:
        # B's application does not read here: binding needs the packets to
        # arrive, not to be consumed.
        for _ in range(rounds):
            self.send("a2b", 1, range(len(self.senders)))
            self.root.run_all()

    def promoted(self) -> int:
        """Flows bound end to end (both stacks promoted, switch frozen)."""
        return self.root.rack.bound

    def flush(self) -> None:
        self.root.rack.flush_all()


def _topology(spec: Spec, n_conns: int, costs: CostModel):
    return (_RackPair if spec.rack else _Host)(n_conns, costs)


def _round(topo, traffic: Sequence[str], per_conn: int,
           idx: Sequence[int], counts: Dict[str, float]) -> int:
    """One round of ``traffic`` on the connections in ``idx``: sends, run
    to idle, and a drain after each inbound kind. Adds the messages read
    (``app/delivered``) and sent by the application (``app/tx_sent``) to
    ``counts``; returns the number of packets scheduled."""
    scheduled = 0
    for kind in traffic:
        n = topo.send(kind, per_conn, idx)
        scheduled += n
        topo.settle()
        if kind == "tx":
            counts["app/tx_sent"] = counts.get("app/tx_sent", 0.0) + n
        else:
            read = drain_until_dry(
                topo.root, [topo.readers[e] for e in idx], per_conn)
            counts["app/delivered"] = counts.get("app/delivered", 0.0) + read
    return scheduled


def run_leg(spec: Spec, costs: CostModel, fast_forward: bool
            ) -> Dict[str, object]:
    """One parity leg: the spec's rounds from an identical schedule
    either way; only the fidelity knobs differ. Returns the simulation's
    stats snapshot (plus the ``app/*`` counts), the wall time and the
    events fired."""
    leg_costs = costs.replace(
        trace=True, flow_fastpath=True, fast_forward=fast_forward,
        flow_fastpath_entries=max(costs.flow_fastpath_entries,
                                  4 * spec.conns),
    )
    if fast_forward and spec.promote_after is not None:
        leg_costs = leg_costs.replace(ff_promote_after=spec.promote_after)
    topo = _topology(spec, spec.conns, leg_costs)
    every = range(spec.conns)
    counts: Dict[str, float] = {}
    t0 = time.perf_counter()
    for _ in range(spec.rounds):
        _round(topo, spec.traffic, PER_CONN, every, counts)
    wall = time.perf_counter() - t0
    stats = snapshot(topo.root)
    stats.update(counts)
    return {"stats": stats, "wall_s": wall, "events": topo.root.sim.events_fired}


def pinned(leg: Dict[str, object]) -> Dict[str, object]:
    """What ``benchmarks/golden.json`` pins of one parity leg: its
    snapshot digest, the events fired and the ``app/*`` counts."""
    stats = leg["stats"]
    return {"digest": snapshot_digest(stats), "events": leg["events"],
            "app": {k: v for k, v in stats.items() if k.startswith("app/")}}


def _total(stats: Dict[str, float], suffix: str) -> float:
    return sum(v for k, v in stats.items() if k.endswith(suffix))


def run_parity(spec: Spec = E21, costs: CostModel = DEFAULT_COSTS
               ) -> Dict[str, object]:
    """The parity leg: exact vs hybrid on the same schedule. Returns the
    :func:`~repro.sim.stats.parity` result, both legs, the fluid fraction
    of packet-legs, and the checks ``ok`` requires beyond parity."""
    exact = run_leg(spec, costs, fast_forward=False)
    hybrid = run_leg(spec, costs, fast_forward=True)
    ex, hy = exact["stats"], hybrid["stats"]
    tol = costs.ff_tolerance
    result = parity(ex, hy, tol)
    # Conservation agrees between the legs everywhere, and on one host
    # every context conserves outright (see the module docstring).
    conserved_ok = all(
        ex[k] == hy.get(k) and (spec.rack or ex[k] == 1.0)
        for k in ex if k.endswith("tracer/conserved"))
    # Grouping engaged on both directions: RX and TX flows promote on
    # different planes, so >= 2 groups and at least one group epoch.
    grouped = (_total(hy, "machine/ff/group_epochs") > 0
               and _total(hy, "machine/ff/groups") >= 2)
    # Each message is one packet-leg per host it crosses.
    legs = (hy.get("app/delivered", 0.0) + hy.get("app/tx_sent", 0.0)) * (
        2 if spec.rack else 1)
    out = {
        **result,
        "exact": exact,
        "hybrid": hybrid,
        "tolerance": tol,
        "fluid_fraction": _total(hy, "machine/ff/fluid_packets") / max(legs, 1),
        "conserved_ok": bool(conserved_ok),
        "grouped": bool(grouped),
        "ff": ff_stats(hy, "rack/" if spec.rack else "machine/ff/"),
    }
    ok = result["ok"] and conserved_ok and (grouped or not spec.grouped)
    if spec.rack:
        out["bound_ok"] = bool(hy.get("rack/bindings", 0) >= spec.conns)
        ok = ok and out["bound_ok"]
    out["ok"] = bool(ok)
    return out


def _scale_costs(costs: CostModel, n_conns: int, fast_forward: bool
                 ) -> CostModel:
    """Capacity sized for ``n_conns`` on every machine: the verdict cache,
    NIC SRAM and descriptor rings must hold the whole population, or flows
    fall back or demote and the leg measures eviction churn instead of
    fidelity. Hybrid runs promote after one cached hit."""
    sized = costs.replace(
        flow_fastpath=True,
        flow_fastpath_entries=max(costs.flow_fastpath_entries, 4 * n_conns),
        smartnic_sram_bytes=max(
            costs.smartnic_sram_bytes, 2 * n_conns * costs.conn_state_bytes),
        rx_ring_entries=2_048, tx_ring_entries=2_048,
        fast_forward=fast_forward,
    )
    return sized.replace(ff_promote_after=1) if fast_forward else sized


def run_scale(spec: Spec = E21, costs: CostModel = DEFAULT_COSTS) -> Row:
    """The scale leg: warm every flow to promotion, absorb and flush the
    rounds, and count what they cost; with a probe, also time the parity
    traffic packet-exact on a sample and report the speedup."""
    sc = spec.scale
    topo = _topology(spec, sc.conns, _scale_costs(costs, sc.conns, True))
    ff = topo.ff
    sim = topo.root.sim
    t0 = time.perf_counter()
    topo.warm(sc.warmup)
    promoted = topo.promoted()
    events0 = sim.events_fired
    absorbed = 0
    for _ in range(sc.rounds):
        for flow in topo.flows:
            if ff.absorb(flow, sc.bulk):
                absorbed += sc.bulk
        topo.flush()
        topo.root.run_all()
    hybrid_wall = time.perf_counter() - t0
    hybrid_pkts = sc.warmup * sc.conns + absorbed
    st = ff.stats()
    row: Row = {
        "connections": sc.conns,
        "packets_per_conn": sc.warmup + sc.bulk * sc.rounds,
        "promoted": promoted,
        "fluid_packets": st["fluid_packets"],
        "groups": st["groups"],
        "flow_rounds": sc.conns * sc.rounds,
        "epochs": st["epochs"],
        "group_epochs": st["group_epochs"],
        "hybrid_pkts": hybrid_pkts,
        "hybrid_wall_s": hybrid_wall,
        "hybrid_events": sim.events_fired,
        "absorb_events": sim.events_fired - events0,
    }
    if not sc.probe:
        return row
    # Measurement hygiene: free the hybrid topology before the probe is
    # built, so the two heaps never coexist and no full collection inside
    # the probe's timed interval walks the hybrid one.
    del topo, ff, sim
    gc.collect()

    # Exact probe: the same scale and capacity with fast_forward off; the
    # parity traffic on a sample of the population, since the per-packet
    # cost is what is measured and the structures are all at full size.
    ex = _topology(spec, sc.conns, _scale_costs(costs, sc.conns, False))
    sample = range(min(sc.probe, sc.conns))
    t0 = time.perf_counter()
    probe_pkts = sum(_round(ex, spec.traffic, PER_CONN, sample, {})
                     for _ in range(PROBE_ROUNDS))
    exact_wall = time.perf_counter() - t0
    exact_rate = probe_pkts / max(exact_wall, 1e-9)
    hybrid_rate = hybrid_pkts / max(hybrid_wall, 1e-9)
    row.update({
        "exact_probe_pkts": probe_pkts,
        "exact_probe_wall_s": exact_wall,
        "exact_ns_per_pkt": 1e9 / max(exact_rate, 1e-9),
        "hybrid_ns_per_pkt": 1e9 / max(hybrid_rate, 1e-9),
        "speedup": hybrid_rate / max(exact_rate, 1e-9),
    })
    return row


def bars(spec: Spec, parity: Dict[str, object], scale: Row
         ) -> Dict[str, bool]:
    """Every acceptance bar of ``spec`` against its two legs' results,
    by name."""
    out = {
        "parity": bool(parity["ok"]),
        f"fluid fraction > {spec.min_fluid}":
            parity["fluid_fraction"] > spec.min_fluid,
        "promoted == connections": scale["promoted"] == scale["connections"],
    }
    if spec.scale.probe:
        out[f"speedup >= {spec.min_speedup:g}x"] = (
            scale["speedup"] >= spec.min_speedup)
    if spec.min_flow_rounds_per_epoch:
        out["epochs are O(groups)"] = (
            scale["epochs"] == scale["group_epochs"]
            and scale["group_epochs"] * spec.min_flow_rounds_per_epoch
            < scale["flow_rounds"])
    return out


def headline(spec: Spec, parity: Dict[str, object], scale: Row) -> str:
    """One sentence: the parity leg's error and fluid share, and what the
    scale leg showed."""
    if spec.scale.probe:
        shown = (f"{scale['speedup']:.1f}x faster per packet than "
                 f"packet-exact at {scale['connections']:,} connections "
                 f"({scale['promoted']:,} promoted)")
    else:
        shown = (f"{scale['flow_rounds']:,} flow-rounds at "
                 f"{scale['connections']:,} connections cost "
                 f"{scale['group_epochs']:,} group epochs")
    return (f"{spec.subject} stay invisible in the snapshot (max relative "
            f"error {parity['max_rel_err']:.4%} against a "
            f"{parity['tolerance']:.0%} tolerance, "
            f"{parity['fluid_fraction']:.0%} of packet-legs fluid) and "
            f"{shown}")


def main(spec: Spec = E21) -> str:
    parity = run_parity(spec)
    scale = run_scale(spec)
    held = bars(spec, parity, scale)
    return "\n".join([
        f"parity: packet-exact vs hybrid, identical schedules "
        f"({' + '.join(spec.traffic)} x {spec.rounds} rounds, "
        f"{spec.conns:,} connections)",
        parity_report(parity),
        "",
        "scale: hybrid at scale" + (
            " vs a packet-exact probe" if spec.scale.probe else ""),
        fmt_table([scale]),
        "",
        "bars: " + ", ".join(f"{name} {'ok' if ok else 'FAILED'}"
                             for name, ok in held.items()),
        f"headline: {headline(spec, parity, scale)}",
    ])

