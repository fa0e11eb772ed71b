"""E23 — rack-scale fast-forward: end-to-end fluid epochs across the
switch hop.

Per-host fast-forward alone would demote a cross-host flow between two
rack hosts to packet-exact the moment it touches the wire: every send
would still run host A's full TX chain, the uplink, the switch, and the
downlink as discrete events. A :class:`~repro.dataplanes.multihost.Rack`
built with ``CostModel.fast_forward`` therefore always has a
:class:`~repro.sim.fastforward.RackFastForward` coordinator, which
composes the sender's TX profile with the switch-hop wire span at
promotion and binds it to the receiver's RX profile as one
end-to-end :class:`~repro.sim.fastforward.CrossMachineFlow`: promotion
waits until *both* stacks' verdict caches are steady and the switch path
is frozen (learned port, no match-action rules), and either side's demotion
boundary — or any switch-state change — demotes the whole flow before the
boundary's effect is simulated. Two legs defend it:

* **(a) fidelity parity** — an A→switch→B workload (spaced single sends,
  drained by the receiving application) runs twice from identical
  schedules: packet-exact vs cross-machine fluid. The two legs' rack
  snapshots — both hosts, the switch and every link — go through
  :func:`repro.sim.stats.parity` as in E21: counters exactly, modeled
  time within ``CostModel.ff_tolerance``, differences excused only
  where :data:`repro.sim.stats.EXEMPT` names the key. Trace-span
  conservation status per host is one of the exact keys, so it must
  agree between the legs (cross-host TX contexts are closed at the far
  end of the *uplink*, then the downlink's wire time lands on the closed
  context — a pre-existing exact-mode property that fluid replay
  reproduces by carrying the downlink span in the extended profile).
* **(b) wall-clock crossover** — 10k+ cross-host connections. The
  baseline is the packet-exact engine (``fast_forward`` off) at the same
  scale and capacity, probed on a sample of connections: every send runs
  A's TX chain, both links, the switch and B's RX chain as discrete
  events. The hybrid leg warms every flow to its end-to-end binding, then absorbs
  the schedule in bulk and flushes through the fluid switch path. The
  headline is the packets-per-wall-second ratio, required >= 5x.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from ..config import DEFAULT_COSTS, CostModel
from ..core import NormanOS
from ..dataplanes.multihost import HostSpec, Rack, rack_ip
from ..net.flow import FiveTuple
from ..net.headers import PROTO_UDP
from ..sim.stats import parity, snapshot
from .common import Row, fmt_table, parity_report
from .e21_fidelity_crossover import ff_stats

PAYLOAD = 1_458
PARITY_CONNS = 128
PARITY_ROUNDS = 6
SENDS_PER_ROUND = 4

CROSS_CONNS = 10_000
CROSS_BULK = 64
CROSS_ROUNDS = 4
PROBE_CONNS = 512
PROBE_ROUNDS = 2

#: Host A (the sender) and host B (the receiver) on the rack address plan.
A_IP, B_IP = rack_ip(0), rack_ip(1)
#: Port pools: B listens, A sends from its own bound ports.
B_PORT_BASE = 2_000
A_PORT_BASE = 22_000

#: Spacing between consecutive sends across the population — wide enough
#: that each send's TX chain (doorbell → PCIe fetch → pipeline → wire →
#: switch → downlink) drains before the next begins, so rings, qdisc, and
#: links stay empty: the steady state the end-to-end profile captures.
SEND_GAP_NS = 2_000

def _hybrid_costs(costs: CostModel, n_conns: int,
                  fast_forward: bool) -> CostModel:
    """Capacity sized for the population on *both* machines, with the
    fidelity knob for one leg: ``fast_forward=False`` is the packet-exact
    engine, ``fast_forward=True`` adds the per-host controllers and the
    rack coordinator."""
    return costs.replace(
        flow_fastpath=True,
        flow_fastpath_entries=max(costs.flow_fastpath_entries, 4 * n_conns),
        smartnic_sram_bytes=max(
            costs.smartnic_sram_bytes, 2 * n_conns * costs.conn_state_bytes),
        rx_ring_entries=2_048, tx_ring_entries=2_048,
        fast_forward=fast_forward,
    )


def _rack_testbed(n_conns: int, costs: CostModel,
                  n_cores: int = 4) -> Tuple[Rack, list, list]:
    """Two Norman hosts on one switch, ``n_conns`` A→B connections, and
    the switch taught where B lives (one B→A packet — the ARP-reply
    analogue; without it every A→B frame floods and no switch path is
    ever frozen). Identical in every leg, so it cancels in parity.
    Returns the rack with A's and B's endpoints."""
    tb = Rack([HostSpec.indexed(0, "hostA", NormanOS),
               HostSpec.indexed(1, "hostB", NormanOS)],
              costs=costs, n_cores=n_cores)
    host_a, host_b = tb.hosts
    app_cores = list(range(1, n_cores))
    a_procs = [host_a.spawn(f"cli{c}", "bob", core_id=c)
               for c in app_cores]
    b_procs = [host_b.spawn(f"srv{c}", "carol", core_id=c)
               for c in app_cores]
    a_eps = [
        host_a.dataplane.open_endpoint(
            a_procs[i % len(a_procs)], PROTO_UDP, A_PORT_BASE + i)
        for i in range(n_conns)
    ]
    b_eps = [
        host_b.dataplane.open_endpoint(
            b_procs[i % len(b_procs)], PROTO_UDP, B_PORT_BASE + i)
        for i in range(n_conns)
    ]
    tb.run_all()
    b_eps[0].send(64, (A_IP, A_PORT_BASE))
    tb.run_all()
    return tb, a_eps, b_eps


def _send_round(tb: Rack, a_eps, per_conn: int,
                subset=None) -> int:
    """Schedule ``per_conn`` spaced single-packet sends from every A
    endpoint (or a subset) toward its B counterpart. Returns the number
    scheduled."""
    idx = range(len(a_eps)) if subset is None else subset
    base = tb.sim.now + 1_000
    i = 0
    for _round in range(per_conn):
        for e in idx:
            tb.sim.at(base + i * SEND_GAP_NS, a_eps[e].send, PAYLOAD,
                      (B_IP, B_PORT_BASE + e))
            i += 1
    return i


def _drain_b(tb: Rack, b_eps, per_conn: int, subset=None) -> int:
    """Non-blocking drain of B's endpoints until dry (ring packets and
    fluid credit look identical to the application)."""
    idx = list(range(len(b_eps)) if subset is None else subset)
    consumed = [0]

    def _count(sig):
        if sig.ok:
            consumed[0] += len(sig.value)

    while True:
        before = consumed[0]
        for e in idx:
            b_eps[e].recv_burst(per_conn, blocking=False).add_callback(_count)
        tb.run_all()
        if consumed[0] == before:
            return consumed[0]


def run_leg(n_conns: int, rounds: int, costs: CostModel,
            exact: bool = False) -> Dict[str, object]:
    """One parity leg: per round, a wave of spaced A→B sends, then B's
    application drains. Both legs share every capacity knob — only the
    fidelity switches differ, so any divergence is the engine's fault."""
    leg_costs = costs.replace(
        trace=True, flow_fastpath=True,
        flow_fastpath_entries=max(costs.flow_fastpath_entries, 4 * n_conns),
    )
    if not exact:
        # promote_after=2: the receiver promotes on its 3rd packet, the
        # sender's first gate attempt is vetoed (the receiver's promotion
        # races one wire latency behind), and the rebuilt streak binds the
        # flow end-to-end on send 5 — leaving most of the schedule fluid.
        leg_costs = leg_costs.replace(fast_forward=True, ff_promote_after=2)
    tb, a_eps, b_eps = _rack_testbed(n_conns, leg_costs)
    delivered = 0
    t0 = time.perf_counter()
    for _round in range(rounds):
        _send_round(tb, a_eps, SENDS_PER_ROUND)
        tb.run_all()
        if tb.rack is not None:
            tb.rack.flush_all()
            tb.run_all()
        delivered += _drain_b(tb, b_eps, SENDS_PER_ROUND)
    wall = time.perf_counter() - t0
    stats = snapshot(tb)
    stats["app/delivered"] = float(delivered)
    return {"stats": stats, "wall_s": wall, "events": tb.sim.events_fired}


def run_parity(
    n_conns: int = PARITY_CONNS,
    rounds: int = PARITY_ROUNDS,
    costs: CostModel = DEFAULT_COSTS,
) -> Dict[str, object]:
    """Leg (a): packet-exact vs end-to-end cross-machine fluid, same
    schedule."""
    exact = run_leg(n_conns, rounds, costs, exact=True)
    hybrid = run_leg(n_conns, rounds, costs)
    tol = costs.ff_tolerance
    result = parity(exact["stats"], hybrid["stats"], tol)
    # Conservation is an exact-match key *between legs*, not an absolute:
    # cross-host TX contexts get the far downlink's wire time charged
    # after close in exact mode (see module docstring), and the fluid
    # replay reproduces exactly that. The receive side must agree too —
    # on this workload B's contexts conserve in both legs except for B's
    # single switch-teach send, which breaks both equally.
    conserved_ok = all(
        exact["stats"][k] == hybrid["stats"][k]
        for k in ("hostA/machine/tracer/conserved",
                  "hostB/machine/tracer/conserved"))
    rack = ff_stats(hybrid["stats"], "rack/")
    bound_ok = rack.get("bindings", 0) >= n_conns
    fluid = sum(ff_stats(hybrid["stats"], f"{h}/machine/ff/")
                .get("fluid_packets", 0) for h in ("hostA", "hostB"))
    total = hybrid["stats"]["app/delivered"] * 2  # a TX and an RX leg each
    return {
        **result,
        "ok": bool(result["ok"] and conserved_ok and bound_ok),
        "exact": exact,
        "hybrid": hybrid,
        "tolerance": tol,
        "conserved_ok": bool(conserved_ok),
        "bound_ok": bool(bound_ok),
        "fluid_fraction": fluid / max(total, 1),
        "rack": rack,
    }


def _warm_to_binding(tb: Rack, a_eps, warmup_rounds: int) -> None:
    """Exact rounds until every flow is bound end-to-end: the receiver
    promotes on its first cached hit, then the sender's gated TX promotion
    lands one round later."""
    for _ in range(warmup_rounds):
        _send_round(tb, a_eps, 1)
        tb.run_all()


def run_crossover(
    n_conns: int = CROSS_CONNS,
    bulk: int = CROSS_BULK,
    rounds: int = CROSS_ROUNDS,
    probe_conns: int = PROBE_CONNS,
    costs: CostModel = DEFAULT_COSTS,
) -> Row:
    """Leg (b): end-to-end fluid at full scale vs the packet-exact engine
    probed at the same scale; speedup is the cross-host
    packets-per-wall-second ratio."""
    # Hybrid leg: warm to binding, then absorb + flush through the switch.
    hy = _hybrid_costs(costs, n_conns, fast_forward=True).replace(
        ff_promote_after=1)
    # Receiver promotes after miss + streak; the gated TX side needs one
    # more round to see a promoted receiver.
    warmup = 3 + hy.ff_promote_after
    tb, a_eps, _b_eps = _rack_testbed(n_conns, hy)
    a_ff = tb.hosts[0].machine.ff
    assert a_ff is not None and tb.rack is not None
    t0 = time.perf_counter()
    _warm_to_binding(tb, a_eps, warmup)
    bound = tb.rack.bound
    flows = [
        FiveTuple(PROTO_UDP, A_IP, A_PORT_BASE + i,
                  B_IP, B_PORT_BASE + i)
        for i in range(n_conns)
    ]
    absorbed = 0
    for _round in range(rounds):
        for flow in flows:
            if a_ff.absorb(flow, bulk):
                absorbed += bulk
        tb.rack.flush_all()
        tb.run_all()
    hybrid_wall = time.perf_counter() - t0
    hybrid_pkts = warmup * n_conns + absorbed
    hybrid_events = tb.sim.events_fired

    # Baseline: the packet-exact engine at the same scale and capacity,
    # probed on a sample — every A→B send runs the full TX chain, both
    # links, the switch and B's RX chain as discrete events.
    base_costs = _hybrid_costs(costs, n_conns, fast_forward=False)
    ex, ex_a_eps, ex_b_eps = _rack_testbed(n_conns, base_costs)
    subset = range(0, min(probe_conns, n_conns))
    t0 = time.perf_counter()
    probe_pkts = 0
    for _round in range(PROBE_ROUNDS):
        probe_pkts += _send_round(ex, ex_a_eps, SENDS_PER_ROUND,
                                  subset=subset)
        ex.run_all()
        _drain_b(ex, ex_b_eps, SENDS_PER_ROUND, subset=subset)
    exact_wall = time.perf_counter() - t0

    exact_rate = probe_pkts / max(exact_wall, 1e-9)
    hybrid_rate = hybrid_pkts / max(hybrid_wall, 1e-9)
    return {
        "connections": n_conns,
        "bound": bound,
        "fluid_packets": a_ff.fluid_packets,
        "hybrid_pkts": hybrid_pkts,
        "hybrid_wall_s": hybrid_wall,
        "hybrid_events": hybrid_events,
        "exact_probe_pkts": probe_pkts,
        "exact_probe_wall_s": exact_wall,
        "exact_ns_per_pkt": 1e9 / max(exact_rate, 1e-9),
        "hybrid_ns_per_pkt": 1e9 / max(hybrid_rate, 1e-9),
        "speedup": hybrid_rate / max(exact_rate, 1e-9),
    }


def headline(parity: Dict[str, object], speedup: Optional[Row]) -> dict:
    h = {
        "parity_ok": parity["ok"],
        "tolerance": parity["tolerance"],
        "fluid_fraction": parity["fluid_fraction"],
        "bound_ok": parity["bound_ok"],
        "max_rel_err": parity["max_rel_err"],
    }
    if speedup is not None:
        h["connections"] = speedup["connections"]
        h["bound"] = speedup["bound"]
        h["speedup"] = speedup["speedup"]
    return h


def main() -> str:
    parity = run_parity()
    speedup = run_crossover()
    h = headline(parity, speedup)
    return "\n".join([
        "rack parity (a = packet-exact vs b = end-to-end fluid, "
        "A -> switch -> B)",
        parity_report(parity),
        "",
        "rack crossover (end-to-end fluid vs packet-exact engine)",
        fmt_table([speedup]),
        "",
        f"headline: cross-machine fluid epochs are invisible in the rack "
        f"snapshot (max relative error {h['max_rel_err']:.4%} against a "
        f"{h['tolerance']:.0%} tolerance, {h['fluid_fraction']:.0%} of "
        f"packet-legs fluid) and {h['speedup']:.1f}x faster than "
        f"packet-exact at {h['connections']:,} cross-host connections "
        f"({h['bound']:,} bound end-to-end)",
    ])


if __name__ == "__main__":
    print(main())
