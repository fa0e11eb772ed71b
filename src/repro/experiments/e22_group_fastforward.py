"""E22 — group fast-forward: one fluid epoch for many flows, and the TX
side of the boundary.

Fast-forward coalesces promoted flows that share a charging shape — same
plane, same interposition chain version vector, same stage profile —
into a :class:`~repro.sim.fastforward.FlowGroup` charged by a *single*
epoch event, and extends to the TX path: steady single-send
schedules (app timer -> syscall -> qdisc -> ring doorbell -> wire) absorb
into fluid epochs exactly like RX bursts, demoting at the same
interposition boundaries. Two legs defend the change:

* **(a) fidelity parity** — an RX+TX workload (peer bursts drained by the
  application, plus spaced application sends toward the peer) runs twice
  from identical schedules: packet-exact vs hybrid. The two legs'
  whole-simulation stats snapshots (plus the messages the application
  read and sent) go through :func:`repro.sim.stats.parity` exactly as in
  E21 — on top of the RX side this covers NIC ``tx_pkts``, the peer's
  ``rx_pkts``/``rx_bytes``, the egress link, the qdisc, doorbell
  ``mmio_writes`` and the TX DMA copy ledger.
* **(b) group scale** — at 100k+ connections, every flow is warmed to
  promotion and an absorb/flush schedule runs over the whole population.
  The check is structural and deterministic: every connection promoted,
  every epoch a group epoch (no per-flow residue), and epoch events
  O(groups), not O(flows) — more than ``MIN_FLOW_ROUNDS_PER_EPOCH``
  flow-rounds per group epoch, where one epoch per flow per round would
  give exactly one.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..config import DEFAULT_COSTS, CostModel
from ..dataplanes import Testbed
from ..dataplanes.testbed import HOST_IP, PEER_IP
from ..net.flow import FiveTuple
from ..sim.stats import parity, snapshot
from .common import Row, fmt_table, parity_report
from .e21_fidelity_crossover import (
    BURST_PER_CONN,
    PAYLOAD,
    _drain,
    _leg_testbed,
    _send_burst,
    _speedup_costs,
    ff_stats,
)

PARITY_CONNS = 256
PARITY_ROUNDS = 4
#: Application sends per connection per round (single-packet sends — the
#: steady shape TX fast-forward absorbs; multi-packet bursts stay exact).
TX_PER_ROUND = 4
#: Spacing between consecutive sends across the whole population. Wide
#: enough that each send's TX chain (doorbell -> PCIe fetch -> pipeline ->
#: wire) completes before the next begins: rings and qdisc stay empty,
#: which is the steady state the TX profile captures.
TX_GAP_NS = 2_000

GROUP_CONNS = 100_000
#: Packets absorbed per connection per measured flush round.
GROUP_BULK = 64
GROUP_ROUNDS = 4
#: Leg (b)'s bar: epoch events are O(groups), not O(flows) — each group
#: epoch must stand for more than this many flow-rounds.
MIN_FLOW_ROUNDS_PER_EPOCH = 10

def _send_tx(tb: Testbed, eps, per_conn: int) -> int:
    """Schedule ``per_conn`` spaced single-packet sends from every
    endpoint toward the peer. Returns the number scheduled."""
    base = tb.sim.now + 1_000
    i = 0
    for _round in range(per_conn):
        for ep in eps:
            tb.sim.at(base + i * TX_GAP_NS, ep.send, PAYLOAD, (PEER_IP, 600))
            i += 1
    return i


def run_leg(
    n_conns: int,
    rounds: int,
    costs: CostModel,
    fast_forward: bool,
) -> Dict[str, object]:
    """One parity leg: per round, an RX burst drained by the application,
    then a wave of spaced application sends. Identical schedule either
    way; only the fidelity knob differs."""
    leg_costs = costs.replace(
        trace=True, flow_fastpath=True, fast_forward=fast_forward,
        flow_fastpath_entries=max(costs.flow_fastpath_entries, 4 * n_conns),
    )
    tb, eps, slots = _leg_testbed(n_conns, leg_costs)
    delivered = 0
    tx_sent = 0
    t0 = time.perf_counter()
    for _round in range(rounds):
        _send_burst(tb, eps, slots, BURST_PER_CONN)
        tb.run_all()
        delivered += _drain(tb, eps, BURST_PER_CONN)
        tx_sent += _send_tx(tb, eps, TX_PER_ROUND)
        tb.run_all()
    wall = time.perf_counter() - t0
    stats = snapshot(tb)
    stats["app/delivered"] = float(delivered)
    stats["app/tx_sent"] = float(tx_sent)
    return {"stats": stats, "wall_s": wall, "events": tb.sim.events_fired}


def run_parity(
    n_conns: int = PARITY_CONNS,
    rounds: int = PARITY_ROUNDS,
    costs: CostModel = DEFAULT_COSTS,
) -> Dict[str, object]:
    """Leg (a): exact vs hybrid (groups + TX fast-forward on) over the
    combined RX+TX schedule."""
    exact = run_leg(n_conns, rounds, costs, fast_forward=False)
    hybrid = run_leg(n_conns, rounds, costs, fast_forward=True)
    tol = costs.ff_tolerance
    result = parity(exact["stats"], hybrid["stats"], tol)
    conserved = all(leg["stats"]["machine/tracer/conserved"] == 1.0
                    for leg in (exact, hybrid))
    ff = ff_stats(hybrid["stats"])
    total_pkts = (hybrid["stats"]["app/delivered"]
                  + hybrid["stats"]["app/tx_sent"])
    # Grouping must actually engage on both directions: RX and TX flows
    # promote on different planes, so a grouped hybrid leg sees >= 2
    # distinct groups and at least one group epoch.
    grouped = ff.get("group_epochs", 0) > 0 and ff.get("groups", 0) >= 2
    return {
        **result,
        "ok": bool(result["ok"] and conserved and grouped),
        "exact": exact,
        "hybrid": hybrid,
        "tolerance": tol,
        "fluid_fraction": ff["fluid_packets"] / max(total_pkts, 1),
        "grouped": bool(grouped),
        "ff": ff,
    }


def run_group_scale(
    n_conns: int = GROUP_CONNS,
    bulk: int = GROUP_BULK,
    rounds: int = GROUP_ROUNDS,
    costs: CostModel = DEFAULT_COSTS,
) -> Row:
    """Leg (b): warm every flow to promotion with exact packets, then run
    ``rounds`` absorb/flush rounds over the whole population and count the
    epoch events they cost."""
    leg_costs = _speedup_costs(costs, n_conns).replace(
        fast_forward=True, ff_promote_after=1,
    )
    tb, eps, slots = _leg_testbed(n_conns, leg_costs)
    ff = tb.machine.ff
    assert ff is not None
    warmup = 1 + leg_costs.ff_promote_after  # install miss + promotion streak
    for _ in range(warmup):
        _send_burst(tb, eps, slots, 1)
        tb.run_all()
        _drain(tb, eps, 1)
    flows = [FiveTuple(proto, PEER_IP, 600, HOST_IP, port)
             for proto, port in slots]
    promoted = ff.promoted_count
    events0 = tb.sim.events_fired
    absorbed = 0
    for _round in range(rounds):
        for flow in flows:
            if ff.absorb(flow, bulk):
                absorbed += bulk
        ff.flush_all()
        tb.run_all()
    stats = ff.stats()
    flow_rounds = n_conns * rounds
    ok = (promoted == n_conns
          and stats["epochs"] == stats["group_epochs"]
          and stats["group_epochs"] * MIN_FLOW_ROUNDS_PER_EPOCH < flow_rounds)
    return {
        "connections": n_conns,
        "promoted": promoted,
        "fluid_pkts": absorbed,
        "groups": stats["groups"],
        "flow_rounds": flow_rounds,
        "epochs": stats["epochs"],
        "group_epochs": stats["group_epochs"],
        "events": tb.sim.events_fired - events0,
        "ok": ok,
    }


def headline(parity: Dict[str, object], scale: Optional[Row]) -> dict:
    h = {
        "parity_ok": parity["ok"],
        "tolerance": parity["tolerance"],
        "fluid_fraction": parity["fluid_fraction"],
        "grouped": parity["grouped"],
        "max_rel_err": parity["max_rel_err"],
    }
    if scale is not None:
        h["connections"] = scale["connections"]
        h["flow_rounds"] = scale["flow_rounds"]
        h["group_epochs"] = scale["group_epochs"]
    return h


def main() -> str:
    parity = run_parity()
    scale = run_group_scale()
    h = headline(parity, scale)
    return "\n".join([
        "group + TX fast-forward parity (a = exact vs b = hybrid, RX and TX "
        "schedules)",
        parity_report(parity),
        "",
        "group epochs at scale (one epoch per group, not per flow)",
        fmt_table([scale]),
        "",
        f"headline: flow groups and TX fast-forward stay invisible in the "
        f"snapshot (max relative error {h['max_rel_err']:.4%} "
        f"against a {h['tolerance']:.0%} tolerance, {h['fluid_fraction']:.0%} "
        f"of packets fluid) and {h['flow_rounds']:,} flow-rounds at "
        f"{h['connections']:,} connections cost {h['group_epochs']:,} "
        f"group epochs",
    ])


if __name__ == "__main__":
    print(main())
