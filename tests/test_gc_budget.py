"""The garbage-collector budget of queued packets and promoted flows.

Packets waiting in RX rings are the simulator's largest long-lived
population (16,384 at E8's 4096-connection point), and every object the
collector tracks for them is rescanned by each full collection. A queued
packet may keep at most its ``Packet`` and ``PacketMeta`` tracked, plus
slack: its headers and five-tuple are shared per flow through the
sender's header memo, and its notification is stored as a plain
(untracked) tuple.

Promoted fast-forward flows are the other large population (100,000
flow-directions in each E21/E22 scale leg). A promoted flow-direction
keeps its FlowState, FlowProfile and one slotted replay record, and
shares its span list and version vector with its group.
"""

import gc

from repro import NormanOS, PEER_IP, PROTO_UDP, Testbed
from repro.config import DEFAULT_COSTS
import repro.net.packet as packet_module

CONNS = 64
PKTS_PER_CONN = 4
BASE_PORT = 10_000
#: Tracked objects a queued packet may add, at most.
BUDGET_PER_PACKET = 3


def _send_round(tb, pkts_per_conn):
    base = tb.sim.now + 1_000
    i = 0
    for _ in range(pkts_per_conn):
        for conn in range(CONNS):
            tb.sim.at(base + i * 2_000, tb.peer.send_udp, 600,
                      BASE_PORT + conn, 1_200)
            i += 1
    tb.run_all()


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_queued_packets_stay_within_the_gc_budget():
    tb = Testbed(NormanOS)
    proc = tb.spawn("srv", "bob", core_id=1)
    eps = [tb.dataplane.open_endpoint(proc, PROTO_UDP, BASE_PORT + i)
           for i in range(CONNS)]
    tb.run_all()
    # Warm every flow once (header memo, steering and first-packet state)
    # and drain it, so what follows measures only the queued packets.
    _send_round(tb, 1)
    for ep in eps:
        ep.recv_burst(1, blocking=False)
    tb.run_all()
    queued_before = sum(ep.conn.rings.rx.occupancy for ep in eps)
    assert queued_before == 0

    before = _tracked()
    _send_round(tb, PKTS_PER_CONN)
    after = _tracked()

    queued = sum(ep.conn.rings.rx.occupancy for ep in eps)
    assert queued == CONNS * PKTS_PER_CONN
    per_packet = (after - before) / queued
    assert per_packet <= BUDGET_PER_PACKET, (
        f"{per_packet:.2f} new tracked objects per queued packet")


def test_packet_module_keeps_no_header_cache():
    tb = Testbed(NormanOS)
    proc = tb.spawn("srv", "bob", core_id=1)
    tb.dataplane.open_endpoint(proc, PROTO_UDP, BASE_PORT)
    tb.run_all()
    for _ in range(3):
        tb.peer.send_udp(600, BASE_PORT, 1_200)
    tb.run_all()
    caches = {
        name: value for name, value in vars(packet_module).items()
        if not name.startswith("__")
        and (isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"))
    }
    assert caches == {}


#: Tracked objects a promoted flow may add per direction, at most. The
#: promoting packet leaves a FlowState, a FlowProfile and one replay
#: record per direction, plus the exact TX packet the peer keeps. This
#: test measures 4.6 with slotted replay records, and 22.6 with
#: ``deliver`` as a closure (a function, its cell tuple and a cell per
#: captured name), which the bound rejects.
BUDGET_PER_PROMOTED_FLOW = 6
PAYLOAD = 1_200


def _ff_round(tb, eps):
    """One RX packet per flow from the peer and one single-packet send per
    flow to it, spaced, then a drain of every endpoint."""
    base = tb.sim.now + 1_000
    for i in range(CONNS):
        tb.sim.at(base + i * 2_000, tb.peer.send_udp, 600, BASE_PORT + i,
                  PAYLOAD)
    tb.run_all()
    for ep in eps:
        ep.recv_burst(4, blocking=False)
    tb.run_all()
    base = tb.sim.now + 1_000
    for i, ep in enumerate(eps):
        tb.sim.at(base + i * 2_000, ep.send, PAYLOAD, (PEER_IP, 600))
    tb.run_all()


def test_promoted_flows_stay_within_the_gc_budget():
    costs = DEFAULT_COSTS.replace(flow_fastpath=True, fast_forward=True,
                                  ff_promote_after=1)
    tb = Testbed(NormanOS, costs=costs)
    proc = tb.spawn("srv", "bob", core_id=1)
    eps = [tb.dataplane.open_endpoint(proc, PROTO_UDP, BASE_PORT + i)
           for i in range(CONNS)]
    tb.run_all()
    # The first packet each way installs the verdict (a cache miss), so
    # it warms every per-flow structure but promotes nothing.
    _ff_round(tb, eps)
    ff = tb.machine.ff
    assert ff.promoted_count == 0

    before = _tracked()
    _ff_round(tb, eps)
    after = _tracked()

    promoted = ff.promoted_count
    assert promoted == 2 * CONNS
    per_flow = (after - before) / promoted
    assert per_flow <= BUDGET_PER_PROMOTED_FLOW, (
        f"{per_flow:.2f} new tracked objects per promoted flow-direction")
