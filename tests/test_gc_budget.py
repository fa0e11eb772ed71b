"""The exact packet path's garbage-collector budget.

Packets waiting in RX rings are the simulator's largest long-lived
population (16,384 at E8's 4096-connection point), and every object the
collector tracks for them is rescanned by each full collection. A queued
packet may keep at most its ``Packet`` and ``PacketMeta`` tracked, plus
slack: its headers and five-tuple are shared per flow through the
sender's header memo, and its notification is stored as a plain
(untracked) tuple.
"""

import gc

from repro import NormanOS, PROTO_UDP, Testbed
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
