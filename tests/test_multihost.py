"""Two full hosts over the L2 switch: end-to-end cross-host paths."""

import pytest

from repro.core import NormanOS
from repro.dataplanes import BypassDataplane, KernelPathDataplane
from repro.dataplanes.multihost import HostSpec, Rack, rack_ip, rack_mac
from repro.net import PROTO_UDP
from repro.sim import SimProcess
from repro.tools import Tcpdump

A_IP, A_MAC = rack_ip(0), rack_mac(0)
B_IP, B_MAC = rack_ip(1), rack_mac(1)


def _pair(plane_a, plane_b):
    """Host A and host B on one switch: a two-entry rack."""
    return Rack([HostSpec.indexed(0, "hostA", plane_a),
                 HostSpec.indexed(1, "hostB", plane_b)])


class TestNormanToNorman:
    def test_message_crosses_hosts(self):
        tb = _pair(NormanOS, NormanOS)
        client = tb.hosts[0].spawn("client", "bob", core_id=1)
        server = tb.hosts[1].spawn("server", "charlie", core_id=1)
        ep_c = tb.hosts[0].dataplane.open_endpoint(client, PROTO_UDP, 6000)
        ep_s = tb.hosts[1].dataplane.open_endpoint(server, PROTO_UDP, 7000)
        got = []

        def srv():
            msg = yield ep_s.recv(blocking=True)
            got.append(msg)

        SimProcess(tb.sim, srv())
        ep_c.send(300, dst=(B_IP, 7000))
        tb.run_all()
        assert len(got) == 1
        size, src_ip, sport = got[0]
        assert (size, src_ip, sport) == (300, A_IP, 6000)

    def test_request_response_round_trip(self):
        tb = _pair(NormanOS, NormanOS)
        client = tb.hosts[0].spawn("client", "bob", core_id=1)
        server = tb.hosts[1].spawn("server", "charlie", core_id=1)
        ep_c = tb.hosts[0].dataplane.open_endpoint(client, PROTO_UDP, 6000)
        ep_s = tb.hosts[1].dataplane.open_endpoint(server, PROTO_UDP, 7000)
        rtts = []

        def srv():
            while True:
                size, src_ip, sport = yield ep_s.recv(blocking=True)
                yield ep_s.send(size, dst=(src_ip, sport))

        def cli():
            yield ep_c.connect(B_IP, 7000)
            for _ in range(3):
                start = tb.sim.now
                yield ep_c.send(128)
                yield ep_c.recv(blocking=True)
                rtts.append(tb.sim.now - start)
            ep_s.close()

        SimProcess(tb.sim, srv())
        SimProcess(tb.sim, cli())
        tb.run_all()
        assert len(rtts) == 3
        assert all(r > 0 for r in rtts)

    def test_switch_learns_both_macs(self):
        tb = _pair(NormanOS, NormanOS)
        a = tb.hosts[0].spawn("a", "bob", core_id=1)
        b = tb.hosts[1].spawn("b", "bob", core_id=1)
        ep_a = tb.hosts[0].dataplane.open_endpoint(a, PROTO_UDP, 6000)
        ep_b = tb.hosts[1].dataplane.open_endpoint(b, PROTO_UDP, 7000)
        ep_a.send(10, dst=(B_IP, 7000))
        ep_b.send(10, dst=(A_IP, 6000))
        tb.run_all()
        table = tb.switch.mac_table()
        assert table[A_MAC] == 0
        assert table[B_MAC] == 1


class TestMixedPlanes:
    def test_norman_serves_bypass_client(self):
        tb = _pair(BypassDataplane, NormanOS)
        client = tb.hosts[0].spawn("dpdk-client", "bob", core_id=1)
        server = tb.hosts[1].spawn("server", "charlie", core_id=1)
        ep_c = tb.hosts[0].dataplane.open_endpoint(client, PROTO_UDP, 6000)
        ep_s = tb.hosts[1].dataplane.open_endpoint(server, PROTO_UDP, 7000)
        got = []

        def srv():
            msg = yield ep_s.recv(blocking=True)
            got.append(msg)

        SimProcess(tb.sim, srv())
        ep_c.send(222, dst=(B_IP, 7000))
        tb.run_all()
        assert got[0][0] == 222

    def test_capture_on_receiving_host_attributes_local_process(self):
        """Host B's KOPI tcpdump attributes *its* side of a cross-host flow
        — attribution is a host-local concept, as the paper frames it."""
        tb = _pair(BypassDataplane, NormanOS)
        client = tb.hosts[0].spawn("remote-app", "bob", core_id=1)
        server = tb.hosts[1].spawn("server", "charlie", core_id=1)
        ep_c = tb.hosts[0].dataplane.open_endpoint(client, PROTO_UDP, 6000)
        ep_s = tb.hosts[1].dataplane.open_endpoint(server, PROTO_UDP, 7000)
        dump = Tcpdump(tb.hosts[1].dataplane)
        session = dump.start("udp")
        ep_c.send(100, dst=(B_IP, 7000))
        tb.run_all()
        assert len(session.packets) == 1
        owner = tb.hosts[1].dataplane.attribution_of(session.packets[0])
        assert owner is not None and owner[2] == "server"  # local socket owner

    def test_kernel_path_host_interoperates(self):
        tb = _pair(KernelPathDataplane, NormanOS)
        client = tb.hosts[0].spawn("legacy", "bob", core_id=1)
        server = tb.hosts[1].spawn("server", "charlie", core_id=1)
        ep_c = tb.hosts[0].dataplane.open_endpoint(client, PROTO_UDP, 6000)
        ep_s = tb.hosts[1].dataplane.open_endpoint(server, PROTO_UDP, 7000)
        got = []

        def srv():
            msg = yield ep_s.recv(blocking=True)
            got.append(msg)

        SimProcess(tb.sim, srv())
        ep_c.send(64, dst=(B_IP, 7000))
        tb.run_all()
        assert got[0][0] == 64


class TestCrossHostPolicy:
    def test_owner_filter_on_sender_blocks_cross_host(self):
        tb = _pair(NormanOS, NormanOS)
        from repro.kernel import CHAIN_OUTPUT, DROP, NetfilterRule

        bob = tb.hosts[0].user("bob")
        rogue = tb.hosts[0].spawn("rogue", "bob", core_id=1)
        ep = tb.hosts[0].dataplane.open_endpoint(rogue, PROTO_UDP, 6000)
        tb.hosts[0].dataplane.install_filter_rule(
            NetfilterRule(verdict=DROP, chain=CHAIN_OUTPUT, dport=7000,
                          uid_owner=bob.uid)
        )
        server = tb.hosts[1].spawn("server", "charlie", core_id=1)
        ep_s = tb.hosts[1].dataplane.open_endpoint(server, PROTO_UDP, 7000)
        tb.run_all()
        ep.send(10, dst=(B_IP, 7000))
        tb.run_all()
        assert ep_s.conn.rings.rx.occupancy == 0
        assert tb.hosts[0].dataplane.nic.metrics.counter("tx_filtered").value == 1
