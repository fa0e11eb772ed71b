"""Administrative capabilities per dataplane — the raw material of E3."""

import pytest

from repro.dataplanes import (
    BypassDataplane,
    HypervisorDataplane,
    KernelPathDataplane,
    QosConfig,
    SidecarDataplane,
    Testbed,
)
from repro.dataplanes.testbed import PEER_IP
from repro.errors import UnsupportedOperation
from repro.kernel import ACCEPT, DROP, NetfilterRule
from repro.net import PROTO_UDP, make_arp_request
from repro.sim import SimProcess


def owner_drop_rule(uid):
    return NetfilterRule(verdict=DROP, chain="OUTPUT", dport=5432, uid_owner=uid)


def header_drop_rule():
    return NetfilterRule(verdict=DROP, chain="OUTPUT", dport=5432)


class TestFilters:
    @pytest.mark.parametrize("plane", [KernelPathDataplane, SidecarDataplane], ids=lambda c: c.name)
    def test_owner_filter_enforced_on_host(self, plane):
        tb = Testbed(plane)
        bob = tb.user("bob")
        rogue = tb.spawn("rogue", "bob", core_id=1)
        tb.dataplane.install_filter_rule(owner_drop_rule(bob.uid))
        ep = tb.dataplane.open_endpoint(rogue, PROTO_UDP, 6000)
        results = []
        ep.send(100, dst=(PEER_IP, 5432)).add_callback(lambda s: results.append(s.value))
        ep.send(100, dst=(PEER_IP, 80)).add_callback(lambda s: results.append(s.value))
        tb.run_all()
        assert results == [False, True]
        assert len(tb.peer.received) == 1
        assert tb.peer.received[0].five_tuple.dport == 80

    def test_bypass_cannot_filter_at_all(self):
        tb = Testbed(BypassDataplane)
        with pytest.raises(UnsupportedOperation):
            tb.dataplane.install_filter_rule(header_drop_rule())

    def test_hypervisor_header_yes_owner_no(self):
        tb = Testbed(HypervisorDataplane)
        tb.dataplane.install_filter_rule(header_drop_rule())  # fine
        with pytest.raises(UnsupportedOperation):
            tb.dataplane.install_filter_rule(owner_drop_rule(1000))

    def test_hypervisor_header_filter_drops_on_wire(self):
        tb = Testbed(HypervisorDataplane)
        proc = tb.spawn("app", "bob", core_id=1)
        tb.dataplane.install_filter_rule(header_drop_rule())
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        ep.send(100, dst=(PEER_IP, 5432))
        ep.send(100, dst=(PEER_IP, 80))
        tb.run_all()
        assert len(tb.peer.received) == 1
        assert tb.dataplane.metrics.counter("dropped").value == 1


class TestQos:
    def test_kernel_and_sidecar_accept_cgroup_qos(self):
        for plane in (KernelPathDataplane, SidecarDataplane):
            tb = Testbed(plane)
            tb.kernel.cgroups.create("/games")
            tb.dataplane.configure_qos(QosConfig(weights_by_cgroup={"/games": 1, "/work": 3}))

    @pytest.mark.parametrize("plane", [BypassDataplane, HypervisorDataplane], ids=lambda c: c.name)
    def test_offpath_planes_refuse_cgroup_qos(self, plane):
        tb = Testbed(plane)
        with pytest.raises(UnsupportedOperation):
            tb.dataplane.configure_qos(QosConfig(weights_by_cgroup={"/games": 1}))

    def test_empty_qos_rejected(self):
        with pytest.raises(UnsupportedOperation):
            QosConfig(weights_by_cgroup={})


class TestCapture:
    @pytest.mark.parametrize("plane", [KernelPathDataplane, SidecarDataplane], ids=lambda c: c.name)
    def test_onhost_capture_is_attributed(self, plane):
        tb = Testbed(plane)
        proc = tb.spawn("postgres", "bob", core_id=1)
        session = tb.dataplane.start_capture()
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        ep.send(100, dst=(PEER_IP, 9000))
        tb.run_all()
        assert session.attributed
        assert len(session.packets) == 1
        assert tb.dataplane.attribution_of(session.packets[0])[2] == "postgres"
        session.stop()
        ep.send(100, dst=(PEER_IP, 9000))
        tb.run_all()
        assert len(session.packets) == 1

    def test_bypass_has_no_capture(self):
        tb = Testbed(BypassDataplane)
        with pytest.raises(UnsupportedOperation):
            tb.dataplane.start_capture()

    def test_hypervisor_capture_global_but_unattributed(self):
        tb = Testbed(HypervisorDataplane)
        a = tb.spawn("app-a", "bob", core_id=1)
        b = tb.spawn("app-b", "charlie", core_id=2)
        session = tb.dataplane.start_capture()
        tb.dataplane.open_endpoint(a, PROTO_UDP, 6000).send(10, dst=(PEER_IP, 1))
        tb.dataplane.open_endpoint(b, PROTO_UDP, 6001).send(10, dst=(PEER_IP, 2))
        tb.run_all()
        assert len(session.packets) == 2  # global view: both apps' traffic
        assert not session.attributed
        assert all(tb.dataplane.attribution_of(p) is None for p in session.packets)

    def test_capture_filter(self):
        tb = Testbed(KernelPathDataplane)
        proc = tb.spawn("app", "bob", core_id=1)
        session = tb.dataplane.start_capture(
            match=lambda p: p.five_tuple is not None and p.five_tuple.dport == 9000
        )
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        ep.send(10, dst=(PEER_IP, 9000))
        ep.send(10, dst=(PEER_IP, 9001))
        tb.run_all()
        assert len(session.packets) == 1


class TestArpVisibility:
    def test_kernel_path_sees_inbound_arp(self):
        tb = Testbed(KernelPathDataplane)
        tb.peer.send(make_arp_request(tb.peer.mac, tb.peer.ip, PEER_IP))
        tb.run_all()
        entries = tb.dataplane.arp_entries()
        assert len(entries) == 1
        assert entries[0].mac == tb.peer.mac

    def test_bypass_kernel_arp_cache_is_blind(self):
        """Apps speak their own ARP; the kernel cache never learns —
        the §2 debugging pathology."""
        tb = Testbed(BypassDataplane)
        proc = tb.spawn("flooder", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        from repro.dataplanes.testbed import HOST_MAC, HOST_IP

        def flood():
            for _ in range(5):
                yield ep.send_raw(make_arp_request(HOST_MAC, HOST_IP, PEER_IP))

        SimProcess(tb.sim, flood())
        tb.run_all()
        assert len(tb.peer.received) == 5  # the flood went out...
        assert tb.dataplane.arp_entries() == []  # ...and the kernel saw nothing

    def test_hypervisor_sees_arp_without_pids(self):
        tb = Testbed(HypervisorDataplane)
        proc = tb.spawn("flooder", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        from repro.dataplanes.testbed import HOST_MAC, HOST_IP

        ep.send_raw(make_arp_request(HOST_MAC, HOST_IP, PEER_IP))
        tb.run_all()
        entries = tb.dataplane.arp_entries()
        assert len(entries) == 1
        assert entries[0].source_pid is None  # global view, no process view


class TestRawInjection:
    def test_kernel_path_forbids_raw_frames(self):
        tb = Testbed(KernelPathDataplane)
        proc = tb.spawn("app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        from repro.dataplanes.testbed import HOST_MAC, HOST_IP

        with pytest.raises(UnsupportedOperation):
            ep.send_raw(make_arp_request(HOST_MAC, HOST_IP, PEER_IP))

    def test_sidecar_attributes_raw_frames(self):
        tb = Testbed(SidecarDataplane)
        proc = tb.spawn("app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        session = tb.dataplane.start_capture()
        ep.send(50, dst=(PEER_IP, 80))
        tb.run_all()
        assert tb.dataplane.attribution_of(session.packets[0])[2] == "app"


class TestDataMovement:
    def test_kernel_counts_virtual_moves(self):
        tb = Testbed(KernelPathDataplane)
        proc = tb.spawn("app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        ep.send(1_000, dst=(PEER_IP, 80))
        tb.run_all()
        moves = tb.dataplane.data_movements()
        assert moves["virtual"] >= 1
        assert moves["virtual_copied_bytes"] >= 1_000
        assert moves["physical"] == 0

    def test_sidecar_counts_physical_moves(self):
        tb = Testbed(SidecarDataplane)
        proc = tb.spawn("app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        ep.send(1_000, dst=(PEER_IP, 80))
        tb.run_all()
        moves = tb.dataplane.data_movements()
        assert moves["physical"] > 0
        assert moves["virtual"] == 0

    def test_bypass_moves_nothing_extra(self):
        tb = Testbed(BypassDataplane)
        proc = tb.spawn("app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        ep.send(1_000, dst=(PEER_IP, 80))
        tb.run_all()
        assert tb.dataplane.data_movements() == {
            "virtual": 0, "virtual_copied_bytes": 0, "physical": 0,
        }


class TestCrossHostIsolation:
    """Admin tools interpose on ONE host's dataplane: everything on host A
    — filter listings, socket tables, connection state — shows host A
    only. A rack does not grow a rack-wide /proc; host B's state is
    invisible by construction, not by filtering (§2: interposition scope
    is the machine boundary)."""

    def _pair(self):
        from repro.core import NormanOS
        from repro.dataplanes.multihost import HostSpec, Rack

        tb = Rack([HostSpec.indexed(0, "hostA", KernelPathDataplane),
                   HostSpec.indexed(1, "hostB", NormanOS)])
        tb.run_all()  # overlay loads on the Norman side
        return tb

    def test_iptables_rules_do_not_leak_across_hosts(self):
        from repro.tools import Iptables

        tb = self._pair()
        ipt_a = Iptables(tb.hosts[0].dataplane, tb.hosts[0].kernel)
        ipt_b = Iptables(tb.hosts[1].dataplane, tb.hosts[1].kernel)
        ipt_b("-A OUTPUT -p udp --dport 5432 -j DROP")
        # B sees its rule; A's table is untouched.
        assert "-j DROP" in ipt_b("-L OUTPUT")
        assert "-j" not in ipt_a("-L OUTPUT")
        # And A's traffic to the "dropped" port flows: B's rule interposes
        # on B's dataplane only.
        proc = tb.hosts[0].spawn("app", "bob", core_id=1)
        ep = tb.hosts[0].dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        srv = tb.hosts[1].spawn("srv", "carol", core_id=1)
        ep_b = tb.hosts[1].dataplane.open_endpoint(srv, PROTO_UDP, 5432)
        tb.run_all()
        ep.send(100, dst=(tb.hosts[1].ip, 5432))
        tb.run_all()
        got = []
        ep_b.recv_burst(4, blocking=False).add_callback(
            lambda s: got.extend(s.value) if s.ok else None)
        tb.run_all()
        assert len(got) == 1

    def test_netstat_lists_only_local_sockets(self):
        from repro.tools import Netstat

        tb = self._pair()
        pa = tb.hosts[0].spawn("alpha", "bob", core_id=1)
        pb = tb.hosts[1].spawn("bravo", "carol", core_id=1)
        tb.hosts[0].dataplane.open_endpoint(pa, PROTO_UDP, 7001)
        tb.hosts[1].dataplane.open_endpoint(pb, PROTO_UDP, 7002)
        tb.run_all()
        out_a = Netstat(tb.hosts[0].kernel)()
        out_b = Netstat(tb.hosts[1].kernel)()
        assert "alpha" in out_a and "bravo" not in out_a
        assert ":7001" in out_a and ":7002" not in out_a
        assert ":7002" in out_b and ":7001" not in out_b

    def test_ss_shows_only_local_nic_state(self):
        from repro.tools import Ss

        tb = self._pair()
        pb = tb.hosts[1].spawn("bravo", "carol", core_id=1)
        tb.hosts[1].dataplane.open_endpoint(pb, PROTO_UDP, 7002)
        tb.run_all()
        out_a = Ss(tb.hosts[0].dataplane, tb.hosts[0].kernel)()
        out_b = Ss(tb.hosts[1].dataplane, tb.hosts[1].kernel)()
        assert ":7002" in out_b
        assert ":7002" not in out_a
        assert "bravo" not in out_a


class TestPortPartitionViolation:
    def test_bypass_lets_anyone_take_5432(self):
        """E5's core observation: without interposition the policy is
        unenforceable — Charlie's misconfigured app receives postgres
        traffic."""
        tb = Testbed(BypassDataplane)
        charlie_app = tb.spawn("mysql-misconfigured", "charlie", core_id=1)
        ep = tb.dataplane.open_endpoint(charlie_app, PROTO_UDP, 5432)  # no one stops this
        got = []

        def server():
            msg = yield ep.recv(blocking=True)
            got.append(msg)
            ep.close()

        SimProcess(tb.sim, server())
        tb.sim.after(1_000, tb.peer.send_udp, 555, 5432, 64)
        tb.run(until=1_000_000)
        assert len(got) == 1  # violation delivered

    def test_kernel_path_blocks_the_same_violation(self):
        tb = Testbed(KernelPathDataplane)
        bob = tb.user("bob")
        tb.user("charlie")
        tb.dataplane.install_filter_rule(
            NetfilterRule(verdict=ACCEPT, chain="INPUT", dport=5432,
                          uid_owner=bob.uid, cmd_owner="postgres")
        )
        tb.dataplane.install_filter_rule(
            NetfilterRule(verdict=DROP, chain="INPUT", dport=5432)
        )
        charlie_app = tb.spawn("mysql-misconfigured", "charlie", core_id=1)
        ep = tb.dataplane.open_endpoint(charlie_app, PROTO_UDP, 5432)
        tb.peer.send_udp(555, 5432, 64)
        tb.run_all()
        assert len(ep.sock.rx_queue) == 0  # dropped by owner policy
        assert tb.kernel.netstack.metrics.counter("rx_filtered").value == 1
