"""Control-plane details: registries, ring modes, resolution, capabilities."""

import pytest

from repro.config import DEFAULT_COSTS
from repro.core import CONN_MODE_PER_CONN, CONN_MODE_SHARED, NormanOS
from repro.core.capabilities import capability_matrix, render_matrix
from repro.dataplanes import BypassDataplane, Testbed
from repro.dataplanes.testbed import PEER_IP
from repro.errors import KernelError
from repro.kernel import NetfilterRule
from repro.net import PROTO_UDP


class TestConnectionRegistry:
    def test_connection_records_owner(self):
        tb = Testbed(NormanOS)
        proc = tb.spawn("postgres", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 5432)
        conn = ep.conn
        assert conn.owner == (proc.pid, tb.user("bob").uid, "postgres")
        assert tb.dataplane.control.conn_count() == 1
        assert tb.dataplane.control.connections() == [conn]

    def test_owner_rule_resolution(self):
        tb = Testbed(NormanOS)
        bob_pg = tb.spawn("postgres", "bob", core_id=1)
        charlie_db = tb.spawn("mysql", "charlie", core_id=2)
        ep1 = tb.dataplane.open_endpoint(bob_pg, PROTO_UDP, 5432)
        ep2 = tb.dataplane.open_endpoint(charlie_db, PROTO_UDP, 3306)
        cp = tb.dataplane.control
        rule = NetfilterRule(verdict="ACCEPT", uid_owner=tb.user("bob").uid)
        assert list(cp.resolve_owner_rule(rule)) == [ep1.conn.conn_id]
        rule2 = NetfilterRule(verdict="ACCEPT", cmd_owner="mysql")
        assert list(cp.resolve_owner_rule(rule2)) == [ep2.conn.conn_id]
        rule3 = NetfilterRule(verdict="ACCEPT", pid_owner=bob_pg.pid, cmd_owner="postgres")
        assert list(cp.resolve_owner_rule(rule3)) == [ep1.conn.conn_id]

    def test_double_close_rejected(self):
        tb = Testbed(NormanOS)
        proc = tb.spawn("app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 6000)
        ep.close()
        with pytest.raises(KernelError):
            tb.dataplane.control.close_connection(ep.conn)

    def test_connect_installs_exact_steering(self):
        tb = Testbed(NormanOS)
        proc = tb.spawn("client", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP)
        done = []
        ep.connect(PEER_IP, 9000).add_callback(lambda s: done.append(True))
        tb.run_all()
        assert done == [True]
        from repro.net import FiveTuple
        from repro.dataplanes.testbed import HOST_IP

        inbound = FiveTuple(PROTO_UDP, PEER_IP, 9000, HOST_IP, ep.port)
        assert tb.dataplane.nic.steering.lookup(inbound) == ep.conn.conn_id


class TestRingModes:
    def test_per_connection_rings_are_distinct(self):
        tb = Testbed(NormanOS)
        proc = tb.spawn("app", "bob", core_id=1)
        a = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
        b = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7001)
        assert a.conn.mode == CONN_MODE_PER_CONN
        assert a.conn.rings is not b.conn.rings

    def test_shared_rings_mode_shares_per_process(self):
        tb = Testbed(NormanOS, shared_rings=True)
        proc = tb.spawn("app", "bob", core_id=1)
        other = tb.spawn("other", "bob", core_id=2)
        a = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
        b = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7001)
        c = tb.dataplane.open_endpoint(other, PROTO_UDP, 7002)
        assert a.conn.mode == CONN_MODE_SHARED
        assert a.conn.rings is b.conn.rings  # same process -> same rings
        assert a.conn.rings is not c.conn.rings  # different process

    def test_active_hot_bytes_scales_with_connections(self):
        tb = Testbed(NormanOS)
        proc = tb.spawn("app", "bob", core_id=1)
        cp = tb.dataplane.control
        assert cp.active_hot_bytes() == 0
        for i in range(4):
            tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000 + i)
        assert cp.active_hot_bytes() == 4 * DEFAULT_COSTS.conn_footprint_bytes

    def test_shared_mode_caps_hot_bytes(self):
        tb = Testbed(NormanOS, shared_rings=True)
        proc = tb.spawn("app", "bob", core_id=1)
        for i in range(16):
            tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000 + i)
        hot = tb.dataplane.control.active_hot_bytes()
        assert hot == DEFAULT_COSTS.conn_footprint_bytes  # one shared pair

    def test_pinned_memory_accounted_per_connection(self):
        tb = Testbed(NormanOS)
        proc = tb.spawn("app", "bob", core_id=1)
        before = tb.machine.memory.pinned_bytes
        tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
        grown = tb.machine.memory.pinned_bytes - before
        assert grown == DEFAULT_COSTS.conn_footprint_bytes


class TestCapabilityMatrix:
    def test_matrix_matches_paper(self):
        matrix = capability_matrix([BypassDataplane, NormanOS])
        assert all(v == "yes" for v in matrix["kopi"].values())
        assert all(v.startswith("no") for v in matrix["bypass"].values())

    def test_render_is_tabular(self):
        matrix = capability_matrix([NormanOS])
        text = render_matrix(matrix)
        assert "kopi" in text
        assert "port_partitioning" in text


class TestFilterSync:
    def test_unchanged_chain_reuses_its_verified_program(self, monkeypatch):
        import repro.nic.smartnic.fpga as fpga_module
        from repro.core.nic_dataplane import SLOT_FILTER_RX, SLOT_FILTER_TX

        tb = Testbed(NormanOS)
        proc = tb.spawn("app", "bob", core_id=1)
        tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
        tb.run_all()
        verified = []
        real_verify = fpga_module.verify
        monkeypatch.setattr(
            fpga_module, "verify",
            lambda prog, **kw: (verified.append(prog), real_verify(prog, **kw)))
        fpga = tb.dataplane.nic.fpga
        loads0 = fpga.metrics.counter("overlay_loads").value
        for dport in (5432, 5433):
            tb.dataplane.install_filter_rule(
                NetfilterRule(verdict="DROP", proto=PROTO_UDP, dport=dport))
            tb.run_all()
        # Both slots load on every sync, as before.
        assert fpga.metrics.counter("overlay_loads").value == loads0 + 4
        # The rules go to OUTPUT, so the INPUT chain never changed: one
        # program object, verified once; each new OUTPUT program is
        # verified once, at load_overlay.
        rx = fpga.machine(SLOT_FILTER_RX).program
        tx = fpga.machine(SLOT_FILTER_TX).program
        assert [p for p in verified if p is rx] == [rx]
        assert [p for p in verified if p is tx] == [tx]
        assert len(verified) == 3
