"""Golden snapshot digests: what the simulator computes, pinned.

Each run below is small and seeded. The digest of its whole stats
snapshot (:func:`repro.experiments.common.snapshot_digest`) must equal the
value committed under ``snapshots.runs`` in ``benchmarks/golden.json``
(``tests/test_fastforward.py`` checks the fidelity legs pinned beside
them). A refactor that moves any counter on any host, switch or link
fails here. A change that means to move one updates golden.json with a
CHANGES.md line saying why.
"""

import json
from pathlib import Path

import pytest

from repro import PEER_IP, PROTO_UDP
from repro.config import DEFAULT_COSTS
from repro.core import NormanOS
from repro.dataplanes import Testbed
from repro.dataplanes.multihost import HostSpec, Rack
from repro.experiments.common import (
    drain_until_dry,
    planes_under_test,
    snapshot_digest,
)
from repro.net.addresses import IPv4Address
from repro.sim.stats import snapshot

GOLDEN = Path(__file__).resolve().parent.parent / "benchmarks" / "golden.json"


def _golden():
    return json.loads(GOLDEN.read_text())["snapshots"]


def _drive(tb, eps):
    """Four rounds of one send to the peer and one peer packet back per
    endpoint, then one non-blocking read each."""
    tb.run_all()
    for _ in range(4):
        for ep in eps:
            ep.send(256, (PEER_IP, 9000))
            tb.peer.send_udp(9000, ep.port, 256)
        tb.run_all()
    for ep in eps:
        ep.recv_burst(8, blocking=False)
    tb.run_all()


def _plane(plane_cls):
    def run():
        tb = Testbed(plane_cls, costs=DEFAULT_COSTS)
        proc = tb.spawn("app", "bob", core_id=1)
        _drive(tb, [tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)])
        return tb
    return run


def _kopi_tenants():
    """Two uid-scoped tenants under isolation, one endpoint each."""
    tb = Testbed(NormanOS, costs=DEFAULT_COSTS.replace(
        tenants=True, tenant_isolation=True))
    eps = []
    for core, name in enumerate(("alice", "carol"), start=1):
        tb.machine.tenants.register(name, uid=tb.user(name).uid)
        proc = tb.spawn(f"app{core}", name, core_id=core)
        eps.append(tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000 + core))
    _drive(tb, eps)
    return tb


VIP = IPv4Address.parse("10.0.9.9")


def _cluster_rack():
    """A client and two backends behind one in-switch VIP: four client
    flows, three sends each, drained wherever the balancer steered them."""
    rack = Rack([HostSpec.indexed(0, "client", NormanOS),
                 HostSpec.indexed(1, "srv0", NormanOS),
                 HostSpec.indexed(2, "srv1", NormanOS)],
                costs=DEFAULT_COSTS.replace(cluster_lb=True), n_cores=2)
    client = rack.host("client")
    rack.add_vip(VIP, ["srv0", "srv1"])
    cli = client.spawn("cli", "bob", core_id=1)
    cli_eps = [client.dataplane.open_endpoint(cli, PROTO_UDP, 22_000 + i)
               for i in range(4)]
    teach = client.dataplane.open_endpoint(cli, PROTO_UDP, 21_000)
    readers = []
    for name in ("srv0", "srv1"):
        host = rack.host(name)
        proc = host.spawn("srv", "carol", core_id=1)
        readers += [host.dataplane.open_endpoint(proc, PROTO_UDP, 2_000 + i)
                    for i in range(4)]
    rack.run_all()
    for srv in (readers[0], readers[4]):
        srv.send(64, (client.ip, teach.port))
    rack.run_all()
    for _ in range(3):
        for i, ep in enumerate(cli_eps):
            ep.send(600, (VIP, 2_000 + i))
        rack.run_all()
    drain_until_dry(rack, readers, 8)
    return rack


RUNS = {
    **{f"plane/{cls.name}": _plane(cls) for cls in planes_under_test()},
    "kopi/tenant_isolation": _kopi_tenants,
    "rack/cluster_lb": _cluster_rack,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_snapshot_digest(name):
    assert snapshot_digest(snapshot(RUNS[name]())) == _golden()["runs"][name]


def test_every_golden_run_is_pinned():
    assert sorted(_golden()["runs"]) == sorted(RUNS)
