"""The per-simulation stats snapshot and the one parity check.

Completeness: every ``MetricSet`` a simulation builds — found the way
``perfbench/stats.py`` finds them, among the objects the garbage
collector tracks — must show up in ``snapshot()`` of its root, on a
two-host rack and on a testbed of every plane. Parity: a divergent key
fails and is named unless ``EXEMPT`` names it, in which case it passes
and is listed with its reason.
"""

import gc

import pytest

from repro import PEER_IP, PROTO_UDP
from repro.config import DEFAULT_COSTS
from repro.core import NormanOS
from repro.dataplanes import Testbed
from repro.dataplanes.multihost import HostSpec, Rack, rack_ip
from repro.experiments.common import planes_under_test
from repro.sim import MetricSet
from repro.sim.stats import (
    EXEMPT,
    components,
    coverage,
    is_modelled_time,
    parity,
    snapshot,
)

COSTS = DEFAULT_COSTS.replace(trace=True, flow_fastpath=True)


def _metric_sets():
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, MetricSet)]


def _assert_complete(root, before):
    """Every MetricSet built since ``before`` is a walked component, and
    each of its counters is a snapshot key under that component's path."""
    known = {id(ms) for ms in before}
    built = [ms for ms in _metric_sets() if id(ms) not in known]
    assert built
    paths = {id(obj): path for path, obj, _stats in components(root)}
    missing = [ms.prefix for ms in built if id(ms) not in paths]
    assert not missing, f"MetricSets outside the snapshot: {missing}"
    snap = snapshot(root)
    for ms in built:
        for name in ms._counters:
            assert f"{paths[id(ms)]}/{name}" in snap
    return snap


def _drive_testbed(tb):
    proc = tb.spawn("app", "bob", core_id=1)
    ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
    tb.run_all()
    for _ in range(4):
        ep.send(256, (PEER_IP, 9000))
        tb.peer.send_udp(9000, 7000, 256)
        tb.run_all()
    ep.recv_burst(8, blocking=False)
    tb.run_all()


class TestSnapshotCompleteness:
    @pytest.mark.parametrize(
        "plane", planes_under_test(), ids=lambda p: p.__name__)
    def test_every_metric_set_of_a_testbed(self, plane):
        before = _metric_sets()
        tb = Testbed(plane, costs=COSTS, structural_cache=True)
        _drive_testbed(tb)
        snap = _assert_complete(tb, before)
        # The components that keep stats outside a MetricSet are read too.
        assert snap["machine/cpus/busy_ns"] > 0
        assert "machine/llc/dma_fills" in snap
        assert "machine/interpose/commits" in snap
        assert snap["peer/metrics/rx_pkts"] == 4
        assert any(k.startswith("machine/tracer/") for k in snap)

    def test_every_metric_set_of_a_rack(self):
        before = _metric_sets()
        costs = COSTS.replace(fast_forward=True, ff_promote_after=1)
        rack = Rack([HostSpec.indexed(0, "hostA", NormanOS),
                     HostSpec.indexed(1, "hostB", NormanOS)], costs=costs)
        a, b = rack.hosts
        ep_a = a.dataplane.open_endpoint(a.spawn("cli", "bob", core_id=1),
                                         PROTO_UDP, 20_000)
        ep_b = b.dataplane.open_endpoint(b.spawn("srv", "carol", core_id=1),
                                         PROTO_UDP, 10_000)
        rack.run_all()
        for _ in range(6):
            ep_a.send(600, (rack_ip(1), 10_000))
            rack.run_all()
        ep_b.recv_burst(8, blocking=False)
        rack.run_all()
        snap = _assert_complete(rack, before)
        assert snap["hostA/dataplane/nic/metrics/tx_pkts"] == 6
        assert snap["hostB/dataplane/nic/metrics/rx_pkts"] == 6
        assert snap["switch/metrics/frames"] == 6
        assert "hostA/machine/ff/promotions" in snap
        assert "rack/bindings" in snap

    def test_snapshot_leaves_the_simulation_alone(self):
        tb = Testbed(NormanOS, costs=COSTS)
        _drive_testbed(tb)
        now, events = tb.sim.now, tb.sim.events_fired
        assert snapshot(tb) == snapshot(tb)
        assert (tb.sim.now, tb.sim.events_fired) == (now, events)

    def test_duplicate_paths_are_an_error(self):
        tb = Testbed(NormanOS, costs=COSTS)
        one, other = MetricSet("one"), MetricSet("other")
        one.counter("x").inc()
        other.counter("x").inc()
        tb.extra = {1: one, "1": other}  # both named extra/1
        with pytest.raises(ValueError, match="duplicate stats path"):
            snapshot(tb)


RING_POSTED = "hostB/dataplane/control/conns/3/rings/rx/metrics/posted"


class TestParity:
    def test_unexempted_divergence_fails_and_is_named(self):
        a = {"hostB/dataplane/nic/metrics/rx_pkts": 8.0, "app/delivered": 8.0}
        b = {"hostB/dataplane/nic/metrics/rx_pkts": 7.0, "app/delivered": 8.0}
        result = parity(a, b, tolerance=0.05)
        assert not result["ok"]
        assert result["failed"] == ["hostB/dataplane/nic/metrics/rx_pkts"]
        assert result["exempt"] == {}

    def test_exempted_divergence_passes_with_its_reason(self):
        result = parity({RING_POSTED: 8.0}, {RING_POSTED: 2.0},
                        tolerance=0.05)
        assert result["ok"]
        assert result["failed"] == [] and result["rows"] == []
        reason = dict(EXEMPT)["*/[rt]x/metrics/posted"]
        assert result["exempt"] == {RING_POSTED: reason}
        assert coverage(result) == (
            "0 of 1 snapshot keys equal; 1 exempt: "
            "*/[rt]x/metrics/posted (1)")

    def test_agreeing_exempt_key_is_compared(self):
        result = parity({RING_POSTED: 8.0}, {RING_POSTED: 8.0}, 0.05)
        assert result["exempt"] == {}
        assert [r["key"] for r in result["rows"]] == [RING_POSTED]

    def test_modelled_time_compares_within_tolerance(self):
        key = "hostA/machine/cpus/busy_ns"
        assert is_modelled_time(key)
        assert is_modelled_time("hostA/machine/tracer/dma.work_ns")
        assert is_modelled_time("x/metrics/install_ns.mean")
        assert not is_modelled_time("x/metrics/install_ns.count")
        assert not is_modelled_time("machine/copies/dma.ns_copying")
        within = parity({key: 100.0}, {key: 104.0}, tolerance=0.05)
        assert within["ok"] and within["max_rel_err"] == pytest.approx(0.04)
        beyond = parity({key: 100.0}, {key: 106.0}, tolerance=0.05)
        assert beyond["failed"] == [key]

    def test_absent_key_reads_as_zero(self):
        assert parity({"a/metrics/x": 0.0}, {}, 0.05)["ok"]
        assert parity({}, {"a/metrics/x": 1.0}, 0.05)["failed"] == [
            "a/metrics/x"]
