"""The unified interposition plane: registry, commit contract, atomicity.

Every mechanism that can touch a packet — netfilter chains, qdisc
classifiers, conntrack, capture taps, NIC steering, SmartNIC overlay
filters — registers an InterpositionPoint with its machine's PolicyEngine.
These tests pin the registry per plane, the versioned-commit contract
(sync kernel writes vs async overlay loads, stale-window accounting,
failed loads keep the old epoch), and — with Hypothesis — the atomicity
invariant itself: under randomized interleavings of sends and policy
mutations, no packet is ever judged by a mixed-version table, and the
per-point counters reconcile exactly with what the datapath did.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NormanOS
from repro.dataplanes import (
    BypassDataplane,
    HypervisorDataplane,
    KernelPathDataplane,
    SidecarDataplane,
    Testbed,
)
from repro.dataplanes.testbed import PEER_IP
from repro.errors import PolicyError
from repro.interpose import InterpositionPoint, PolicyEngine
from repro.kernel.netfilter import ACCEPT, CHAIN_OUTPUT, DROP, NetfilterRule
from repro.net import PROTO_UDP
from repro.sim import Signal, Simulator

ALL_MECHANISMS = {"netfilter", "qdisc", "conntrack", "tap", "steering", "overlay"}

#: What each plane registers at construction: (name, plane, mechanism).
EXPECTED_REGISTRY = {
    KernelPathDataplane: {
        ("netfilter", "kernel", "netfilter"),
        ("qdisc", "kernel", "qdisc"),
        ("sniffer", "kernel", "tap"),
        ("steering", "nic", "steering"),
    },
    SidecarDataplane: {
        ("netfilter", "kernel", "netfilter"),
        ("qdisc", "sidecar", "qdisc"),
        ("sniffer", "sidecar", "tap"),
        ("steering", "nic", "steering"),
    },
    HypervisorDataplane: {
        ("netfilter", "kernel", "netfilter"),
        ("vswitch", "hypervisor", "netfilter"),
        ("sniffer", "hypervisor", "tap"),
        ("steering", "nic", "steering"),
    },
    BypassDataplane: {
        ("netfilter", "kernel", "netfilter"),
        ("steering", "nic", "steering"),
    },
    NormanOS: {
        ("netfilter", "kernel", "netfilter"),
        ("overlay_filters", "nic", "overlay"),
        ("sniffer", "nic", "tap"),
        ("qdisc", "nic", "qdisc"),
        ("steering", "nic", "steering"),
    },
}


class TestRegistry:
    def test_each_plane_registers_its_mechanisms(self):
        for plane_cls, expected in EXPECTED_REGISTRY.items():
            tb = Testbed(plane_cls)
            got = {
                (p.name, p.plane, p.mechanism) for p in tb.machine.interpose
            }
            assert got == expected, plane_cls.name

    def test_all_six_mechanisms_register_through_one_engine(self):
        """KOPI with conntrack enabled exercises the full set: every one of
        the six interposition mechanisms lands in the same registry."""
        tb = Testbed(NormanOS)
        tb.dataplane.control.enable_conntrack()
        mechanisms = {p.mechanism for p in tb.machine.interpose}
        assert mechanisms == ALL_MECHANISMS
        # enable_conntrack is idempotent on the registry.
        tb.dataplane.control.enable_conntrack()
        assert len(tb.machine.interpose) == 6

    def test_targets_resolve_back_to_points(self):
        tb = Testbed(KernelPathDataplane)
        engine = tb.machine.interpose
        assert engine.find_by_target(tb.kernel.filters) is engine.get("netfilter")
        assert engine.find_by_target(object()) is None

    def test_get_unknown_raises_find_returns_none(self):
        engine = PolicyEngine(Simulator())
        assert engine.find("nope") is None
        try:
            engine.get("nope")
        except PolicyError:
            pass
        else:
            raise AssertionError("get() must raise on unknown point")

    def test_duplicate_names_get_suffixes(self):
        engine = PolicyEngine(Simulator())
        a = engine.register(InterpositionPoint("qdisc", "kernel", "qdisc"))
        b = engine.register(InterpositionPoint("qdisc", "kernel", "qdisc"))
        assert a.name == "qdisc" and b.name == "qdisc#2"
        assert engine.get("qdisc#2") is b


class TestCommitContract:
    def test_sync_commit_is_live_on_return(self):
        sim = Simulator()
        engine = PolicyEngine(sim)
        point = engine.register(
            InterpositionPoint("nf", "kernel", "netfilter", install_latency_ns=10_000)
        )
        v = point.record_update()
        assert v == point.version == 1
        assert point.pending_commits == 0
        assert point.committed().triggered  # idle: fires immediately
        (commit,) = engine.commits_for("nf")
        assert commit.mode == "sync"
        assert commit.latency_ns == 10_000  # modeled, not scheduled
        assert commit.submitted_ns == commit.committed_ns

    def test_async_commit_counts_the_stale_window(self):
        sim = Simulator()
        engine = PolicyEngine(sim)
        point = engine.register(InterpositionPoint("overlay", "nic", "overlay"))
        done = Signal("load")
        assert point.begin_commit(done) is done  # chains

        v0 = point.version
        stamped = [point.record_eval(hit=True) for _ in range(3)]
        assert stamped == [v0] * 3  # old epoch while the load is in flight
        assert point.stale_evals == 3
        assert engine.pending() == [point]

        waiter = point.committed()
        gate = engine.all_committed()
        assert not waiter.triggered and not gate.triggered
        sim.after(50_000, done.succeed)
        sim.run_until_idle()

        assert point.version == v0 + 1
        assert waiter.triggered and gate.triggered
        assert point.record_eval() == v0 + 1  # post-commit evals: new epoch
        (commit,) = engine.commits_for("overlay")
        assert commit.mode == "async"
        assert commit.stale_evals == 3
        assert commit.latency_ns == 50_000  # measured, not modeled

    def test_failed_commit_keeps_the_old_epoch(self):
        sim = Simulator()
        engine = PolicyEngine(sim)
        point = engine.register(InterpositionPoint("overlay", "nic", "overlay"))
        point.record_update()
        v = point.version
        done = Signal("bad-load")
        point.begin_commit(done)
        done.fail(PolicyError("verifier rejected"))
        assert point.version == v  # no new epoch from a rejected load
        assert point.pending_commits == 0
        assert point.committed().triggered
        failed = [c for c in engine.commits_for("overlay") if c.mode == "failed"]
        assert len(failed) == 1
        assert point.metrics.counter("failed_commits").value == 1

    def test_record_eval_never_schedules_events(self):
        """The datapath contract: counters only. A hot loop of evals must
        leave the simulator queue untouched (fingerprint safety)."""
        sim = Simulator()
        engine = PolicyEngine(sim)
        point = engine.register(InterpositionPoint("nf", "kernel", "netfilter"))
        before = sim.events_fired
        for _ in range(1_000):
            point.record_eval(hit=True, dropped=False)
        sim.run_until_idle()
        assert sim.events_fired == before
        assert point.evaluated == 1_000 == point.hits


class TestVersionVector:
    """One vector object per policy epoch: fast-path entries installed in
    the same epoch share it, and anything that moves a version or the
    registry yields a new one."""

    def _engine(self):
        sim = Simulator()
        engine = PolicyEngine(sim)
        nf = engine.register(InterpositionPoint("nf", "kernel", "netfilter"))
        overlay = engine.register(InterpositionPoint("overlay", "nic", "overlay"))
        return sim, engine, nf, overlay

    def test_same_object_while_nothing_changes(self):
        _sim, engine, nf, _overlay = self._engine()
        vv = engine.version_vector()
        assert vv == (("nf", 0), ("overlay", 0))
        nf.record_eval(hit=True)
        assert engine.version_vector() is vv

    def test_changes_after_record_update(self):
        _sim, engine, nf, _overlay = self._engine()
        vv = engine.version_vector()
        nf.record_update()
        assert engine.version_vector() == (("nf", 1), ("overlay", 0)) != vv

    def test_changes_only_when_an_async_commit_completes(self):
        sim, engine, _nf, overlay = self._engine()
        vv = engine.version_vector()
        done = Signal("load")
        overlay.begin_commit(done)
        assert engine.version_vector() is vv  # in flight: old epoch
        sim.after(50_000, done.succeed)
        sim.run_until_idle()
        assert engine.version_vector() == (("nf", 0), ("overlay", 1))

    def test_same_object_after_a_failed_async_commit(self):
        _sim, engine, _nf, overlay = self._engine()
        vv = engine.version_vector()
        done = Signal("bad-load")
        overlay.begin_commit(done)
        done.fail(PolicyError("verifier rejected"))
        assert engine.version_vector() is vv

    def test_changes_after_register(self):
        _sim, engine, _nf, _overlay = self._engine()
        vv = engine.version_vector()
        engine.register(InterpositionPoint("qdisc", "nic", "qdisc"))
        assert engine.version_vector() == (
            ("nf", 0), ("overlay", 0), ("qdisc", 0)) != vv


class TestAtomicityProperty:
    """Randomized interleavings of sends and policy mutations on the kernel
    plane. Every OUTPUT evaluation stamps ``(chain, version, verdict,
    examined)`` on the packet; atomic commits mean version -> ruleset is a
    function, so the verdict must be exactly what that version's ruleset
    predicts — a packet judged by a half-edited table would break this."""

    PORTS = (9_000, 9_001, 9_002)

    @given(
        ops=st.lists(
            st.tuples(
                st.integers(0, 3),  # 0/1: send, 2: toggle rule, 3: flush
                st.integers(0, 2),  # which port
                st.integers(1, 30),  # gap to previous op, us
            ),
            min_size=1,
            max_size=24,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_no_packet_observes_a_mixed_version_table(self, ops):
        tb = Testbed(KernelPathDataplane)
        proc = tb.spawn("app", "bob", core_id=1)
        ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7_777)
        point = tb.machine.interpose.get("netfilter")
        table = tb.kernel.filters

        seen = []  # ((chain, version, verdict, examined), dport) per eval
        orig_evaluate = table.evaluate

        def spying_evaluate(chain, pkt, owner):
            result = orig_evaluate(chain, pkt, owner)
            seen.append((pkt.meta.notes["nf_eval"], pkt.five_tuple.dport))
            return result

        table.evaluate = spying_evaluate

        dropped_ports = set()
        live_rules = {}
        ruleset_at = {point.version: frozenset()}  # version -> dropped ports
        mutations = 0

        def toggle(port):
            nonlocal mutations
            if port in dropped_ports:
                table.delete(live_rules.pop(port))
                dropped_ports.discard(port)
            else:
                rule = NetfilterRule(
                    verdict=DROP, chain=CHAIN_OUTPUT, proto=PROTO_UDP, dport=port
                )
                table.append(rule)
                live_rules[port] = rule
                dropped_ports.add(port)
            mutations += 1
            ruleset_at[point.version] = frozenset(dropped_ports)

        def flush():
            nonlocal mutations
            table.flush(CHAIN_OUTPUT)
            live_rules.clear()
            dropped_ports.clear()
            mutations += 1
            ruleset_at[point.version] = frozenset()

        now, sends = 0, 0
        for kind, port_sel, gap_us in ops:
            now += gap_us * 1_000
            port = self.PORTS[port_sel]
            if kind <= 1:
                tb.sim.at(now, ep.send, 200, (PEER_IP, port))
                sends += 1
            elif kind == 2:
                tb.sim.at(now, toggle, port)
            else:
                tb.sim.at(now, flush)
        tb.run_all()

        # --- atomicity: verdict is a pure function of the stamped version.
        assert len(seen) == sends
        for (chain, version, verdict, _examined), dport in seen:
            assert chain == CHAIN_OUTPUT
            assert version in ruleset_at
            expected = DROP if dport in ruleset_at[version] else ACCEPT
            assert verdict == expected
        # Epochs only move forward under the eval stream.
        versions = [note[1] for note, _ in seen]
        assert versions == sorted(versions)

        # --- counters reconcile exactly with the observed datapath.
        n_drops = sum(1 for note, _ in seen if note[2] == DROP)
        assert point.evaluated == len(seen)
        assert point.drops == n_drops
        assert point.hits == n_drops  # only DROP rules installed: hit == drop
        assert point.stale_evals == 0  # kernel commits are synchronous
        assert point.version == point.updates == mutations
        commits = tb.machine.interpose.commits_for("netfilter")
        assert len(commits) == mutations
        assert all(c.mode == "sync" for c in commits)
        # Delivered exactly the ACCEPTed sends, nothing judged DROP.
        delivered = [
            p for p in tb.peer.received
            if p.five_tuple and p.five_tuple.dport in self.PORTS
        ]
        assert len(delivered) == sends - n_drops
