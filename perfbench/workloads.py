"""The four seeded workloads, driven through the simulator's public API.

Each workload splits into ``*_generate(seed)``, which draws every input
from the seed, and ``*_round(schedule, phases)``, which builds the
simulated system (timed as set-up), plays the schedule (timed as the
measured phase) and reads the outcome back. The program under test sees
only the schedule. A round returns a :class:`Round`; the hybrid workloads'
``*_fidelity(seed)`` replays their schedule at reduced scale, exact
against hybrid, untimed.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro import (
    DEFAULT_COSTS,
    PEER_IP,
    PROTO_UDP,
    BypassDataplane,
    HypervisorDataplane,
    KernelPathDataplane,
    NormanOS,
    SidecarDataplane,
    Testbed,
)
from repro.cluster import L4LoadBalancer, MigrationCoordinator
from repro.dataplanes.multihost import HostSpec, Rack
from repro.dataplanes.testbed import HOST_IP
from repro.host.cache import WayPartitionedCache
from repro.interpose import FlowFastPath, PolicyEngine
from repro.kernel.netfilter import NetfilterRule
from repro.net.addresses import IPv4Address
from repro.net.flow import FiveTuple
from repro.net.link import Link
from repro.net.switch import L2Switch
from repro.nic.notification import NotificationQueue
from repro.nic.rings import DescriptorRing
from repro.sim import Simulator
from repro.sim.fastforward import FastForwardController
from repro.sim.metrics import MetricSet
from repro.tools.iptables import Iptables
from repro.trace.stages import STAGES
from repro.trace.tracer import Tracer
from repro import units

import stats

PAYLOAD = 1_458


PROBE_N = 300_000
#: Nominal seconds the probe loop takes on the reference host (CPython 3.11
#: on a 2-core x86-64 container).
REFERENCE_PROBE_S = 0.03
#: Least host time between two probes inside a phase.
PROBE_EVERY_S = 0.4


def probe_s() -> float:
    """Seconds of a fixed pure-Python loop: the host-speed yardstick."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_N):
        acc += i * i & 7
    return time.perf_counter() - t0


def _no_tick() -> None:
    pass


class Phases:
    """Host-time accounting of one round: set-up and measured phase.

    The host's speed is probed before each phase and, through
    :meth:`tick`, at natural breaks inside one; a probe's time is billed to
    no phase. ``spans`` (a :class:`spans.SpanRecorder`, traced runs only)
    records only while a phase runs, so neither probes nor reading results
    back are billed to any layer.
    """

    def __init__(self, spans=None):
        self.spans = spans
        self.seconds = {"setup": 0.0, "measure": 0.0}
        self.probes: List[float] = []
        self._name = None
        self._t0 = 0.0
        self._last_probe = 0.0

    @property
    def setup_s(self) -> float:
        return self.seconds["setup"]

    @property
    def measure_s(self) -> float:
        return self.seconds["measure"]

    def host_scale(self) -> float:
        """Takes a closing probe; returns how many times slower than the
        reference host this round ran."""
        self._probe()
        return sum(self.probes) / len(self.probes) / REFERENCE_PROBE_S

    def _probe(self) -> None:
        self.probes.append(probe_s())
        self._last_probe = time.perf_counter()

    def _resume(self, name: str) -> None:
        self._name = name
        if self.spans is not None:
            self.spans.start(name)
        self._t0 = time.perf_counter()

    def _pause(self) -> None:
        self.seconds[self._name] += time.perf_counter() - self._t0
        if self.spans is not None:
            self.spans.stop()

    @contextmanager
    def _phase(self, name: str):
        self._probe()
        self._resume(name)
        try:
            yield
        finally:
            self._pause()
            self._name = None

    def setup(self):
        return self._phase("setup")

    def measure(self):
        return self._phase("measure")

    def tick(self) -> None:
        """A natural break in the open phase: probe the host if the last
        probe is ``PROBE_EVERY_S`` old."""
        if time.perf_counter() - self._last_probe < PROBE_EVERY_S:
            return
        name = self._name
        self._pause()
        self._probe()
        self._resume(name)


@dataclass
class Round:
    """What one round did and what the simulation says about it."""

    setup_s: float = 0.0
    measure_s: float = 0.0
    #: How many times slower than the reference the host ran this round.
    host_scale: float = 1.0
    sent: int = 0
    delivered: int = 0
    drops: Dict[str, int] = field(default_factory=dict)
    commits: int = 0
    commits_failed: int = 0
    migrations: int = 0
    migrations_done: int = 0
    sim_cpu_ns: int = 0
    events: int = 0
    digest: str = ""
    counts: Dict[str, float] = field(default_factory=dict)
    stage_ns: Dict[str, int] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def attempted(self) -> int:
        return self.sent + self.commits + self.migrations

    @property
    def failed(self) -> int:
        return ((self.sent - self.delivered) + self.commits_failed
                + (self.migrations - self.migrations_done))


def _conservation(r: Round) -> None:
    """sent = delivered + drops by reason, with nothing unaccounted."""
    r.check("conservation", r.sent == r.delivered + sum(r.drops.values()),
            f"sent={r.sent} delivered={r.delivered} drops={r.drops}")


def _read_back(r: Round, *, cpu_busy_ns: int) -> None:
    """Fill the round's counted state, per-layer counts and digest from
    the live simulation objects."""
    found = stats.live(MetricSet, WayPartitionedCache, FlowFastPath,
                       FastForwardController, Simulator, DescriptorRing,
                       NotificationQueue, L2Switch, Link, PolicyEngine,
                       L4LoadBalancer, MigrationCoordinator, Tracer)
    sims = found[Simulator]
    state = stats.counted_state(found[MetricSet], found[WayPartitionedCache],
                                found[FlowFastPath],
                                found[FastForwardController], sims)
    stage_ns: Dict[str, int] = {s: 0 for s in STAGES}
    for t in found[Tracer]:
        if t.enabled:
            for stage, ns in t.work_by_stage(include_wait=False).items():
                stage_ns[stage] = stage_ns.get(stage, 0) + ns
    r.stage_ns = stage_ns
    state.update({f"stage:{k}": v for k, v in stage_ns.items()})
    state["cpu_busy_ns"] = cpu_busy_ns
    r.digest = stats.digest(state)
    r.sim_cpu_ns = cpu_busy_ns
    r.events = sum(s.events_fired for s in sims)
    # A full descriptor ring counts its tail drop in ``full_drops`` and the
    # NIC that owns it counts the same packet again (``rx_ring_drops``):
    # drop reasons are read from the owners only.
    ring_sets = {id(g.metrics) for g in found[DescriptorRing]}
    r.drops = stats.drops_by_reason(
        [ms for ms in found[MetricSet] if id(ms) not in ring_sets])

    c: Dict[str, float] = {}
    llcs = found[WayPartitionedCache]
    c["host.cache.dma_writes"] = sum(
        l.stats["dma_hits"] + l.stats["dma_fills"] for l in llcs)
    c["host.cache.cpu_reads"] = sum(
        l.stats["cpu_hits"] + l.stats["cpu_misses"] for l in llcs)
    c["host.cache.cpu_misses"] = sum(l.stats["cpu_misses"] for l in llcs)
    c["host.cache.cpu_miss_rate"] = (
        c["host.cache.cpu_misses"] / c["host.cache.cpu_reads"]
        if c["host.cache.cpu_reads"] else 0.0)
    c["host.cache.ddio_evictions"] = sum(
        l.stats["ddio_evictions"] for l in llcs)
    rings = found[DescriptorRing]
    c["nic.rings.posts"] = sum(g.metrics.counter("posted").value for g in rings)
    c["nic.rings.consumes"] = sum(
        g.metrics.counter("consumed").value for g in rings)
    c["nic.notification.posts"] = sum(
        q.metrics.counter("posted").value for q in found[NotificationQueue])
    ffs = found[FastForwardController]
    ffstats = [f.stats() for f in ffs]
    c["sim.fastforward.promotions"] = sum(s["promotions"] for s in ffstats)
    c["sim.fastforward.demotions"] = sum(
        sum(s["demotions"].values()) for s in ffstats)
    c["sim.fastforward.epochs"] = sum(s["epochs"] for s in ffstats)
    c["sim.fastforward.fluid_packets"] = sum(
        s["fluid_packets"] for s in ffstats)
    fps = found[FlowFastPath]
    c["interpose.fastpath.lookups"] = sum(f.lookups for f in fps)
    c["interpose.fastpath.hits"] = sum(f.hits for f in fps)
    c["interpose.fastpath.invalidated"] = sum(f.invalidated for f in fps)
    engines = found[PolicyEngine]
    c["interpose.commits"] = sum(len(e.history) for e in engines)
    c["interpose.stale_evals"] = sum(
        sum(p.stale_evals for p in e) for e in engines)
    switches = found[L2Switch]
    c["net.switch.frames"] = sum(
        s.metrics.counter("frames").value for s in switches)
    c["net.switch.flooded"] = sum(
        s.metrics.counter("flooded").value for s in switches)
    c["net.link.sent"] = sum(
        l.metrics.counter("sent").value for l in found[Link])
    coords = found[MigrationCoordinator]
    c["cluster.migrations"] = sum(len(m.migrations) for m in coords)
    c["cluster.migration_sim_ns"] = sum(
        m.finalized_ns - m.requested_ns
        for co in coords for m in co.migrations if m.finalized_ns >= 0)
    c["cluster.balancer.stale_evals"] = sum(
        b.commit_stats()["stale_evals"] for b in found[L4LoadBalancer])
    c["trace.contexts"] = sum(
        len(t.closed_contexts()) for t in found[Tracer] if t.enabled)
    r.counts = c


# -- exact-ddio ---------------------------------------------------------------

#: (connections, rounds of E8 bursts): at 1024 the rings fit the DDIO
#: slice, at 4096 they overflow it.
DDIO_POINTS = ((1_024, 2), (4_096, 1))
BURSTS_PER_ROUND = 4
DDIO_MIN_PAYLOAD = 1_100


def ddio_generate(seed: int) -> Dict[str, object]:
    """Per point: each connection's payload length (at most 1458 B, so the
    1024-connection rings still fit the DDIO slice), and per burst the
    order in which connections receive their packet."""
    rng = random.Random(seed)
    points = []
    for conns, rounds in DDIO_POINTS:
        sizes = [rng.randint(DDIO_MIN_PAYLOAD, PAYLOAD) for _ in range(conns)]
        orders = []
        for _ in range(rounds * BURSTS_PER_ROUND):
            order = list(range(conns))
            rng.shuffle(order)
            orders.append(order)
        points.append({"conns": conns, "rounds": rounds, "sizes": sizes,
                       "orders": orders})
    return {"points": points}


def ddio_round(schedule, phases: Phases) -> Round:
    r = Round()
    busy = 0
    sent = delivered = 0
    points = []
    # Kept alive until read back: the stats dump finds the components
    # among the live objects.
    testbeds = []
    for point in schedule["points"]:
        conns = point["conns"]
        with phases.setup():
            tb = Testbed(NormanOS, costs=DEFAULT_COSTS, n_cores=8,
                         structural_cache=True)
            tb.machine.llc.cpu_fills_allocate = False
            app_cores = list(range(1, len(tb.machine.cpus)))
            procs = [tb.spawn(f"srv{c}", "bob", core_id=c) for c in app_cores]
            eps = [tb.dataplane.open_endpoint(procs[i % len(procs)],
                                              PROTO_UDP, 10_000 + i)
                   for i in range(conns)]
            tb.run_all()
        busy0 = sum(tb.machine.cpus[c].busy_ns for c in app_cores)
        tb.machine.llc.reset_stats()
        gap = units.transmit_time_ns(PAYLOAD + 50, tb.ingress.rate_bps) + 10
        got = [0]

        def _count(sig, got=got):
            if sig.ok:
                got[0] += len(sig.value)

        orders, sizes = point["orders"], point["sizes"]
        with phases.measure():
            for rnd in range(point["rounds"]):
                base = tb.sim.now + 1_000
                i = 0
                for b in range(BURSTS_PER_ROUND):
                    for conn in orders[rnd * BURSTS_PER_ROUND + b]:
                        tb.sim.at(base + i * gap, tb.peer.send_udp, 600,
                                  10_000 + conn, sizes[conn])
                        i += 1
                sent += i
                tb.run_all()
                phases.tick()
                for ep in eps:
                    ep.recv_burst(BURSTS_PER_ROUND,
                                  blocking=False).add_callback(_count)
                tb.run_all()
                phases.tick()
        point_busy = sum(tb.machine.cpus[c].busy_ns for c in app_cores) - busy0
        busy += point_busy
        delivered += got[0]
        cpu_per_pkt = point_busy / max(got[0], 1)
        mean_bits = units.bits(sum(sizes) / conns)
        payload_bps = len(app_cores) * units.SEC / cpu_per_pkt * mean_bits
        line = min(1.0, payload_bps / DEFAULT_COSTS.nic_line_rate_bps)
        points.append((conns, line, tb.machine.llc.cpu_miss_rate()))
        testbeds.append(tb)
    r.sent, r.delivered = sent, delivered
    _read_back(r, cpu_busy_ns=busy)
    _conservation(r)
    (lo, lo_line, lo_miss), (hi, hi_line, hi_miss) = points
    r.check("ddio_cliff",
            lo_line > 0.99 and lo_miss < 0.01 and hi_line < 0.80
            and hi_miss > 0.3,
            f"{lo} conns: line {lo_line:.1%} miss {lo_miss:.3f}; "
            f"{hi} conns: line {hi_line:.1%} miss {hi_miss:.3f}")
    return r


# -- hybrid-steady ------------------------------------------------------------

HYBRID_CONNS = 6_144
#: Mean fluid RX packets per flow after warm-up; the seed's Pareto draw
#: spreads a fixed total over the flows, so every seed moves the same work.
HYBRID_RX_MEAN = 96
HYBRID_PARETO_ALPHA = 1.2
#: Exact packets that bring a flow to promotion at ``ff_promote_after=1``:
#: the verdict-cache install miss, then one hit.
WARMUP = 2
TX_GAP_NS = 2_000
DRAIN_BURST = 4_096


def _split(rng: random.Random, n: int, total: int, alpha: float) -> List[int]:
    """``n`` Pareto-distributed sizes of at least 1 that sum to ``total``."""
    raw = [rng.paretovariate(alpha) for _ in range(n)]
    scale = (total - n) / sum(raw)
    sizes = [1 + int(x * scale) for x in raw]
    for i in range(total - sum(sizes)):
        sizes[i % n] += 1
    return sizes


def hybrid_generate(seed: int, conns: int = HYBRID_CONNS,
                    rx_mean: int = HYBRID_RX_MEAN) -> Dict[str, object]:
    rng = random.Random(seed)
    order = list(range(conns))
    rng.shuffle(order)
    return {
        "conns": conns,
        "order": order,
        "rx_bulk": _split(rng, conns, conns * rx_mean, HYBRID_PARETO_ALPHA),
        "tx_bulk": [rng.randint(1, 3) for _ in range(conns)],
    }


def _hybrid_costs(conns: int, fast_forward: bool, trace: bool = False):
    return DEFAULT_COSTS.replace(
        flow_fastpath=True, flow_fastpath_entries=4 * conns,
        smartnic_sram_bytes=max(DEFAULT_COSTS.smartnic_sram_bytes,
                                2 * conns * DEFAULT_COSTS.conn_state_bytes),
        rx_ring_entries=2_048, tx_ring_entries=2_048,
        fast_forward=fast_forward, ff_promote_after=1, trace=trace,
    )


def _kopi_listeners(costs, conns: int):
    tb = Testbed(NormanOS, costs=costs, n_cores=8, shared_rings=True)
    app_cores = list(range(1, len(tb.machine.cpus)))
    procs = [tb.spawn(f"srv{c}", "bob", core_id=c) for c in app_cores]
    eps = [tb.dataplane.open_endpoint(procs[i % len(procs)], PROTO_UDP,
                                      1_025 + i)
           for i in range(conns)]
    tb.run_all()
    return tb, eps


def _interleaved(order, per_conn: List[int]):
    """Each connection of ``order``, ``per_conn[conn]`` times, round-robin
    across connections as a loaded NIC delivers them."""
    left = list(per_conn)
    moved = True
    while moved:
        moved = False
        for conn in order:
            if left[conn]:
                left[conn] -= 1
                moved = True
                yield conn


def _rx_wave(tb, order, per_conn: List[int]) -> int:
    """Spaced peer packets toward the connections; returns how many."""
    gap = units.transmit_time_ns(PAYLOAD + 50, tb.ingress.rate_bps) + 10
    base = tb.sim.now + 1_000
    n = 0
    for n, conn in enumerate(_interleaved(order, per_conn), 1):
        tb.sim.at(base + (n - 1) * gap, tb.peer.send_udp, 600, 1_025 + conn,
                  PAYLOAD)
    return n


def _tx_wave(tb, eps, order, per_conn: List[int]) -> int:
    """Spaced single-packet application sends toward the peer; returns
    how many."""
    base = tb.sim.now + 1_000
    n = 0
    for n, conn in enumerate(_interleaved(order, per_conn), 1):
        tb.sim.at(base + (n - 1) * TX_GAP_NS, eps[conn].send, PAYLOAD,
                  (PEER_IP, 600))
    return n


def _drain(run_all, eps) -> int:
    """Non-blocking reads until the host is dry: every endpoint once, then
    again only those whose last read returned messages (a shared ring can
    hand one endpoint a sibling's share, so a read can succeed twice)."""
    got = [0]
    busy = list(eps)
    while busy:
        hits = []

        def _count(sig, ep):
            if sig.ok and sig.value:
                got[0] += len(sig.value)
                hits.append(ep)

        for ep in busy:
            ep.recv_burst(DRAIN_BURST, blocking=False).add_callback(
                lambda sig, ep=ep: _count(sig, ep))
        run_all()
        busy = hits
    return got[0]


def _hybrid_play(tb, eps, schedule, absorb: bool,
                 tick: Callable[[], None] = _no_tick) -> Tuple[int, int, int]:
    """Warm every flow to promotion in both directions, then play each
    flow's remainder: absorbed in bulk (RX) and at the syscall (TX) when
    ``absorb``, as packets otherwise. Returns (rx sent, rx delivered,
    tx sent)."""
    conns, order = schedule["conns"], schedule["order"]
    rx_sent = tx_sent = delivered = 0
    ones = [1] * conns
    for _ in range(WARMUP):
        rx_sent += _rx_wave(tb, order, ones)
        tb.run_all()
        tick()
        delivered += _drain(tb.run_all, eps)
        tick()
        tx_sent += _tx_wave(tb, eps, order, ones)
        tb.run_all()
        tick()
    rx_bulk = schedule["rx_bulk"]
    if absorb:
        ff = tb.machine.ff
        for conn in order:
            flow = FiveTuple(PROTO_UDP, PEER_IP, 600, HOST_IP, 1_025 + conn)
            if ff.absorb(flow, rx_bulk[conn]):
                rx_sent += rx_bulk[conn]
            else:
                rx_sent += _rx_wave(tb, [conn], rx_bulk)
        ff.flush_all()
    else:
        rx_sent += _rx_wave(tb, order, rx_bulk)
    tb.run_all()
    tick()
    delivered += _drain(tb.run_all, eps)
    tick()
    tx_sent += _tx_wave(tb, eps, order, schedule["tx_bulk"])
    tb.run_all()
    return rx_sent, delivered, tx_sent


def hybrid_round(schedule, phases: Phases) -> Round:
    r = Round()
    conns = schedule["conns"]
    with phases.setup():
        tb, eps = _kopi_listeners(_hybrid_costs(conns, True), conns)
    busy0 = tb.machine.cpus.total_busy_ns()
    with phases.measure():
        rx_sent, rx_delivered, tx_sent = _hybrid_play(tb, eps, schedule, True,
                                                      phases.tick)
    tx_delivered = tb.peer.metrics.counter("rx_pkts").value
    r.sent = rx_sent + tx_sent
    r.delivered = rx_delivered + tx_delivered
    _read_back(r, cpu_busy_ns=tb.machine.cpus.total_busy_ns() - busy0)
    _conservation(r)
    ff = tb.machine.ff.stats()
    r.check("all_promoted", ff["promoted"] == 2 * conns,
            f"promoted {ff['promoted']} of {2 * conns} flows")
    return r


# -- rack-churn ---------------------------------------------------------------

VIP_IP = IPv4Address.parse("10.0.9.9")
BACKENDS = ("srv0", "srv1", "srv2")
RACK_FLOWS = 256
RACK_ROUNDS = 20
SENDS_PER_FLOW = 4
SERVICE_PORT_BASE = 2_000
CLIENT_PORT_BASE = 22_000
TEACH_PORT = 21_000
RACK_GAP_NS = 2_000
#: Ports nothing in the workload uses: the toggled rules never match a
#: packet, so every verdict they invalidate was a needless one.
UNRELATED_PORT_BASE = 30_000
RACK_MIN_PAYLOAD = 1_024


def rack_generate(seed: int, flows: int = RACK_FLOWS,
                  rounds: int = RACK_ROUNDS) -> Dict[str, object]:
    """Per round: the client's send order, one live migration (flow,
    backend offset, moment in the send window) and two rule toggles on
    random backends at random moments."""
    rng = random.Random(seed)
    plan = []
    for _ in range(rounds):
        order = list(range(flows))
        rng.shuffle(order)
        plan.append({
            "order": order,
            "migrate": (rng.randrange(flows), rng.choice((1, 2)),
                        rng.uniform(0.1, 0.9)),
            "toggles": sorted((rng.uniform(0.05, 0.95),
                               rng.randrange(len(BACKENDS)),
                               rng.randrange(8)) for _ in range(2)),
        })
    sizes = [rng.randint(RACK_MIN_PAYLOAD, PAYLOAD) for _ in range(flows)]
    return {"flows": flows, "rounds": plan, "sizes": sizes}


def _rack_costs(flows: int, fast_forward: bool = True, trace: bool = False):
    return DEFAULT_COSTS.replace(
        flow_fastpath=True,
        flow_fastpath_entries=max(DEFAULT_COSTS.flow_fastpath_entries,
                                  8 * flows),
        smartnic_sram_bytes=max(DEFAULT_COSTS.smartnic_sram_bytes,
                                8 * flows * DEFAULT_COSTS.conn_state_bytes),
        rx_ring_entries=2_048, tx_ring_entries=2_048,
        fast_forward=fast_forward, ff_promote_after=2,
        cluster_lb=True, flow_migration=True, trace=trace,
    )


def _build_rack(costs, flows: int):
    """Client + backends behind one VIP; listeners on every service port
    of every backend, and the switch taught where each backend lives."""
    specs = [HostSpec.indexed(0, "client", NormanOS)] + [
        HostSpec.indexed(1 + i, name, NormanOS)
        for i, name in enumerate(BACKENDS)]
    rack = Rack(specs, costs=costs)
    client = rack.host("client")
    rack.add_vip(VIP_IP, BACKENDS)
    for name in BACKENDS:
        rack.host(name).dataplane.control.enable_conntrack()
    cli_procs = [client.spawn(f"cli{c}", "bob", core_id=c) for c in (1, 2, 3)]
    cli_eps = [client.dataplane.open_endpoint(cli_procs[i % 3], PROTO_UDP,
                                              CLIENT_PORT_BASE + i)
               for i in range(flows)]
    client.dataplane.open_endpoint(cli_procs[0], PROTO_UDP, TEACH_PORT)
    srv_eps = {}
    for name in BACKENDS:
        host = rack.host(name)
        procs = [host.spawn(f"srv{c}", "carol", core_id=c) for c in (1, 2, 3)]
        srv_eps[name] = [host.dataplane.open_endpoint(
            procs[i % 3], PROTO_UDP, SERVICE_PORT_BASE + i)
            for i in range(flows)]
    rack.run_all()
    for name in BACKENDS:
        srv_eps[name][0].send(64, (client.ip, TEACH_PORT))
    rack.run_all()
    tools = {name: Iptables(rack.host(name).dataplane, rack.host(name).kernel)
             for name in BACKENDS}
    return rack, client, cli_eps, srv_eps, tools


def _rack_play(rack, client, cli_eps, srv_eps, tools, schedule,
               tick: Callable[[], None] = _no_tick):
    """Returns (sent, delivered per flow, migrations)."""
    flows, sizes = schedule["flows"], schedule["sizes"]
    per_flow = [0] * flows
    migrations = []
    installed = {name: [] for name in BACKENDS}

    def toggle(backend: str, k: int) -> None:
        rules = installed[backend]
        port = UNRELATED_PORT_BASE + k
        if port in rules:
            tools[backend](f"-D INPUT {rules.index(port) + 1}")
            rules.remove(port)
        else:
            tools[backend](f"-A INPUT -p udp --dport {port} -j DROP")
            rules.append(port)

    def migrate(flow: FiveTuple, offset: int) -> None:
        source = rack.balancer.backend_for(flow)
        target = BACKENDS[(BACKENDS.index(source) + offset) % len(BACKENDS)]
        migrations.append(rack.migrate(flow, target))

    def count(idx: int):
        def _cb(sig):
            if sig.ok:
                per_flow[idx] += len(sig.value)
        return _cb

    sent = 0
    for rnd in schedule["rounds"]:
        base = rack.sim.now + 1_000
        i = 0
        for _ in range(SENDS_PER_FLOW):
            for e in rnd["order"]:
                rack.sim.at(base + i * RACK_GAP_NS, cli_eps[e].send,
                            sizes[e], (VIP_IP, SERVICE_PORT_BASE + e))
                i += 1
        sent += i
        window = i * RACK_GAP_NS
        e, offset, at = rnd["migrate"]
        flow = FiveTuple(PROTO_UDP, client.ip, CLIENT_PORT_BASE + e, VIP_IP,
                         SERVICE_PORT_BASE + e)
        rack.sim.at(base + int(at * window), migrate, flow, offset)
        for at, b, k in rnd["toggles"]:
            rack.sim.at(base + int(at * window), toggle, BACKENDS[b], k)
        rack.run_all()
        while True:
            before = sum(per_flow)
            for eps in srv_eps.values():
                for idx, ep in enumerate(eps):
                    ep.recv_burst(64, blocking=False).add_callback(count(idx))
            rack.run_all()
            if sum(per_flow) == before:
                break
        tick()
    return sent, per_flow, migrations


def _commits(rack):
    """Every policy commit on every machine and on the switch domain."""
    engines = [h.machine.interpose for h in rack.hosts]
    engines.append(rack.balancer.engine)
    return [c for e in engines for c in e.history]


def _rack_cpu_ns(rack) -> int:
    return sum(h.machine.cpus.total_busy_ns() for h in rack.hosts)


def rack_round(schedule, phases: Phases) -> Round:
    r = Round()
    flows = schedule["flows"]
    with phases.setup():
        rack, client, cli_eps, srv_eps, tools = _build_rack(
            _rack_costs(flows), flows)
    commits0 = len(_commits(rack))
    busy0 = _rack_cpu_ns(rack)
    with phases.measure():
        sent, per_flow, migrations = _rack_play(
            rack, client, cli_eps, srv_eps, tools, schedule, phases.tick)
    commits = _commits(rack)[commits0:]
    r.sent, r.delivered = sent, sum(per_flow)
    r.commits = len(commits)
    r.commits_failed = sum(1 for c in commits if c.mode == "failed")
    r.migrations = len(migrations)
    r.migrations_done = sum(1 for m in migrations if m.status == "done")
    _read_back(r, cpu_busy_ns=_rack_cpu_ns(rack) - busy0)
    _conservation(r)
    want = sent // flows
    r.check("per_flow_delivery", all(n == want for n in per_flow),
            f"per-flow delivered in [{min(per_flow)}, {max(per_flow)}], "
            f"sent {want} each")
    r.check("migrations_done", r.migrations_done == r.migrations,
            f"{r.migrations_done}/{r.migrations} migrations done")
    return r


# -- planes-traced ------------------------------------------------------------

PLANES = (KernelPathDataplane, BypassDataplane, SidecarDataplane,
          HypervisorDataplane, NormanOS)
#: Planes that can host a filter chain (bypass cannot interpose; the
#: hypervisor's vswitch runs uninterposed in the paper's comparison).
INTERPOSABLE = ("kernel", "sidecar", "kopi")
CHAIN_RULES = 8
PLANE_TX = 2_000
PLANE_RX = 2_000
PLANE_GAP_NS = 20_000
APP_PORT = 7_000
#: Operations per chunk: fewer than the 256-entry RX ring holds.
PLANE_CHUNK = 128


def planes_generate(seed: int, tx: int = PLANE_TX,
                    rx: int = PLANE_RX) -> Dict[str, object]:
    """Per plane, the interleaved TX/RX schedule and each packet's payload
    length."""
    rng = random.Random(seed)
    plan = {}
    for plane in PLANES:
        ops = ["tx"] * tx + ["rx"] * rx
        rng.shuffle(ops)
        plan[plane.name] = [(op, rng.randint(64, PAYLOAD)) for op in ops]
    return {"planes": plan}


def _install_chain(dataplane) -> None:
    """Non-matching specific rules then an accept-all, on both chains, so
    every packet walks the whole chain."""
    for chain in ("INPUT", "OUTPUT"):
        for i in range(CHAIN_RULES - 1):
            dataplane.install_filter_rule(NetfilterRule(
                verdict="ACCEPT", chain=chain, dport=40_000 + i, sport=1 + i))
        dataplane.install_filter_rule(NetfilterRule(verdict="ACCEPT",
                                                    chain=chain))


def _plane_play(tb, ep, ops,
                tick: Callable[[], None] = _no_tick) -> Tuple[int, int, int]:
    """Play one plane's schedule in chunks the RX ring can hold, the
    application reading after each; returns (tx sent, rx sent, rx read)."""
    tx = rx = read = 0
    for start in range(0, len(ops), PLANE_CHUNK):
        base = tb.sim.now + 1_000
        for i, (op, size) in enumerate(ops[start:start + PLANE_CHUNK]):
            at = base + i * PLANE_GAP_NS
            if op == "tx":
                tb.sim.at(at, ep.send, size, (PEER_IP, 9_000))
                tx += 1
            else:
                tb.sim.at(at, tb.peer.send_udp, 9_000, APP_PORT, size)
                rx += 1
        tb.run_all()
        read += _drain(tb.run_all, [ep])
        tick()
    return tx, rx, read


def planes_round(schedule, phases: Phases) -> Round:
    r = Round()
    costs = DEFAULT_COSTS.replace(trace=True)
    busy = sent = delivered = 0
    testbeds = []  # alive until read back, as in ddio_round
    for plane in PLANES:
        with phases.setup():
            tb = Testbed(plane, costs=costs)
            if plane.name in INTERPOSABLE:
                _install_chain(tb.dataplane)
            proc = tb.spawn("app", "bob", core_id=1)
            ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, APP_PORT)
            tb.run_all()
            tb.machine.tracer.reset()
        busy0 = tb.machine.cpus.total_busy_ns()
        with phases.measure():
            tx, rx, read = _plane_play(tb, ep, schedule["planes"][plane.name],
                                       phases.tick)
        peer_rx = tb.peer.metrics.counter("rx_pkts").value
        busy += tb.machine.cpus.total_busy_ns() - busy0
        sent += tx + rx
        delivered += read + peer_rx
        closed = tb.machine.tracer.closed_contexts()
        r.check(f"trace_conservation.{plane.name}",
                closed and all(c.span_sum() == c.latency_ns() for c in closed),
                f"{len(closed)} traced packets")
        testbeds.append(tb)
    r.sent, r.delivered = sent, delivered
    _read_back(r, cpu_busy_ns=busy)
    _conservation(r)
    return r


# -- fidelity: the hybrid schedule replayed exact, at reduced scale -----------

REPLAY_CONNS = 48
REPLAY_RX_MEAN = 16
REPLAY_RACK_FLOWS = 24
REPLAY_RACK_ROUNDS = 4


def _compare(exact: Dict[str, float], hybrid: Dict[str, float],
             exact_keys, tol: float) -> Tuple[float, List[str]]:
    """Largest relative error over every key, and the keys that break
    the contract: counters must be equal, modelled times within ``tol``."""
    worst, bad = 0.0, []
    for key in sorted(set(exact) | set(hybrid)):
        e, h = float(exact.get(key, 0)), float(hybrid.get(key, 0))
        err = abs(h - e) / max(abs(e), 1e-9) if (e or h) else 0.0
        worst = max(worst, err)
        if (key in exact_keys and h != e) or err > tol:
            bad.append(f"{key}: exact {e:g} hybrid {h:g}")
    return worst, bad


def _fluid_compare(exact, hybrid, fluid: int,
                   exact_keys) -> Tuple[float, List[str]]:
    """:func:`_compare` under ``ff_tolerance``; a hybrid replay in which no
    packet went fluid compared nothing and fails."""
    worst, bad = _compare(exact, hybrid, exact_keys,
                          DEFAULT_COSTS.ff_tolerance)
    if fluid == 0:
        bad.append("hybrid replay simulated every packet exactly")
    return worst, bad


def _stage_work(tracers) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for t in tracers:
        for stage, ns in t.work_by_stage(include_wait=False).items():
            out[f"stage:{stage}"] = out.get(f"stage:{stage}", 0) + ns
    return out


HYBRID_EXACT_KEYS = ("delivered", "rx_pkts", "tx_pkts", "peer_rx_pkts",
                     "fp_hits", "fp_misses", "dma_direct_bytes",
                     "dma_direct_ops", "dma_bytes", "dma_ops")


def _hybrid_observe(fast_forward: bool, schedule) -> Dict[str, float]:
    conns = schedule["conns"]
    tb, eps = _kopi_listeners(_hybrid_costs(conns, fast_forward, trace=True),
                              conns)
    busy0 = tb.machine.cpus.total_busy_ns()
    tb.machine.tracer.reset()
    _rx_sent, delivered, _tx_sent = _hybrid_play(tb, eps, schedule,
                                                 fast_forward)
    nic, m = tb.dataplane.nic, tb.machine
    fp = m.fastpath
    obs = {
        "delivered": delivered,
        "rx_pkts": nic.metrics.counter("rx_pkts").value,
        "tx_pkts": nic.metrics.counter("tx_pkts").value,
        "peer_rx_pkts": tb.peer.metrics.counter("rx_pkts").value,
        "fp_hits": fp.hits, "fp_misses": fp.misses,
        "dma_direct_bytes": m.copies.layer("dma_direct").bytes_copied,
        "dma_direct_ops": m.copies.layer("dma_direct").copies,
        "dma_bytes": m.copies.layer("dma").bytes_copied,
        "dma_ops": m.copies.layer("dma").copies,
        "cpu_busy_ns": m.cpus.total_busy_ns() - busy0,
    }
    obs.update(_stage_work([m.tracer]))
    return obs, (m.ff.fluid_packets if m.ff is not None else 0)


def hybrid_fidelity(seed: int) -> Tuple[float, List[str]]:
    schedule = hybrid_generate(seed, conns=REPLAY_CONNS,
                               rx_mean=REPLAY_RX_MEAN)
    exact, _ = _hybrid_observe(False, schedule)
    hybrid, fluid = _hybrid_observe(True, schedule)
    return _fluid_compare(exact, hybrid, fluid, HYBRID_EXACT_KEYS)


RACK_EXACT_KEYS = ("delivered", "per_flow", "client_tx_pkts",
                   "backend_rx_pkts", "switch_frames", "switch_flooded",
                   "links_sent", "ct_packets", "migrations_done")


def _rack_observe(fast_forward: bool, schedule) -> Dict[str, float]:
    flows = schedule["flows"]
    rack, client, cli_eps, srv_eps, tools = _build_rack(
        _rack_costs(flows, fast_forward, trace=True), flows)
    busy0 = _rack_cpu_ns(rack)
    for h in rack.hosts:
        h.machine.tracer.reset()
    sent, per_flow, migrations = _rack_play(rack, client, cli_eps, srv_eps,
                                            tools, schedule)
    backends = [rack.host(n) for n in BACKENDS]
    obs = {
        "delivered": sum(per_flow),
        # Per-flow delivery as one number: equal iff every flow matches.
        "per_flow": sum((i + 1) * n for i, n in enumerate(per_flow)),
        "client_tx_pkts": client.dataplane.nic.metrics.counter("tx_pkts").value,
        "backend_rx_pkts": sum(h.dataplane.nic.metrics.counter("rx_pkts").value
                               for h in backends),
        "switch_frames": rack.switch.metrics.counter("frames").value,
        "switch_flooded": rack.switch.metrics.counter("flooded").value,
        "links_sent": sum(h.uplink.metrics.counter("sent").value
                          + h.downlink.metrics.counter("sent").value
                          for h in rack.hosts),
        "ct_packets": sum(e.packets for h in backends
                          for e in h.dataplane.nic.conntrack.entries()),
        "migrations_done": sum(1 for m in migrations if m.status == "done"),
        "cpu_busy_ns": _rack_cpu_ns(rack) - busy0,
    }
    obs.update(_stage_work([h.machine.tracer for h in rack.hosts]))
    fluid = sum(h.machine.ff.fluid_packets for h in rack.hosts
                if h.machine.ff is not None)
    return obs, fluid


def rack_fidelity(seed: int) -> Tuple[float, List[str]]:
    schedule = rack_generate(seed, flows=REPLAY_RACK_FLOWS,
                             rounds=REPLAY_RACK_ROUNDS)
    exact, _ = _rack_observe(False, schedule)
    hybrid, fluid = _rack_observe(True, schedule)
    return _fluid_compare(exact, hybrid, fluid, RACK_EXACT_KEYS)


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    generate: Callable[[int], Dict[str, object]]
    round: Callable[[Dict[str, object], Phases], Round]
    #: ``fidelity(seed) -> (max relative error, broken keys)``.
    fidelity: Callable[[int], Tuple[float, List[str]]]


def _exact(_seed: int) -> Tuple[float, List[str]]:
    """An exact workload is its own reference."""
    return 0.0, []


WORKLOADS = {
    "exact-ddio": Workload(ddio_generate, ddio_round, _exact),
    "hybrid-steady": Workload(hybrid_generate, hybrid_round, hybrid_fidelity),
    "rack-churn": Workload(rack_generate, rack_round, rack_fidelity),
    "planes-traced": Workload(planes_generate, planes_round, _exact),
}
