"""AccelNet-style hypervisor vswitch offloaded to the NIC.

Performance is bypass-class (the switch sits in NIC hardware, on-path), and
unlike raw bypass there *is* a global interposition point — but it is
logically isolated from the OS: it sees headers, never processes. Owner
rules, cgroup QoS, blocking I/O, and packet→process attribution all refuse,
which is the paper's §1 argument for OS-integrated (not hypervisor-level)
interposition.

The plane is the bypass plane plus its vswitch stage: applications keep
bypass's direct rings and polling, and the vswitch runs on every packet
the NIC receives or fetches for transmit.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import UnsupportedOperation
from ..host.copies import LAYER_HV_VRING
from ..interpose import InterpositionPoint
from ..interpose.fastpath import CHAIN_VSWITCH
from ..kernel.arp import ArpCache
from ..kernel.netfilter import NetfilterRule
from ..net.addresses import IPv4Address
from ..net.packet import Packet
from ..net.switch import MatchAction
from ..sim import MetricSet, Signal
from ..trace import STAGE_FASTPATH, STAGE_NIC_PIPELINE, STAGE_RING
from .base import CaptureSession, PacketFilter, QosConfig
from .bypass import BypassDataplane, BypassEndpoint


class HypervisorEndpoint(BypassEndpoint):
    """App view: bypass's direct rings, polling only."""

    def connect(self, dst_ip: IPv4Address, dport: int) -> Signal:
        """Record the peer only. Unlike bypass, no reverse-flow steering
        entry is installed: the return flow is steered by the listener's
        port entry."""
        self.peer = (dst_ip, dport)
        done = Signal("hv.connect")
        self._dp.machine.sim.after(0, done.succeed, True)
        return done


class HypervisorDataplane(BypassDataplane):
    """vswitch-on-NIC: global header view, zero process view."""

    name = "hypervisor"
    endpoint_cls = HypervisorEndpoint
    # The vswitch pulls every guest-posted packet through the vring:
    # interposition by copy, charged to the ledger.
    tx_fetch_layer = LAYER_HV_VRING
    tx_fetch_label = "vring_fetch"
    ring_prefix = "hv."
    ff_chain = CHAIN_VSWITCH

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.vswitch_rules: List[MatchAction] = []
        self.arp_observed = ArpCache()
        self.metrics = MetricSet("vswitch")
        self._captures: List[Tuple[Optional[PacketFilter], CaptureSession]] = []
        # The vswitch's interposition mechanisms. Header-only match-action
        # compiles from netfilter rules, so the mechanism is "netfilter" even
        # though it runs below the OS ("netfilter" proper is registered by
        # Kernel; its table is off-path here).
        engine = self.machine.interpose
        self._vswitch_point = engine.register(InterpositionPoint(
            name="vswitch", plane="hypervisor", mechanism="netfilter",
            install_latency_ns=self.costs.table_update_ns,
            target=self.vswitch_rules,
        ))
        self._sniffer_point = engine.register(InterpositionPoint(
            name="sniffer", plane="hypervisor", mechanism="tap",
            install_latency_ns=self.costs.table_update_ns,
            target=self._captures,
        ))

    # --- vswitch pipeline (runs on the NIC, both directions) ---------------------

    def _vswitch(self, pkt: Packet) -> bool:
        """Returns False when dropped. Header-only: meta.owner_* is never
        consulted — the hypervisor cannot know it."""
        if pkt.is_arp:
            self.arp_observed.observe(pkt, self.machine.sim.now)
        if self._captures:
            mirrored = False
            for match, session in self._captures:
                if match is None or match(pkt):
                    session.packets.append(pkt)
                    mirrored = True
            self._sniffer_point.record_eval(hit=mirrored)
        matched = False
        verdict_drop = False
        if self.vswitch_rules:
            fp = self.machine.fastpath
            ft = pkt.five_tuple if fp is not None else None
            entry = fp.lookup(CHAIN_VSWITCH, ft) if ft is not None else None
            if entry is not None:
                # Hit: cached header verdict, no match-action walk, no eval
                # recorded (the hardware flow cache sits before the rules).
                verdict_drop = entry.verdict == "drop"
            else:
                for rule in self.vswitch_rules:
                    if rule.matches(pkt):
                        matched = True
                        verdict_drop = rule.action == "drop"
                        break
                if fp is not None and ft is not None:
                    fp.install(
                        CHAIN_VSWITCH, ft,
                        verdict="drop" if verdict_drop else "allow",
                        points=("vswitch",),
                    )
                self._vswitch_point.record_eval(hit=matched, dropped=verdict_drop)
        if verdict_drop:
            self.metrics.counter("dropped").inc()
            return False
        return True

    def wire_rx(self, pkt: Packet) -> None:
        if not self._vswitch(pkt):
            return
        self.nic.rx_from_wire(pkt)

    def _egress(self, pkt: Packet) -> None:
        """The vswitch TX pass: a dropped packet never reaches the wire."""
        if self._vswitch(pkt):
            self.nic.tx(pkt)
        elif pkt.meta.trace is not None:
            pkt.meta.trace.close(self.machine.sim.now)  # dropped by the vswitch

    # --- administrative surface ------------------------------------------------------

    def install_filter_rule(self, rule: NetfilterRule) -> None:
        """Header rules compile to vswitch match-action; owner rules are
        impossible off-OS."""
        if rule.needs_owner:
            raise UnsupportedOperation(
                "hypervisor vswitch cannot match on process owner: it is "
                "logically isolated from the OS process table"
            )
        self.vswitch_rules.append(
            MatchAction(
                action="drop" if rule.verdict == "DROP" else "allow",
                proto=rule.proto,
                src_ip=rule.src_ip,
                dst_ip=rule.dst_ip,
                sport=rule.sport,
                dport=rule.dport,
            )
        )
        self._vswitch_point.record_update()

    def configure_qos(self, config: QosConfig) -> None:
        raise UnsupportedOperation(
            "hypervisor vswitch cannot shape by cgroup/user/process: "
            "packets carry no process identity (it could shape by port, but "
            "the game hops ports — §2)"
        )

    def start_capture(
        self, match: Optional[PacketFilter] = None, name: str = "capture"
    ) -> CaptureSession:
        """Global capture works — but unattributed."""
        session = CaptureSession(name=name, attributed=False)
        self._captures.append((match, session))
        self._sniffer_point.record_update()

        def _detach() -> None:
            self._captures.remove((match, session))
            self._sniffer_point.record_update()

        session._detach = _detach
        return session

    def attribution_of(self, pkt: Packet) -> Optional[Tuple[int, int, str]]:
        return None  # by construction

    def arp_entries(self) -> List[object]:
        """MAC/IP pairs only; ``source_pid`` is always None here."""
        return self.arp_observed.entries()

    # --- hybrid fidelity ---------------------------------------------------
    #
    # Bypass's RX template over the vswitch chain (``ff_chain``): a flow is
    # steady when its match-action verdict is cached live and not a drop.
    # No capture session may need per-packet visibility, and the cache hit
    # comes before the pipeline in the frozen shape.

    def _ff_capturing(self) -> bool:
        return bool(self._captures)

    def _ff_spans(self, ep, pkt):
        costs = self.costs
        return ep.proc.core_id, (
            (STAGE_FASTPATH, self.machine.fastpath.hit_ns, False, "vswitch_cache"),
            (STAGE_NIC_PIPELINE, costs.nic_pipeline_ns, False, "rx_pipeline"),
            (STAGE_RING, costs.bypass_rx_pkt_ns, True, "rx_desc"),
        )
