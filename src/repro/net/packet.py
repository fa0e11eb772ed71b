"""The simulated packet: headers + synthetic payload length + metadata."""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from ..errors import PacketError
from .addresses import BROADCAST_MAC, IPv4Address, MacAddress
from .flow import FiveTuple
from .headers import (
    ARP_OP_REQUEST,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    PROTO_TCP,
    PROTO_UDP,
    UDP_HEADER_LEN,
    ArpHeader,
    EthernetHeader,
    Ipv4Header,
    PacketMeta,
    TcpHeader,
    UdpHeader,
)

L4Header = Union[TcpHeader, UdpHeader]


class Packet:
    """One frame on the simulated wire.

    Payload bytes are synthetic (length only) — what experiments measure is
    movement and headers, not content — but ``to_bytes`` produces a valid
    wire image (zero-filled payload) so captures are real pcap files.

    Packets are the hottest allocation in the simulator, so the class is
    slotted and ``wire_len`` is computed once at construction (headers are
    frozen, so it can never change). Frozen headers may be shared by many
    packets of one flow (see :func:`make_udp`'s ``headers`` memo), and so
    may the flow's :class:`FiveTuple` when one is given at construction.
    """

    __slots__ = ("packet_id", "eth", "ipv4", "l4", "arp", "payload_len",
                 "meta", "wire_len", "_five_tuple")

    _ids = 0

    def __init__(
        self,
        eth: EthernetHeader,
        ipv4: Optional[Ipv4Header] = None,
        l4: Optional[L4Header] = None,
        arp: Optional[ArpHeader] = None,
        payload_len: int = 0,
        five_tuple: Optional[FiveTuple] = None,
    ):
        if payload_len < 0:
            raise PacketError(f"negative payload: {payload_len}")
        if arp is not None and ipv4 is not None:
            raise PacketError("packet cannot be both ARP and IPv4")
        if l4 is not None and ipv4 is None:
            raise PacketError("L4 header requires an IPv4 header")
        if arp is None and ipv4 is None:
            raise PacketError("packet needs an ARP or IPv4 header")
        Packet._ids += 1
        self.packet_id = Packet._ids
        self.eth = eth
        self.ipv4 = ipv4
        self.l4 = l4
        self.arp = arp
        self.payload_len = payload_len
        self._five_tuple = five_tuple
        self.meta = PacketMeta()
        total = eth.wire_len
        if arp is not None:
            total += arp.wire_len
        else:
            total += ipv4.wire_len
            if l4 is not None:
                total += l4.wire_len
            total += payload_len
        self.wire_len = total

    # --- classification ------------------------------------------------------

    @property
    def is_arp(self) -> bool:
        return self.arp is not None

    @property
    def is_tcp(self) -> bool:
        return isinstance(self.l4, TcpHeader)

    @property
    def is_udp(self) -> bool:
        return isinstance(self.l4, UdpHeader)

    @property
    def five_tuple(self) -> Optional[FiveTuple]:
        """The flow's five-tuple: the shared one given at construction, or
        else a fresh one per access. A packet never caches a private copy:
        captures keep packets alive, and a cached tuple each would cost
        more memory than rebuilding the few that are asked for."""
        ft = self._five_tuple
        if ft is not None:
            return ft
        if self.ipv4 is None or self.l4 is None:
            return None
        return FiveTuple(
            proto=self.ipv4.proto,
            src_ip=self.ipv4.src,
            sport=self.l4.sport,
            dst_ip=self.ipv4.dst,
            dport=self.l4.dport,
        )

    def to_bytes(self) -> bytes:
        """Wire image with a zero-filled payload."""
        out = self.eth.to_bytes()
        if self.arp is not None:
            return out + self.arp.to_bytes()
        assert self.ipv4 is not None
        out += self.ipv4.to_bytes()
        if self.l4 is not None:
            out += self.l4.to_bytes()
        return out + b"\x00" * self.payload_len

    def summary(self) -> str:
        """One-line human description (tcpdump-style)."""
        if self.arp is not None:
            kind = "request" if self.arp.op == ARP_OP_REQUEST else "reply"
            return (
                f"ARP {kind} sender {self.arp.sender_ip} ({self.arp.sender_mac}) "
                f"target {self.arp.target_ip}"
            )
        assert self.ipv4 is not None
        proto = {PROTO_TCP: "TCP", PROTO_UDP: "UDP"}.get(self.ipv4.proto, str(self.ipv4.proto))
        if self.l4 is not None:
            return (
                f"{proto} {self.ipv4.src}:{self.l4.sport} > "
                f"{self.ipv4.dst}:{self.l4.dport} len {self.wire_len}"
            )
        return f"IP {self.ipv4.src} > {self.ipv4.dst} proto {proto} len {self.wire_len}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Packet #{self.packet_id} {self.summary()}>"


#: A sender's UDP header memo: one ``(eth, ipv4, udp, five_tuple)`` set
#: per flow, keyed by the address words and ports
#: ``(dst_mac, src_ip, dst_ip, sport, dport)``.
UdpHeaderMemo = Dict[
    Tuple[int, int, int, int, int],
    Tuple[EthernetHeader, Ipv4Header, UdpHeader, FiveTuple],
]


def make_udp(
    src_mac: MacAddress,
    dst_mac: MacAddress,
    src_ip: IPv4Address,
    dst_ip: IPv4Address,
    sport: int,
    dport: int,
    payload_len: int = 0,
    headers: Optional[UdpHeaderMemo] = None,
) -> Packet:
    """Convenience UDP datagram constructor.

    ``headers`` is the sender's memo (an empty dict to start; without
    one, the packet gets a throwaway memo of its own). Through it, the packets of one flow share frozen headers and one five-tuple for
    as long as the payload size stays the same; a size change replaces the
    flow's set, rebuilding only its IPv4 and UDP headers (the Ethernet
    header and five-tuple do not depend on the size). A memo belongs to
    one sender (one source MAC) and lives as long as that sender; there is
    no module-level cache, which would keep every flow's headers alive
    across simulations.
    """
    if headers is None:
        headers = {}
    key = (dst_mac._value, src_ip._value, dst_ip._value, sport, dport)
    hs = headers.get(key)
    if hs is None or hs[2].payload_len != payload_len:
        if hs is None:
            eth = EthernetHeader(dst=dst_mac, src=src_mac, ethertype=ETHERTYPE_IPV4)
            ft = FiveTuple(PROTO_UDP, src_ip, sport, dst_ip, dport)
        else:  # a size change keeps the flow's Ethernet header and five-tuple
            eth, ft = hs[0], hs[3]
        hs = headers[key] = (
            eth,
            Ipv4Header(src=src_ip, dst=dst_ip, proto=PROTO_UDP,
                       payload_len=payload_len + UDP_HEADER_LEN),
            UdpHeader(sport=sport, dport=dport, payload_len=payload_len),
            ft,
        )
    return Packet(hs[0], hs[1], hs[2], None, payload_len, hs[3])


def make_tcp(
    src_mac: MacAddress,
    dst_mac: MacAddress,
    src_ip: IPv4Address,
    dst_ip: IPv4Address,
    sport: int,
    dport: int,
    payload_len: int = 0,
    flags: Optional[int] = None,
    seq: int = 0,
    ack: int = 0,
) -> Packet:
    """Convenience TCP segment builder."""
    tcp_kwargs = {"sport": sport, "dport": dport, "seq": seq, "ack": ack}
    if flags is not None:
        tcp_kwargs["flags"] = flags
    tcp = TcpHeader(**tcp_kwargs)
    return Packet(
        eth=EthernetHeader(dst=dst_mac, src=src_mac, ethertype=ETHERTYPE_IPV4),
        ipv4=Ipv4Header(
            src=src_ip, dst=dst_ip, proto=PROTO_TCP,
            payload_len=payload_len + tcp.wire_len,
        ),
        l4=tcp,
        payload_len=payload_len,
    )


def make_arp_request(
    sender_mac: MacAddress, sender_ip: IPv4Address, target_ip: IPv4Address
) -> Packet:
    """Broadcast who-has ARP request."""
    return Packet(
        eth=EthernetHeader(dst=BROADCAST_MAC, src=sender_mac, ethertype=ETHERTYPE_ARP),
        arp=ArpHeader(op=ARP_OP_REQUEST, sender_mac=sender_mac, sender_ip=sender_ip,
                      target_ip=target_ip),
    )
