"""Headers, packets, five-tuples."""

import pytest

from repro.errors import PacketError
from repro.net import (
    ARP_OP_REQUEST,
    ETHERTYPE_ARP,
    FiveTuple,
    IPv4Address,
    MacAddress,
    Packet,
    PROTO_TCP,
    PROTO_UDP,
    make_arp_request,
    make_tcp,
    make_udp,
)
from repro.net.checksum import internet_checksum
from repro.net.headers import (
    IPV4_HEADER_LEN,
    TCP_FLAG_SYN,
    EthernetHeader,
    Ipv4Header,
    TcpHeader,
    UdpHeader,
)

MAC_A = MacAddress.from_index(1)
MAC_B = MacAddress.from_index(2)
IP_A = IPv4Address.parse("10.0.0.1")
IP_B = IPv4Address.parse("10.0.0.2")


class TestHeaders:
    def test_ipv4_checksum_is_valid(self):
        hdr = Ipv4Header(src=IP_A, dst=IP_B, proto=PROTO_TCP, payload_len=100)
        raw = hdr.to_bytes()
        assert len(raw) == IPV4_HEADER_LEN
        assert internet_checksum(raw) == 0  # checksum over header verifies

    def test_ipv4_total_length(self):
        hdr = Ipv4Header(src=IP_A, dst=IP_B, proto=PROTO_UDP, payload_len=80)
        assert hdr.total_length == 100

    def test_ttl_decrement(self):
        hdr = Ipv4Header(src=IP_A, dst=IP_B, proto=PROTO_TCP, ttl=2)
        assert hdr.decrement_ttl().ttl == 1
        with pytest.raises(PacketError):
            Ipv4Header(src=IP_A, dst=IP_B, proto=PROTO_TCP, ttl=0).decrement_ttl()

    def test_tcp_flags(self):
        tcp = TcpHeader(sport=1, dport=2, flags=TCP_FLAG_SYN)
        assert tcp.has_flag(TCP_FLAG_SYN)
        assert len(tcp.to_bytes()) == 20

    def test_udp_length_field(self):
        udp = UdpHeader(sport=1, dport=2, payload_len=100)
        assert udp.length == 108

    @pytest.mark.parametrize("port", [-1, 65_536])
    def test_port_range_enforced(self, port):
        with pytest.raises(PacketError):
            TcpHeader(sport=port, dport=80)

    def test_ethernet_serialization(self):
        eth = EthernetHeader(dst=MAC_B, src=MAC_A, ethertype=ETHERTYPE_ARP)
        raw = eth.to_bytes()
        assert raw[:6] == MAC_B.to_bytes()
        assert raw[12:14] == b"\x08\x06"


class TestPacketConstruction:
    def test_udp_packet_wire_len(self):
        pkt = make_udp(MAC_A, MAC_B, IP_A, IP_B, sport=1000, dport=53, payload_len=100)
        assert pkt.wire_len == 14 + 20 + 8 + 100
        assert pkt.is_udp and not pkt.is_tcp and not pkt.is_arp

    def test_tcp_packet_five_tuple(self):
        pkt = make_tcp(MAC_A, MAC_B, IP_A, IP_B, sport=5555, dport=5432)
        ft = pkt.five_tuple
        assert ft == FiveTuple(PROTO_TCP, IP_A, 5555, IP_B, 5432)

    def test_arp_packet(self):
        pkt = make_arp_request(MAC_A, IP_A, IP_B)
        assert pkt.is_arp
        assert pkt.eth.dst.is_broadcast
        assert pkt.five_tuple is None
        assert pkt.arp.op == ARP_OP_REQUEST
        assert "ARP request" in pkt.summary()

    def test_wire_image_roundtrip_lengths(self):
        pkt = make_udp(MAC_A, MAC_B, IP_A, IP_B, sport=1, dport=2, payload_len=37)
        assert len(pkt.to_bytes()) == pkt.wire_len

    def test_packet_ids_unique(self):
        a = make_udp(MAC_A, MAC_B, IP_A, IP_B, sport=1, dport=2)
        b = make_udp(MAC_A, MAC_B, IP_A, IP_B, sport=1, dport=2)
        assert a.packet_id != b.packet_id

    def test_invalid_combinations_rejected(self):
        eth = EthernetHeader(dst=MAC_B, src=MAC_A)
        with pytest.raises(PacketError):
            Packet(eth=eth)  # no L3
        with pytest.raises(PacketError):
            Packet(eth=eth, l4=UdpHeader(1, 2))  # L4 without IP

    def test_summary_formats(self):
        pkt = make_tcp(MAC_A, MAC_B, IP_A, IP_B, sport=80, dport=8080)
        assert "TCP 10.0.0.1:80 > 10.0.0.2:8080" in pkt.summary()


class TestFiveTuple:
    def test_reversed(self):
        ft = FiveTuple(PROTO_TCP, IP_A, 1000, IP_B, 80)
        rev = ft.reversed()
        assert rev.src_ip == IP_B and rev.sport == 80
        assert rev.dst_ip == IP_A and rev.dport == 1000
        assert rev.reversed() == ft

    def test_hashable(self):
        ft = FiveTuple(PROTO_UDP, IP_A, 1, IP_B, 2)
        assert ft in {ft}

    def test_validation(self):
        with pytest.raises(PacketError):
            FiveTuple(300, IP_A, 1, IP_B, 2)
        with pytest.raises(PacketError):
            FiveTuple(PROTO_TCP, IP_A, 70_000, IP_B, 2)


class TestHeaderMemo:
    """``make_udp``'s per-sender memo: the packets of one flow share frozen
    headers and one five-tuple while the payload size stays the same."""

    def test_same_flow_and_size_share_headers_and_five_tuple(self):
        memo = {}
        a = make_udp(MAC_A, MAC_B, IP_A, IP_B, 1000, 53, 100, memo)
        b = make_udp(MAC_A, MAC_B, IP_A, IP_B, 1000, 53, 100, memo)
        assert a.packet_id != b.packet_id and a.meta is not b.meta
        assert a.eth is b.eth and a.ipv4 is b.ipv4 and a.l4 is b.l4
        assert a.five_tuple is b.five_tuple
        assert a.five_tuple is a.five_tuple
        assert a.five_tuple == FiveTuple(PROTO_UDP, IP_A, 1000, IP_B, 53)
        assert len(memo) == 1

    def test_other_flows_get_their_own_set(self):
        memo = {}
        a = make_udp(MAC_A, MAC_B, IP_A, IP_B, 1000, 53, 100, memo)
        b = make_udp(MAC_A, MAC_B, IP_A, IP_B, 1001, 53, 100, memo)
        c = make_udp(MAC_A, MAC_A, IP_A, IP_B, 1000, 53, 100, memo)
        assert a.l4 is not b.l4 and a.five_tuple != b.five_tuple
        assert c.eth.dst == MAC_A and a.eth.dst == MAC_B
        assert len(memo) == 3

    def test_size_change_rebuilds_and_leaves_earlier_packet_intact(self):
        memo = {}
        small = make_udp(MAC_A, MAC_B, IP_A, IP_B, 1000, 53, 100, memo)
        eth, ipv4, l4, ft = small.eth, small.ipv4, small.l4, small.five_tuple
        big = make_udp(MAC_A, MAC_B, IP_A, IP_B, 1000, 53, 900, memo)
        assert big.ipv4 is not ipv4 and big.l4 is not l4
        assert big.wire_len == 14 + 20 + 8 + 900
        assert big.ipv4.payload_len == 908 and big.l4.payload_len == 900
        # Size-independent members carry over to the new set.
        assert big.eth is eth and big.five_tuple is ft
        assert (small.eth, small.ipv4, small.l4) == (eth, ipv4, l4)
        assert small.ipv4.payload_len == 108 and small.l4.payload_len == 100
        assert small.wire_len == 14 + 20 + 8 + 100
        assert len(small.to_bytes()) == small.wire_len
        again = make_udp(MAC_A, MAC_B, IP_A, IP_B, 1000, 53, 900, memo)
        assert again.l4 is big.l4 and len(memo) == 1

    def test_without_memo_behaves_as_before(self):
        a = make_udp(MAC_A, MAC_B, IP_A, IP_B, 1000, 53, 100)
        b = make_udp(MAC_A, MAC_B, IP_A, IP_B, 1000, 53, 100)
        shared = make_udp(MAC_A, MAC_B, IP_A, IP_B, 1000, 53, 100, {})
        assert a.ipv4 is not b.ipv4 and a.l4 is not b.l4
        assert a.five_tuple == b.five_tuple == shared.five_tuple
        assert a.to_bytes() == shared.to_bytes()
        assert (a.eth, a.ipv4, a.l4) == (shared.eth, shared.ipv4, shared.l4)
        assert a.wire_len == shared.wire_len == 14 + 20 + 8 + 100
        assert a.summary() == shared.summary()

    def test_nat_translate_in_leaves_sibling_headers_alone(self):
        from repro.core.conntrack import NatTable
        from repro.nic.smartnic import SramAllocator

        public_ip = IPv4Address.parse("192.0.2.1")
        nat = NatTable(SramAllocator(10_000), public_ip)
        out = nat.translate_out(make_udp(MAC_A, MAC_B, IP_A, IP_B, 5555, 80, 50))
        memo = {}
        reply = make_udp(MAC_B, MAC_A, IP_B, public_ip, 80, out.l4.sport, 50, memo)
        sibling = make_udp(MAC_B, MAC_A, IP_B, public_ip, 80, out.l4.sport, 50, memo)
        back = nat.translate_in(reply)
        assert back.ipv4.dst == IP_A and back.l4.dport == 5555
        assert back.five_tuple == FiveTuple(PROTO_UDP, IP_B, 80, IP_A, 5555)
        for p in (reply, sibling):
            assert p.ipv4.dst == public_ip and p.l4.dport == out.l4.sport
            assert p.five_tuple.dst_ip == public_ip
        assert sibling.ipv4 is reply.ipv4 and sibling.l4 is reply.l4

    def test_vip_rewrite_leaves_sibling_headers_alone(self):
        from repro.cluster import vip_mac
        from repro.cluster.balancer import L4LoadBalancer
        from repro.config import DEFAULT_COSTS
        from repro.net.switch import L2Switch
        from repro.sim import Simulator

        sim = Simulator()
        costs = DEFAULT_COSTS.replace(cluster_lb=True)
        balancer = L4LoadBalancer(sim, L2Switch(sim), costs)
        backend_mac = MacAddress.from_index(11)
        balancer.register_backend("b1", backend_mac)
        vip = IPv4Address.parse("10.0.9.9")
        balancer.add_vip(vip, vip_mac(0), ["b1"])
        memo = {}
        frame = make_udp(MAC_A, vip_mac(0), IP_A, vip, 22_000, 2_000, 600, memo)
        sibling = make_udp(MAC_A, vip_mac(0), IP_A, vip, 22_000, 2_000, 600, memo)
        steered = balancer.steer(frame)
        assert steered.eth.dst == backend_mac
        assert steered.five_tuple == frame.five_tuple
        for p in (frame, sibling):
            assert p.eth.dst == vip_mac(0)
        assert sibling.eth is frame.eth
