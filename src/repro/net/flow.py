"""Five-tuple flow identity."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PacketError
from .addresses import IPv4Address


@dataclass(frozen=True, eq=False)
class FiveTuple:
    """(proto, src ip/port, dst ip/port) — the unit of steering and NAT.

    Five-tuples key every hot dict in the dataplane (verdict cache,
    conntrack, fast-forward state), so the hash — same value the
    generated dataclass hash would produce — is computed once at
    construction instead of per lookup, and equality compares raw
    address words instead of dispatching through ``IPv4Address``.
    Slotted: a five-tuple is shared by every packet of a flow built from
    a header memo (:func:`repro.net.packet.make_udp`) and keys long-lived
    tables, so it carries no per-instance dict.
    """

    __slots__ = ("proto", "src_ip", "sport", "dst_ip", "dport", "_hash")

    proto: int
    src_ip: IPv4Address
    sport: int
    dst_ip: IPv4Address
    dport: int

    def __post_init__(self) -> None:
        if not 0 <= self.proto <= 0xFF:
            raise PacketError(f"proto out of range: {self.proto}")
        for name, port in (("sport", self.sport), ("dport", self.dport)):
            if not 0 <= port <= 0xFFFF:
                raise PacketError(f"{name} out of range: {port}")
        object.__setattr__(self, "_hash", hash(
            (self.proto, self.src_ip, self.sport, self.dst_ip, self.dport)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FiveTuple:
            return NotImplemented
        return (
            self.sport == other.sport
            and self.dport == other.dport
            and self.proto == other.proto
            and self.src_ip._value == other.src_ip._value
            and self.dst_ip._value == other.dst_ip._value
        )

    def reversed(self) -> "FiveTuple":
        """The reply direction of this flow."""
        return FiveTuple(
            proto=self.proto,
            src_ip=self.dst_ip,
            sport=self.dport,
            dst_ip=self.src_ip,
            dport=self.sport,
        )

    def __str__(self) -> str:
        return (
            f"{self.src_ip}:{self.sport} -> {self.dst_ip}:{self.dport} "
            f"proto={self.proto}"
        )
