"""Compilers from kernel policy objects to overlay programs.

This is the §4.4 mechanism by which ``iptables`` and ``tc`` keep working
under KOPI: the in-kernel control plane takes the same rule objects the
software stack uses and lowers them to overlay programs for the SmartNIC.

Owner matches (``--uid-owner`` etc.) cannot be evaluated on the NIC from
packet bytes — the NIC has no process table. The control plane therefore
*resolves* each owner rule to the set of connection ids whose owner matches
(it knows the owner of every connection, having set each one up), and the
compiled program matches on ``meta.conn_id``. When connections come or go
the control plane recompiles — microseconds on the overlay, per E10.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..errors import PolicyError
from ..kernel.netfilter import DROP, NetfilterRule
from .assembler import assemble
from .isa import Program

ResolveConns = Callable[[NetfilterRule], Optional[Sequence[int]]]


def compile_filter_rules(
    rules: Iterable[NetfilterRule],
    resolve_conns: Optional[ResolveConns] = None,
    name: str = "filters",
) -> Program:
    """Lower an ordered rule list to one overlay program.

    ``resolve_conns(rule)`` must return the connection ids an owner rule
    applies to (or None when the rule cannot be resolved — compilation then
    fails loudly rather than silently not enforcing).
    """
    rules = list(rules)
    return assemble(filter_rules_asm(rules, resolve_conns),
                    n_counters=len(rules), name=name)


def filter_rules_asm(
    rules: Sequence[NetfilterRule],
    resolve_conns: Optional[ResolveConns] = None,
) -> str:
    """The assembly text :func:`compile_filter_rules` assembles (one
    counter per rule) — what a caller compares to tell whether a chain's
    program changed without assembling it again."""
    lines: List[str] = []
    for i, rule in enumerate(rules):
        nxt = f"rule_{i + 1}" if i + 1 < len(rules) else "default"
        lines.append(f"rule_{i}:")
        ft_checks = [
            ("ip.proto", rule.proto),
            ("ip.src", rule.src_ip.value if rule.src_ip else None),
            ("ip.dst", rule.dst_ip.value if rule.dst_ip else None),
            ("l4.sport", rule.sport),
            ("l4.dport", rule.dport),
        ]
        for field, expected in ft_checks:
            if expected is not None:
                lines.append(f"    ldf r0, {field}")
                lines.append(f"    jne r0, {expected}, {nxt}")
        if rule.needs_owner:
            if resolve_conns is None:
                raise PolicyError(
                    f"rule needs owner resolution but no resolver given: "
                    f"{rule.describe()}"
                )
            conns = resolve_conns(rule)
            if conns is None:
                raise PolicyError(
                    f"owner rule could not be resolved to connections: "
                    f"{rule.describe()}"
                )
            if not conns:
                # No current connection matches the owner: rule can never
                # fire until recompilation, so skip to the next rule.
                lines.append(f"    jmp {nxt}")
                continue
            lines.append("    ldf r1, meta.conn_id")
            for conn_id in conns:
                lines.append(f"    jeq r1, {conn_id}, match_{i}")
            lines.append(f"    jmp {nxt}")
            lines.append(f"match_{i}:")
        lines.append(f"    cnt {i}")
        lines.append("    drop" if rule.verdict == DROP else "    accept")
    lines.append("default:")
    lines.append("    accept")
    return "\n".join(lines)


def compile_classifier(
    classid_of_conn: Dict[int, int],
    default_classid: int = 0,
    name: str = "classifier",
) -> Program:
    """Map ``meta.conn_id`` to a scheduling class id (``setcls``).

    Used to run tc/cgroup classification on the NIC: the control plane knows
    each connection's owning process and therefore its cgroup classid.
    """
    lines: List[str] = ["    ldf r0, meta.conn_id"]
    items = sorted(classid_of_conn.items())
    for conn_id, classid in items:
        lines.append(f"    jeq r0, {conn_id}, cls_{conn_id}")
    lines.append(f"    setcls {default_classid}")
    lines.append("    jmp done")
    for conn_id, classid in items:
        lines.append(f"cls_{conn_id}:")
        lines.append(f"    setcls {classid}")
        lines.append("    jmp done")
    lines.append("done:")
    lines.append("    accept")
    return assemble("\n".join(lines), name=name)


def compile_policer(
    meter_of_conn: Dict[int, int],
    n_meters: int,
    name: str = "policer",
) -> Program:
    """Per-connection token-bucket policing (``tc police`` under KOPI).

    ``meter_of_conn`` maps connection ids to meter indices (one meter per
    policed cgroup). Unmapped connections pass unpoliced. The caller must
    configure each declared meter on the loaded machine with the cgroup's
    rate/burst.
    """
    if n_meters < 0:
        raise PolicyError(f"negative meter count: {n_meters}")
    if any(not 0 <= idx < n_meters for idx in meter_of_conn.values()):
        raise PolicyError("meter index out of range")
    lines: List[str] = ["    ldf r0, meta.conn_id"]
    for conn_id, idx in sorted(meter_of_conn.items()):
        lines.append(f"    jeq r0, {conn_id}, meter_{idx}")
    lines.append("    accept")
    for idx in sorted(set(meter_of_conn.values())):
        lines.append(f"meter_{idx}:")
        lines.append(f"    meter {idx}, r1")
        lines.append(f"    jeq r1, 1, ok_{idx}")
        lines.append("    drop")
        lines.append(f"ok_{idx}:")
        lines.append("    accept")
    return assemble("\n".join(lines), n_meters=n_meters, name=name)


def compile_rate_limiter(
    rate_bps: int, burst_bytes: int, name: str = "limiter"
) -> Program:
    """Single token-bucket policer: drop non-conformant packets.

    The returned program declares meter 0; the caller must configure it on
    the machine with the same rate/burst (mirroring how the control plane
    writes meter parameters through MMIO after loading the program).
    """
    if rate_bps <= 0 or burst_bytes <= 0:
        raise PolicyError("rate and burst must be positive")
    text = """
        meter 0, r0
        jeq r0, 1, ok
        drop
    ok:
        accept
    """
    return assemble(text, n_meters=1, name=name)
