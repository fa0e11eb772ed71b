"""Last-level cache with DDIO way partitioning.

Intel Data Direct I/O lets inbound DMA allocate directly into the LLC — but
only into a fixed subset of ways (2 of 11 by default). The paper's §5
hypothesis is that once the aggregate working set of active per-connection
ring buffers outgrows that DDIO slice, DMA writes start evicting each other,
application reads miss to DRAM, per-packet cost rises, and throughput
collapses — observed past ~1024 concurrent connections.

Two models of the same mechanism live here:

* :class:`WayPartitionedCache` — a structural set-associative LRU cache where
  DMA-allocated lines are capped at ``ddio_ways`` per set. Used by the E8
  benchmark.
* :class:`AnalyticDdioModel` — a closed-form approximation (random-ish access
  within the working set) used for quick examples and cross-checked against
  the structural model by tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..config import CostModel
from ..errors import ConfigError

DDIO_OWNER = "ddio"
CPU_OWNER = "cpu"


class WayPartitionedCache:
    """Set-associative LRU cache with a per-set cap on DMA-owned lines.

    Addresses are byte addresses; lines are ``line_bytes`` wide; the set
    index is the usual ``(addr // line) % sets``. Each set is a plain dict
    ``tag -> owner`` in LRU order (oldest first; a hit re-inserts its tag),
    and ``_ddio[i]`` counts the DDIO-owned lines of set ``i``. The sets hold
    only ints and the two owner strings, so the garbage collector never
    tracks them.
    """

    def __init__(
        self,
        sets: int,
        ways: int,
        ddio_ways: int,
        line_bytes: int = 64,
        cpu_fills_allocate: bool = True,
    ):
        if sets < 1 or ways < 1:
            raise ConfigError(f"invalid geometry: sets={sets} ways={ways}")
        if not 0 <= ddio_ways <= ways:
            raise ConfigError(f"ddio_ways={ddio_ways} out of range for {ways} ways")
        if line_bytes < 1 or line_bytes & (line_bytes - 1):
            raise ConfigError(f"line size must be a power of two, got {line_bytes}")
        self.sets = sets
        self.ways = ways
        self.ddio_ways = ddio_ways
        self.line_bytes = line_bytes
        self.cpu_fills_allocate = cpu_fills_allocate
        """When False, CPU read misses do not install the line (non-temporal
        reads). This models a *loaded* server whose application working set
        already owns the CPU ways of the LLC: DMA-delivered ring data then
        survives in cache only inside the DDIO slice, which is the regime
        the paper's §5 scaling cliff lives in. E8 runs in this mode."""
        self._lines: List[Dict[int, str]] = [{} for _ in range(sets)]
        self._ddio: List[int] = [0] * sets
        self.stats: Dict[str, int] = {
            "cpu_hits": 0,
            "cpu_misses": 0,
            "dma_hits": 0,
            "dma_fills": 0,
            "ddio_evictions": 0,
            "cpu_evictions": 0,
        }

    @classmethod
    def from_costs(cls, costs: CostModel) -> "WayPartitionedCache":
        return cls(
            sets=costs.llc_sets,
            ways=costs.llc_ways,
            ddio_ways=costs.ddio_ways,
            line_bytes=costs.cache_line_bytes,
        )

    # --- geometry ----------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self.sets * self.ways * self.line_bytes

    @property
    def ddio_capacity_bytes(self) -> int:
        return self.sets * self.ddio_ways * self.line_bytes

    # --- operations ---------------------------------------------------------

    def dma_write_lines(self, addrs: Iterable[int]) -> int:
        """NIC DMA writes one line at each address, in order. Returns the
        number of LLC hits (line updated in place, becomes MRU). Every miss
        is a DDIO allocation into the set's DDIO ways, evicting the oldest
        DDIO line once the set holds ``ddio_ways`` of them — or, with DDIO
        disabled (``ddio_ways == 0``), a straight write to DRAM that
        installs nothing."""
        line_bytes = self.line_bytes
        sets = self.sets
        ways = self.ways
        ddio_ways = self.ddio_ways
        lines = self._lines
        ddio = self._ddio
        hits = fills = ddio_evictions = cpu_evictions = 0
        for addr in addrs:
            tag = addr // line_bytes
            idx = tag % sets
            lru = lines[idx]
            if tag in lru:
                lru[tag] = lru.pop(tag)
                hits += 1
                continue
            fills += 1
            if not ddio_ways:
                continue
            if ddio[idx] >= ddio_ways:
                # Replace the set's oldest DDIO line; its count is unchanged.
                for old, owner in lru.items():
                    if owner == DDIO_OWNER:
                        break
                del lru[old]
                ddio_evictions += 1
            else:
                if len(lru) >= ways:
                    old = next(iter(lru))
                    if lru.pop(old) == DDIO_OWNER:
                        ddio_evictions += 1
                        ddio[idx] -= 1
                    else:
                        cpu_evictions += 1
                ddio[idx] += 1
            lru[tag] = DDIO_OWNER
        stats = self.stats
        stats["dma_hits"] += hits
        stats["dma_fills"] += fills
        stats["ddio_evictions"] += ddio_evictions
        stats["cpu_evictions"] += cpu_evictions
        return hits

    def cpu_read_lines(self, addrs: Iterable[int]) -> int:
        """CPU reads one line at each address, in order. Returns the number
        of LLC hits; every other line is a DRAM miss, installed as a CPU
        line (evicting the set's LRU line) when ``cpu_fills_allocate``."""
        line_bytes = self.line_bytes
        sets = self.sets
        ways = self.ways
        allocate = self.cpu_fills_allocate
        lines = self._lines
        ddio = self._ddio
        hits = misses = ddio_evictions = cpu_evictions = 0
        for addr in addrs:
            tag = addr // line_bytes
            idx = tag % sets
            lru = lines[idx]
            if tag in lru:
                lru[tag] = lru.pop(tag)
                hits += 1
                continue
            misses += 1
            if allocate:
                if len(lru) >= ways:
                    old = next(iter(lru))
                    if lru.pop(old) == DDIO_OWNER:
                        ddio_evictions += 1
                        ddio[idx] -= 1
                    else:
                        cpu_evictions += 1
                lru[tag] = CPU_OWNER
        stats = self.stats
        stats["cpu_hits"] += hits
        stats["cpu_misses"] += misses
        stats["ddio_evictions"] += ddio_evictions
        stats["cpu_evictions"] += cpu_evictions
        return hits

    def dma_write(self, addr: int) -> bool:
        """NIC DMA writes one line; True on LLC hit (see :meth:`dma_write_lines`)."""
        return self.dma_write_lines((addr,)) == 1

    def cpu_read(self, addr: int) -> bool:
        """CPU reads one line. Returns True on hit, False on DRAM miss."""
        return self.cpu_read_lines((addr,)) == 1

    # --- reporting ------------------------------------------------------------

    def cpu_miss_rate(self) -> float:
        total = self.stats["cpu_hits"] + self.stats["cpu_misses"]
        return self.stats["cpu_misses"] / total if total else 0.0

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._lines)

    def reset_stats(self) -> None:
        for key in self.stats:
            self.stats[key] = 0


class AnalyticDdioModel:
    """Closed-form DDIO hit-rate approximation.

    For a hot working set of ``working_set_bytes`` accessed uniformly, an
    LRU-managed slice of ``ddio_capacity`` behaves approximately like random
    replacement: the probability that a line is still resident when re-read
    is ``min(1, capacity / working_set)``.
    """

    def __init__(self, costs: CostModel):
        self.costs = costs

    def hit_rate(self, working_set_bytes: int) -> float:
        if working_set_bytes <= 0:
            return 1.0
        cap = self.costs.ddio_capacity_bytes
        return min(1.0, cap / working_set_bytes)

    def read_cost_ns(self, working_set_bytes: int, lines: int) -> int:
        """Expected cost for the CPU to read ``lines`` cache lines of freshly
        DMA-written data given the active working set."""
        h = self.hit_rate(working_set_bytes)
        per_line = h * self.costs.llc_hit_ns + (1 - h) * self.costs.dram_ns
        return max(1, round(lines * per_line))
