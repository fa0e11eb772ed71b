"""PCIe DMA engine and MMIO costs.

DMA transfers serialize on the link (bandwidth model) and each carries a
fixed latency. Inbound DMA writes allocate into the LLC through DDIO (see
:mod:`repro.host.cache`); the NIC models call :meth:`DmaEngine.dma_write`
with the target region so the cache sees the exact line addresses.
"""

from __future__ import annotations

from typing import Optional

from .. import units
from ..config import CostModel
from ..errors import SimulationError
from ..sim import MetricSet, Signal, Simulator
from .cache import WayPartitionedCache
from .copies import LAYER_DMA, CopyLedger
from .memory import PinnedRegion


class DmaEngine:
    """Shared DMA engine between the NIC and host memory."""

    def __init__(
        self,
        sim: Simulator,
        costs: CostModel,
        llc: Optional[WayPartitionedCache] = None,
        ledger: Optional[CopyLedger] = None,
    ):
        self.sim = sim
        self.costs = costs
        self.llc = llc
        self._link_free_at = 0
        self.metrics = MetricSet("dma")
        self.ledger = ledger if ledger is not None else CopyLedger()
        #: Per-tenant weighted fair arbitration of link bytes
        #: (:class:`~repro.nic.tenant_sched.WeightedFairClock`). Wired by
        #: Machine only under ``tenant_isolation``; None keeps the seed's
        #: pure-FIFO link schedule.
        self.fair_clock = None

    def _serialize(self, nbytes: int, tenant=None) -> int:
        """Reserve link time for ``nbytes``; returns completion timestamp.

        With the fair clock wired and a tenant resolved, completion is the
        later of the FIFO link time and the tenant's weighted-share finish
        — a hog's bytes stretch to its share while a lone tenant still
        sees the raw link (work-conserving)."""
        start = max(self._link_free_at, self.sim.now)
        busy = units.transmit_time_ns(nbytes, self.costs.pcie_bandwidth_bps)
        self._link_free_at = start + busy
        if self.fair_clock is not None and tenant is not None:
            fair = self.fair_clock.finish(tenant, busy, self.sim.now)
            if fair > self._link_free_at:
                return fair
        return self._link_free_at

    def dma_write(
        self,
        region: PinnedRegion,
        nbytes: int,
        offset: int = 0,
        tenant=None,
    ) -> Signal:
        """Device -> host memory write of ``nbytes`` into ``region``.

        Lines land in the LLC via DDIO. The returned signal fires when the
        data is visible to the CPU and carries the number of lines written.
        """
        self._check(region, nbytes, offset)
        done = Signal("dma_write")
        lines = self._touch_lines(region, nbytes, offset)
        # tenant: attributed fair-queued link share when isolation is on.
        finish = self._serialize(nbytes, tenant) + self.costs.pcie_dma_latency_ns
        self.metrics.counter("writes").inc()
        self.metrics.meter("write_bytes").record(self.sim.now, nbytes)
        self.ledger.charge(
            LAYER_DMA, nbytes,
            units.transmit_time_ns(nbytes, self.costs.pcie_bandwidth_bps),
        )
        self.sim.at(finish, done.succeed, lines)
        return done

    def dma_read(self, region: PinnedRegion, nbytes: int, offset: int = 0,
                 tenant=None) -> Signal:
        """Host memory -> device read (TX path). The signal fires when the
        device holds the data."""
        self._check(region, nbytes, offset)
        done = Signal("dma_read")
        # tenant: attributed fair-queued link share when isolation is on.
        finish = self._serialize(nbytes, tenant) + self.costs.pcie_dma_latency_ns
        self.metrics.counter("reads").inc()
        self.metrics.meter("read_bytes").record(self.sim.now, nbytes)
        self.ledger.charge(
            LAYER_DMA, nbytes,
            units.transmit_time_ns(nbytes, self.costs.pcie_bandwidth_bps),
        )
        self.sim.at(finish, done.succeed, nbytes)
        return done

    def _check(self, region: PinnedRegion, nbytes: int, offset: int) -> None:
        if nbytes <= 0:
            raise SimulationError(f"DMA size must be positive, got {nbytes}")
        if offset < 0 or offset + nbytes > region.size:
            raise SimulationError(
                f"DMA beyond region {region.name!r}: offset={offset} size={nbytes}"
            )

    def _touch_lines(self, region: PinnedRegion, nbytes: int, offset: int) -> int:
        """Drive the LLC model for the lines this transfer writes; returns
        how many lines it covers."""
        if self.llc is None:
            return 0
        line = self.llc.line_bytes
        start = region.base + offset
        first = start - (start % line)
        addrs = range(first, start + nbytes, line)
        # tenant: cache side effect of a transfer whose bytes were
        # already billed to the owning tenant in dma_read/dma_write.
        self.llc.dma_write_lines(addrs)
        return len(addrs)

    def account_placement(self, layer: str, nbytes: int, ns: int, ops: int = 1) -> None:
        """Ledger-only entry for DMA movement modeled outside this engine
        (NIC ring posts, burst descriptor fetches). Records the bytes and the
        hardware time already charged by the caller — adds no cost itself."""
        self.ledger.charge(layer, nbytes, ns, ops=ops)

    # --- MMIO -------------------------------------------------------------

    def mmio_write_cost(self) -> int:
        """CPU-side cost of a posted register write (doorbell)."""
        self.metrics.counter("mmio_writes").inc()
        return self.costs.mmio_write_ns

    def mmio_read_cost(self) -> int:
        """CPU-side cost of a register read (full round trip)."""
        self.metrics.counter("mmio_reads").inc()
        return self.costs.mmio_read_ns
