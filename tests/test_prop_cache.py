"""Property-based tests on the DDIO cache model's invariants, and a
differential test of its span methods against a per-line reference."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host.cache import CPU_OWNER, DDIO_OWNER, WayPartitionedCache

LINE = 64


def ops_strategy():
    """A random mixed access trace: (is_dma, line_index)."""
    return st.lists(
        st.tuples(st.booleans(), st.integers(0, 255)), min_size=1, max_size=300
    )


def geometry():
    return st.tuples(
        st.integers(1, 8),   # sets
        st.integers(1, 8),   # ways
    ).flatmap(
        lambda sw: st.tuples(st.just(sw[0]), st.just(sw[1]), st.integers(0, sw[1]))
    )


class TestStructuralInvariants:
    @given(geom=geometry(), ops=ops_strategy())
    @settings(max_examples=200)
    def test_capacity_and_ddio_cap_never_violated(self, geom, ops):
        sets, ways, ddio_ways = geom
        cache = WayPartitionedCache(sets=sets, ways=ways, ddio_ways=ddio_ways, line_bytes=LINE)
        for is_dma, idx in ops:
            addr = idx * LINE
            if is_dma:
                cache.dma_write(addr)
            else:
                cache.cpu_read(addr)
            for s in cache._lines:
                assert len(s) <= ways
                ddio_count = sum(1 for o in s.values() if o == DDIO_OWNER)
                assert ddio_count <= ddio_ways
        assert cache.resident_lines() <= sets * ways

    @given(geom=geometry(), ops=ops_strategy())
    @settings(max_examples=100)
    def test_stats_are_consistent(self, geom, ops):
        sets, ways, ddio_ways = geom
        cache = WayPartitionedCache(sets=sets, ways=ways, ddio_ways=ddio_ways, line_bytes=LINE)
        dma_ops = cpu_ops = 0
        for is_dma, idx in ops:
            addr = idx * LINE
            if is_dma:
                cache.dma_write(addr)
                dma_ops += 1
            else:
                cache.cpu_read(addr)
                cpu_ops += 1
        s = cache.stats
        assert s["dma_hits"] + s["dma_fills"] == dma_ops
        assert s["cpu_hits"] + s["cpu_misses"] == cpu_ops
        assert 0 <= cache.cpu_miss_rate() <= 1

    @given(ops=ops_strategy())
    @settings(max_examples=100)
    def test_read_immediately_after_dma_write_hits(self, ops):
        cache = WayPartitionedCache(sets=4, ways=4, ddio_ways=2, line_bytes=LINE)
        for is_dma, idx in ops:
            addr = idx * LINE
            if is_dma:
                cache.dma_write(addr)
                assert cache.cpu_read(addr) is True  # DDIO made it resident
            else:
                cache.cpu_read(addr)

    @given(ops=ops_strategy())
    @settings(max_examples=100)
    def test_no_allocate_mode_never_installs_cpu_lines(self, ops):
        cache = WayPartitionedCache(
            sets=4, ways=4, ddio_ways=2, line_bytes=LINE, cpu_fills_allocate=False
        )
        for is_dma, idx in ops:
            addr = idx * LINE
            if is_dma:
                cache.dma_write(addr)
            else:
                cache.cpu_read(addr)
            for s in cache._lines:
                assert all(o == DDIO_OWNER for o in s.values())

    @given(n_lines=st.integers(1, 64))
    def test_working_set_within_ddio_always_hits_steady_state(self, n_lines):
        """Fundamental DDIO property: a cyclic DMA/read working set that
        fits the DDIO slice never misses after warmup."""
        cache = WayPartitionedCache(sets=16, ways=4, ddio_ways=2, line_bytes=LINE)
        addrs = [i * LINE for i in range(min(n_lines, 32))]  # slice = 32 lines
        for a in addrs:  # warm
            cache.dma_write(a)
        cache.reset_stats()
        for _round in range(3):
            for a in addrs:
                cache.dma_write(a)
            for a in addrs:
                cache.cpu_read(a)
        assert cache.cpu_miss_rate() == 0.0


class ReferenceCache:
    """The per-line ``OrderedDict`` model the span methods replace: one call
    per line, an O(ways) DDIO recount on every fill, and an eviction scan
    that falls back to global LRU. Kept verbatim as the oracle."""

    def __init__(self, sets, ways, ddio_ways, line_bytes, cpu_fills_allocate):
        self.sets = sets
        self.ways = ways
        self.ddio_ways = ddio_ways
        self.line_bytes = line_bytes
        self.cpu_fills_allocate = cpu_fills_allocate
        self._lines = [OrderedDict() for _ in range(sets)]
        self.stats = {
            "cpu_hits": 0,
            "cpu_misses": 0,
            "dma_hits": 0,
            "dma_fills": 0,
            "ddio_evictions": 0,
            "cpu_evictions": 0,
        }

    def _locate(self, addr):
        line = addr // self.line_bytes
        return self._lines[line % self.sets], line

    def dma_write(self, addr):
        lru, tag = self._locate(addr)
        if tag in lru:
            lru.move_to_end(tag)
            self.stats["dma_hits"] += 1
            return True
        self.stats["dma_fills"] += 1
        if self.ddio_ways == 0:
            return False
        ddio_count = sum(1 for owner in lru.values() if owner == DDIO_OWNER)
        if ddio_count >= self.ddio_ways:
            self._evict_oldest(lru, DDIO_OWNER)
        elif len(lru) >= self.ways:
            self._evict_oldest(lru, None)
        lru[tag] = DDIO_OWNER
        return False

    def cpu_read(self, addr):
        lru, tag = self._locate(addr)
        if tag in lru:
            lru.move_to_end(tag)
            self.stats["cpu_hits"] += 1
            return True
        self.stats["cpu_misses"] += 1
        if self.cpu_fills_allocate:
            if len(lru) >= self.ways:
                self._evict_oldest(lru, None)
            lru[tag] = CPU_OWNER
        return False

    def _evict_oldest(self, lru, owner_filter):
        for tag, owner in lru.items():
            if owner_filter is None or owner == owner_filter:
                del lru[tag]
                key = "ddio_evictions" if owner == DDIO_OWNER else "cpu_evictions"
                self.stats[key] += 1
                return
        tag = next(iter(lru))
        owner = lru.pop(tag)
        key = "ddio_evictions" if owner == DDIO_OWNER else "cpu_evictions"
        self.stats[key] += 1


def span_strategy():
    """One access span: (is_dma, byte addresses). Either a contiguous run
    of lines from an unaligned start (crossing set boundaries), or
    scattered addresses that revisit a small tag space."""
    run = st.tuples(st.integers(0, 4_095), st.integers(0, 24)).map(
        lambda sl: [sl[0] + i * LINE for i in range(sl[1])])
    scattered = st.lists(st.integers(0, 4_095), max_size=24)
    return st.tuples(st.booleans(), st.one_of(run, scattered))


class TestSpanMethodsMatchPerLineReference:
    @given(geom=geometry(), allocate=st.booleans(),
           spans=st.lists(span_strategy(), min_size=1, max_size=60))
    @settings(max_examples=300)
    def test_spans_match_reference(self, geom, allocate, spans):
        sets, ways, ddio_ways = geom
        cache = WayPartitionedCache(sets=sets, ways=ways, ddio_ways=ddio_ways,
                                    line_bytes=LINE, cpu_fills_allocate=allocate)
        ref = ReferenceCache(sets, ways, ddio_ways, LINE, allocate)
        for is_dma, addrs in spans:
            if is_dma:
                hits = cache.dma_write_lines(addrs)
                want = sum(ref.dma_write(a) for a in addrs)
            else:
                hits = cache.cpu_read_lines(iter(addrs))
                want = sum(ref.cpu_read(a) for a in addrs)
            assert hits == want
            assert cache.stats == ref.stats
            for i in range(sets):
                assert list(cache._lines[i].items()) == list(ref._lines[i].items())
                assert cache._ddio[i] == sum(
                    1 for o in cache._lines[i].values() if o == DDIO_OWNER)

    @given(geom=geometry(), allocate=st.booleans(),
           ops=ops_strategy())
    @settings(max_examples=100)
    def test_per_line_wrappers_match_reference(self, geom, allocate, ops):
        sets, ways, ddio_ways = geom
        cache = WayPartitionedCache(sets=sets, ways=ways, ddio_ways=ddio_ways,
                                    line_bytes=LINE, cpu_fills_allocate=allocate)
        ref = ReferenceCache(sets, ways, ddio_ways, LINE, allocate)
        for is_dma, idx in ops:
            addr = idx * LINE
            if is_dma:
                assert cache.dma_write(addr) is ref.dma_write(addr)
            else:
                assert cache.cpu_read(addr) is ref.cpu_read(addr)
        assert cache.stats == ref.stats
        assert [list(s.items()) for s in cache._lines] == [
            list(s.items()) for s in ref._lines]
