"""CHA's shared L3 cache.

Section III/IV-A: 16 MB of shared L3 (2 MB per core).  Ncore "has the
ability to use DMA to read CHA's shared L3 caches, which will subsequently
retrieve the data from system DRAM if not present in the L3.  Ncore reads
from L3 are coherent, while Ncore internal memory is not coherent with the
SoC memory system."

The model is a set-associative tag array over 64-byte lines with LRU
replacement; data always lives in the backing DRAM (the cache tracks
presence and modified lines for the coherent-read path).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.ncore.dma import LinearMemory
from repro.obs.metrics import get_metrics

LINE_BYTES = 64


class L3Cache:
    """Shared L3 tag model with a coherent read path for Ncore DMA."""

    def __init__(
        self,
        size_bytes: int = 16 * 1024 * 1024,
        ways: int = 16,
        memory: LinearMemory | None = None,
        hit_latency_cycles: int = 40,
    ) -> None:
        if size_bytes % (ways * LINE_BYTES):
            raise ValueError("cache size must divide evenly into ways and lines")
        self.size_bytes = size_bytes
        self.ways = ways
        self.num_sets = size_bytes // (ways * LINE_BYTES)
        self.memory = memory
        self.hit_latency_cycles = hit_latency_cycles
        # Each set is an OrderedDict tag -> dirty payload (None when clean);
        # insertion order is LRU order (oldest first).
        self._sets: list[OrderedDict[int, bytes | None]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr // LINE_BYTES
        return line % self.num_sets, line // self.num_sets

    def _touch(self, set_index: int, tag: int) -> None:
        self._sets[set_index].move_to_end(tag)

    def _install(self, set_index: int, tag: int, payload: bytes | None = None) -> None:
        ways = self._sets[set_index]
        if tag in ways:
            if payload is not None:
                ways[tag] = payload
            self._touch(set_index, tag)
            return
        if len(ways) >= self.ways:
            evicted_tag, dirty = ways.popitem(last=False)
            if dirty is not None:
                self.writebacks += 1
                if self.memory is not None:
                    line_addr = (evicted_tag * self.num_sets + set_index) * LINE_BYTES
                    self.memory.write(line_addr, dirty)
        ways[tag] = payload

    def write_line(self, addr: int, payload: bytes) -> None:
        """CPU-side store of a full line (leaves the line dirty in L3)."""
        if len(payload) != LINE_BYTES:
            raise ValueError(f"L3 lines are {LINE_BYTES} bytes")
        aligned = addr - addr % LINE_BYTES
        set_index, tag = self._locate(aligned)
        self._install(set_index, tag, payload)
        self._touch(set_index, tag)

    def coherent_read(self, addr: int, length: int, dram_payload: bytes) -> bytes:
        """Ncore's DMA-through-L3 path.

        Returns ``dram_payload`` with any dirty cached lines overlaid, so
        the read observes CPU stores that have not yet reached DRAM —
        this is what makes "Ncore reads from L3 coherent".  Lines touched
        by the read are installed (the read allocates, warming the cache).
        """
        out = bytearray(dram_payload)
        hits_before, misses_before = self.hits, self.misses
        start_line = addr // LINE_BYTES
        end_line = (addr + length - 1) // LINE_BYTES
        for line in range(start_line, end_line + 1):
            line_addr = line * LINE_BYTES
            set_index, tag = self._locate(line_addr)
            ways = self._sets[set_index]
            if tag in ways:
                self.hits += 1
                self._touch(set_index, tag)
                dirty = ways[tag]
                if dirty is not None:
                    lo = max(line_addr, addr)
                    hi = min(line_addr + LINE_BYTES, addr + length)
                    out[lo - addr : hi - addr] = dirty[lo - line_addr : hi - line_addr]
            else:
                self.misses += 1
                self._install(set_index, tag)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("l3.coherent_reads").inc()
            metrics.counter("l3.hits").inc(self.hits - hits_before)
            metrics.counter("l3.misses").inc(self.misses - misses_before)
        return bytes(out)
