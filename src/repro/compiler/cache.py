"""Content-addressed compile cache: in-memory LRU plus optional disk tier.

MLPerf, serving and multisocket runs instantiate the same zoo model over
and over; the paper's compile-once/run-many front end makes that cheap.
Keys come from :mod:`repro.compiler.fingerprint` — graph structure +
weights digest + ``NcoreConfig`` + pipeline id — so a hit is only ever
returned for a byte-identical compilation problem.

The memory tier returns the *same* :class:`CompiledModel` object to every
hit; compiled models are treated as immutable artifacts (nothing in the
runtime mutates one after compilation).  The disk tier pickles artifacts
under ``<directory>/<key>.pkl`` and re-populates the memory tier on load,
so a fresh process skips optimize/partition/lower/codegen entirely.

The model is the whole artifact: its Tier-3 step programs
(``CompiledModel.macro_kernels``, :mod:`repro.ncore.codegen`) pickle
with it, so one key is one LRU entry and one file, and a hit can never
return a model without the kernels it was compiled with.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.graph.loadable import CompiledModel


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`CompileCache`."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    stores: int = 0
    evictions: int = 0


class CompileCache:
    """LRU map from compile keys to compiled models, with a disk tier.

    ``capacity`` bounds the memory tier (oldest-used entries evict
    first); ``directory`` enables the on-disk tier — evicted or
    cross-process entries are still served from disk at the cost of one
    unpickle.  Thread-safe: serving paths may compile concurrently.
    """

    def __init__(self, capacity: int = 32,
                 directory: str | Path | None = None) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self.directory = Path(directory) if directory is not None else None
        self.stats = CacheStats()
        self._entries: OrderedDict[str, CompiledModel] = OrderedDict()
        self._lock = threading.Lock()
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------

    def _disk_path(self, key: str) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"{key}.pkl"

    def lookup(self, key: str) -> CompiledModel | None:
        """The cached model for ``key``, or None (a recorded miss)."""
        with self._lock:
            model = self._entries.get(key)
            if model is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return model
        path = self._disk_path(key)
        if path is not None and path.exists():
            try:
                with path.open("rb") as handle:
                    loaded = pickle.load(handle)
            except Exception:  # corrupt entry: drop it, treat as a miss
                path.unlink(missing_ok=True)
            else:
                if isinstance(loaded, CompiledModel):
                    with self._lock:
                        self._remember(key, loaded)
                        self.stats.hits += 1
                        self.stats.disk_hits += 1
                    return loaded
                path.unlink(missing_ok=True)
        with self._lock:
            self.stats.misses += 1
        return None

    def store(self, key: str, model: CompiledModel) -> None:
        """Insert an artifact under its content key (memory + disk)."""
        with self._lock:
            self._remember(key, model)
            self.stats.stores += 1
        path = self._disk_path(key)
        if path is not None:
            tmp = path.with_suffix(".tmp")
            with tmp.open("wb") as handle:
                pickle.dump(model, handle, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)

    def _remember(self, key: str, model: CompiledModel) -> None:
        # Caller holds the lock.
        self._entries[key] = model
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry, in memory and on disk."""
        with self._lock:
            self._entries.clear()
        if self.directory is not None:
            for path in self.directory.glob("*.pkl"):
                path.unlink(missing_ok=True)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries


# ----------------------------------------------------------------------
# The process-wide default cache
# ----------------------------------------------------------------------

_default_cache: CompileCache | None = CompileCache()


def get_compile_cache() -> CompileCache | None:
    """The process-wide cache used when callers pass none (None = off)."""
    return _default_cache


def set_compile_cache(cache: CompileCache | None) -> CompileCache | None:
    """Replace the process-wide cache; returns the previous one."""
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


@contextmanager
def install_cache(cache: CompileCache | None) -> Iterator[CompileCache | None]:
    """Swap the process-wide cache for a ``with`` block (tests, CLI)."""
    previous = set_compile_cache(cache)
    try:
        yield cache
    finally:
        set_compile_cache(previous)


__all__ = [
    "CacheStats",
    "CompileCache",
    "get_compile_cache",
    "install_cache",
    "set_compile_cache",
]
