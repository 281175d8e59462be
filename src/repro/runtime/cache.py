"""Content-addressed artifact cache.

One JSON file per artifact under a cache root (default
``~/.cache/repro``, overridable via ``REPRO_CACHE_DIR`` or the CLI's
``--cache-dir``).  The design rules:

* **Versioned, never trusted.**  Every entry records the cache format
  version and its own key; a corrupted, unreadable or
  version-mismatched entry is deleted — with a
  :class:`CacheIntegrityWarning` — and reported as a miss; the caller
  re-simulates.  A wiped cache directory is an ordinary miss.
* **Atomic writes.**  Entries are written to a temporary file in the
  same directory and ``os.replace``-d into place, so a crashed or
  concurrent writer can never leave a half-written entry behind under
  the final name.
* **LRU size cap.**  Reads refresh an entry's mtime; when the cache
  grows past ``max_bytes`` after a write, least-recently-used entries
  are evicted until it fits.  Writes keep a running total of the bytes
  under the root (:class:`_Ledger`), seeded by one listing, so the
  directory is listed again only when that total passes the cap.
  Processes sharing a root each count their own writes and take in the
  others' at their next listing.
* **Chaos-testable.**  An optional
  :class:`~repro.resilience.chaos.ChaosSpec` deterministically
  truncates entries right after they are written, so the
  discard-and-recompute path is exercised by tests instead of trusted
  on faith.

:func:`cached_phase` serves a whole flow phase (test generation,
static compaction) from one entry.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
import weakref
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, TypeVar

from repro.resilience.chaos import ChaosSpec
from repro.runtime.keys import CACHE_FORMAT
from repro.runtime.metrics import RuntimeStats
from repro.trace import trace_event

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.span import Tracer

DEFAULT_MAX_BYTES = 256 * 1024 * 1024
"""Default cache size cap (256 MiB)."""

_SUFFIX = ".json"

T = TypeVar("T")


class _Ledger:
    """Bytes under one cache root as this process counts them: the last
    listing plus every write since.  Writes hold ``lock`` from the stat
    of the entry they replace to the update, so none is counted twice
    or lost."""

    __slots__ = ("total", "lock", "__weakref__")

    def __init__(self) -> None:
        self.total: Optional[int] = None  # None: list at the next write
        self.lock = threading.Lock()


#: The ledger of each cache root, shared by every :class:`ArtifactCache`
#: of this process on that root and dropped with the last of them, so
#: caches on one root (say, two runtime contexts of one process) see
#: each other's writes.
_LEDGERS: "weakref.WeakValueDictionary[str, _Ledger]" = (
    weakref.WeakValueDictionary()
)
_LEDGERS_LOCK = threading.Lock()


def _ledger(root: Path) -> _Ledger:
    key = os.path.abspath(root)
    with _LEDGERS_LOCK:
        ledger = _LEDGERS.get(key)
        if ledger is None:
            ledger = _LEDGERS[key] = _Ledger()
        return ledger


class CacheIntegrityWarning(UserWarning):
    """A cache entry was corrupt/stale and has been discarded; the
    artifact will be recomputed."""


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    # Cache *location* never affects results.
    env = os.environ.get("REPRO_CACHE_DIR")  # lint: ignore[D104]
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class ArtifactCache:
    """Persistent key → JSON-payload store with LRU eviction.

    Parameters
    ----------
    root:
        Cache directory (created on first use); defaults to
        :func:`default_cache_dir`.
    max_bytes:
        Size cap enforced after each write (read at every write, so
        lowering it evicts at the next one).
    stats:
        Counters to report stores/discards/evictions into.
    chaos:
        Optional fault-injection spec; when its ``cache`` rate is
        non-zero, freshly written entries are deterministically
        truncated (seeded on the entry key) to exercise the
        discard-and-recompute path.
    tracer:
        Optional :class:`~repro.trace.span.Tracer`; cache stores,
        discards, evictions and chaos injections then fire runtime
        trace events.  (Hit/miss events are fired by the simulator
        callers, which know what a lookup *means*.)
    """

    def __init__(
        self,
        root: str | Path | None = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
        stats: RuntimeStats | None = None,
        chaos: ChaosSpec | None = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.max_bytes = max_bytes
        self.stats = stats if stats is not None else RuntimeStats()
        self.chaos = chaos
        self.tracer = tracer
        self._ledger = _ledger(self.root)

    def _event(self, kind: str, **attrs: object) -> None:
        if self.tracer is not None:
            self.tracer.event(kind, **attrs)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{_SUFFIX}"

    # -- lookup -------------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The payload stored under ``key``, or None.

        Any defect — unreadable file, invalid JSON, wrong format
        version, key mismatch, missing payload — deletes the entry and
        returns None.  A missing file (e.g. a cache dir wiped mid-run)
        is an ordinary, silent miss.
        """
        path = self._path(key)
        try:
            entry = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._discard(path, "unreadable or not valid JSON")
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("format") != CACHE_FORMAT
            or entry.get("key") != key
            or not isinstance(entry.get("payload"), dict)
        ):
            self._discard(path, "wrong format version or mismatched key")
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        return entry["payload"]

    # -- store --------------------------------------------------------------

    def put(self, key: str, payload: dict) -> None:
        """Store ``payload`` under ``key`` (atomic); then enforce the cap."""
        path = self._path(key)
        tmp = path.with_name(f".{key}.{os.getpid()}.tmp")
        body = json.dumps(
            {"format": CACHE_FORMAT, "key": key, "payload": payload}
        )
        ledger = self._ledger
        with ledger.lock:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
                tmp.write_text(body)
                try:
                    replaced = path.stat().st_size
                except FileNotFoundError:
                    replaced = 0
                os.replace(tmp, path)
            except OSError:
                # An unusable cache root (e.g. --cache-dir pointing at a
                # file) or a failed write is not an error; the result is
                # still in hand, the store is just skipped.
                try:
                    tmp.unlink(missing_ok=True)
                except OSError:
                    pass
                return
            self.stats.cache_stores += 1
            self._event("cache_store", key=key)
            self._vandalize(path, key)
            # JSON text is ASCII: its length is the bytes written.  A
            # truncated or discarded entry only over-counts, which
            # lists early.
            if ledger.total is not None:
                ledger.total += len(body) - replaced
            if ledger.total is None or ledger.total > self.max_bytes:
                ledger.total = self._enforce_cap()

    # -- chaos --------------------------------------------------------------

    def _vandalize(self, path: Path, key: str) -> None:
        """Deterministically truncate the entry we just wrote (chaos
        harness only — exercises the discard-and-recompute path)."""
        if self.chaos is None or not self.chaos.decide("cache", key):
            return
        try:
            data = path.read_bytes()
            path.write_bytes(data[: max(len(data) // 2, 1)])
        except OSError:
            return
        self.stats.chaos_injections += 1
        self._event("cache_chaos", key=key)

    # -- maintenance --------------------------------------------------------

    def _discard(self, path: Path, reason: str) -> None:
        warnings.warn(
            f"discarding corrupt cache entry {path.name} ({reason}); "
            "the artifact will be recomputed",
            CacheIntegrityWarning,
            stacklevel=3,
        )
        try:
            path.unlink(missing_ok=True)
        except OSError:
            return
        self.stats.cache_discards += 1
        self._event("cache_discard", entry=path.name, reason=reason)

    def _enforce_cap(self) -> Optional[int]:
        """List the root, evict least-recently-used entries until the
        listed bytes fit ``max_bytes``, and return the bytes left (None
        when the root cannot be listed)."""
        # Several processes may share one cache root (``--cache-dir``),
        # so any entry listed here can vanish at any moment — evicted
        # by a sibling's cap enforcement or discarded as corrupt.  A
        # missing file is therefore tolerated *per entry* (it already
        # stopped occupying space, which is all the cap cares about);
        # one racing unlink must not abort the whole enforcement pass.
        entries = []
        try:
            paths = list(self.root.glob(f"*{_SUFFIX}"))
        except OSError:
            return None
        for p in paths:
            try:
                st = p.stat()
            except OSError:
                continue  # vanished under a concurrent writer
            entries.append((st.st_mtime, st.st_size, p))
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return total
        for _, size, path in sorted(entries):  # oldest mtime first
            try:
                existed = path.exists()
                path.unlink(missing_ok=True)
            except OSError:
                continue
            if existed:
                self.stats.cache_evictions += 1
                self._event("cache_evict", entry=path.name)
            total -= size
            if total <= self.max_bytes:
                break
        return total

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.root.glob(f"*{_SUFFIX}"):
            try:
                path.unlink(missing_ok=True)
                removed += 1
            except OSError:
                continue
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob(f"*{_SUFFIX}"))


def cached_phase(
    runtime,
    op: str,
    key: Callable[[], str],
    decode: Callable[[Optional[dict]], Optional[T]],
    compute: Callable[[], T],
    encode: Callable[[T], dict],
) -> T:
    """One whole flow phase, served from ``runtime``'s artifact cache.

    ``decode`` rebuilds the result from a stored payload, or returns
    None when it does not fit the request (a miss, recomputed — never
    a crash); ``encode`` renders a computed result for storage.  Hits
    and misses fire ``cache_hit`` / ``cache_miss`` trace events tagged
    ``op``, and misses count in :attr:`RuntimeStats.cache_misses`.
    Without a runtime or cache this is ``compute()``.
    """
    cache = getattr(runtime, "cache", None)
    if cache is None:
        return compute()
    cache_key = key()
    result = decode(cache.get(cache_key))
    if result is not None:
        trace_event(runtime, "cache_hit", op=op, key=cache_key)
        return result
    runtime.stats.cache_misses += 1
    trace_event(runtime, "cache_miss", op=op, key=cache_key)
    result = compute()
    cache.put(cache_key, encode(result))
    return result
