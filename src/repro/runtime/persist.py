"""Cross-process persistent generation cache.

The in-memory :class:`~repro.runtime.cache.GenerationCache` dies with
its process, so every sweep shard and every re-run pays the full
generation cost again. This module spills cache entries to a
content-addressed on-disk store that any number of concurrent readers
and writers — threads, worker processes, separate shard invocations,
even separate machines over a shared filesystem — can share safely.

Store layout
------------
``cache_dir/`` holds one subdirectory per *namespace* (a digest of the
simulated LLM's configuration and seed — generations from differently
seeded models must never alias), each containing append-only JSONL
*manifest* segments paired with raw binary *sidecars*::

    cache_dir/
      <namespace>/
        w-<pid>-<nonce>.jsonl    # one manifest segment per writer instance
        w-<pid>-<nonce>.bin      # its tensor sidecar
        c-<pid>-<nonce>.jsonl    # a compacted segment (see compact())
        c-<pid>-<nonce>.bin

Each manifest line is one entry ``{"k": <address>, "kind": ..., "v":
<trace record>}``. The address is a 128-bit blake2b digest over
(namespace, cache key) — the full identity of one generation input,
including the candidate universe via
:func:`~repro.runtime.cache.instance_key` — so an entry is immutable by
construction: the same address always maps to the same value, and
duplicate writes are harmless.

Tensor payloads (the dominant bytes) live in the ``.bin`` sidecar as
raw little-endian contiguous blocks; the manifest line carries only the
step metadata plus a ``{"bin", "offset", "length", "dtype", "shape"}``
descriptor. Readers memory-map the sidecar once and rehydrate
``hidden_stack`` as a zero-copy ``np.frombuffer`` view over the map —
a warm store hit costs a point lookup plus a view, not a
decode-and-copy.

Concurrency
-----------
Writers never touch each other's files: every cache instance lazily
creates its own uniquely named segment (manifest + sidecar) and appends
complete records under an in-process lock, flushing per entry. The
sidecar bytes are written and flushed *before* the manifest line, so a
manifest entry implies its tensor block is present. Readers scan every
manifest in the namespace, remember per-file byte offsets so refreshes
only read appended tails, and tolerate both a truncated final line and
a manifest entry whose sidecar bytes have not landed yet (a writer
killed mid-append) by leaving the tail for the next refresh. No file
locks are needed because segments are single-writer and entries are
immutable.

Values round-trip *exactly*: a trace's hidden states are stored
columnar — the whole ``(n_steps, n_layers, dim)`` tensor as one
contiguous little-endian block with dtype and shape (one write, one
mmap view per trace, matching the simulator's columnar
``GenerationTrace``) — so a trace rehydrated from disk is bit-identical
to the one computed, which is what makes sharded sweeps byte-identical
to unsharded ones even when probes are trained from cached traces.

The SQLite index tier
---------------------
Cold lookups normally scan whole segments into memory — O(store size)
on first touch, which is the right trade for small stores but not for
millions of entries. :meth:`PersistentGenerationCache.compact` therefore
also writes ``index.sqlite`` next to the compacted segment: an
``address → (segment, offset, length)`` map (plus the byte size of the
segment it covers). Readers skip scanning indexed segments entirely and
serve their entries by O(1) point lookup + seek — only segments written
*after* the compaction are ever scanned. The index is rebuilt on every
compaction (written to a temp file and atomically renamed), so a stale
index can never shadow newer entries: anything not in the index is
found by the ordinary tail scan.

Writer locks and compaction safety
----------------------------------
Compacting while another writer appends would silently drop (or
duplicate) that writer's entries, so the rule "compact only while no
writer is active" is *enforced*: every writer marks its segment with a
``<segment>.lock`` sidecar (pid + host, removed on close) and
:meth:`PersistentGenerationCache.compact` fails fast with
:class:`WriterActiveError` while any *other* live lock exists.
Same-host locks whose pid is gone are stale — a crashed writer — and
are swept up; locks from other hosts cannot be probed and count as
active. ``force=True`` (the CLI's ``--force``) overrides the guard for
operators who know the writers are actually gone.

Format versioning
-----------------
The store has one format. :data:`STORE_FORMAT_VERSION` is hashed into
every namespace by :func:`generation_namespace`, the same way the
simulator version is, so a format change lands in a fresh namespace:
a store written in an older format is never read and never
mix-written, only ignored. The store is a cache of pure functions, so
an ignored namespace costs one recompute, and deleting its directory
reclaims the disk.

Eviction
--------
None, by design: entries are content-addressed and immutable, so the
store only grows and never goes stale. Delete the namespace directory
(or the whole ``cache_dir``) to evict everything, or call
:meth:`PersistentGenerationCache.compact` — guarded as above — to
rewrite all segments into one with duplicates dropped.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import socket
import sqlite3
import threading
from pathlib import Path

import numpy as np

from repro.llm.model import GenerationStep, GenerationTrace
from repro.runtime.cache import _MISS, CacheStats, GenerationCache

__all__ = [
    "INDEX_NAME",
    "LOCK_SUFFIX",
    "STORE_FORMAT_VERSION",
    "PersistentGenerationCache",
    "SqliteSegmentIndex",
    "WriterActiveError",
    "active_writer_locks",
    "generation_namespace",
    "store_stats",
    "trace_from_record",
]

INDEX_NAME = "index.sqlite"
LOCK_SUFFIX = ".lock"
BIN_SUFFIX = ".bin"
#: Hashed into every namespace: v1 inlined tensors in the manifest, v2
#: moved them to ``.bin`` sidecars, v3 is v2 made the only format.
STORE_FORMAT_VERSION = 3


class WriterActiveError(RuntimeError):
    """``compact()`` refused: another writer holds a live segment lock."""


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):  # exists, just not ours to signal
        return True
    return True


def active_writer_locks(
    directory: "str | Path", exclude: "Path | None" = None
) -> "list[dict]":
    """Live writer locks in one namespace directory.

    Parses every ``*.lock`` sidecar: same-host locks whose pid is dead
    are deleted in passing (crashed writers must not wedge compaction
    forever) and not reported; unreadable locks are conservatively
    reported as active with ``"pid": None``; other-host locks cannot be
    probed and always count as active. ``exclude`` skips the caller's
    own lock.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    locks: list[dict] = []
    for path in sorted(directory.glob(f"*{LOCK_SUFFIX}")):
        if exclude is not None and path == exclude:
            continue
        try:
            info = json.loads(path.read_text())
            pid = int(info["pid"])
            host = str(info.get("host", ""))
        except FileNotFoundError:
            continue  # unlinked between glob and read: the writer just closed
        except (OSError, ValueError, KeyError):
            locks.append({"path": str(path), "pid": None, "host": None})
            continue
        if host == socket.gethostname() and not _pid_alive(pid):
            path.unlink(missing_ok=True)  # stale: the writer crashed
            continue
        locks.append({"path": str(path), "pid": pid, "host": host})
    return locks


def generation_namespace(*identity) -> str:
    """The store namespace for one simulated LLM identity.

    A generation is a pure function of the backend ``identity()`` —
    (simulator version, LLM config, LLM seed) — and the instance; the
    instance is captured by the cache key, the rest lives here. The
    simulator version participates so a bit-level change to trace
    synthesis (e.g. the ``hidden-v2`` two-phase scheme) lands in a fresh
    namespace and never aliases traces written by an older scheme;
    :data:`STORE_FORMAT_VERSION` participates for the same reason, so a
    format change never reads or extends an older store.
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in (f"store-v{STORE_FORMAT_VERSION}", *identity):
        digest.update(repr(part).encode("utf8"))
        digest.update(b"\x1f")
    return f"llm-{digest.hexdigest()}"


# -- exact trace (de)serialization --------------------------------------------


def _little_endian(arr: np.ndarray) -> np.ndarray:
    """A C-contiguous little-endian view/copy of ``arr`` (.bin layout)."""
    dtype = arr.dtype
    if dtype.byteorder == ">":
        arr = arr.astype(dtype.newbyteorder("<"))
    return np.ascontiguousarray(arr)


def _bin_reference(value: dict) -> "dict | None":
    """The binary-block descriptor of a value record, if it has one."""
    hidden = value.get("hidden") if isinstance(value, dict) else None
    if isinstance(hidden, dict) and "bin" in hidden:
        return hidden
    return None


class _BinReader:
    """Zero-copy reads over a namespace's ``.bin`` tensor sidecars.

    Keeps one read-only :mod:`mmap` per sidecar, remapping when the file
    has grown past the mapped size (another writer appended). Views are
    ``np.frombuffer`` slices of the map: read-only, no copy, and they
    keep the map alive through the buffer protocol even after
    :meth:`close` — which is why close tolerates :class:`BufferError`.
    Empty blocks (zero-step traces) are served without mapping: their
    sidecar may be empty, or absent after a compaction, and an empty
    file cannot be mapped.
    """

    def __init__(self, directory: "str | Path"):
        self.directory = Path(directory)
        self._lock = threading.Lock()
        self._maps: "dict[str, tuple[mmap.mmap, int]]" = {}  # guarded-by: self._lock

    def view(self, record: dict) -> np.ndarray:
        """The tensor block ``record`` describes, as a read-only view."""
        name = str(record["bin"])
        offset = int(record["offset"])
        length = int(record["length"])
        dtype = np.dtype(record["dtype"])
        shape = tuple(int(n) for n in record["shape"])
        if length == 0:
            return np.frombuffer(b"", dtype=dtype).reshape(shape)
        end = offset + length
        with self._lock:
            handle, size = self._maps.get(name, (None, 0))
            if handle is None or size < end:
                path = self.directory / name
                with path.open("rb") as raw:
                    remapped = mmap.mmap(raw.fileno(), 0, access=mmap.ACCESS_READ)
                if handle is not None:
                    _close_mmap(handle)
                handle, size = remapped, remapped.size()
                self._maps[name] = (handle, size)
            if end > size:
                raise ValueError(
                    f"binary block {name}@{offset}+{length} reaches past the "
                    f"{size}-byte sidecar (torn write)"
                )
            count = length // dtype.itemsize if dtype.itemsize else 0
            arr = np.frombuffer(handle, dtype=dtype, count=count, offset=offset)
            return arr.reshape(shape)

    def close(self) -> None:
        with self._lock:
            for handle, _size in self._maps.values():
                _close_mmap(handle)
            self._maps.clear()


def _close_mmap(handle: mmap.mmap) -> None:
    try:
        handle.close()
    except (BufferError, OSError):
        # Live numpy views still export the buffer; the map is released
        # when the last view dies.
        pass


def _steps_to_records(trace: GenerationTrace) -> "list[dict]":
    return [
        {
            "position": int(step.position),
            "proposed": step.proposed,
            "max_prob": float(step.max_prob),
            "item_index": int(step.item_index),
            "within_index": int(step.within_index),
            "is_branching": bool(step.is_branching),
            "committed": step.committed,
            "forced": bool(step.forced),
            "decision_point": bool(step.decision_point),
        }
        for step in trace.steps
    ]


def trace_from_record(
    record: dict,
    directory: "str | Path | None" = None,
    reader: "_BinReader | None" = None,
) -> GenerationTrace:
    """Rehydrate a stored trace record.

    The record's ``hidden`` descriptor names a block of a ``.bin``
    sidecar, resolved through ``reader`` (or a fresh one over
    ``directory``) as a read-only zero-copy mmap view; each step's
    ``hidden`` is a row of it.
    """
    if reader is None:
        if directory is None:
            raise ValueError(
                "a trace record references a .bin sidecar; pass the "
                "segment directory (or a reader) to resolve it"
            )
        reader = _BinReader(directory)
    stack = reader.view(record["hidden"])
    return GenerationTrace(
        instance_id=record["instance_id"],
        steps=[
            GenerationStep(**step, hidden=stack[i]) for i, step in enumerate(record["steps"])
        ],
        aborted=record["aborted"],
        hidden_stack=stack,
    )


# -- the compacted SQLite index tier ------------------------------------------


class SqliteSegmentIndex:
    """O(1) ``address → (segment, offset, length)`` lookups over a store.

    Built by :meth:`PersistentGenerationCache.compact` over the freshly
    compacted segment; readers resolve an address to an exact byte range
    and seek-read just that line instead of scanning the segment. The
    index also records the byte size of every segment it covers so scans
    can skip them wholesale (see the module docstring).
    """

    def __init__(self, directory: "str | Path"):
        self.directory = Path(directory)
        self.path = self.directory / INDEX_NAME
        self._conn: "sqlite3.Connection | None" = None  # guarded-by: self._lock
        self._lock = threading.Lock()

    def exists(self) -> bool:
        return self.path.is_file()

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def _connection(self) -> sqlite3.Connection:  # caller holds self._lock
        # One shared read-only
        # connection is plenty (lookups are sub-millisecond point reads).
        # mode=ro is load-bearing: a plain connect() to a just-deleted
        # path would *create* an empty database, permanently poisoning
        # the namespace for every future exists() check.
        if self._conn is None:
            uri = self.path.resolve().as_uri()  # as_uri needs an absolute path
            self._conn = sqlite3.connect(
                f"{uri}?mode=ro", uri=True, check_same_thread=False
            )
        return self._conn

    def covered_segments(self) -> "dict[str, int]":
        """Segment name → byte size at index-build time ({} on error)."""
        with self._lock:
            try:
                rows = self._connection().execute("SELECT name, size FROM segments")
                return {name: int(size) for name, size in rows}
            except sqlite3.Error:
                return {}

    def __len__(self) -> int:
        with self._lock:
            try:
                row = (
                    self._connection()
                    .execute("SELECT COUNT(*) FROM entries")
                    .fetchone()
                )
                return int(row[0])
            except sqlite3.Error:
                return 0

    def addresses(self) -> "set[str]":
        with self._lock:
            try:
                rows = self._connection().execute("SELECT address FROM entries")
                return {address for (address,) in rows}
            except sqlite3.Error:
                return set()

    def lookup(self, address: str) -> "dict | None":
        """The raw store entry for ``address``, or None if unindexed."""
        with self._lock:
            try:
                row = (
                    self._connection()
                    .execute(
                        "SELECT segment, offset, length FROM entries WHERE address = ?",
                        (address,),
                    )
                    .fetchone()
                )
            except sqlite3.Error:
                row = None
        if row is None:
            return None
        segment, offset, length = row
        try:
            with (self.directory / segment).open("rb") as handle:
                handle.seek(int(offset))
                blob = handle.read(int(length))
            return json.loads(blob.decode("utf8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            # The indexed segment vanished or was rewritten under us (a
            # concurrent compaction, which the store documents as
            # unsafe); fail soft — the caller falls back to recompute.
            return None

    @classmethod
    def build(
        cls,
        directory: "str | Path",
        rows: "list[tuple[str, str, int, int]]",
        segments: "list[tuple[str, int]]",
    ) -> "SqliteSegmentIndex":
        """Write the index atomically (temp file + rename).

        ``rows`` are ``(address, segment, offset, length)`` tuples;
        ``segments`` are ``(name, size)`` for every covered segment.
        """
        directory = Path(directory)
        # repro-lint: ignore[determinism] uniqueness token for a writer-private temp file; never reaches record bytes
        tmp = directory / f"{INDEX_NAME}.tmp-{os.getpid()}-{os.urandom(4).hex()}"
        conn = sqlite3.connect(tmp)
        try:
            conn.executescript(
                """
                CREATE TABLE entries (
                    address TEXT PRIMARY KEY,
                    segment TEXT NOT NULL,
                    offset INTEGER NOT NULL,
                    length INTEGER NOT NULL
                );
                CREATE TABLE segments (
                    name TEXT PRIMARY KEY,
                    size INTEGER NOT NULL
                );
                """
            )
            conn.executemany("INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?)", rows)
            conn.executemany("INSERT OR REPLACE INTO segments VALUES (?, ?)", segments)
            conn.commit()
        finally:
            conn.close()
        tmp.replace(directory / INDEX_NAME)
        return cls(directory)


# -- the persistent cache -----------------------------------------------------


class PersistentGenerationCache(GenerationCache):
    """A :class:`GenerationCache` backed by an on-disk segment store.

    Lookups fall through memory → disk → compute; computed values are
    spilled to this instance's own segment so other processes (and
    future runs) can reuse them. Stats distinguish ``hits`` (memory),
    ``disk_hits`` (loaded from the store) and ``misses`` (new LLM
    generations) — a warm sweep re-run must report zero misses.
    """

    def __init__(
        self,
        cache_dir: "str | Path",
        namespace: str = "default",
        use_index: bool = True,
    ):
        super().__init__()
        self.cache_dir = Path(cache_dir)
        self.namespace = str(namespace)
        self.use_index = bool(use_index)
        self._disk_hits = 0  # guarded-by: self._lock
        self._io_lock = threading.Lock()
        self._disk_index: dict[str, dict] = {}  # guarded-by: self._io_lock
        self._offsets: dict[str, int] = {}  # guarded-by: self._io_lock
        self._segment_path: "Path | None" = None  # guarded-by: self._io_lock
        self._lock_path: "Path | None" = None  # guarded-by: self._io_lock
        self._handle = None  # guarded-by: self._io_lock
        self._bin_handle = None  # guarded-by: self._io_lock
        self._bin_offset = 0  # guarded-by: self._io_lock
        self._reader: "_BinReader | None" = None  # guarded-by: self._io_lock
        self._index: "SqliteSegmentIndex | None" = None  # guarded-by: self._io_lock
        # No eager store scan: every read path (probe_disk, _from_disk,
        # disk_entries) refreshes on demand, so construction is O(1) —
        # maintenance flows like `repro-cache compact` never pay for an
        # in-memory index they won't use.

    @property
    def directory(self) -> Path:
        """This namespace's segment directory."""
        return self.cache_dir / self.namespace

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses, disk_hits=self._disk_hits)

    def address(self, key) -> str:
        """The content address of one cache key within this namespace."""
        digest = hashlib.blake2b(digest_size=16)
        parts = key if isinstance(key, tuple) else (key,)
        for part in (self.namespace, *parts):
            digest.update(repr(part).encode("utf8"))
            digest.update(b"\x1f")
        return digest.hexdigest()

    def get_or_compute(self, key, compute):
        with self._lock:
            if key in self._data:
                self._hits += 1
                return self._data[key]
        address = self.address(key)
        value = self._from_disk(address)
        if value is not _MISS:
            with self._lock:
                self._disk_hits += 1
                self._data[key] = value
            return value
        with self._lock:
            self._misses += 1
        value = compute()  # computed outside the locks: misses run in parallel
        with self._lock:
            self._data[key] = value
        self._spill(address, key, value)
        return value

    def clear(self) -> None:
        """Reset in-memory state and every counter (including disk hits).

        The on-disk store is deliberately untouched: entries are
        immutable, so eviction means deleting the namespace directory
        (see the module docstring). This instance's own segment is
        retired (future spills open a new one) so its entries become
        readable again; subsequent lookups reload from disk and count
        as fresh ``disk_hits``.
        """
        with self._io_lock:
            self._release_segment_locked()
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0
            self._disk_hits = 0

    def admit(self, key, value, *, miss: bool = False, disk_hit: bool = False) -> None:
        """Store a service-resolved value; backend misses spill to disk."""
        super().admit(key, value, miss=miss, disk_hit=disk_hit)
        if miss:
            self._spill(self.address(key), key, value)

    def _disk_hit_count(self) -> None:  # caller holds self._lock
        self._disk_hits += 1

    def disk_entries(self) -> int:
        """Distinct addresses visible in the store right now."""
        with self._io_lock:
            self._refresh_locked()
            addresses = set(self._disk_index)
            index = self._index_locked()
            if index is not None:
                addresses |= index.addresses()
            return len(addresses)

    def close(self) -> None:
        """Close this writer's segment handle (entries stay on disk)."""
        with self._io_lock:
            self._release_segment_locked()
            if self._reader is not None:
                self._reader.close()
                self._reader = None
            if self._index is not None:
                self._index.close()
                self._index = None

    def _release_segment_locked(self) -> None:  # caller holds self._io_lock
        """Retire the open segment and its writer lock."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._bin_handle is not None:
            self._bin_handle.close()
            self._bin_handle = None
        self._bin_offset = 0
        self._segment_path = None
        if self._lock_path is not None:
            self._lock_path.unlink(missing_ok=True)
            self._lock_path = None

    def writer_locks(self) -> "list[dict]":
        """Live writer locks held by *other* writers in this namespace."""
        with self._io_lock:
            return self._writer_locks_locked()

    def _writer_locks_locked(self) -> "list[dict]":  # caller holds self._io_lock
        return active_writer_locks(self.directory, exclude=self._lock_path)

    def compact(self, index: "bool | None" = None, force: bool = False) -> int:
        """Merge every segment into one, dropping duplicate addresses.

        Only safe while no other writer is active — concurrent writers
        keep appending to unlinked segments and those entries are lost —
        so live writer locks (see :meth:`writer_locks`) make this fail
        fast with :class:`WriterActiveError` unless ``force=True``.
        By default (``index=None`` → this cache's ``use_index``) a
        :class:`SqliteSegmentIndex` is rebuilt over the compacted
        segment so cold lookups become O(1) point reads instead of full
        segment scans. Tensor blocks are copied byte-for-byte into one
        new sidecar, without decoding. Returns the number of distinct
        entries kept.
        """
        build_index = self.use_index if index is None else bool(index)
        with self._io_lock:
            self._release_segment_locked()
            active = self._writer_locks_locked()
            if active and not force:
                holders = ", ".join(
                    f"{Path(lock['path']).name} (pid {lock['pid']}, host "
                    f"{lock['host']})"
                    for lock in active
                )
                raise WriterActiveError(
                    f"namespace {self.namespace!r} has {len(active)} active "
                    f"writer(s): {holders}; compacting now would drop their "
                    "in-flight entries — retry once they close, or force"
                )
            if self._index is not None:
                self._index.close()
                self._index = None
            directory = self.directory
            if not directory.is_dir():
                return 0
            # Full independent rescan — including this instance's own
            # segment and any segments an index let refreshes skip.
            entries: dict[str, dict] = {}
            stale = sorted(directory.glob("*.jsonl"))
            for path in stale:
                for _size, line, entry in _scan_segment(path, 0):
                    entries[entry["k"]] = entry
            # repro-lint: ignore[determinism] uniqueness token for the compactor-private segment name; never reaches record bytes
            stem = f"c-{os.getpid()}-{os.urandom(4).hex()}"
            target = directory / f"{stem}.jsonl"
            bin_target = directory / f"{stem}{BIN_SUFFIX}"
            stale_bins = sorted(directory.glob(f"*{BIN_SUFFIX}"))
            sources: dict[str, object] = {}  # old sidecar name -> read handle

            def read_block(ref: dict) -> bytes:
                name, length = str(ref["bin"]), int(ref["length"])
                if length == 0:  # a zero-step trace: its sidecar may be gone
                    return b""
                handle = sources.get(name)
                if handle is None:
                    handle = (directory / name).open("rb")
                    sources[name] = handle
                handle.seek(int(ref["offset"]))
                block = handle.read(length)
                if len(block) != length:
                    raise ValueError(f"short read from sidecar {name}")
                return block

            rows: list[tuple[str, str, int, int]] = []
            offset = 0
            bin_offset = 0
            try:
                with target.open("wb") as handle, bin_target.open("wb") as bin_handle:
                    for address in sorted(entries):
                        entry = entries[address]
                        ref = _bin_reference(entry.get("v"))
                        if ref is not None:
                            # Relocate the tensor block byte-for-byte, no decode.
                            bin_handle.write(read_block(ref))
                            hidden = {**ref, "bin": bin_target.name, "offset": bin_offset}
                            entry = {**entry, "v": {**entry["v"], "hidden": hidden}}
                            entries[address] = entry
                            bin_offset += int(ref["length"])
                        line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf8")
                        handle.write(line)
                        rows.append((address, target.name, offset, len(line)))
                        offset += len(line)
            finally:
                for handle in sources.values():
                    handle.close()
            if bin_offset == 0:
                bin_target.unlink(missing_ok=True)
            for path in stale:
                if path != target:
                    path.unlink(missing_ok=True)
            for path in stale_bins:
                if path != bin_target:
                    path.unlink(missing_ok=True)
            # Old sidecars are gone: drop their maps so future reads map
            # the compacted one (live views keep the old maps alive).
            if self._reader is not None:
                self._reader.close()
                self._reader = None
            if build_index:
                self._index = SqliteSegmentIndex.build(
                    directory, rows, [(target.name, offset)]
                )
                # Indexed entries are served by point lookup, never scan.
                self._disk_index = {}
            else:
                (directory / INDEX_NAME).unlink(missing_ok=True)
                self._disk_index = {entry["k"]: entry["v"] for entry in entries.values()}
            self._offsets = {target.name: offset}
            return len(entries)

    # -- disk plumbing -------------------------------------------------------

    def _index_locked(self) -> "SqliteSegmentIndex | None":  # caller holds self._io_lock
        """The SQLite index handle, if attached or discoverable.

        An index this instance explicitly built (``compact(index=True)``)
        is always honored; ``use_index=False`` only stops the cache from
        going looking for index files left on disk by others.
        """
        if self._index is not None:
            return self._index
        if not self.use_index:
            return None
        candidate = SqliteSegmentIndex(self.directory)
        if not candidate.exists():
            return None
        self._index = candidate
        return self._index

    def probe_disk(self, address: str) -> "tuple[dict | None, str | None]":
        """Raw record for ``address`` plus the tier that served it.

        Returns ``(record, "segments")`` when a segment scan (or an
        earlier scan's in-memory index) has the entry and ``(record,
        "sqlite")`` when only the compacted SQLite index does. On a
        miss, the tier reports how deep the probe went: ``(None,
        "sqlite")`` if an index was actually consulted, ``(None,
        None)`` if the namespace has no index. Counts nothing — stats
        attribution is the caller's job (the service's per-tier stats,
        or :meth:`get_or_compute`'s aggregate ``disk_hits``).
        """
        with self._io_lock:
            record = self._disk_index.get(address)
            if record is None:
                self._refresh_locked()
                record = self._disk_index.get(address)
            if record is not None:
                return record, "segments"
            index = self._index_locked()
            if index is not None:
                record = index.lookup(address)
                if record is not None:
                    return record["v"], "sqlite"
                return None, "sqlite"
        return None, None

    def record_to_trace(self, record: dict) -> GenerationTrace:
        """Rehydrate a probed record, resolving binary blocks via mmap.

        The cache's shared :class:`_BinReader` keeps one map per
        sidecar, so a warm hit costs a zero-copy view, not a decode.
        """
        with self._io_lock:
            if self._reader is None:
                self._reader = _BinReader(self.directory)
            reader = self._reader
        return trace_from_record(record, reader=reader)

    def _from_disk(self, address: str):
        record, _tier = self.probe_disk(address)
        if record is None:
            return _MISS
        try:
            return self.record_to_trace(record)
        except (OSError, ValueError, KeyError):
            # A sidecar vanished or tore under us (e.g. a concurrent
            # compaction, documented as unsafe); fail soft — the caller
            # recomputes and the store heals on the next spill.
            return _MISS

    def _refresh_locked(self) -> None:  # caller holds self._io_lock
        """Pick up entries appended by other writers since the last scan.

        Segments covered by a compacted SQLite index are skipped — their
        entries resolve through O(1) index lookups instead of scans.
        """
        directory = self.directory
        if not directory.is_dir():
            return
        index = self._index_locked()
        if index is not None:
            for name, size in index.covered_segments().items():
                if self._offsets.get(name, 0) < size:
                    self._offsets[name] = size
        for path in sorted(directory.glob("*.jsonl")):
            if path == self._segment_path:
                continue  # own writes are already in memory
            consumed = self._offsets.get(path.name, 0)
            for consumed, _line, entry in _scan_segment(path, consumed):
                self._disk_index[entry["k"]] = entry["v"]
            self._offsets[path.name] = consumed

    def _spill(self, address: str, key, value: GenerationTrace) -> None:
        kind = key[0] if isinstance(key, tuple) and key else str(key)
        with self._io_lock:
            if self._handle is None:
                self.directory.mkdir(parents=True, exist_ok=True)
                # repro-lint: ignore[determinism] uniqueness token for this writer's private segment name; never reaches record bytes
                name = f"w-{os.getpid()}-{os.urandom(4).hex()}.jsonl"
                self._segment_path = self.directory / name
                # The writer lock: a sidecar marking this segment as
                # actively appended, so compact() fails fast instead of
                # silently dropping our in-flight entries. Removed when
                # the segment is retired (close/clear/compact); a crash
                # leaves it behind and the dead pid marks it stale.
                self._lock_path = self.directory / f"{name}{LOCK_SUFFIX}"
                self._lock_path.write_text(
                    json.dumps(
                        {
                            "pid": os.getpid(),
                            "host": socket.gethostname(),
                            "segment": name,
                        },
                        sort_keys=True,
                    )
                )
                self._handle = self._segment_path.open("a", encoding="utf8", newline="\n")
                self._bin_handle = self._segment_path.with_suffix(BIN_SUFFIX).open("ab")
                self._bin_offset = 0
            # Sidecar bytes land (and are flushed) before the manifest
            # line: a manifest entry implies its block.
            stack = _little_endian(value.hidden_matrix())
            self._bin_handle.write(stack.tobytes())
            self._bin_handle.flush()
            record = {
                "instance_id": value.instance_id,
                "aborted": bool(value.aborted),
                "hidden": {
                    "dtype": stack.dtype.str,
                    "shape": [int(n) for n in stack.shape],
                    "bin": self._segment_path.with_suffix(BIN_SUFFIX).name,
                    "offset": int(self._bin_offset),
                    "length": int(stack.nbytes),
                },
                "steps": _steps_to_records(value),
            }
            self._bin_offset += stack.nbytes
            entry = {"k": address, "kind": kind, "v": record}
            self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
            self._handle.flush()

    # A cache shipped to a worker process reopens the same store fresh:
    # its writes land in a new segment the parent picks up on refresh.
    def __getstate__(self) -> dict:
        return {
            "cache_dir": str(self.cache_dir),
            "namespace": self.namespace,
            "use_index": self.use_index,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            state["cache_dir"],
            namespace=state["namespace"],
            use_index=state.get("use_index", True),
        )


# -- store inspection (the repro-cache CLI) -----------------------------------


def _scan_segment(path: Path, consumed: int):
    """Yield ``(consumed_after, raw_line, entry)`` per complete entry.

    Starts at byte offset ``consumed`` and stops at a truncated or torn
    tail — the same tolerance as a reader refresh scan. A manifest entry
    whose ``.bin`` block reaches past the sidecar's current size is the
    binary-format torn tail (the writer died between sidecar flush and
    manifest flush, or the sidecar was truncated): the scan stops
    *before* it without advancing ``consumed``, so the loadable prefix
    is served and the tail is retried on the next refresh.
    """
    try:
        size = path.stat().st_size
    except OSError:  # pragma: no cover - racing deletion
        return
    if size <= consumed:
        return
    bin_sizes: dict[str, int] = {}
    try:
        with path.open("rb") as handle:
            handle.seek(consumed)
            for line in handle:
                if not line.endswith(b"\n"):
                    return  # in-flight append
                stripped = line.strip()
                consumed += len(line)
                if not stripped:
                    continue
                try:
                    entry = json.loads(stripped.decode("utf8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    return  # torn write
                ref = _bin_reference(entry.get("v")) if isinstance(entry, dict) else None
                if ref is not None:
                    name = str(ref["bin"])
                    if name not in bin_sizes:
                        try:
                            bin_sizes[name] = (path.parent / name).stat().st_size
                        except OSError:
                            bin_sizes[name] = 0  # missing sidecar: all torn
                    if int(ref["offset"]) + int(ref["length"]) > bin_sizes[name]:
                        return  # torn binary tail: block bytes not landed
                yield consumed, line, entry
    except OSError:  # pragma: no cover - racing deletion
        return


def store_stats(
    cache_dir: "str | Path", namespaces: "list[str] | None" = None
) -> dict:
    """Per-namespace shape of a persistent store, for ``repro-cache stats``.

    Scans segments at rest (no cache instance, no writers needed):
    distinct addresses, raw record counts (duplicates included — the
    compaction headroom), per-kind tallies, byte footprint, and whether
    a compacted SQLite index covers the namespace.
    ``namespaces`` restricts the (potentially expensive) scan to the
    named ones.
    """
    cache_dir = Path(cache_dir)
    wanted = set(namespaces) if namespaces is not None else None
    namespaces: dict[str, dict] = {}
    if cache_dir.is_dir():
        for ns_dir in sorted(p for p in cache_dir.iterdir() if p.is_dir()):
            if wanted is not None and ns_dir.name not in wanted:
                continue
            segments = sorted(ns_dir.glob("*.jsonl"))
            addresses: set[str] = set()
            kinds: dict[str, int] = {}
            records = 0
            total_bytes = 0
            for sidecar in sorted(ns_dir.glob(f"*{BIN_SUFFIX}")):
                total_bytes += sidecar.stat().st_size
            for segment in segments:
                total_bytes += segment.stat().st_size
                for _consumed, _line, entry in _scan_segment(segment, 0):
                    records += 1
                    addresses.add(entry["k"])
                    kind = str(entry.get("kind", "unknown"))
                    kinds[kind] = kinds.get(kind, 0) + 1
            index = SqliteSegmentIndex(ns_dir)
            indexed = index.exists()
            index_entries = 0
            if indexed:
                index_entries = len(index)
                addresses |= index.addresses()
                total_bytes += index.path.stat().st_size
                index.close()
            namespaces[ns_dir.name] = {
                "segments": len(segments),
                "records": records,
                "entries": len(addresses),
                "bytes": total_bytes,
                "kinds": dict(sorted(kinds.items())),
                "indexed": indexed,
                "index_entries": index_entries,
                "active_writers": len(active_writer_locks(ns_dir)),
            }
    return {"cache_dir": str(cache_dir), "namespaces": namespaces}
