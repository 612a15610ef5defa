"""Content-addressed on-disk cache of derived state spaces and CTMCs.

State-space derivation and generator assembly dominate the tool chain's
wall-clock cost (Ding & Hillston, arXiv:1012.3040 — the machine-side
cost of numerically representing the process algebra), and batch
workloads repeat them: a sweep re-analyses the same model under the
same parameters, a re-run re-derives yesterday's state spaces.  This
cache makes the second derivation a file read.

Entries are addressed by :class:`repro.core.keys.DerivationKey` — a
stable SHA-256 over (model source, formalism, derivation parameters) —
so the address *is* the content identity: a changed rate value, a
different ``max_states``, a different formalism each hash to a
different entry, and stale hits are impossible by construction.

The store is a plain directory of entry files, two-level fanned-out by
digest prefix.  Each entry is a ``repro-cache/2`` record: a magic line,
the SHA-256 of the payload bytes, then the pickled payload — so
integrity is checkable without unpickling foreign bytes, both at fetch
time and by an explicit :meth:`DerivationCache.verify` sweep.  Writes
are atomic (payload serialised to bytes *first*, then temp file +
``os.replace``), so a crashed or concurrent writer can never publish a
half-written entry and a serialisation failure leaves nothing on disk.
Readers that encounter a corrupt file (truncation, bit rot, foreign
bytes, checksum mismatch) treat it as a miss, emit a ``cache.corrupt``
event, delete the carcass best-effort and re-derive; writers that hit
filesystem trouble (``ENOSPC``, permissions) degrade to not caching —
the cache can lose time, never correctness, and never a run.

``max_bytes`` bounds the store: after every publication the least
recently *used* entries (reads refresh an entry's mtime) are evicted
until the directory fits the budget, counted as ``cache.evictions``
and reported as ``cache.evict`` events, so a long-running batch
service cannot fill the disk.

Every cached layer — PEPA state spaces, PEPA-net marking spaces,
assembled CTMCs and fluid solutions — goes through one cache-through
call, :func:`cached`, which reads the ambient instance installed by
:func:`set_cache`/:func:`use_cache` (``None``, the default, turns
caching off and costs one read).  A lookup is a hit only when the
payload's schema matches and the layer's decoder accepts it; anything
else is a miss that builds, publishes and returns.  The traffic is
counted once, on the ambient metrics registry (``cache.hits``/
``cache.misses``/``cache.stale_schema``/``cache.stores``/
``cache.corrupt``/``cache.evictions``/``cache.store_errors``), and
reported as ``cache.*`` events carrying the key; a batch task's
metrics snapshot is therefore its cache tally.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, TypeVar

from repro.core.keys import DerivationKey
from repro.obs import get_events, get_metrics

__all__ = [
    "DerivationCache",
    "cached",
    "get_cache",
    "set_cache",
    "use_cache",
]

#: On-disk pickle protocol; pinned so caches are portable across the
#: Python versions the CI matrix exercises (3.10 is the floor).
PICKLE_PROTOCOL = 4

#: Entry header: magic line, then the payload's SHA-256 hex digest on
#: its own line, then the pickled payload bytes.  Entries without the
#: magic (including any ``repro-cache/1`` era raw pickles) read as
#: corrupt and are purged — the cache self-heals across format bumps.
MAGIC = b"repro-cache/2\n"
_DIGEST_LEN = 64  # SHA-256 hex

#: Errors that mean "this entry is unreadable", not "this is a bug":
#: truncated pickles raise EOFError/UnpicklingError, foreign bytes can
#: raise almost anything from the pickle VM, missing classes raise
#: AttributeError/ImportError, filesystem trouble raises OSError.
_CORRUPTION_ERRORS = (
    EOFError,
    OSError,
    pickle.UnpicklingError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    ValueError,
    TypeError,
    MemoryError,
)


class DerivationCache:
    """A content-addressed, integrity-checked store under one directory.

    ``fetch``/``store`` are the whole protocol, driven by
    :func:`cached`; payloads are plain dicts built by each layer's
    encoder (state-space payloads in the derivation layers, CTMC
    payloads via :func:`repro.ctmc.serialize.ctmc_to_payload`).
    Instances are safe to share between the processes of a batch run:
    the filesystem is the coordination point, and atomic publication
    makes concurrent writers idempotent: writers of one key agree on the
    content, not on the bytes (a pickled state space varies with
    ``PYTHONHASHSEED``), and the last complete write wins.
    ``max_bytes`` bounds the store with least-recently-used eviction
    (``None`` = unbounded).
    """

    def __init__(self, root: str | Path, *, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes

    def path_of(self, key: DerivationKey) -> Path:
        """Where ``key``'s entry lives (two-level digest fan-out)."""
        digest = key.digest
        return self.root / digest[:2] / f"{digest}.pkl"

    # ------------------------------------------------------------------
    # Entry codec: checksum header + pickle body
    # ------------------------------------------------------------------
    @staticmethod
    def _encode(payload: dict[str, Any]) -> bytes:
        """Serialise ``payload`` fully in memory (nothing touches disk)."""
        body = pickle.dumps(payload, protocol=PICKLE_PROTOCOL)
        digest = hashlib.sha256(body).hexdigest().encode("ascii")
        return MAGIC + digest + b"\n" + body

    @staticmethod
    def _decode(blob: bytes) -> dict[str, Any]:
        """Verify a record's checksum and unpickle its payload.

        Raises :class:`pickle.UnpicklingError` on any integrity
        problem, so corruption funnels into one handling path.
        """
        if not blob.startswith(MAGIC):
            raise pickle.UnpicklingError("cache entry has no repro-cache/2 header")
        header_end = len(MAGIC) + _DIGEST_LEN + 1
        digest = blob[len(MAGIC):len(MAGIC) + _DIGEST_LEN]
        body = blob[header_end:]
        if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
            raise pickle.UnpicklingError("cache entry checksum mismatch")
        payload = pickle.loads(body)
        if not isinstance(payload, dict):
            raise pickle.UnpicklingError(
                f"cache entry is a {type(payload).__name__}, not a payload dict"
            )
        return payload

    # ------------------------------------------------------------------
    def fetch(self, key: DerivationKey) -> dict[str, Any] | None:
        """The stored payload for ``key``, or ``None`` if there is none.

        Whether a payload is a hit is :func:`cached`'s call, so this
        counts no hits or misses.  A corrupt entry counts and reports as
        ``cache.corrupt``, is deleted best-effort, and reads as absent.
        A successful read refreshes the entry's recency for LRU
        eviction.
        """
        path = self.path_of(key)
        try:
            payload = self._decode(path.read_bytes())
        except FileNotFoundError:
            return None
        except _CORRUPTION_ERRORS as exc:
            get_metrics().counter("cache.corrupt").inc()
            get_events().emit(
                "cache.corrupt", key=key.describe(), path=str(path),
                error=type(exc).__name__,
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            os.utime(path)  # refresh recency: hits survive LRU eviction
        except OSError:
            pass
        return payload

    def store(self, key: DerivationKey, payload: dict[str, Any]) -> Path | None:
        """Atomically publish ``payload`` under ``key``.

        The payload is serialised to bytes *before* any file is
        created, so a serialisation failure raises without leaving a
        temp file (or anything else) behind.  Filesystem failures
        (``ENOSPC``, permissions) degrade gracefully: the entry simply
        isn't cached — counted as ``cache.store_errors`` and reported
        as a ``cache.store_error`` event — and ``None`` is
        returned; the derivation result itself is unaffected.
        """
        from repro.resilience.faultinject import (
            maybe_fault_cache_bitflip, maybe_fault_cache_store,
        )

        record = self._encode(payload)  # may raise: nothing on disk yet
        path = self.path_of(key)
        tmp_name = None
        try:
            maybe_fault_cache_store(key)  # chaos drills: injected ENOSPC
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{path.stem}.", suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as fh:
                fh.write(record)
            os.replace(tmp_name, path)
        except OSError as exc:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            get_metrics().counter("cache.store_errors").inc()
            get_events().emit(
                "cache.store_error", key=key.describe(),
                error=type(exc).__name__, detail=str(exc),
            )
            return None
        get_metrics().counter("cache.stores").inc()
        get_events().emit("cache.store", key=key.describe())
        maybe_fault_cache_bitflip(path)  # chaos drills: corrupt the entry
        if self.max_bytes is not None:
            self._evict_to_budget()
        return path

    # ------------------------------------------------------------------
    # Hygiene: size budget and integrity sweep
    # ------------------------------------------------------------------
    def _entries(self) -> list[tuple[Path, os.stat_result]]:
        entries = []
        for entry in self.root.glob("*/*.pkl"):
            try:
                entries.append((entry, entry.stat()))
            except OSError:
                pass  # raced with a concurrent eviction/unlink
        return entries

    def total_bytes(self) -> int:
        """Current on-disk size of every entry, in bytes."""
        return sum(st.st_size for _, st in self._entries())

    def _evict_to_budget(self) -> int:
        """Unlink least-recently-used entries until the budget holds."""
        entries = self._entries()
        total = sum(st.st_size for _, st in entries)
        evicted = 0
        metrics = get_metrics()
        # Oldest mtime first; path as tie-break keeps the order stable.
        for path, st in sorted(entries, key=lambda e: (e[1].st_mtime, str(e[0]))):
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= st.st_size
            evicted += 1
            metrics.counter("cache.evictions").inc()
            get_events().emit(
                "cache.evict", entry=path.stem[:12], bytes=st.st_size,
            )
        metrics.gauge("cache.bytes").set(total)
        return evicted

    def verify(self) -> dict[str, int]:
        """Integrity sweep: re-hash every entry, purge the corrupt ones.

        Each entry's checksum header is re-verified against its payload
        bytes (and the payload unpickled), so bit rot, torn writes and
        foreign files are all caught.  Corrupt entries count as
        ``cache.corrupt`` (metric, and event tagged ``sweep=True``) and
        are deleted.  Returns
        ``{"checked", "ok", "corrupt", "purged"}``.
        """
        checked = ok = corrupt = purged = 0
        metrics = get_metrics()
        for path, _ in sorted(self._entries(), key=lambda e: str(e[0])):
            checked += 1
            try:
                self._decode(path.read_bytes())
            except _CORRUPTION_ERRORS as exc:
                corrupt += 1
                metrics.counter("cache.corrupt").inc()
                get_events().emit(
                    "cache.corrupt", path=str(path),
                    error=type(exc).__name__, sweep=True,
                )
                try:
                    path.unlink()
                    purged += 1
                except OSError:
                    pass
            else:
                ok += 1
        return {"checked": checked, "ok": ok, "corrupt": corrupt, "purged": purged}

    # ------------------------------------------------------------------
    def __contains__(self, key: DerivationKey) -> bool:
        return self.path_of(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for entry in self.root.glob("*/*.pkl"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self) -> str:
        return f"DerivationCache({str(self.root)!r})"


_active_cache: DerivationCache | None = None


def get_cache() -> DerivationCache | None:
    """The ambient cache the derivation layers consult (``None`` = off)."""
    return _active_cache


def set_cache(cache: DerivationCache | None) -> DerivationCache | None:
    """Install ``cache`` (``None`` = disable); returns the previous one."""
    global _active_cache
    previous = _active_cache
    _active_cache = cache
    return previous


@contextmanager
def use_cache(cache: DerivationCache | None) -> Iterator[DerivationCache | None]:
    """Scoped installation: the previous cache is restored on exit."""
    previous = set_cache(cache)
    try:
        yield cache
    finally:
        set_cache(previous)


_T = TypeVar("_T")


def cached(
    make_key: Callable[[], DerivationKey],
    schema: str,
    build: Callable[[], _T],
    encode: Callable[[_T], dict[str, Any]],
    decode: Callable[[dict[str, Any]], _T | None],
) -> _T:
    """Cache-through: the one lookup path of every cached layer.

    With no ambient cache this is ``build()`` and no key is made.
    Otherwise the payload stored under ``make_key()`` is a **hit** only
    if its ``schema`` field equals ``schema`` and ``decode`` returns a
    value (``None`` rejects it — the derivation layers reject a space
    above the caller's ``max_states`` there).  Anything else is a
    **miss**: ``build()`` runs, ``encode`` of its result (stamped with
    ``schema``) is published under the key, and the result is returned.  A payload of another
    schema also counts and reports as ``cache.stale_schema``; its entry
    is overwritten by the rebuilt one.  The returned value's
    ``cache_key`` is set to the key on both paths.
    """
    cache = get_cache()
    if cache is None:
        return build()
    key = make_key()
    metrics, events = get_metrics(), get_events()
    payload = cache.fetch(key)
    if payload is not None:
        found = payload.get("schema")
        if found == schema:
            value = decode(payload)
            if value is not None:
                metrics.counter("cache.hits").inc()
                events.emit("cache.hit", key=key.describe())
                value.cache_key = key
                return value
        else:
            metrics.counter("cache.stale_schema").inc()
            events.emit("cache.stale_schema", key=key.describe(), schema=str(found))
    metrics.counter("cache.misses").inc()
    events.emit("cache.miss", key=key.describe())
    value = build()
    cache.store(key, {"schema": schema, **encode(value)})
    value.cache_key = key
    return value
