"""The content-addressed derivation cache: accounting, invalidation,
corruption recovery, and the ambient installation protocol."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.batch.cache import DerivationCache, get_cache, set_cache, use_cache
from repro.core.keys import DerivationKey
from repro.obs import EventStream, MetricsRegistry, ObsContext, use_obs
from repro.pepa.measures import analyse
from repro.pepa.parser import parse_model
from repro.pepa.statespace import derive

SRC = """
r = 2.0;
P = (work, r).Q;
Q = (rest, 1.0).P;
P
"""

SRC_OTHER_RATE = SRC.replace("r = 2.0", "r = 3.0")


@pytest.fixture
def cache(tmp_path):
    return DerivationCache(tmp_path / "cache")


def test_fetch_miss_then_store_then_hit(cache):
    key = DerivationKey.of("pepa", "some source")
    assert cache.fetch(key) is None
    cache.store(key, {"schema": "x", "value": 42})
    assert cache.fetch(key) == {"schema": "x", "value": 42}
    assert cache.stats.as_dict() == {
        "hits": 1, "misses": 1, "stores": 1, "corrupt": 0,
        "evictions": 0, "store_errors": 0,
    }
    assert key in cache
    assert len(cache) == 1


def test_derive_miss_populates_and_second_derive_hits(cache):
    model = parse_model(SRC)
    with use_cache(cache):
        first = derive(model)
        second = derive(parse_model(SRC))
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert [str(s) for s in second.states] == [str(s) for s in first.states]
    assert len(second.arcs) == len(first.arcs)


def test_rate_change_invalidates(cache):
    with use_cache(cache):
        derive(parse_model(SRC))
        derive(parse_model(SRC_OTHER_RATE))
    # Different rate value => different source => different key: no hit.
    assert cache.stats.hits == 0
    assert cache.stats.misses == 2
    assert len(cache) == 2


def test_cached_analysis_is_numerically_identical(cache, tmp_path):
    cold = analyse(parse_model(SRC))
    with use_cache(cache):
        analyse(parse_model(SRC))          # populate
        warm = analyse(parse_model(SRC))   # statespace + ctmc both from cache
    assert cache.stats.hits >= 2
    assert warm.chain.labels == cold.chain.labels
    np.testing.assert_allclose(warm.pi, cold.pi, rtol=0, atol=0)
    assert warm.all_throughputs() == cold.all_throughputs()


def test_truncated_entry_recovers_and_reports(cache):
    model = parse_model(SRC)
    with use_cache(cache):
        space = derive(model)
    key = space.cache_key
    path = cache.path_of(key)
    path.write_bytes(path.read_bytes()[:10])  # truncate mid-pickle

    events, metrics = EventStream(), MetricsRegistry()
    with use_cache(cache), use_obs(ObsContext(metrics=metrics, events=events)):
        recovered = derive(parse_model(SRC))
    assert recovered.size == space.size
    assert cache.stats.corrupt == 1
    assert metrics.counter("cache.corrupt").value == 1
    corrupt_events = events.by_name("cache.corrupt")
    assert len(corrupt_events) == 1
    assert corrupt_events[0].fields["key"] == key.describe()
    # The carcass was removed and the re-derivation re-published it.
    assert cache.fetch(key) is not None


def test_foreign_bytes_count_as_corrupt(cache):
    key = DerivationKey.of("pepa", "src")
    path = cache.path_of(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"this is not a pickle")
    assert cache.fetch(key) is None
    assert cache.stats.corrupt == 1
    assert not path.exists()


def test_non_dict_entry_counts_as_corrupt(cache):
    key = DerivationKey.of("pepa", "src")
    path = cache.path_of(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps([1, 2, 3]))
    assert cache.fetch(key) is None
    assert cache.stats.corrupt == 1


def test_no_cache_installed_means_no_files(tmp_path):
    assert get_cache() is None
    space = derive(parse_model(SRC))
    assert space.size == 2
    assert not list(tmp_path.rglob("*.pkl"))


def test_use_cache_restores_previous(tmp_path):
    outer = DerivationCache(tmp_path / "outer")
    try:
        assert set_cache(outer) is None
        with use_cache(None):
            assert get_cache() is None
        assert get_cache() is outer
    finally:
        set_cache(None)


def test_oversized_cached_space_is_rejected(cache):
    """A hit larger than the caller's max_states must not bypass the cap."""
    from repro.exceptions import StateSpaceError

    with use_cache(cache):
        derive(parse_model(SRC))  # 2 states, now cached
        with pytest.raises(StateSpaceError):
            derive(parse_model(SRC), max_states=1)


def test_clear_removes_entries(cache):
    key = DerivationKey.of("pepa", "src")
    cache.store(key, {"schema": "x"})
    assert cache.clear() == 1
    assert len(cache) == 0
    assert cache.fetch(key) is None


# ---------------------------------------------------------------------------
# Atomic, bytes-first publication
# ---------------------------------------------------------------------------
def test_unpicklable_payload_leaves_no_files_behind(cache):
    """Serialisation happens before any file exists: a payload that
    cannot pickle must raise without littering temp files (regression —
    the v1 store created the temp file first)."""
    key = DerivationKey.of("pepa", "src")
    with pytest.raises(Exception):
        cache.store(key, {"bad": lambda: None})  # lambdas don't pickle
    leftovers = [p for p in cache.root.rglob("*") if p.is_file()]
    assert leftovers == []
    assert cache.stats.stores == 0


def test_store_failure_degrades_not_raises(cache, monkeypatch):
    """Filesystem trouble (ENOSPC et al.) loses the cache entry, never
    the run: store returns None and counts a store_error."""
    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("repro.batch.cache.tempfile.mkstemp", full_disk)
    key = DerivationKey.of("pepa", "src")
    events = EventStream()
    with use_obs(ObsContext(events=events)):
        assert cache.store(key, {"schema": "x"}) is None
    assert cache.stats.store_errors == 1
    assert cache.stats.stores == 0
    assert len(events.by_name("cache.store_error")) == 1
    assert key not in cache


# ---------------------------------------------------------------------------
# Checksummed entries and the verify() sweep
# ---------------------------------------------------------------------------
def test_bitflip_detected_on_fetch(cache):
    key = DerivationKey.of("pepa", "src")
    path = cache.store(key, {"schema": "x", "value": 1})
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF  # flip one payload bit; the header is untouched
    path.write_bytes(bytes(blob))
    assert cache.fetch(key) is None
    assert cache.stats.corrupt == 1
    assert not path.exists()  # purged


def test_verify_purges_corrupt_keeps_good(cache):
    good = DerivationKey.of("pepa", "good")
    bad = DerivationKey.of("pepa", "bad")
    cache.store(good, {"schema": "x", "value": "good"})
    bad_path = cache.store(bad, {"schema": "x", "value": "bad"})
    blob = bytearray(bad_path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    bad_path.write_bytes(bytes(blob))

    report = cache.verify()
    assert report == {"checked": 2, "ok": 1, "corrupt": 1, "purged": 1}
    assert good in cache and bad not in cache
    assert cache.fetch(good) == {"schema": "x", "value": "good"}


def test_verify_clean_cache_reports_all_ok(cache):
    for i in range(3):
        cache.store(DerivationKey.of("pepa", f"src{i}"), {"schema": "x", "i": i})
    assert cache.verify() == {"checked": 3, "ok": 3, "corrupt": 0, "purged": 0}
    assert cache.stats.corrupt == 0


def test_legacy_headerless_entry_reads_as_corrupt(cache):
    """A raw-pickle (pre-checksum) entry self-heals: corrupt, purged,
    re-derived."""
    key = DerivationKey.of("pepa", "src")
    path = cache.path_of(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps({"schema": "x", "value": 1}))
    assert cache.fetch(key) is None
    assert cache.stats.corrupt == 1


# ---------------------------------------------------------------------------
# LRU size-budgeted eviction
# ---------------------------------------------------------------------------
def _sized_payload(tag: str, approx_bytes: int) -> dict:
    return {"schema": "x", "tag": tag, "blob": "y" * approx_bytes}


def test_eviction_keeps_total_under_budget(tmp_path):
    cache = DerivationCache(tmp_path / "cache", max_bytes=4096)
    for i in range(8):
        cache.store(DerivationKey.of("pepa", f"src{i}"), _sized_payload(str(i), 900))
    assert cache.total_bytes() <= 4096
    assert cache.stats.evictions > 0
    assert len(cache) < 8


def test_eviction_is_least_recently_used(tmp_path):
    import os
    import time as _time

    cache = DerivationCache(tmp_path / "cache", max_bytes=3000)
    keys = [DerivationKey.of("pepa", f"src{i}") for i in range(3)]
    paths = [cache.store(k, _sized_payload(str(i), 800))
             for i, k in enumerate(keys)]
    # Age the entries explicitly (mtime granularity is filesystem-bound),
    # then *touch* entry 0 via a hit so it becomes the most recent.
    now = _time.time()
    for i, path in enumerate(paths):
        os.utime(path, (now - 100 + i, now - 100 + i))
    assert cache.fetch(keys[0]) is not None
    # A fourth store pushes past 3000 bytes: entry 1 (oldest untouched)
    # must be the casualty, never the just-hit entry 0.
    cache.store(DerivationKey.of("pepa", "src3"), _sized_payload("3", 800))
    assert keys[0] in cache
    assert keys[1] not in cache


def test_eviction_emits_metrics_and_events(tmp_path):
    events, metrics = EventStream(), MetricsRegistry()
    cache = DerivationCache(tmp_path / "cache", max_bytes=2000)
    with use_obs(ObsContext(metrics=metrics, events=events)):
        for i in range(4):
            cache.store(DerivationKey.of("pepa", f"src{i}"),
                        _sized_payload(str(i), 900))
    assert metrics.counter("cache.evictions").value == cache.stats.evictions > 0
    assert len(events.by_name("cache.evict")) == cache.stats.evictions
    assert metrics.gauge("cache.bytes").value <= 2000


def test_unbounded_cache_never_evicts(cache):
    for i in range(6):
        cache.store(DerivationKey.of("pepa", f"src{i}"), _sized_payload(str(i), 2000))
    assert cache.stats.evictions == 0
    assert len(cache) == 6


def test_hit_rate_gauge_tracks_ratio(cache):
    metrics = MetricsRegistry()
    key = DerivationKey.of("pepa", "src")
    with use_obs(ObsContext(metrics=metrics)):
        cache.fetch(key)                   # miss
        cache.store(key, {"schema": "x"})
        cache.fetch(key)                   # hit
        cache.fetch(key)                   # hit
    assert metrics.gauge("cache.hit_rate").value == pytest.approx(2 / 3)


class TestStaleSchemaEviction:
    """A cached generator written under an older payload schema must be
    evicted and rebuilt — never silently shadowed (the pre-PR behaviour
    swallowed the decode error and left the stale entry in place)."""

    def _poison(self, cache, child):
        cache.store(child, {"schema": "repro-ctmc/0", "bogus": True})

    def test_stale_ctmc_payload_is_evicted_and_rebuilt(self, cache):
        model = parse_model(SRC)
        with use_cache(cache):
            analyse(model)                      # populate statespace + ctmc
            space = derive(parse_model(SRC))    # cache hit, carries the key
        child = space.cache_key.child("ctmc")
        self._poison(cache, child)

        events, metrics = EventStream(), MetricsRegistry()
        with use_cache(cache), use_obs(ObsContext(metrics=metrics, events=events)):
            warm = analyse(parse_model(SRC))
        assert warm.n_states == space.size
        stale = events.by_name("cache.stale_schema")
        assert len(stale) == 1
        assert stale[0].fields["key"] == child.describe()
        assert stale[0].fields["schema"] == "repro-ctmc/0"
        assert metrics.counter("cache.stale_schema").value == 1
        # the slot was re-published under the current schema
        refreshed = cache.fetch(child)
        assert refreshed is not None and refreshed["schema"] != "repro-ctmc/0"

    def test_stale_entry_is_unlinked_even_without_collectors(self, cache):
        model = parse_model(SRC)
        with use_cache(cache):
            analyse(model)
            space = derive(parse_model(SRC))
        child = space.cache_key.child("ctmc")
        self._poison(cache, child)
        with use_cache(cache):
            analyse(parse_model(SRC))
        refreshed = cache.fetch(child)
        assert refreshed is not None and refreshed["schema"] != "repro-ctmc/0"
