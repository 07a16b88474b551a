"""Result-cache unit tests: LRU mechanics and fingerprint semantics."""

import numpy as np
import pytest

from repro.core.encoding import encode_query
from repro.host.scan import PackedDatabase
from repro.service.cache import (
    ResultCache,
    database_fingerprint,
    query_fingerprint,
)


def _key(tag, threshold=10):
    return (f"qfp-{tag}", "dbfp", threshold, "bitscore_batch")


def test_get_put_and_counters():
    cache = ResultCache(max_entries=4)
    assert cache.get(_key("a")) is None
    cache.put(_key("a"), ["ra"])
    assert cache.get(_key("a")) == ["ra"]
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["hit_ratio"] == 0.5
    assert len(cache) == 1


def test_lru_eviction_order():
    cache = ResultCache(max_entries=2)
    cache.put(_key("a"), ["ra"])
    cache.put(_key("b"), ["rb"])
    assert cache.get(_key("a")) == ["ra"]  # refresh a; b is now oldest
    cache.put(_key("c"), ["rc"])
    assert cache.get(_key("b")) is None  # evicted
    assert cache.get(_key("a")) == ["ra"]
    assert cache.get(_key("c")) == ["rc"]
    assert cache.stats()["evictions"] == 1


def test_distinct_thresholds_are_distinct_entries():
    cache = ResultCache(max_entries=4)
    cache.put(_key("a", threshold=10), ["t10"])
    cache.put(_key("a", threshold=12), ["t12"])
    assert cache.get(_key("a", threshold=10)) == ["t10"]
    assert cache.get(_key("a", threshold=12)) == ["t12"]


def test_zero_entries_disables_caching():
    cache = ResultCache(max_entries=0)
    cache.put(_key("a"), ["ra"])
    assert cache.get(_key("a")) is None
    assert len(cache) == 0


def test_clear():
    cache = ResultCache(max_entries=4)
    cache.put(_key("a"), ["ra"])
    cache.clear()
    assert cache.get(_key("a")) is None


def test_rejects_negative_bound():
    with pytest.raises(ValueError):
        ResultCache(max_entries=-1)


def test_query_fingerprint_tracks_instructions():
    a1 = query_fingerprint(encode_query("MFR"))
    a2 = query_fingerprint(encode_query("MFR"))
    b = query_fingerprint(encode_query("MFW"))
    assert a1 == a2
    assert a1 != b
    assert len(a1) == 64  # sha256 hex


def test_query_fingerprint_is_pinned():
    """Cache keys must not move with how a query's instructions are stored."""
    assert query_fingerprint(encode_query("MKVLAWRS*")) == (
        "8096d658a7e76fec38893d6f7fb94658a3a81229b003b9055331084826e67241"
    )


def _packed(texts, names=None):
    return PackedDatabase.from_references(texts, names)


def test_database_fingerprint_tracks_content_and_names():
    fp1 = database_fingerprint(_packed(["AUGUUUCGU", "AUGAAACCC"]))
    fp2 = database_fingerprint(_packed(["AUGUUUCGU", "AUGAAACCC"]))
    assert fp1 == fp2
    # Different sequence content -> different database identity.
    changed = database_fingerprint(_packed(["AUGUUUCGU", "AUGAAACCA"]))
    assert changed != fp1
    # Same content, different names -> still a different identity.
    renamed = database_fingerprint(
        _packed(["AUGUUUCGU", "AUGAAACCC"], names=["x", "y"])
    )
    assert renamed != fp1


def test_database_fingerprint_swap_invalidates_key():
    """The db half of the cache key is all the invalidation there is."""
    query = encode_query("MFR")
    old = _packed(["AUGUUUCGU"])
    new = _packed(["AUGUUUCGC"])
    cache = ResultCache(max_entries=4)
    old_key = (query_fingerprint(query), database_fingerprint(old), 9, "bitscore")
    cache.put(old_key, ["old-results"])
    new_key = (query_fingerprint(query), database_fingerprint(new), 9, "bitscore")
    assert cache.get(new_key) is None  # nothing stale crosses the swap
    assert cache.get(old_key) == ["old-results"]


def test_fingerprint_uses_packed_buffer():
    db = _packed(["AUGUUUCGU"])
    before = database_fingerprint(db)
    tampered = PackedDatabase(
        names=db.names,
        lengths=db.lengths,
        byte_offsets=db.byte_offsets,
        buffer=np.array(db.buffer ^ 1, dtype=db.buffer.dtype),
    )
    assert database_fingerprint(tampered) != before
