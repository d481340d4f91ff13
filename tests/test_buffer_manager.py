"""Unit tests for the buffer manager: reservations + LRU data cache."""

import pytest

from repro.core.devices import BufferPool, GrantOversubscribedError, LRUDataCache


def make_manager(total=100):
    return BufferPool(total)


# ----------------------------------------------------------------------
# LRU cache
# ----------------------------------------------------------------------
def test_lru_evicts_least_recently_used():
    cache = LRUDataCache(3)
    cache.insert(0, 1, 1)
    cache.insert(0, 2, 1)
    cache.insert(0, 3, 1)
    assert cache.contains_all(0, 1, 1)  # touch page 1 -> MRU
    cache.insert(0, 4, 1)  # evicts page 2 (the LRU)
    assert cache.contains_all(0, 1, 1)
    assert not cache.contains_all(0, 2, 1)
    assert cache.contains_all(0, 3, 1)


def test_lru_shrinking_capacity_evicts():
    cache = LRUDataCache(5)
    cache.insert(0, 0, 5)
    cache.capacity = 2
    assert len(cache) == 2


def test_lru_zero_capacity_accepts_nothing():
    cache = LRUDataCache(0)
    cache.insert(0, 0, 3)
    assert len(cache) == 0


def test_lru_counts_hits_and_misses():
    cache = LRUDataCache(10)
    cache.insert(0, 0, 4)
    assert cache.contains_all(0, 0, 4)
    assert not cache.contains_all(0, 2, 4)
    assert cache.hits == 1
    assert cache.misses == 1


def test_lru_keys_by_disk():
    cache = LRUDataCache(10)
    cache.insert(0, 7, 1)
    assert not cache.contains_all(1, 7, 1)


# ----------------------------------------------------------------------
# reservations
# ----------------------------------------------------------------------
def test_apply_allocation_tracks_reservations():
    manager = make_manager(100)
    manager.apply({1: 40, 2: 30})
    assert manager.reserved_pages == 70
    assert manager.free_pages == 30
    assert manager.reservation_of(1) == 40
    assert manager.reservation_of(99) == 0


def test_oversubscription_fails_loudly():
    manager = make_manager(100)
    with pytest.raises(GrantOversubscribedError):
        manager.apply({1: 60, 2: 60})


def test_release_returns_pages():
    manager = make_manager(100)
    manager.apply({1: 40, 2: 30})
    manager.release(1)
    assert manager.reserved_pages == 30
    manager.release(1)  # idempotent
    assert manager.reserved_pages == 30


def test_allocation_replaces_previous_vector():
    manager = make_manager(100)
    manager.apply({1: 40, 2: 30})
    manager.apply({2: 50})
    assert manager.reservation_of(1) == 0
    assert manager.reservation_of(2) == 50


def test_cache_capacity_follows_free_pages():
    manager = make_manager(100)
    manager.install(0, 0, 80)
    assert len(manager.cache) == 80
    manager.apply({1: 90})
    # Reservations squeezed the cache down to 10 pages.
    assert manager.cache.capacity == 10
    assert len(manager.cache) == 10


def test_read_hit_roundtrip():
    manager = make_manager(100)
    assert not manager.read_hit(0, 10, 6)
    manager.install(0, 10, 6)
    assert manager.read_hit(0, 10, 6)


def test_zero_pool_rejected():
    with pytest.raises(ValueError):
        make_manager(0)
