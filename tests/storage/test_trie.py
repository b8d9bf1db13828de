"""Unit tests for the Storing Theorem trie (Theorem 3.1)."""

import gc
import pickle
import random
import weakref

import pytest

from repro.storage.trie import HIT, MISS, TrieStore


class _Token:
    """Weakref-able stored value for the removal leak regression."""


def make_store(n=27, k=1, eps=1 / 3):
    return TrieStore(n, k, eps)


class TestParameters:
    def test_branching_factor_matches_paper(self):
        # the paper's example: n=27, eps=1/3 -> d=3, h=3
        store = make_store()
        assert store.d == 3
        assert store.h == 3
        assert store.depth == 3

    def test_d_power_h_covers_n(self):
        for n in (2, 5, 10, 100, 1000):
            for eps in (0.25, 0.4, 0.51, 1.0):
                store = TrieStore(n, 1, eps)
                assert store.d ** store.h >= n

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            TrieStore(0, 1, 0.5)
        with pytest.raises(ValueError):
            TrieStore(5, 0, 0.5)
        with pytest.raises(ValueError):
            TrieStore(5, 1, 0.0)
        with pytest.raises(ValueError):
            TrieStore(5, 1, 1.5)


class TestLookup:
    def test_empty_store_misses_with_null(self):
        store = make_store()
        assert store.lookup((5,)) == (MISS, None)

    def test_hit_returns_value(self):
        store = make_store()
        store.insert((5,), "five")
        assert store.lookup((5,)) == (HIT, "five")

    def test_miss_returns_successor(self):
        store = make_store()
        for x in (2, 4, 5, 19, 24, 25):
            store.insert((x,), x)
        assert store.lookup((3,)) == (MISS, (4,))
        assert store.lookup((6,)) == (MISS, (19,))
        assert store.lookup((20,)) == (MISS, (24,))
        assert store.lookup((26,)) == (MISS, None)

    def test_out_of_range_key_rejected(self):
        store = make_store()
        with pytest.raises(ValueError):
            store.lookup((27,))
        with pytest.raises(ValueError):
            store.lookup((-1,))

    def test_wrong_arity_rejected(self):
        store = make_store()
        with pytest.raises(ValueError):
            store.lookup((1, 2))


class TestInsert:
    def test_insert_reports_newness(self):
        store = make_store()
        assert store.insert((3,), "a") is True
        assert store.insert((3,), "b") is False
        assert store.lookup((3,)) == (HIT, "b")

    def test_size_tracks_domain(self):
        store = make_store()
        for x in (1, 2, 3):
            store.insert((x,), x)
        store.insert((2,), 20)  # overwrite: no growth
        assert len(store) == 3

    def test_gap_cells_updated_on_insert(self):
        store = make_store()
        store.insert((20,), 20)
        assert store.lookup((0,)) == (MISS, (20,))
        store.insert((10,), 10)
        assert store.lookup((0,)) == (MISS, (10,))
        assert store.lookup((11,)) == (MISS, (20,))
        store.check_invariants()


class TestRemove:
    def test_remove_returns_value(self):
        store = make_store()
        store.insert((7,), "seven")
        assert store.remove((7,)) == "seven"
        assert store.lookup((7,)) == (MISS, None)

    def test_remove_missing_raises(self):
        store = make_store()
        with pytest.raises(KeyError):
            store.remove((7,))

    def test_remove_repairs_gap_cells(self):
        store = make_store()
        for x in (2, 4, 5, 19, 24, 25):
            store.insert((x,), x)
        store.remove((19,))
        assert store.lookup((6,)) == (MISS, (24,))
        assert store.lookup((19,)) == (MISS, (24,))
        store.check_invariants()

    def test_remove_compacts_registers(self):
        # the paper's removal example: dropping 19 frees one array
        store = make_store()
        for x in (2, 4, 5, 19, 24, 25):
            store.insert((x,), x)
        before = store.registers_used
        store.remove((19,))
        assert store.registers_used == before - (store.d + 1)
        store.check_invariants()

    def test_remove_everything_returns_to_root_only(self):
        store = make_store()
        keys = [(2,), (4,), (19,)]
        for key in keys:
            store.insert(key, 0)
        for key in keys:
            store.remove(key)
        # only the root array + R_0 remain
        assert store.registers_used == 1 + (store.d + 1)
        assert store.lookup((0,)) == (MISS, None)
        store.check_invariants()


class TestSuccessorPredecessor:
    def test_successor_strict_and_weak(self):
        store = make_store()
        for x in (2, 4, 19):
            store.insert((x,), x)
        assert store.successor((2,)) == (2,)
        assert store.successor((2,), strict=True) == (4,)
        assert store.successor((26,), strict=True) is None
        assert store.successor((0,)) == (2,)

    def test_predecessor(self):
        store = make_store()
        for x in (2, 4, 19):
            store.insert((x,), x)
        assert store.predecessor((4,)) == (2,)
        assert store.predecessor((4,), strict=False) == (4,)
        assert store.predecessor((2,)) is None
        assert store.predecessor((26,)) == (19,)

    def test_min_key(self):
        store = make_store()
        assert store.min_key() is None
        store.insert((9,), 1)
        assert store.min_key() == (9,)


class TestBinaryKeys:
    def test_lexicographic_order_of_pairs(self):
        store = TrieStore(10, 2, 0.5)
        keys = [(1, 9), (2, 0), (2, 5), (7, 1)]
        for key in keys:
            store.insert(key, str(key))
        assert store.successor((1, 9), strict=True) == (2, 0)
        assert store.successor((2, 1)) == (2, 5)
        assert store.lookup((0, 0)) == (MISS, (1, 9))
        assert list(store.keys()) == sorted(keys)
        store.check_invariants()

    def test_items_iterates_in_order(self):
        store = TrieStore(6, 2, 0.5)
        keys = [(5, 5), (0, 1), (3, 2)]
        for key in keys:
            store.insert(key, sum(key))
        assert list(store.items()) == [(k, sum(k)) for k in sorted(keys)]


class TestSpace:
    def test_space_linear_in_domain(self):
        # Theorem 3.1: at most c * |Dom| * n^eps registers
        n, eps = 256, 0.5
        store = TrieStore(n, 1, eps)
        for x in range(0, n, 7):
            store.insert((x,), x)
        domain = len(store)
        bound = 4 * (store.d + 1) * store.h * domain + store.d + 2
        assert store.registers_used <= bound


def test_remove_releases_stored_values():
    store = TrieStore(16, 2, 0.5)
    token = _Token()
    ref = weakref.ref(token)
    store.insert((3, 4), token)
    store.insert((5, 6), 0)
    store.remove((3, 4))
    store.check_invariants()
    del token
    gc.collect()
    assert ref() is None, "removed key kept its value alive"


@pytest.mark.parametrize(
    "n,k,eps",
    [(1, 1, 0.5), (1, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0), (3, 2, 1.0)],
)
def test_degenerate_parameters(n, k, eps):
    store = TrieStore(n, k, eps)
    assert store.d >= 2  # the normalized branching factor
    keys = sorted({tuple((i + j) % n for j in range(k)) for i in range(n + 1)})
    for key in keys:
        store.insert(key, sum(key))
    store.check_invariants()
    assert list(store.keys()) == keys
    for key in keys:
        assert store.lookup(key) == (HIT, sum(key))
    assert store.successor(keys[0]) == keys[0]
    assert store.successor(keys[-1], strict=True) is None
    assert store.predecessor(keys[-1], strict=False) == keys[-1]
    for key in keys:
        store.remove(key)
    store.check_invariants()
    assert len(store) == 0


def test_validation_on_bad_keys():
    store = TrieStore(9, 2, 0.5)
    store.insert((1, 2), 5)
    for bad_arity in [(), (1,), (1, 2, 3)]:
        with pytest.raises(ValueError):
            store.lookup(bad_arity)
    for bad in [(9, 0), (0, 9), (0, -1), (-1, 0)]:
        with pytest.raises(ValueError):
            store.lookup(bad)
        with pytest.raises(ValueError):
            store.successor(bad)
        with pytest.raises(ValueError):
            store.successor(bad, strict=True)


def test_bulk_load_matches_sorted_incremental_inserts():
    rng = random.Random(5)
    keys = sorted({tuple(rng.randrange(27) for _ in range(2)) for _ in range(60)})
    pairs = [(key, i) for i, key in enumerate(keys)]
    bulk = TrieStore(27, 2, 1 / 3)
    assert bulk.bulk_load(pairs) == len(pairs)
    bulk.check_invariants()
    incremental = TrieStore(27, 2, 1 / 3)
    for key, value in pairs:
        incremental.insert(key, value)
    assert bulk.registers.dump() == incremental.registers.dump()
    assert list(bulk.keys()) == list(incremental.keys())


def test_pickle_round_trip():
    store = TrieStore(27, 2, 1 / 3)
    for i in range(40):
        store.insert((i % 27, (i * 7) % 27), i)
    clone = pickle.loads(pickle.dumps(store))
    clone.check_invariants()
    assert clone.registers.dump() == store.registers.dump()
    assert list(clone.keys()) == list(store.keys())
    # the loaded store stays updatable
    clone.insert((26, 26), "post-load")
    assert clone.lookup((26, 26)) == (HIT, "post-load")
