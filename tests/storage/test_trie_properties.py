"""Property-based tests: the trie against a dict + sorted-list model.

Hypothesis drives random insert/overwrite/remove sequences and checks
every Theorem 3.1 feature (lookup-or-successor, predecessor via the dual
structure, iteration order, register accounting) against the obvious
Python model.
"""

from __future__ import annotations

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.function_store import StoredFunction
from repro.storage.trie import HIT, MISS, TrieStore


def keys_strategy(n: int, k: int):
    return st.tuples(*[st.integers(0, n - 1)] * k)


@st.composite
def scenario(draw):
    n = draw(st.sampled_from([1, 2, 4, 9, 16, 27, 50]))
    k = draw(st.sampled_from([1, 2, 3]))
    eps = draw(st.sampled_from([0.3, 0.5, 0.9, 1.0]))
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["add", "del"]), keys_strategy(n, k)),
            min_size=1,
            max_size=60,
        )
    )
    probes = draw(st.lists(keys_strategy(n, k), min_size=1, max_size=10))
    return n, k, eps, ops, probes


@given(scenario())
@settings(max_examples=120, deadline=None)
def test_trie_matches_model(case):
    n, k, eps, ops, probes = case
    store = TrieStore(n, k, eps)
    model: dict[tuple[int, ...], int] = {}
    for op, key in ops:
        if op == "add":
            store.insert(key, sum(key))
            model[key] = sum(key)
        elif key in model:
            store.remove(key)
            del model[key]
        store.check_invariants()
    ordered = sorted(model)
    assert list(store.keys()) == ordered
    assert len(store) == len(model)
    for probe in probes:
        above = bisect.bisect_right(ordered, probe)
        successor = ordered[above] if above < len(ordered) else None
        below = bisect.bisect_left(ordered, probe)
        predecessor = ordered[below - 1] if below > 0 else None
        status, payload = store.lookup(probe)
        if probe in model:
            assert (status, payload) == (HIT, model[probe])
            assert store.successor(probe) == probe
            assert store.predecessor(probe, strict=False) == probe
        else:
            assert (status, payload) == (MISS, successor)
            assert store.successor(probe) == successor
            assert store.predecessor(probe, strict=False) == predecessor
        assert store.successor(probe, strict=True) == successor
        assert store.predecessor(probe) == predecessor


@given(scenario())
@settings(max_examples=80, deadline=None)
def test_stored_function_predecessor_matches_model(case):
    n, k, eps, ops, probes = case
    store = StoredFunction(n, k, eps)
    model: dict[tuple[int, ...], int] = {}
    for op, key in ops:
        if op == "add":
            store[key] = sum(key)
            model[key] = sum(key)
        elif key in model:
            del store[key]
            del model[key]
    store.check_invariants()
    ordered = sorted(model)
    for probe in probes:
        index = bisect.bisect_left(ordered, probe)
        expected = ordered[index - 1] if index > 0 else None
        assert store.predecessor(probe) == expected
        weak = probe if probe in model else expected
        assert store.predecessor(probe, strict=False) == weak
    assert store.max_key() == (ordered[-1] if ordered else None)
    assert store.min_key() == (ordered[0] if ordered else None)


@given(scenario())
@settings(max_examples=60, deadline=None)
def test_register_space_bound(case):
    """Theorem 3.1's space bound: O(|Dom| * d * k * h) registers."""
    n, k, eps, ops, _ = case
    store = TrieStore(n, k, eps)
    model = set()
    for op, key in ops:
        if op == "add":
            store.insert(key, 0)
            model.add(key)
        elif key in model:
            store.remove(key)
            model.discard(key)
    width = store.d + 1
    # every key contributes at most depth arrays; the root is always there
    bound = 1 + width * (1 + store.depth * max(len(model), 1))
    assert store.registers_used <= bound
