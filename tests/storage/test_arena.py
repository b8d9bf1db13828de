"""Differential test of the register trie's construction paths.

A trie edited op by op, its pickle round-trip copy and a fresh trie
bulk-loaded with the same final contents are three independent routes to
one key set.  They must give the same Theorem 3.1 answers (lookup,
successor, predecessor, iteration order) as each other and as the
obvious dict + sorted-list model.  The copy must also hold the same
register cells as the original.
"""

from __future__ import annotations

import bisect
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

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
            max_size=50,
        )
    )
    probes = draw(st.lists(keys_strategy(n, k), min_size=1, max_size=10))
    return n, k, eps, ops, probes


@given(scenario())
@settings(max_examples=100, deadline=None)
def test_layouts_match_each_other_and_the_model(case):
    n, k, eps, ops, probes = case
    edited = TrieStore(n, k, eps)
    model: dict[tuple[int, ...], int] = {}
    for op, key in ops:
        if op == "add":
            edited.insert(key, sum(key))
            model[key] = sum(key)
        elif key in model:
            edited.remove(key)
            del model[key]
        edited.check_invariants()
    clone = pickle.loads(pickle.dumps(edited))
    clone.check_invariants()
    bulk = TrieStore(n, k, eps)
    assert bulk.bulk_load(model.items()) == len(model)
    bulk.check_invariants()
    # register-level identity of the copy: same cells, same accounting
    assert clone.registers.dump() == edited.registers.dump()
    assert clone.registers_used == edited.registers_used
    ordered = sorted(model)
    stores = (edited, clone, bulk)
    for store in stores:
        assert list(store.keys()) == ordered
        assert len(store) == len(model)
    for probe in probes:
        status, payload = edited.lookup(probe)
        if probe in model:
            assert (status, payload) == (HIT, model[probe])
        else:
            index = bisect.bisect_right(ordered, probe)
            expected = ordered[index] if index < len(ordered) else None
            assert (status, payload) == (MISS, expected)
        for store in stores[1:]:
            assert store.lookup(probe) == (status, payload)
            for strict in (False, True):
                assert store.successor(probe, strict=strict) == edited.successor(
                    probe, strict=strict
                )
                assert store.predecessor(
                    probe, strict=strict
                ) == edited.predecessor(probe, strict=strict)
