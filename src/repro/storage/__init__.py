"""The Storing Theorem data structure (Theorem 3.1 / Section 7).

A register-level implementation of the paper's trie: a partial ``k``-ary
function over ``[n]^k`` stored in ``O(|Dom(f)| * n^eps)`` registers with
constant-time *lookup-or-successor*, and ``O(n^eps)`` insert/remove.

:class:`~repro.storage.function_store.StoredFunction` is the public facade;
it also maintains the dual (reverse-order) trie the paper uses for
predecessor queries (Section 7.2.2).  Every trie keeps its registers in
one :class:`~repro.storage.registers.RegisterFile`, the RAM model of
Section 2; see ``docs/storage.md``.
"""

from repro.storage.function_store import StoredFunction
from repro.storage.registers import RegisterFile
from repro.storage.trie import HIT, MISS, TrieStore

__all__ = [
    "HIT",
    "MISS",
    "RegisterFile",
    "StoredFunction",
    "TrieStore",
]
