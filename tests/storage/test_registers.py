"""Unit tests for the register file (the RAM model of Section 3)."""

import gc
import weakref

from repro.storage.registers import CHILD, GAP, PARENT, RegisterFile


class _Token:
    """Weakref-able payload for the release-last leak regression."""


def test_initial_state():
    registers = RegisterFile()
    assert registers.next_free == 1
    assert registers.used == 1


def test_allocate_returns_consecutive_blocks():
    registers = RegisterFile()
    first = registers.allocate(4)
    second = registers.allocate(4)
    assert first == 1
    assert second == 5
    assert registers.next_free == 9


def test_write_and_read_roundtrip():
    registers = RegisterFile()
    base = registers.allocate(3)
    registers.write(base, CHILD, 42)
    registers.write(base + 1, GAP, (1, 2))
    registers.write(base + 2, PARENT, None)
    assert registers.read(base) == (CHILD, 42)
    assert registers.read(base + 1) == (GAP, (1, 2))
    assert registers.read(base + 2) == (PARENT, None)


def test_release_last_reclaims_space():
    registers = RegisterFile()
    registers.allocate(4)
    registers.allocate(4)
    registers.release_last(4)
    assert registers.next_free == 5
    # the reclaimed block is handed out again
    assert registers.allocate(4) == 5


def test_release_last_clears_freed_cells():
    """Regression: released registers must drop their payloads.

    Before the fix, ``release_last`` only moved ``next_free`` back, so
    every value and successor tuple that ever sat at the high end of the
    file stayed alive through the free pool — a leak on remove-heavy
    workloads.
    """
    registers = RegisterFile()
    base = registers.allocate(2)
    registers.write(base, CHILD, "value")
    registers.write(base + 1, GAP, (1,))
    registers.release_last(2)
    assert registers.dump(base, base + 2) == [(GAP, None), (GAP, None)]


def test_release_last_does_not_leak_payloads():
    registers = RegisterFile()
    token = _Token()
    ref = weakref.ref(token)
    base = registers.allocate(2)
    registers.write(base, CHILD, token)
    registers.write(base + 1, GAP, (3,))
    registers.release_last(2)
    assert registers.next_free == base
    del token
    gc.collect()
    assert ref() is None, "released register kept its payload alive"


def test_dump_reflects_used_registers():
    registers = RegisterFile()
    base = registers.allocate(2)
    registers.write(base, GAP, "a")
    registers.write(base + 1, GAP, "b")
    snapshot = registers.dump(base)
    assert snapshot == [(GAP, "a"), (GAP, "b")]
