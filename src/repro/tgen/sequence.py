"""The :class:`TestSequence` value type.

A test sequence ``T`` is a time-ordered list of primary-input patterns.
The paper's notation is mirrored directly:

* ``T(u)`` — the pattern at time unit ``u`` → :meth:`TestSequence.at`.
* ``T_i`` — the sequence restricted to input ``i`` →
  :meth:`TestSequence.restrict`.
* ``T_i(u)`` — one value → :meth:`TestSequence.value`.

Sequences are immutable; all edits produce new instances.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

from repro.sim.stimulus import validated_rows
from repro.sim.values import Value, resolve_char, to_char


class TestSequence:
    """An immutable sequence of primary-input patterns.

    Parameters
    ----------
    patterns:
        One tuple of ternary values per time unit; all tuples must have
        the same width (the number of primary inputs).
    """

    __slots__ = ("_patterns", "_columns")

    #: Not a pytest test class despite the name.
    __test__ = False

    def __init__(self, patterns: Iterable[Sequence[Value]]) -> None:
        self._patterns: Tuple[Tuple[Value, ...], ...] = validated_rows(patterns)
        self._columns: Tuple[Tuple[Value, ...], ...] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> "TestSequence":
        """Build from strings of ``0``/``1``/``x``, one per time unit.

        >>> TestSequence.from_strings(["0111", "1001"]).value(1, 0)
        1
        """
        return cls([tuple(resolve_char(c) for c in row) for row in rows])

    @classmethod
    def empty(cls, width: int) -> "TestSequence":
        """A zero-length sequence of the given input width.

        The width is not recoverable from an empty sequence; callers
        that need it should track it separately.
        """
        del width  # width only documents intent; an empty sequence is width-free
        return cls([])

    # -- paper notation -----------------------------------------------------

    def at(self, u: int) -> Tuple[Value, ...]:
        """``T(u)``: the pattern applied at time unit ``u``."""
        return self._patterns[u]

    def value(self, u: int, i: int) -> Value:
        """``T_i(u)``: the value input ``i`` receives at time ``u``."""
        return self._patterns[u][i]

    def restrict(self, i: int) -> Tuple[Value, ...]:
        """``T_i``: the whole sequence restricted to input ``i``.

        The columns are transposed once, on the first call: the
        procedure restricts ``T`` at every detection time it visits.
        """
        if not self._patterns:
            return ()
        if self._columns is None:
            self._columns = tuple(zip(*self._patterns))
        return self._columns[i]

    @property
    def width(self) -> int:
        """Number of primary inputs (0 for an empty sequence)."""
        return len(self._patterns[0]) if self._patterns else 0

    # -- editing (all return new sequences) ----------------------------------

    def append(self, pattern: Sequence[Value]) -> "TestSequence":
        """Sequence extended by one pattern."""
        return TestSequence(self._patterns + (tuple(pattern),))

    def concat(self, other: "TestSequence") -> "TestSequence":
        """Concatenation ``self`` then ``other``."""
        return TestSequence(self._patterns + other._patterns)

    def prefix(self, length: int) -> "TestSequence":
        """The first ``length`` patterns."""
        return TestSequence(self._patterns[:length])

    def drop_time_unit(self, u: int) -> "TestSequence":
        """Sequence with time unit ``u`` omitted (used by compaction)."""
        return TestSequence(self._patterns[:u] + self._patterns[u + 1 :])

    # -- misc ---------------------------------------------------------------

    def to_strings(self) -> Tuple[str, ...]:
        """Render as ``0``/``1``/``x`` strings, one per time unit."""
        return tuple("".join(to_char(v) for v in row) for row in self._patterns)

    @property
    def patterns(self) -> Tuple[Tuple[Value, ...], ...]:
        """The raw pattern tuples (what simulators consume)."""
        return self._patterns

    def __iter__(self) -> Iterator[Tuple[Value, ...]]:
        return iter(self._patterns)

    def __len__(self) -> int:
        return len(self._patterns)

    def __getitem__(self, u: int) -> Tuple[Value, ...]:
        return self._patterns[u]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TestSequence):
            return NotImplemented
        return self._patterns == other._patterns

    def __hash__(self) -> int:
        return hash(self._patterns)

    def __repr__(self) -> str:
        return f"TestSequence(len={len(self)}, width={self.width})"
