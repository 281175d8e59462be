"""Periodic stimuli: the rows of one period plus a length.

A weighted sequence ``T_G`` applies each input's weight ``α`` as
``α^r`` (Section 3) through modulo-``L_S`` FSMs (Figure 1), so it
repeats with the lcm of its weights' minimal periods.
:class:`PeriodicStimulus` describes a stimulus the way that hardware
does: by the rows of one period and the number of cycles ``L`` it runs,
not by its ``L`` unrolled rows.  It is a read-only sequence of rows —
``len()`` is ``L``, row ``u`` is ``rows[u mod P]`` and iteration yields
all ``L`` rows — so every simulator takes it wherever it takes a list
of rows, and steps the same cycles.

This module owns the format:

* the rows kept are always one *minimal* period of the ``L``-row
  window, so :attr:`PeriodicStimulus.period` equals
  :func:`minimal_period` of the materialized rows and the vector
  engine's periodic stop fires on the cycle it fires on for that list;
* :func:`stimulus_period` is the period that stop uses — the object's
  own, or the prefix-function period of a plain row list;
* rows are validated once, when the object is built
  (:func:`validated_rows`, shared with
  :class:`~repro.tgen.sequence.TestSequence`).
"""

from __future__ import annotations

from itertools import cycle, islice
from typing import Iterable, Iterator, List, Sequence, Tuple, TypeVar

from repro.errors import SimulationError
from repro.sim.values import V0, V1, VX, Value

_T = TypeVar("_T")

Row = Tuple[Value, ...]


def validated_rows(patterns: Iterable[Sequence[Value]]) -> Tuple[Row, ...]:
    """``patterns`` as a tuple of row tuples of one width and ternary
    values; a one-line :class:`SimulationError` otherwise."""
    rows = tuple(tuple(p) for p in patterns)
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise SimulationError(f"ragged test sequence: widths {sorted(widths)}")
    for row in rows:
        for value in row:
            if value not in (V0, V1, VX):
                raise SimulationError(f"bad ternary value {value!r} in sequence")
    return rows


def minimal_period(stimulus: Sequence[Sequence[Value]]) -> int:
    """Smallest ``p`` with ``stimulus[u] == stimulus[u + p]`` for every
    ``u + p < len(stimulus)``; the length itself when aperiodic.

    The length minus the longest proper border, from the prefix function
    over the rows (Knuth–Morris–Pratt, O(length)).  A row that is not
    iterable makes the stimulus aperiodic, so validation meets it where
    the oracle does.
    """
    try:
        rows = [tuple(p) for p in stimulus]
    except TypeError:
        return len(stimulus)
    border = [0] * len(rows)
    k = 0
    for i in range(1, len(rows)):
        row = rows[i]
        while k and row != rows[k]:
            k = border[k - 1]
        if row == rows[k]:
            k += 1
        border[i] = k
    return len(rows) - k


class PeriodicStimulus:
    """``length`` cycles of ``rows`` repeated: row ``u`` is
    ``rows[u mod len(rows)]``.

    The object keeps only one minimal period of that window.  When
    ``length >= 2·len(rows) − 1`` it is the primitive root of ``rows``:
    by Fine and Wilf, a window of at least ``2P − 1`` rows of a sequence
    with minimal period ``P`` has no shorter period.  A shorter window
    can have one (``0010`` over five cycles reads ``00100``, of period
    3), so its rows are built and their :func:`minimal_period` kept
    instead.  Either way
    :attr:`period` is what :func:`minimal_period` returns on the ``L``
    rows the object stands for.

    Raises :class:`SimulationError` for malformed rows among the first
    ``length`` (the messages of :func:`validated_rows`), a length that is
    not a non-negative int, or a positive length with no rows.
    """

    __slots__ = ("rows", "_length")

    def __init__(self, rows: Iterable[Sequence[Value]], length: int) -> None:
        if isinstance(length, bool) or not isinstance(length, int) or length < 0:
            raise SimulationError(
                f"stimulus length must be a non-negative int, got {length!r}"
            )
        rows = validated_rows(islice(rows, length))
        if length and not rows:
            raise SimulationError(f"a stimulus of length {length} needs rows")
        span = len(rows)
        if not span or length < 2 * span - 1:
            rows = tuple(rows[u % span] for u in range(length))
            span = minimal_period(rows)
        else:
            root = minimal_period(rows)
            if span % root == 0:
                span = root
        self.rows: Tuple[Row, ...] = rows[:span]
        """One minimal period of the stimulus's rows."""
        self._length = length

    @property
    def period(self) -> int:
        """``P``: the minimal period of the stimulus (0 when empty)."""
        return len(self.rows)

    def tile(self, per_row: Sequence[_T]) -> List[_T]:
        """The ``L``-cycle list of ``per_row[u mod P]``: anything
        computed once per period row, repeated as the rows are."""
        if not self._length:
            return []
        reps, rest = divmod(self._length, len(self.rows))
        return list(per_row) * reps + list(per_row[:rest])

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, u: int) -> Row:
        if u < 0:
            u += self._length
        if not 0 <= u < self._length:
            raise IndexError(f"cycle {u} outside a stimulus of length {self._length}")
        return self.rows[u % len(self.rows)]

    def __iter__(self) -> Iterator[Row]:
        return islice(cycle(self.rows), self._length)

    def __repr__(self) -> str:
        return f"PeriodicStimulus(period={self.period}, len={self._length})"


def stimulus_period(stimulus: Sequence[Sequence[Value]]) -> int:
    """The minimal period of ``stimulus``: a :class:`PeriodicStimulus`
    carries its own, a list of rows is searched (:func:`minimal_period`)."""
    if isinstance(stimulus, PeriodicStimulus):
        return stimulus.period
    return minimal_period(stimulus)
