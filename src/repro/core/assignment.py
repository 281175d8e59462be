"""Weight assignments and weighted sequence generation (Section 4.1).

A weight assignment ``w = {α_i : 1 <= i <= n}`` gives every primary
input one weight.  Applying it for ``L_G`` cycles produces the weighted
test sequence ``T_G`` where input ``i`` receives ``α_i^r`` — this is
exactly what the hardware of Figure 1 applies, with all weight FSMs
starting from their reset state (phase 0).

``T_G`` is periodic: input ``i`` repeats with the length of ``α_i``'s
canonical form, so the whole sequence repeats with the lcm ``P`` of
those lengths.  :meth:`WeightAssignment.stimulus` therefore builds
only ``min(P, L_G)`` rows and hands the simulators a
:class:`~repro.sim.stimulus.PeriodicStimulus`, which keeps one minimal
period of them; every consumer in the procedure, reverse-order
simulation, observation-point analysis and the optimizer takes that
object as it is.  An assignment with the pseudo-random weight has no
such period: its ``L_G`` rows are drawn and the object keeps their
minimal period.  :meth:`WeightAssignment.generate` is the same
sequence as a :class:`~repro.tgen.sequence.TestSequence` of ``L_G``
rows, for callers that read rows.
"""

from __future__ import annotations

from math import lcm
from typing import Optional, Sequence, Tuple, Union

from repro.core.weight import RandomWeight, Weight
from repro.errors import WeightError
from repro.sim.stimulus import PeriodicStimulus
from repro.tgen.sequence import TestSequence
from repro.util.rng import DeterministicRng

AnyWeight = Union[Weight, RandomWeight]


class WeightAssignment:
    """An immutable per-input weight assignment.

    Parameters
    ----------
    weights:
        One weight per primary input, in port order.
    """

    __slots__ = ("_weights",)

    def __init__(self, weights: Sequence[AnyWeight]) -> None:
        if not weights:
            raise WeightError("a weight assignment needs at least one input")
        self._weights: Tuple[AnyWeight, ...] = tuple(weights)

    @classmethod
    def from_strings(cls, texts: Sequence[str]) -> "WeightAssignment":
        """Build from subsequence strings, e.g. ``["01", "0", "100", "1"]``.

        The string ``"R"`` denotes the pseudo-random weight.
        """
        weights: list[AnyWeight] = []
        for text in texts:
            if text == "R":
                weights.append(RandomWeight())
            else:
                weights.append(Weight.from_string(text))
        return cls(weights)

    # -- accessors ---------------------------------------------------------

    @property
    def weights(self) -> Tuple[AnyWeight, ...]:
        """The per-input weights."""
        return self._weights

    @property
    def width(self) -> int:
        """Number of inputs covered."""
        return len(self._weights)

    @property
    def max_length(self) -> int:
        """Longest subsequence in the assignment."""
        return max(w.length for w in self._weights)

    @property
    def has_random(self) -> bool:
        """True if any input uses the pseudo-random weight."""
        return any(w.is_random for w in self._weights)

    def deterministic_weights(self) -> Tuple[Weight, ...]:
        """The non-random weights of this assignment."""
        return tuple(w for w in self._weights if not w.is_random)

    # -- generation ----------------------------------------------------------

    def stimulus(
        self, length: int, rng: Optional[DeterministicRng] = None
    ) -> PeriodicStimulus:
        """The weighted test sequence ``T_G`` of ``length`` cycles, as one
        period of rows plus its length.

        Every weight expands from phase 0, matching the hardware's FSM
        reset between weight assignments.  ``rng`` is required only when
        the assignment contains the pseudo-random weight, whose draws
        take the same order as :meth:`generate`'s.
        """
        if self.has_random:
            if rng is None:
                raise WeightError("assignment contains RandomWeight: rng required")
            span = length
        else:
            span = min(
                lcm(*(w.canonical().length for w in self._weights)), length
            )
        columns = [w.expand(span, rng) for w in self._weights]
        return PeriodicStimulus(zip(*columns), length)

    def generate(
        self, length: int, rng: Optional[DeterministicRng] = None
    ) -> TestSequence:
        """:meth:`stimulus` as a :class:`TestSequence` of ``length`` rows."""
        return TestSequence(self.stimulus(length, rng))

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightAssignment):
            return NotImplemented
        return self._weights == other._weights

    def __hash__(self) -> int:
        return hash(self._weights)

    def __len__(self) -> int:
        return len(self._weights)

    def __getitem__(self, i: int) -> AnyWeight:
        return self._weights[i]

    def __repr__(self) -> str:
        return f"WeightAssignment({', '.join(str(w) for w in self._weights)})"

    def __str__(self) -> str:
        return "{" + ", ".join(str(w) for w in self._weights) + "}"
