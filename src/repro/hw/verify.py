"""Replay equivalence check for synthesized TPGs.

The strongest possible check of the Figure-1 construction: simulate the
TPG netlist gate-by-gate and compare its output stream, cycle-exact,
against the software expansion of every weight assignment.  This ties
together the netlist IR, the logic simulator, the QM minimizer, the FSM
construction and the weighted-sequence semantics — if any of them is
wrong, this fails.

The protocol is a serial one: ``reset = 1`` for one cycle, then
``reset = 0`` for ``m * L_G`` cycles, and output cycle
``1 + j * L_G + t`` must equal value ``t`` of assignment ``j``'s
weighted sequence.  :func:`verify_tpg` gives exactly the serial
replay's verdict without replaying ``m * L_G`` cycles in a row.  It
simulates the reset cycle, then runs every assignment window at once,
window ``j`` as lane ``j`` of one ``L_G``-cycle
:meth:`~repro.sim.logicsim.LogicSimulator.run_lanes` pass.  Lane ``j``
starts from :meth:`~repro.hw.tpg.TpgDesign.window_start`: the state a
correct generator holds when window ``j`` begins.

**Why the verdict is exact.**  With ``reset`` held at 0 the generator's
outputs and next state are functions of its present state alone, so a
window's outputs and end state follow from its start state.  Call a
window's start *proven* when it equals the state the serial replay
holds at that window's first cycle.  Window 0 starts from the state
the simulated reset cycle leaves, so it is proven.  If window ``j``'s
start is proven, lane ``j`` emits the serial replay's outputs for
window ``j`` and ends in the serial replay's state at window ``j + 1``'s
first cycle.  So window ``j + 1``'s start is proven when it equals
window ``j``'s end state, ternary value for ternary value.  By
induction, a pass proves a chain of windows from the lowest unproven
one up to the first lane ``k`` whose start differs from window
``k - 1``'s end.  Lane ``k`` then restarts from that end state, which
is proven, and the next pass runs with the later lanes still on their
guesses.  Every pass proves at least one window, so a broken design
costs at most ``m`` passes.  Mismatches are read off proven lanes only,
one window after another in (window, cycle, port) order, so the result
equals the serial replay's: the same records in the same order, cut
off at the same ``max_mismatches``.  A correct design replays
``L_G + 1`` cycles: the reset cycle and one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.assignment import AnyWeight
from repro.errors import HardwareError
from repro.hw.tpg import TpgDesign
from repro.sim.logicsim import LogicSimulator, Rails
from repro.sim.values import VX


@dataclass(frozen=True)
class TpgMismatch:
    """One cycle where the TPG deviated from the expected sequence.

    Attributes
    ----------
    assignment_index / time:
        Which assignment and which of its cycles.
    port:
        The CUT input (PO index) that deviated.
    expected / actual:
        Values (ternary ints).
    """

    assignment_index: int
    time: int
    port: int
    expected: int
    actual: int


@dataclass(frozen=True)
class TpgVerification:
    """Result of :func:`verify_tpg`.

    Attributes
    ----------
    ok:
        True iff the TPG replayed every assignment exactly.
    cycles_checked:
        Total output cycles compared.
    mismatches:
        Every deviation found (empty when ``ok``).
    """

    ok: bool
    cycles_checked: int
    mismatches: Tuple[TpgMismatch, ...]


def verify_tpg(design: TpgDesign, max_mismatches: int = 16) -> TpgVerification:
    """Simulate ``design`` and compare against the software sequences.

    Returns the serial replay's verdict (see the module docstring):
    every output cycle ``1 + j * l_g + t`` after one reset cycle is
    compared with value ``t`` of assignment ``j``'s weighted sequence,
    and the first ``max_mismatches`` deviations are reported.

    Raises
    ------
    HardwareError
        If the design has no assignments or an ``l_g`` below 1 (no
        cycle to compare), or if an assignment's width differs from the
        netlist's output count (nothing to compare port by port).
    """
    if not design.assignments:
        raise HardwareError("TPG design has no assignments to verify")
    if design.l_g < 1:
        raise HardwareError(
            f"TPG design has L_G = {design.l_g}; it must be at least 1"
        )
    n_ports = len(design.circuit.outputs)
    for j, assignment in enumerate(design.assignments):
        if assignment.width != n_ports:
            raise HardwareError(
                f"assignment {j} drives {assignment.width} inputs, "
                f"but the TPG netlist has {n_ports} outputs"
            )
    sim = LogicSimulator(design.circuit)
    n_ff = len(design.circuit.flops)
    _, reset_state = sim.run_lanes([((1, 0),)], [(0, 0)] * n_ff, 1)
    total = design.total_cycles
    m = design.n_assignments
    mask = (1 << m) - 1
    expected = _expected_rails(design, mask)
    start = _start_rails(design, reset_state)
    stimulus = [((0, mask),)] * design.l_g

    mismatches: List[TpgMismatch] = []
    base = 0  # every window below ``base`` is proven and compared
    while base < m:
        outputs, end = sim.run_lanes(stimulus, start, m)
        # Bit k of ``differ`` (k > base): lane k's start is not lane
        # k - 1's end.  Lanes base .. top - 1 are proven.
        differ = 0
        for (so, sz), (eo, ez) in zip(start, end):
            differ |= (so ^ (eo << 1)) | (sz ^ (ez << 1))
        differ &= mask & ~((2 << base) - 1)
        top = (differ & -differ).bit_length() - 1 if differ else m
        if outputs != expected:
            for j in range(base, top):
                _compare_lane(j, outputs, expected, mismatches, max_mismatches)
                if len(mismatches) >= max_mismatches:
                    return TpgVerification(
                        ok=False,
                        cycles_checked=total,
                        mismatches=tuple(mismatches),
                    )
        if top < m:
            bit = 1 << top
            start = [
                ((so & ~bit) | ((eo << 1) & bit), (sz & ~bit) | ((ez << 1) & bit))
                for (so, sz), (eo, ez) in zip(start, end)
            ]
        base = top
    return TpgVerification(
        ok=not mismatches,
        cycles_checked=total,
        mismatches=tuple(mismatches),
    )


def _expected_rails(design: TpgDesign, mask: int) -> List[Tuple[Rails, ...]]:
    """Per window cycle, the rails every output port must carry: lane
    ``j`` holds value ``t`` of assignment ``j``'s weighted sequence.

    Each port's column is expanded once per distinct weight on that
    port, not once per window.
    """
    n_ports = len(design.circuit.outputs)
    ones = [[0] * n_ports for _ in range(design.l_g)]
    for port in range(n_ports):
        lanes: Dict[AnyWeight, int] = {}
        for j, assignment in enumerate(design.assignments):
            weight = assignment.weights[port]
            lanes[weight] = lanes.get(weight, 0) | (1 << j)
        for weight, word in lanes.items():
            for t, value in enumerate(design.expected_column(port, weight)):
                if value:
                    ones[t][port] |= word
    return [tuple((word, mask ^ word) for word in row) for row in ones]


def _start_rails(design: TpgDesign, reset_state: Tuple[Rails, ...]) -> List[Rails]:
    """Per flip-flop, the rails of every lane's start state: lane 0 the
    state the reset cycle left, lane ``j`` window ``j``'s guessed
    start (:meth:`~repro.hw.tpg.TpgDesign.window_start`)."""
    start = [list(rails) for rails in reset_state]
    for j in range(1, design.n_assignments):
        for rails, value in zip(start, design.window_start(j)):
            rails[0 if value else 1] |= 1 << j  # (ones, zeros)
    return [(ones, zeros) for ones, zeros in start]


def _compare_lane(
    lane: int,
    outputs: List[Tuple[Rails, ...]],
    expected: List[Tuple[Rails, ...]],
    mismatches: List[TpgMismatch],
    max_mismatches: int,
) -> None:
    """Append lane ``lane``'s deviations in (cycle, port) order, up to
    ``max_mismatches`` records in all."""
    bit = 1 << lane
    for t, (row, want) in enumerate(zip(outputs, expected)):
        for port, ((ones, zeros), (want_ones, _)) in enumerate(zip(row, want)):
            value = 1 if want_ones & bit else 0
            if (ones if value else zeros) & bit:
                continue
            mismatches.append(
                TpgMismatch(
                    assignment_index=lane,
                    time=t,
                    port=port,
                    expected=value,
                    actual=1 if ones & bit else 0 if zeros & bit else VX,
                )
            )
            if len(mismatches) >= max_mismatches:
                return
