"""3-valued sequential logic simulator (fault-free machine).

:class:`LogicSimulator` is the one good-machine engine: every consumer
that needs fault-free behaviour alone (TPG replay verification, BIST
closure, observed diagnosis syndromes) runs through it.  Consumers that
compare good and faulty responses (MISR grading, fault dictionaries)
read both from one
:meth:`~repro.sim.faultsim.FaultSimulator.output_responses` pass
instead, whose good rows equal this simulator's outputs.  On first use it
generates a Python function from the circuit's
:class:`~repro.sim.compile.CompiledCircuit` that holds the whole cycle
loop as straight-line code: every net's value lives in two local rails
(see :func:`~repro.sim.compile.gate_source`, which the vector fault
kernel shares), so a cycle costs a few bitwise operations per gate with
no per-gate dispatch.

:meth:`LogicSimulator.run_lanes` runs the same gate code on rail
*words*: lane ``k`` is bit ``k`` of every word, so one pass simulates
many independent copies of the circuit, each from its own initial
state under its own stimulus (TPG replay runs every assignment window
as one lane).  Both loops emit their per-cycle body through
:func:`_cycle_source`.

:func:`_reference_run` keeps the interpreted per-gate loop over
:func:`~repro.sim.values.and_reduce` and friends.  It is private and
exists only as the scalar oracle the compiled engine is tested against
(``tests/test_sim_logic_differential.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.errors import SimulationError
from repro.sim.compile import (
    CompiledCircuit,
    OP_AND,
    OP_BUF,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    compile_circuit,
    gate_source,
)
from repro.sim.values import (
    V0,
    V1,
    VX,
    Value,
    and_reduce,
    invert,
    or_reduce,
    xor_reduce,
)


@dataclass(frozen=True)
class SimTrace:
    """Result of simulating an input sequence.

    Attributes
    ----------
    outputs:
        Per time unit, the ternary values of the primary outputs
        (port order).
    states:
        Per time unit, the ternary values of the flip-flop outputs at
        the *start* of the cycle (i.e. the present state that cycle).
    nets:
        Per time unit, the ternary values of every net (dense index
        order); only populated when ``record_nets=True``.
    """

    outputs: Tuple[Tuple[Value, ...], ...]
    states: Tuple[Tuple[Value, ...], ...]
    nets: Tuple[Tuple[Value, ...], ...] = ()

    def __len__(self) -> int:
        return len(self.outputs)


_Engine = Callable[
    [Sequence[Sequence[Value]], Sequence[Value]],
    Tuple[List[Tuple[Value, ...]], List[Tuple[Value, ...]], List[Tuple[Value, ...]]],
]

Rails = Tuple[int, int]
"""One ternary value per lane as a ``(ones, zeros)`` pair of words: lane
``k`` is 1 where bit ``k`` of ``ones`` is set, 0 where bit ``k`` of
``zeros`` is set, and X where neither is."""

_LanesEngine = Callable[
    [Sequence[Sequence[Rails]], Sequence[Rails], int],
    Tuple[List[Tuple[Rails, ...]], Tuple[Rails, ...]],
]


class LogicSimulator:
    """Levelized 3-valued sequential simulator for one circuit.

    The simulator is stateless between :meth:`run` calls; each run
    starts from the given initial state (all-X by default, matching the
    no-reset assumption of the reproduced paper).  The generated cycle
    loop is built on the first run and reused by every later run with
    the same ``record_nets`` setting.
    """

    def __init__(self, circuit: Circuit, compiled: CompiledCircuit | None = None) -> None:
        self.circuit = circuit
        self.compiled = compiled or compile_circuit(circuit)
        self._engines: Dict[bool, _Engine] = {}
        self._lanes_engine: Optional[_LanesEngine] = None

    def run(
        self,
        stimulus: Sequence[Sequence[Value]],
        initial_state: Sequence[Value] | None = None,
        record_nets: bool = False,
    ) -> SimTrace:
        """Simulate ``stimulus`` and return the trace.

        Parameters
        ----------
        stimulus:
            One entry per time unit; each entry gives the ternary value
            of every primary input in port order.
        initial_state:
            Flip-flop values at time 0 (``circuit.flops`` order);
            defaults to all X.
        record_nets:
            When true, the trace includes every net's value at every
            time unit (used by observability analysis and debugging).
        """
        state = _initial_state(self.compiled, initial_state)
        record_nets = bool(record_nets)
        engine = self._engines.get(record_nets)
        if engine is None:
            engine = _generate_engine(self.compiled, record_nets)
            self._engines[record_nets] = engine
        outputs, states, nets = engine(stimulus, state)
        return SimTrace(
            outputs=tuple(outputs), states=tuple(states), nets=tuple(nets)
        )

    def run_lanes(
        self,
        stimulus: Sequence[Sequence[Rails]],
        initial_state: Sequence[Rails],
        width: int,
    ) -> Tuple[List[Tuple[Rails, ...]], Tuple[Rails, ...]]:
        """Simulate ``width`` independent copies of the circuit at once.

        Lane ``k`` is bit ``k`` of every rail word (see :data:`Rails`),
        so lane ``k`` behaves exactly as :meth:`run` on lane ``k``'s
        own stimulus from lane ``k``'s own initial state.

        Parameters
        ----------
        stimulus:
            One entry per time unit; each entry gives the rails of
            every primary input in port order.
        initial_state:
            The rails of every flip-flop at time 0 (``circuit.flops``
            order).
        width:
            The number of lanes ``W``; every rail must lie inside the
            ``W``-bit lane mask, and no lane may be both 1 and 0.

        Returns
        -------
        ``(outputs, final_state)``: per time unit, the rails of every
        primary output (port order); and the flip-flop rails after the
        last time unit (``initial_state`` when the stimulus is empty).
        """
        if width < 1:
            raise SimulationError(f"lane width must be at least 1, got {width}")
        mask = (1 << width) - 1
        comp = self.compiled
        n_ff = len(comp.ff_indices)
        if len(initial_state) != n_ff:
            raise _state_width_error(initial_state, n_ff)
        for slot, rails in enumerate(initial_state):
            if _bad_rails(rails, mask):
                raise SimulationError(
                    f"initial state: flip-flop {slot} rails {rails!r} "
                    f"overlap or leave the {width}-lane mask"
                )
        n_pi = len(comp.pi_indices)
        for u, row in enumerate(stimulus):
            if len(row) != n_pi:
                raise _width_error(u, row, n_pi)
            for slot, rails in enumerate(row):
                if _bad_rails(rails, mask):
                    raise SimulationError(
                        f"time {u}: input {slot} rails {rails!r} "
                        f"overlap or leave the {width}-lane mask"
                    )
        if self._lanes_engine is None:
            self._lanes_engine = _generate_lanes_engine(comp)
        return self._lanes_engine(stimulus, initial_state, mask)


def _initial_state(
    comp: CompiledCircuit, initial_state: Sequence[Value] | None
) -> List[Value]:
    """The validated time-0 flip-flop values (all X when not given)."""
    n_ff = len(comp.ff_indices)
    if initial_state is None:
        return [VX] * n_ff
    if len(initial_state) != n_ff:
        raise _state_width_error(initial_state, n_ff)
    for value in initial_state:
        if value not in (V0, V1, VX):
            raise SimulationError(f"initial state: bad ternary value {value!r}")
    return list(initial_state)


def _state_width_error(state: Sequence[object], n_ff: int) -> SimulationError:
    return SimulationError(
        f"initial state has {len(state)} values, circuit has {n_ff} flip-flops"
    )


def _width_error(u: int, pattern: Sequence[Value], n_pi: int) -> SimulationError:
    return SimulationError(
        f"time {u}: pattern has {len(pattern)} values, "
        f"circuit has {n_pi} primary inputs"
    )


def _value_error(u: int, pattern: Sequence[Value]) -> SimulationError:
    """The error for the first value of ``pattern`` that is not ternary."""
    bad = next(v for v in pattern if v not in (V0, V1, VX))
    return SimulationError(f"time {u}: bad ternary value {bad!r}")


def _bad_rails(rails: object, mask: int) -> bool:
    """Whether ``rails`` is not a pair of words inside ``mask`` that
    never set one lane on both rails."""
    try:
        ones, zeros = rails  # type: ignore[misc]
        return bool(ones & zeros or (ones | zeros) & ~mask)
    except (TypeError, ValueError):
        return True


#: Ternary value -> ``(ones, zeros)`` rail pair.  Exactly the accepted
#: values are keys, so a failed lookup is a bad value.
_RAILS = {V0: (0, 1), V1: (1, 0), VX: (0, 0)}


def _cycle_source(comp: CompiledCircuit, records: Sequence[str]) -> List[str]:
    """The body of one generated cycle, after the inputs are loaded.

    Every gate in topological order through
    :func:`~repro.sim.compile.gate_source`, then the ``records``
    statements (which see this cycle's nets), then the next-state
    latch that makes the flip-flops' next-state rails the present
    state.  Lines are indented for the cycle loop.
    """
    lines = []
    for opcode, out, fanins in comp.ops:
        statements, oexpr, zexpr = gate_source(
            opcode, [f"o{f}" for f in fanins], [f"z{f}" for f in fanins]
        )
        lines.extend("  " + statement for statement in statements)
        lines.append(f"  o{out} = {oexpr}; z{out} = {zexpr}")
    lines.extend("  " + record for record in records)
    if comp.ff_indices:
        present = [f"o{i}, z{i}" for i in comp.ff_indices]
        nxt = [f"o{i}, z{i}" for i in comp.ff_next_indices]
        lines.append(f"  {', '.join(present)} = {', '.join(nxt)}")
    return lines


def _generate_engine(comp: CompiledCircuit, record_nets: bool) -> _Engine:
    """Generate the straight-line cycle loop for ``comp``.

    Net ``i`` lives in the locals ``o{i}`` / ``z{i}``; a rail pair reads
    back as the ternary value ``2 - o - 2z`` (1, 0 or X).  Constants are
    set once, the flip-flops' present-state rails carry over between
    iterations, and each iteration validates and loads one pattern,
    evaluates every gate in topological order, records the trace rows
    and latches the next state.
    """

    def value(i: int) -> str:
        return f"2-o{i}-z{i}-z{i}"

    def row(indices: Sequence[int]) -> str:
        return "(" + "".join(f"{value(i)}," for i in indices) + ")"

    n_pi = len(comp.pi_indices)
    pattern_values = "".join(f"p{slot}," for slot in range(n_pi))
    lines = [
        "def _engine(stimulus, state):",
        " rails = RAILS",
        " outputs = []; states = []; nets = []",
    ]
    for slot, i in enumerate(comp.ff_indices):
        lines.append(f" o{i}, z{i} = rails[state[{slot}]]")
    for i in comp.const0_indices:
        lines.append(f" o{i} = 0; z{i} = 1")
    for i in comp.const1_indices:
        lines.append(f" o{i} = 1; z{i} = 0")
    lines.append(" for u, pattern in enumerate(stimulus):")
    lines.append(f"  if len(pattern) != {n_pi}:")
    lines.append(f"   raise width_error(u, pattern, {n_pi})")
    if n_pi:
        lines.append(f"  {pattern_values} = pattern")
        lines.append("  try:")
        for slot, i in enumerate(comp.pi_indices):
            lines.append(f"   o{i}, z{i} = rails[p{slot}]")
        lines.append("  except (KeyError, TypeError):")
        lines.append(f"   raise value_error(u, ({pattern_values})) from None")
    records = [
        f"outputs.append({row(comp.po_indices)})",
        f"states.append({row(comp.ff_indices)})",
    ]
    if record_nets:
        records.append(f"nets.append({row(range(comp.n_nets))})")
    lines.extend(_cycle_source(comp, records))
    lines.append(" return outputs, states, nets")
    namespace: dict = {
        "RAILS": _RAILS,
        "width_error": _width_error,
        "value_error": _value_error,
    }
    exec(compile("\n".join(lines), "<logic-sim>", "exec"), namespace)
    return namespace["_engine"]


def _generate_lanes_engine(comp: CompiledCircuit) -> _LanesEngine:
    """Generate the lane-parallel cycle loop for ``comp``.

    The same gate code as :func:`_generate_engine`, on rail words of
    ``W`` lanes: the inputs' and flip-flops' rail pairs are unpacked
    as given (the caller has validated them), and the constants load
    as the lane mask on one rail.  Every cycle records the outputs'
    rail pairs; the loop returns them with the final state's.
    """

    def pairs(indices: Sequence[int]) -> str:
        return "(" + "".join(f"(o{i}, z{i}), " for i in indices) + ")"

    lines = [
        "def _lanes(stimulus, state, mask):",
        " outputs = []",
    ]
    if comp.ff_indices:
        lines.append(f" {pairs(comp.ff_indices)} = state")
    for i in comp.const0_indices:
        lines.append(f" o{i} = 0; z{i} = mask")
    for i in comp.const1_indices:
        lines.append(f" o{i} = mask; z{i} = 0")
    lines.append(" for row in stimulus:")
    if comp.pi_indices:
        lines.append(f"  {pairs(comp.pi_indices)} = row")
    lines.extend(
        _cycle_source(comp, [f"outputs.append({pairs(comp.po_indices)})"])
    )
    lines.append(f" return outputs, {pairs(comp.ff_indices)}")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<logic-sim-lanes>", "exec"), namespace)
    return namespace["_lanes"]


def _reference_run(
    comp: CompiledCircuit,
    stimulus: Sequence[Sequence[Value]],
    initial_state: Sequence[Value] | None = None,
    record_nets: bool = False,
) -> SimTrace:
    """Interpreted scalar simulation: the oracle for the compiled engine.

    Same contract as :meth:`LogicSimulator.run`, evaluated one gate at
    a time through :func:`_eval_op`.  Tests only.
    """
    state = _initial_state(comp, initial_state)
    n_pi = len(comp.pi_indices)
    values: List[Value] = [VX] * comp.n_nets
    outputs: List[Tuple[Value, ...]] = []
    states: List[Tuple[Value, ...]] = []
    net_trace: List[Tuple[Value, ...]] = []

    for u, pattern in enumerate(stimulus):
        if len(pattern) != n_pi:
            raise _width_error(u, pattern, n_pi)
        for idx, value in zip(comp.pi_indices, pattern):
            if value not in (V0, V1, VX):
                raise SimulationError(f"time {u}: bad ternary value {value!r}")
            values[idx] = value
        for idx, value in zip(comp.ff_indices, state):
            values[idx] = value
        for idx in comp.const0_indices:
            values[idx] = V0
        for idx in comp.const1_indices:
            values[idx] = V1

        for opcode, out, fanins in comp.ops:
            values[out] = _eval_op(opcode, fanins, values)

        outputs.append(tuple(values[idx] for idx in comp.po_indices))
        states.append(tuple(state))
        if record_nets:
            net_trace.append(tuple(values))
        state = [values[idx] for idx in comp.ff_next_indices]

    return SimTrace(
        outputs=tuple(outputs),
        states=tuple(states),
        nets=tuple(net_trace),
    )


def _eval_op(opcode: int, fanins: Tuple[int, ...], values: List[Value]) -> Value:
    """Evaluate one compiled gate in scalar ternary logic."""
    ins = [values[f] for f in fanins]
    if opcode == OP_AND:
        return and_reduce(ins)
    if opcode == OP_NAND:
        return invert(and_reduce(ins))
    if opcode == OP_OR:
        return or_reduce(ins)
    if opcode == OP_NOR:
        return invert(or_reduce(ins))
    if opcode == OP_XOR:
        return xor_reduce(ins)
    if opcode == OP_XNOR:
        return invert(xor_reduce(ins))
    if opcode == OP_NOT:
        return invert(ins[0])
    if opcode == OP_BUF:
        return ins[0]
    raise SimulationError(f"unknown opcode {opcode}")
