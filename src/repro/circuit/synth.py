"""Deterministic synthetic sequential circuit generation.

The paper evaluates on the ISCAS-89 benchmark suite, which we cannot
redistribute here beyond the tiny ``s27`` (whose full netlist is public
in countless papers, including the reproduced one).  This module builds
*stand-in* circuits with the same interface dimensions (PI / PO / DFF
counts) and comparable combinational gate counts.  Generation is fully
deterministic in the seed, so experiments are reproducible bit-for-bit.

Construction recipe
-------------------
1. Sources are the primary inputs and flip-flop outputs.
2. Combinational gates are created in sequence; each draws a gate type
   from a mix matching typical ISCAS profiles (heavy on NAND/NOR/AND/OR
   with some inverters and a little XOR) and draws fanins biased toward
   recently created nets, which produces realistic logic depth instead
   of a flat soup.
3. Each flip-flop's next-state function taps a distinct late gate, which
   closes sequential feedback loops through the state.
4. Primary outputs tap late gates; any net left with zero fanout is
   folded into an XOR observer tree that feeds one extra output, so no
   logic is structurally unobservable (which would make its faults
   trivially untestable and distort coverage statistics).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.util.rng import DeterministicRng

#: Gate-type mix used during generation: (type, weight, max_arity).
_GATE_MIX = (
    (GateType.NAND, 5, 3),
    (GateType.NOR, 4, 3),
    (GateType.AND, 4, 4),
    (GateType.OR, 4, 4),
    (GateType.NOT, 4, 1),
    (GateType.XOR, 2, 2),
    (GateType.BUF, 1, 1),
)


@dataclass(frozen=True)
class SynthSpec:
    """Interface and size parameters for a synthetic circuit.

    Attributes
    ----------
    name:
        Circuit name.
    n_pi / n_po / n_ff:
        Primary input / output / flip-flop counts.
    n_gates:
        Combinational gate count (excluding the observer tree).
    seed:
        Seed for the deterministic generator.
    """

    name: str
    n_pi: int
    n_po: int
    n_ff: int
    n_gates: int
    seed: int = 1


def synthesize(spec: SynthSpec) -> Circuit:
    """Build a synthetic sequential circuit from ``spec``.

    The result is a valid :class:`Circuit`: no dangling logic, all
    flip-flops participate in feedback, and the combinational core is a
    DAG by construction.
    """
    if spec.n_pi < 1 or spec.n_po < 1:
        raise ValueError("need at least one primary input and output")
    if spec.n_gates < max(spec.n_ff, spec.n_po, 2):
        raise ValueError("n_gates must cover flip-flop and output taps")

    rng = DeterministicRng(spec.seed)
    builder = CircuitBuilder(spec.name)

    pis = [builder.input(f"pi{i}") for i in range(spec.n_pi)]
    ff_outs = [f"ff{i}" for i in range(spec.n_ff)]
    # Nets eligible as fanins; flip-flop outputs are usable immediately
    # (their drivers are declared at the end, order does not matter).
    pool: list[str] = list(pis) + list(ff_outs)

    gate_names: list[str] = []
    types, weights, arities = zip(*_GATE_MIX)
    cumulative: list[int] = []
    total = 0
    for weight in weights:
        total += weight
        cumulative.append(total)

    def draw_type() -> tuple[GateType, int]:
        point = rng.randint(1, total)
        for idx, bound in enumerate(cumulative):
            if point <= bound:
                return types[idx], arities[idx]
        raise AssertionError("unreachable")

    def draw_fanin() -> str:
        # Bias toward the most recent quarter of the pool to build depth.
        if len(pool) > 8 and rng.random() < 0.6:
            lo = max(0, len(pool) - max(8, len(pool) // 4))
            return pool[rng.randint(lo, len(pool) - 1)]
        return pool[rng.randint(0, len(pool) - 1)]

    for g in range(spec.n_gates):
        gtype, max_arity = draw_type()
        arity = 1 if max_arity == 1 else rng.randint(2, max_arity)
        fanins: list[str] = []
        for _ in range(arity):
            fanin = draw_fanin()
            # Avoid duplicate pins on one gate; retry a few times.
            for _retry in range(4):
                if fanin not in fanins:
                    break
                fanin = draw_fanin()
            fanins.append(fanin)
        name = f"n{g}"
        builder.gate(name, gtype, *fanins)
        gate_names.append(name)
        pool.append(name)

    # Flip-flop next states: tap distinct gates from the late half, each
    # gated with a primary input through an AND/OR gate.  The controlling
    # value of that gate initializes the flip-flop from the all-X
    # power-up state within one cycle — without this, X can persist in
    # the feedback loops forever and no fault is ever observable.
    half = len(gate_names) // 2
    candidates = gate_names[half:] if half else list(gate_names)
    taps = _distinct_taps(candidates, spec.n_ff, rng)
    used: set[str] = set()
    for ff_name, tap in zip(ff_outs, taps):
        gate_type = GateType.AND if rng.bit() else GateType.OR
        init_pi = pis[rng.randint(0, len(pis) - 1)]
        d_net = builder.gate(f"{ff_name}_d", gate_type, tap, init_pi)
        builder.dff(ff_name, d_net)
        used.add(tap)
        used.add(d_net)

    # Primary outputs: distinct late gates not already next-state taps
    # when possible.  With too few of them, widen to every gate that is
    # not a next-state tap, then to every gate: ``n_gates >= n_po``, so
    # each output is a distinct net (the netlist rejects a repeat).
    po_candidates = [g for g in gate_names[half:] if g not in used] or gate_names
    if len(po_candidates) < spec.n_po:
        po_candidates = [g for g in gate_names if g not in used]
        if len(po_candidates) < spec.n_po:
            po_candidates = gate_names
    po_taps = _distinct_taps(po_candidates, spec.n_po, rng)
    for tap in po_taps:
        used.add(tap)

    # Observer tree over dangling nets: every net must reach a PO or DFF.
    fanned = _fanned_nets(builder)
    dangling = [
        g for g in gate_names if g not in fanned and g not in used
    ]
    observer = _xor_observer(builder, dangling, rng)
    for tap in po_taps:
        builder.output(tap)
    if observer is not None:
        builder.output(observer)
    return builder.build()


def _distinct_taps(candidates: list[str], count: int, rng: DeterministicRng) -> list[str]:
    """Pick ``count`` taps, distinct while candidates last, then cycling."""
    if not candidates:
        raise ValueError("no candidate nets to tap")
    if count <= len(candidates):
        return rng.sample(candidates, count)
    taps = list(candidates)
    while len(taps) < count:
        taps.append(rng.choice(candidates))
    return taps


def _fanned_nets(builder: CircuitBuilder) -> set[str]:
    """Nets referenced as a fanin by any gate declared so far."""
    fanned: set[str] = set()
    for gate in builder._gates:  # noqa: SLF001 — intra-package helper
        fanned.update(gate.fanins)
    return fanned


def _xor_observer(
    builder: CircuitBuilder, dangling: list[str], rng: DeterministicRng
) -> str | None:
    """Fold ``dangling`` nets into an XOR tree; return its root net.

    XOR propagates any single fault effect on its inputs, so the tree
    makes every folded net observable without masking.
    """
    if not dangling:
        return None
    if len(dangling) == 1:
        name = "obs_root"
        builder.buf(name, dangling[0])
        return name
    layer = list(dangling)
    counter = 0
    while len(layer) > 1:
        next_layer: list[str] = []
        for i in range(0, len(layer) - 1, 2):
            name = f"obs{counter}"
            counter += 1
            builder.xor(name, layer[i], layer[i + 1])
            next_layer.append(name)
        if len(layer) % 2:
            next_layer.append(layer[-1])
        layer = next_layer
    return layer[0]
