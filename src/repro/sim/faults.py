"""Single stuck-at fault model.

Faults live either on a net's *stem* (the gate output) or on a *branch*
(a specific gate input pin, meaningful when the driving net fans out to
more than one pin).  This is the classic ISCAS-89 fault universe; the
paper's fault counts (e.g. the 32 faults ``f_0..f_31`` of s27) are
counts of equivalence-collapsed faults over exactly this universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.errors import FaultModelError

if TYPE_CHECKING:
    from repro.analysis.static import Certificate, StaticAnalysis


@dataclass(frozen=True)
class Fault:
    """A single stuck-at fault.

    Attributes
    ----------
    net:
        The affected net.  For a stem fault this is the faulty line
        itself; for a branch fault it is the *driving* net of the pin.
    stuck:
        The stuck value, 0 or 1.
    gate / pin:
        ``None`` for a stem fault.  For a branch fault, the gate and
        fanin pin index where the branch connects.
    """

    net: str
    stuck: int
    gate: Optional[str] = None
    pin: Optional[int] = None

    def __post_init__(self) -> None:
        if self.stuck not in (0, 1):
            raise FaultModelError(f"stuck value must be 0 or 1, got {self.stuck!r}")
        if (self.gate is None) != (self.pin is None):
            raise FaultModelError("branch fault needs both gate and pin")

    @property
    def is_branch(self) -> bool:
        """True for a fanout-branch fault."""
        return self.gate is not None

    @property
    def sort_key(self) -> tuple:
        """Deterministic total order (stems before branches of a net)."""
        return (self.net, self.stuck, self.gate or "", self.pin if self.pin is not None else -1)

    @cached_property
    def _order(self) -> tuple:
        """:attr:`sort_key`, built once per fault: sorting a fault list
        compares keys far more often than it creates faults.  It lives in
        the instance dict, outside the dataclass fields, so ``repr``,
        ``==``, ``hash`` and ``asdict`` never see it, and
        :meth:`__getstate__` keeps it out of pickles."""
        return self.sort_key

    def __lt__(self, other: "Fault") -> bool:
        if not isinstance(other, Fault):
            return NotImplemented
        return self._order < other._order

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_order", None)
        return state


def fault_name(fault: Fault) -> str:
    """Canonical printable name, e.g. ``G8/0`` or ``G8->G15.1/0``."""
    if fault.is_branch:
        return f"{fault.net}->{fault.gate}.{fault.pin}/{fault.stuck}"
    return f"{fault.net}/{fault.stuck}"


def all_faults(circuit: Circuit) -> List[Fault]:
    """Enumerate the full (uncollapsed) stuck-at fault universe.

    * both polarities on every driven net's stem, and
    * both polarities on every gate input pin whose driving net fans
      out to more than one pin (fanout branches).

    Constant nets are excluded — a constant's stem has no physical
    counterpart in ISCAS-style netlists and its same-polarity fault is
    vacuously untestable.
    """
    faults: List[Fault] = []
    for net, gate in circuit.gates.items():
        if gate.gtype in (GateType.CONST0, GateType.CONST1):
            continue
        faults.append(Fault(net, 0))
        faults.append(Fault(net, 1))
    for net, gate in circuit.gates.items():
        for pin, driver in enumerate(gate.fanins):
            if circuit.fanout_count(driver) > 1:
                faults.append(Fault(driver, 0, gate=net, pin=pin))
                faults.append(Fault(driver, 1, gate=net, pin=pin))
    return sorted(faults)


@dataclass(frozen=True)
class PruneReport:
    """The certificate report over one fault list.

    ``pruned`` holds ``(canonical fault name, certificate kind)`` pairs,
    sorted by name: the faults the static implication engine proves
    untestable.  Flows and serve jobs surface it as a proof to show,
    not as a simulation shortcut — every listed fault is still
    simulated and still counted in every coverage denominator.
    """

    n_faults: int
    pruned: Tuple[Tuple[str, str], ...]

    @property
    def n_pruned(self) -> int:
        """Faults proved untestable (each carries a certificate)."""
        return len(self.pruned)

    @property
    def n_kept(self) -> int:
        """Faults with no untestability proof."""
        return self.n_faults - len(self.pruned)

    def to_payload(self) -> Dict[str, object]:
        """JSON-ready projection for result/report documents."""
        return {
            "n_faults": self.n_faults,
            "n_pruned": len(self.pruned),
            "faults": [
                {"fault": name, "kind": kind} for name, kind in self.pruned
            ],
        }


class FaultPruner:
    """Untestability certificates for fault lists, as a report.

    Wraps a :class:`repro.analysis.static.StaticAnalysis` (computed on
    demand when not supplied) and reports which faults of a list it
    proves untestable, each backed by a machine-checkable certificate
    (:meth:`certificate`).

    The claim the report rests on: the fault simulator never detects a
    certified fault.  Nothing uses the report to skip simulation.
    """

    def __init__(
        self,
        circuit: Circuit,
        analysis: Optional["StaticAnalysis"] = None,
        runtime: Optional[object] = None,
        max_frames: Optional[int] = None,
    ) -> None:
        self.circuit = circuit
        if analysis is None:
            from repro.analysis.static import analyze

            analysis = analyze(circuit, runtime=runtime, max_frames=max_frames)
        self.analysis = analysis

    def certificate(self, fault: Fault) -> Optional["Certificate"]:
        """The fault's untestability certificate, or ``None``."""
        return self.analysis.verdict(fault)

    def report(self, faults: Sequence[Fault]) -> PruneReport:
        """A :class:`PruneReport` over ``faults``."""
        faults = list(faults)
        entries = []
        for fault in faults:
            certificate = self.certificate(fault)
            if certificate is not None:
                entries.append((fault_name(fault), certificate.kind))
        return PruneReport(n_faults=len(faults), pruned=tuple(sorted(entries)))


def validate_fault(circuit: Circuit, fault: Fault) -> None:
    """Raise :class:`FaultModelError` if ``fault`` does not fit ``circuit``."""
    if fault.net not in circuit:
        raise FaultModelError(f"fault net {fault.net!r} not in circuit")
    if fault.is_branch:
        if fault.gate not in circuit:
            raise FaultModelError(f"fault gate {fault.gate!r} not in circuit")
        gate = circuit.gate(fault.gate)
        if fault.pin >= len(gate.fanins) or gate.fanins[fault.pin] != fault.net:
            raise FaultModelError(
                f"gate {fault.gate!r} pin {fault.pin} is not driven by {fault.net!r}"
            )
