"""Determinism of the runtime layer under any worker count.

The hard requirement on :mod:`repro.runtime` is that results are
bit-identical to the serial run for any worker count: whole-sequence
runs, batched candidate screening and the full Section-4.2 procedure
under a multi-worker context must all produce exactly what ``jobs=1``
produces.  Below the sweep level the worker count is inert — a single
flow runs in one process — and ``tests/test_resilience_sweep.py``
covers the sweep, where the pool runs whole flows.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.circuit import load_circuit
from repro.core import ProcedureConfig, select_weight_assignments
from repro.runtime import RuntimeContext, SerialExecutor, make_executor
from repro.sim import FaultSimulator, collapse_faults
from repro.tgen import generate_test_sequence


@pytest.fixture(scope="module")
def g386():
    return load_circuit("g386")


@pytest.fixture(scope="module")
def g386_setup(g386):
    faults = collapse_faults(g386)
    generated = generate_test_sequence(g386, faults, seed=1, max_len=200)
    return faults, generated.sequence


def test_make_executor_picks_implementation():
    ex = make_executor(1)
    assert isinstance(ex, SerialExecutor)
    assert ex.jobs == 1
    ex2 = make_executor(3)
    assert ex2.jobs == 3
    ex2.close()


def test_parallel_run_matches_serial(g386, g386_setup):
    faults, sequence = g386_setup
    assert len(faults) > 63, "need multiple fault groups for sharding"
    serial = FaultSimulator(g386).run(sequence.patterns, faults)
    with RuntimeContext(jobs=4) as rt:
        parallel = FaultSimulator(g386, runtime=rt).run(
            sequence.patterns, faults
        )
    assert parallel.detection_time == serial.detection_time
    assert parallel.undetected == serial.undetected
    assert parallel.n_faults == serial.n_faults


def test_parallel_run_matches_serial_with_line_recording(g386, g386_setup):
    faults, sequence = g386_setup
    sample = faults[:130]
    serial = FaultSimulator(g386).run(
        sequence.patterns, sample, record_lines=True
    )
    with RuntimeContext(jobs=2) as rt:
        parallel = FaultSimulator(g386, runtime=rt).run(
            sequence.patterns, sample, record_lines=True
        )
    assert parallel.detection_time == serial.detection_time
    assert parallel.lines == serial.lines


def test_detects_any_batch_matches_per_item(g386, g386_setup):
    faults, sequence = g386_setup
    sample = faults[:20]
    stimuli = [
        sequence.patterns,
        sequence.patterns[:3],
        tuple(reversed(sequence.patterns)),
    ]
    sim = FaultSimulator(g386)
    expected = [sim.detects_any(s, sample) for s in stimuli]
    with RuntimeContext(jobs=2) as rt:
        got = FaultSimulator(g386, runtime=rt).detects_any_batch(
            stimuli, sample
        )
    assert got == expected


@pytest.mark.parametrize("name,l_g", [("s27", 128), ("g208", 64)])
def test_procedure_identical_across_worker_counts(name, l_g):
    circuit = load_circuit(name)
    faults = collapse_faults(circuit)
    generated = generate_test_sequence(circuit, faults, seed=1, max_len=300)
    cfg = ProcedureConfig(l_g=l_g)

    serial = select_weight_assignments(
        circuit, generated.sequence, faults, cfg
    )
    with RuntimeContext(jobs=4) as rt:
        parallel = select_weight_assignments(
            circuit, generated.sequence, faults, cfg, runtime=rt
        )

    assert [e.assignment for e in parallel.omega] == [
        e.assignment for e in serial.omega
    ]
    assert [e.detected for e in parallel.omega] == [
        e.detected for e in serial.omega
    ]
    assert [(e.u, e.l_s, e.row) for e in parallel.omega] == [
        (e.u, e.l_s, e.row) for e in serial.omega
    ]
    assert parallel.detection_time == serial.detection_time
    assert asdict(parallel.stats) == asdict(serial.stats)


@pytest.mark.parametrize("name", ["s27", "g208"])
def test_flow_table6_identical_across_worker_counts(name):
    from repro.flows import flow_config_for
    from repro.flows.full_flow import run_full_flow

    cfg = flow_config_for(name, l_g=64 if name != "s27" else 128)
    serial = run_full_flow(name, cfg)
    with RuntimeContext(jobs=4) as rt:
        parallel = run_full_flow(name, cfg, runtime=rt)
    assert parallel.table6 == serial.table6
    assert parallel.procedure.detection_time == serial.procedure.detection_time
    assert parallel.reverse_order.kept == serial.reverse_order.kept
