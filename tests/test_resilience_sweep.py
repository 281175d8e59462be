"""A Table-6 sweep under ``--jobs N``: whole flows on the process pool.

A single flow runs in the calling process whatever ``jobs`` says; the
pool's work unit is one circuit's whole flow, dispatched by
:func:`repro.flows.experiments.table6_rows`.  Everything here must
reproduce the serial sweep bit for bit: rows, Ω, kept lists, the
simulation counters and the journal — at any worker count, under
every chaos mode the executor recovers from, and across an interrupt
followed by ``--resume``.
"""

from __future__ import annotations

import pytest

from repro.errors import SweepInterrupted
from repro.flows import clear_cache, flow_config_for, flow_for, table6_rows
from repro.flows.full_flow import run_full_flow
from repro.resilience.journal import CheckpointJournal
from repro.runtime import RuntimeContext

SWEEP = ("s27", "g208")

#: Counters that measure simulation work; they must not depend on how
#: the sweep's flows were scheduled.
SIM_COUNTERS = (
    "full_simulations",
    "full_sim_hits",
    "screen_simulations",
    "screen_hits",
    "cache_misses",
    "cache_stores",
    "speculative_discards",
)


@pytest.fixture(autouse=True)
def _fresh_flow_cache():
    clear_cache()
    yield
    clear_cache()


def _sweep(**runtime_kwargs):
    """Rows, flows and stats of one sweep over :data:`SWEEP`."""
    clear_cache()
    with RuntimeContext(**runtime_kwargs) as rt:
        rows = table6_rows(SWEEP, runtime=rt)
    flows = {name: flow_for(name) for name in SWEEP}
    return rows, flows, rt.stats


@pytest.fixture(scope="module")
def serial_sweep():
    clear_cache()
    rows, flows, stats = _sweep()
    clear_cache()
    return rows, flows, stats


def _same_flows(got, want):
    for name in SWEEP:
        assert got[name].table6 == want[name].table6
        assert [e.assignment for e in got[name].procedure.omega] == [
            e.assignment for e in want[name].procedure.omega
        ]
        assert (
            got[name].procedure.detection_time
            == want[name].procedure.detection_time
        )
        assert got[name].reverse_order.kept == want[name].reverse_order.kept


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_rows_identical_across_worker_counts(serial_sweep, jobs):
    rows, flows, _ = serial_sweep
    got_rows, got_flows, stats = _sweep(jobs=jobs)
    assert got_rows == rows
    _same_flows(got_flows, flows)
    # One task per circuit, and only when the sweep used a pool.
    assert stats.tasks_dispatched == (len(SWEEP) if jobs > 1 else 0)


def test_parallel_sweep_counts_the_serial_simulations(serial_sweep):
    _, _, serial = serial_sweep
    _, _, parallel = _sweep(jobs=2)
    for name in SIM_COUNTERS:
        assert getattr(parallel, name) == getattr(serial, name), name
    # The parent folds in each worker's stage timers too.
    assert set(parallel.timers) == set(serial.timers)


def test_sweep_under_crash_and_corruption_chaos_is_bit_identical(
    serial_sweep,
):
    rows, flows, _ = serial_sweep
    got_rows, got_flows, stats = _sweep(
        jobs=2,
        retries=3,
        backoff_s=0.0,
        chaos="crash=0.3,corrupt=0.3,seed=3",
    )
    assert got_rows == rows
    _same_flows(got_flows, flows)
    assert stats.worker_crashes + stats.corrupt_results > 0


def test_sweep_under_hang_chaos_with_timeout_is_bit_identical(serial_sweep):
    # hang=1.0: every pool dispatch sleeps past the timeout, so each
    # flow is abandoned with its pool, retried, and finally replayed
    # serially in the parent — no real flow has to beat the timeout.
    rows, flows, _ = serial_sweep
    got_rows, got_flows, stats = _sweep(
        jobs=2,
        task_timeout=0.5,
        retries=1,
        backoff_s=0.0,
        chaos="hang=1.0,seed=9,hang_s=2.0",
    )
    assert got_rows == rows
    _same_flows(got_flows, flows)
    assert stats.task_timeouts >= 1
    assert stats.pool_rebuilds >= 1
    assert stats.serial_fallback_tasks == len(SWEEP)


def test_single_flow_dispatches_nothing():
    cfg = flow_config_for("g208", l_g=64)
    with RuntimeContext(jobs=4) as rt:
        run_full_flow("g208", cfg, runtime=rt)
        assert rt.executor._pool is None
        assert rt.stats.tasks_dispatched == 0


def test_fewer_than_two_pending_circuits_run_in_process():
    with RuntimeContext(jobs=2) as rt:
        table6_rows(("s27",), runtime=rt)
        assert rt.executor._pool is None
    clear_cache()
    flow_for("s27")
    with RuntimeContext(jobs=2) as rt:
        # s27 is already in the flow cache: one circuit left to run.
        table6_rows(SWEEP, runtime=rt)
        assert rt.executor._pool is None
        assert rt.stats.tasks_dispatched == 0


def _journal_rows(cache_dir):
    """The journal's entries without their wall-clock timings."""
    journal = CheckpointJournal(cache_dir / "checkpoints" / "journal.json")
    return {key: journal.get(key)["table6"] for key in journal.keys()}


def test_interrupted_parallel_sweep_resumes_identically(
    serial_sweep, tmp_path, monkeypatch
):
    rows, _, _ = serial_sweep
    cache = tmp_path / "cache"
    record = CheckpointJournal.record

    def record_then_interrupt(self, key, payload):
        # The parent journals the first accepted circuit, then the
        # sweep is interrupted as if by SIGINT.
        record(self, key, payload)
        raise SweepInterrupted("SIGINT")

    monkeypatch.setattr(CheckpointJournal, "record", record_then_interrupt)
    with pytest.raises(SweepInterrupted):
        with RuntimeContext(jobs=2, cache_dir=cache) as rt:
            table6_rows(SWEEP, runtime=rt)
    monkeypatch.setattr(CheckpointJournal, "record", record)
    assert len(_journal_rows(cache)) == 1

    clear_cache()
    with RuntimeContext(jobs=2, cache_dir=cache, resume=True) as rt:
        resumed = table6_rows(SWEEP, runtime=rt)
    assert resumed == rows
    assert rt.stats.journal_skips == 1

    journaled = _journal_rows(cache)
    assert len(journaled) == len(SWEEP)
    fresh = tmp_path / "fresh"
    clear_cache()
    with RuntimeContext(jobs=2, cache_dir=fresh) as rt:
        table6_rows(SWEEP, runtime=rt)
    assert journaled == _journal_rows(fresh)


@pytest.mark.filterwarnings("ignore::repro.runtime.CacheIntegrityWarning")
def test_journal_identical_across_worker_counts_and_chaos(tmp_path):
    # cache=0.3 vandalizes fresh entries; each discard warns, and the
    # artifact is recomputed.
    journals = []
    for i, runtime_kwargs in enumerate(
        [
            dict(jobs=1),
            dict(jobs=2),
            dict(jobs=3),
            dict(jobs=2, retries=3, backoff_s=0.0,
                 chaos="crash=0.3,corrupt=0.3,cache=0.3,seed=3"),
        ]
    ):
        cache = tmp_path / f"cache{i}"
        clear_cache()
        with RuntimeContext(cache_dir=cache, **runtime_kwargs) as rt:
            table6_rows(SWEEP, runtime=rt)
        journals.append(_journal_rows(cache))
    assert all(journal == journals[0] for journal in journals)
    assert len(journals[0]) == len(SWEEP)


def test_cli_interrupted_parallel_sweep_resumes_identically(
    tmp_path, capsys, monkeypatch
):
    from repro.cli import main

    argv = ["table6", *SWEEP, "--jobs", "2", "--cache-dir", str(tmp_path)]
    record = CheckpointJournal.record

    def record_then_interrupt(self, key, payload):
        record(self, key, payload)
        raise SweepInterrupted("SIGINT")

    monkeypatch.setattr(CheckpointJournal, "record", record_then_interrupt)
    assert main(argv) == 130
    monkeypatch.setattr(CheckpointJournal, "record", record)
    assert "--resume" in capsys.readouterr().err

    clear_cache()
    assert main(argv + ["--resume"]) == 0
    resumed = capsys.readouterr().out
    clear_cache()
    assert main(["table6", *SWEEP, "--no-cache"]) == 0
    assert resumed == capsys.readouterr().out
