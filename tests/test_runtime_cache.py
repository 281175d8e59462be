"""The content-addressed artifact cache: keys, hygiene, end-to-end.

Three layers are covered: key sensitivity (a key must change whenever
anything that influences the result changes), entry hygiene (corrupted
or version-mismatched entries are discarded, never trusted), and the
flow-level guarantee (a warm rerun skips nearly all full simulations
and still reproduces the cold results exactly).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg import AtpgConfig
from repro.atpg import driver as atpg_driver
from repro.flows import flow_config_for, full_flow
from repro.flows.full_flow import FlowConfig, generation_key, run_full_flow
from repro.runtime import (
    CACHE_FORMAT,
    ArtifactCache,
    CacheIntegrityWarning,
    RuntimeContext,
    circuit_fingerprint,
    faults_fingerprint,
    simulation_key,
    stimulus_fingerprint,
)
from repro.sim import FaultSimulator, collapse_faults
from repro.sim.values import to_char
from repro.sim.vector.kernels import IntKernel
from repro.tgen import compact_sequence
from repro.tgen.compaction import compaction_key
from repro.trace import normalized_json


# -- key sensitivity --------------------------------------------------------


def test_key_changes_with_each_ingredient(
    s27, g208, s27_faults, paper_t, tmp_path, monkeypatch
):
    base = dict(
        circuit_fp=circuit_fingerprint(s27),
        stimulus_fp=stimulus_fingerprint(paper_t.patterns),
        faults_fp=faults_fingerprint(s27_faults),
        config={"kind": "run", "record_lines": False},
    )

    def key(**overrides):
        merged = {**base, **overrides}
        return simulation_key(
            merged["circuit_fp"],
            merged["stimulus_fp"],
            merged["faults_fp"],
            merged["config"],
        )

    reference = key()
    assert key() == reference, "key must be deterministic"
    assert key(circuit_fp=circuit_fingerprint(g208)) != reference
    assert (
        key(stimulus_fp=stimulus_fingerprint(paper_t.patterns[:-1]))
        != reference
    )
    assert key(faults_fp=faults_fingerprint(s27_faults[:-1])) != reference
    assert (
        key(config={"kind": "run", "record_lines": True}) != reference
    )

    # Whole test generation: circuit, faults, mode, seed, length cap and
    # the generator's constants are in the key; the backend is not.
    s27_fp = circuit_fingerprint(s27)
    cfg = FlowConfig()
    hybrid = replace(cfg, tgen_mode="hybrid")
    tgen = generation_key(s27_fp, s27_faults, cfg)
    assert generation_key(s27_fp, s27_faults, cfg) == tgen
    variants = [
        generation_key(circuit_fingerprint(g208), s27_faults, cfg),
        generation_key(s27_fp, s27_faults[:-1], cfg),
        generation_key(s27_fp, s27_faults, hybrid),
        generation_key(s27_fp, s27_faults, replace(cfg, seed=2)),
        generation_key(s27_fp, s27_faults, replace(cfg, tgen_max_len=1999)),
    ]
    # The generator's constants, each changed on its own.
    with monkeypatch.context() as patch:
        patch.setattr(full_flow, "CANDIDATES", full_flow.CANDIDATES + 1)
        variants.append(generation_key(s27_fp, s27_faults, cfg))
    with monkeypatch.context() as patch:
        patch.setattr(full_flow, "PATIENCE", full_flow.PATIENCE - 1)
        variants.append(generation_key(s27_fp, s27_faults, cfg))
    with monkeypatch.context() as patch:
        patch.setattr(
            atpg_driver, "AtpgConfig", partial(AtpgConfig, backtrack_limit=301)
        )
        variants.append(generation_key(s27_fp, s27_faults, hybrid))
    assert len({tgen, *variants}) == len(variants) + 1
    for backend in ("python", "vector"):
        assert generation_key(
            s27_fp, s27_faults, replace(cfg, sim_backend=backend)
        ) == tgen
        assert generation_key(
            s27_fp, s27_faults, replace(hybrid, sim_backend=backend)
        ) == generation_key(s27_fp, s27_faults, hybrid)

    # Whole compaction: circuit, input sequence, targets and budget.
    comp = compaction_key(s27_fp, paper_t, s27_faults, 60)
    variants = [
        compaction_key(circuit_fingerprint(g208), paper_t, s27_faults, 60),
        compaction_key(s27_fp, paper_t.prefix(9), s27_faults, 60),
        compaction_key(s27_fp, paper_t, s27_faults[:-1], 60),
        compaction_key(s27_fp, paper_t, s27_faults, 59),
    ]
    assert len({comp, *variants}) == len(variants) + 1
    # ... and not the backend: a vector compaction is served from the
    # entry a python one wrote.
    with RuntimeContext(cache_dir=tmp_path) as rt:
        by_python = compact_sequence(
            s27, paper_t, s27_faults, runtime=rt, sim_backend="python"
        )
        stores = rt.stats.cache_stores
        by_vector = compact_sequence(
            s27, paper_t, s27_faults, runtime=rt, sim_backend="vector"
        )
        assert rt.stats.cache_stores == stores == 1
    assert by_vector == by_python


def _stimulus_fingerprint_per_value(stimulus):
    """The value-by-value formula the table-driven fingerprint keeps."""
    rows = "\n".join("".join(to_char(v) for v in row) for row in stimulus)
    return hashlib.sha256(rows.encode("utf-8")).hexdigest()


_ROWS = st.lists(
    st.lists(st.sampled_from([0, 1, 2]), max_size=40), max_size=60
)


@settings(max_examples=200, deadline=None)
@given(stimulus=_ROWS, as_tuples=st.booleans())
def test_stimulus_fingerprint_matches_per_value_formula(stimulus, as_tuples):
    """Random ternary stimuli, empty stimuli and empty rows hash as the
    value-by-value rendering did, so existing cache keys stay valid."""
    if as_tuples:
        stimulus = [tuple(row) for row in stimulus]
    assert stimulus_fingerprint(stimulus) == _stimulus_fingerprint_per_value(
        stimulus
    )


def test_stimulus_fingerprint_edge_cases():
    for stimulus in ([], [[]], [[], []], [(1, 0, 2)], [[True, False]]):
        assert stimulus_fingerprint(
            stimulus
        ) == _stimulus_fingerprint_per_value(stimulus)
    long_rows = [
        [random.Random(u).choice([0, 1, 2]) for _ in range(36)]
        for u in range(2000)
    ]
    assert stimulus_fingerprint(
        long_rows
    ) == _stimulus_fingerprint_per_value(long_rows)


@pytest.mark.parametrize(
    "bad", [3, -1, 7, 10, 255, 256, 2**70, "0", "x", None, 0.5]
)
def test_stimulus_fingerprint_rejects_non_ternary_values(bad):
    stimulus = [[0, 1], [1, bad, 0]]
    with pytest.raises(ValueError) as expected:
        _stimulus_fingerprint_per_value(stimulus)
    with pytest.raises(ValueError) as raised:
        stimulus_fingerprint(stimulus)
    assert str(raised.value) == str(expected.value)


def test_faults_fingerprint_is_order_insensitive(s27_faults):
    forward = faults_fingerprint(s27_faults)
    assert faults_fingerprint(list(reversed(s27_faults))) == forward


# -- entry hygiene ----------------------------------------------------------


def test_roundtrip_and_len(tmp_path):
    cache = ArtifactCache(tmp_path)
    assert cache.get("k" * 8) is None
    cache.put("k" * 8, {"detects": True})
    assert cache.get("k" * 8) == {"detects": True}
    assert len(cache) == 1
    assert cache.clear() == 1
    assert cache.get("k" * 8) is None


def test_corrupted_entry_discarded(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.put("abc", {"x": 1})
    path = tmp_path / "abc.json"
    path.write_text("{ not json")
    with pytest.warns(CacheIntegrityWarning):
        assert cache.get("abc") is None
    assert not path.exists(), "corrupted entry must be deleted"
    assert cache.stats.cache_discards == 1


def test_version_mismatch_discarded(tmp_path):
    cache = ArtifactCache(tmp_path)
    path = tmp_path / "abc.json"
    path.write_text(
        json.dumps(
            {"format": CACHE_FORMAT + 1, "key": "abc", "payload": {"x": 1}}
        )
    )
    with pytest.warns(CacheIntegrityWarning):
        assert cache.get("abc") is None
    assert not path.exists()


def test_key_mismatch_discarded(tmp_path):
    cache = ArtifactCache(tmp_path)
    path = tmp_path / "abc.json"
    path.write_text(
        json.dumps({"format": CACHE_FORMAT, "key": "OTHER", "payload": {}})
    )
    with pytest.warns(CacheIntegrityWarning):
        assert cache.get("abc") is None
    assert not path.exists()


def test_unusable_cache_root_degrades_gracefully(tmp_path):
    """A cache root that is an existing file (e.g. a mistyped
    ``--cache-dir``) must not raise — stores are skipped, gets miss."""
    root = tmp_path / "actually-a-file"
    root.write_text("not a directory")
    cache = ArtifactCache(root)
    cache.put("abc", {"x": 1})  # must not raise
    with pytest.warns(CacheIntegrityWarning):
        assert cache.get("abc") is None
    assert cache.stats.cache_stores == 0


def test_lru_eviction(tmp_path):
    cache = ArtifactCache(tmp_path, max_bytes=200)
    for i in range(6):
        cache.put(f"key{i}", {"blob": "x" * 40})
    assert cache.stats.cache_evictions > 0
    assert len(cache) < 6
    # Survivors are the most recently written.
    assert cache.get("key5") is not None


@pytest.fixture
def listings(monkeypatch):
    """Counts directory listings (``Path.glob``) per listed directory."""
    counts = {}
    glob = Path.glob

    def counted(self, pattern, *args, **kwargs):
        counts[self] = counts.get(self, 0) + 1
        return glob(self, pattern, *args, **kwargs)

    monkeypatch.setattr(Path, "glob", counted)
    return counts


def test_puts_under_cap_list_once(tmp_path, listings):
    """Puts under the cap keep a running total instead of listing the
    directory; a cap lowered later still evicts at the next put."""
    cache = ArtifactCache(tmp_path, max_bytes=10**6)
    for i in range(50):
        cache.put(f"key{i}", {"blob": "x" * 40, "i": i})
    cache.put("key7", {"blob": "y" * 400})  # a rewrite counts its growth
    assert listings == {tmp_path: 1}
    assert cache.stats.cache_evictions == 0
    on_disk = sum(p.stat().st_size for p in tmp_path.iterdir())
    assert cache._ledger.total == on_disk
    cache.max_bytes = on_disk // 2
    cache.put("trigger", {"blob": "z"})
    assert listings == {tmp_path: 2}
    assert cache.stats.cache_evictions > 0
    assert sum(p.stat().st_size for p in tmp_path.iterdir()) <= on_disk // 2
    assert cache.get("trigger") is not None


def test_caches_on_one_root_share_a_running_total(tmp_path, listings):
    """A second cache on the same root counts on from the first one's
    listing, and each sees the other's writes against its cap."""
    first = ArtifactCache(tmp_path, max_bytes=10**6)
    for i in range(4):
        first.put(f"a{i}", {"blob": "x" * 100})
    second = ArtifactCache(tmp_path, max_bytes=10**6)
    for i in range(4):
        second.put(f"b{i}", {"blob": "x" * 100})
    assert listings == {tmp_path: 1}
    first.max_bytes = sum(p.stat().st_size for p in tmp_path.iterdir()) - 1
    first.put("a0", {"blob": "x" * 100})  # same size: only b's push it over
    assert listings == {tmp_path: 2}
    assert first.stats.cache_evictions == 1


def test_corrupted_cache_resimulates_correctly(tmp_path, s27, s27_faults, paper_t):
    expected = FaultSimulator(s27).run(paper_t.patterns, s27_faults)
    with RuntimeContext(cache_dir=tmp_path) as rt:
        sim = FaultSimulator(s27, runtime=rt)
        sim.run(paper_t.patterns, s27_faults)
    for path in tmp_path.glob("*.json"):
        path.write_text("garbage")
    with RuntimeContext(cache_dir=tmp_path) as rt:
        sim = FaultSimulator(s27, runtime=rt)
        with pytest.warns(CacheIntegrityWarning):
            result = sim.run(paper_t.patterns, s27_faults)
        assert rt.stats.full_sim_hits == 0
        assert rt.stats.full_simulations == 1
    assert result.detection_time == expected.detection_time
    assert result.undetected == expected.undetected


def test_tampered_payload_treated_as_miss(tmp_path, s27, s27_faults, paper_t):
    """A well-formed entry whose payload does not fit the request is
    never trusted: the simulator falls back to re-simulation."""
    with RuntimeContext(cache_dir=tmp_path) as rt:
        FaultSimulator(s27, runtime=rt).run(paper_t.patterns, s27_faults)
    for path in tmp_path.glob("*.json"):
        entry = json.loads(path.read_text())
        entry["payload"] = {"n_faults": 99999, "detection": []}
        path.write_text(json.dumps(entry))
    expected = FaultSimulator(s27).run(paper_t.patterns, s27_faults)
    with RuntimeContext(cache_dir=tmp_path) as rt:
        result = FaultSimulator(s27, runtime=rt).run(
            paper_t.patterns, s27_faults
        )
        assert rt.stats.full_simulations == 1
    assert result.detection_time == expected.detection_time


def _phase_entries(root, circuit, cfg, flow):
    """Cache paths of a flow's test-generation and compaction entries."""
    circuit_fp = circuit_fingerprint(circuit)
    keys = {
        "tgen": generation_key(circuit_fp, collapse_faults(circuit), cfg),
        "compaction": compaction_key(
            circuit_fp, flow.generated.sequence, flow.generated.detected,
            cfg.compaction_sims,
        ),
    }
    return {op: root / f"{key}.json" for op, key in keys.items()}


def _assert_same_flow(a, b):
    """Every deterministic output of two flow runs agrees."""
    for name in (
        "generated", "compaction", "sequence", "reverse_order", "table6",
        "tpg", "tpg_verified", "pruned",
    ):
        assert getattr(a, name) == getattr(b, name), name
    # WeightSet compares by identity; compare its weights instead.
    assert list(a.procedure.weight_set) == list(b.procedure.weight_set)
    assert replace(a.procedure, weight_set=None) == replace(
        b.procedure, weight_set=None
    )


TAMPERS = {
    "tgen": [
        lambda p: {**p, "sequence": [row + "0" for row in p["sequence"]]},
        lambda p: {**p, "detected": p["detected"][:-1] + ["NOSUCH/SA0"]},
        lambda p: {**p, "undetected": 7},
        lambda p: {**p, "sequence": "".join(p["sequence"])},
    ],
    "compaction": [
        lambda p: {**p, "sequence": [row[:-1] for row in p["sequence"]]},
        lambda p: {**p, "original_length": p["original_length"] + 1},
        lambda p: {**p, "n_simulations": str(p["n_simulations"])},
        lambda p: {**p, "sequence": "".join(p["sequence"])},
    ],
}


@pytest.mark.parametrize("variant", range(4))
def test_tampered_phase_entries_are_misses(tmp_path, s27, variant):
    """A well-formed test-generation or compaction entry whose payload
    does not fit (wrong width, unknown fault, wrong types) is a miss:
    the phase reruns to the identical result and stores it back."""
    cfg = flow_config_for("s27", l_g=32)
    with RuntimeContext(cache_dir=tmp_path) as rt:
        cold = run_full_flow(s27, cfg, runtime=rt)
    entries = _phase_entries(tmp_path, s27, cfg, cold)
    originals = {}
    for op, path in entries.items():
        entry = json.loads(path.read_text())
        originals[op] = entry["payload"]
        entry["payload"] = TAMPERS[op][variant](entry["payload"])
        path.write_text(json.dumps(entry))
    with RuntimeContext(cache_dir=tmp_path, trace=True) as rt:
        warm = run_full_flow(s27, cfg, runtime=rt)
        missed = [
            e.attrs["op"] for e in rt.tracer.events if e.kind == "cache_miss"
        ]
    assert missed.count("tgen") == missed.count("compaction") == 1
    _assert_same_flow(warm, cold)
    for op, path in entries.items():
        assert json.loads(path.read_text())["payload"] == originals[op]


def test_truncated_phase_entries_recomputed(tmp_path, s27):
    cfg = flow_config_for("s27", l_g=32)
    with RuntimeContext(cache_dir=tmp_path) as rt:
        cold = run_full_flow(s27, cfg, runtime=rt)
    for path in _phase_entries(tmp_path, s27, cfg, cold).values():
        path.write_text(path.read_text()[:10])
    with RuntimeContext(cache_dir=tmp_path) as rt:
        with pytest.warns(CacheIntegrityWarning):
            warm = run_full_flow(s27, cfg, runtime=rt)
        assert rt.stats.cache_discards == 2
    _assert_same_flow(warm, cold)


# -- flow-level guarantee ---------------------------------------------------


@pytest.mark.parametrize("name", ["s27", "g208"])
def test_warm_rerun_steps_no_kernel(tmp_path, name, monkeypatch):
    """A warm rerun, even with two workers, simulates nothing: test
    generation and compaction come back whole from the cache, and the
    result and normalized trace equal the cold run's."""
    cfg = flow_config_for(name, l_g=64 if name != "s27" else 128)
    with RuntimeContext(cache_dir=tmp_path, trace=True) as rt:
        cold = run_full_flow(name, cfg, runtime=rt)
        cold_trace = normalized_json(rt.tracer.finish(), rt.tracer.events)
    steps = [0]
    step = IntKernel.step

    def counted(self, patterns):
        steps[0] += 1
        return step(self, patterns)

    monkeypatch.setattr(IntKernel, "step", counted)
    with RuntimeContext(cache_dir=tmp_path, jobs=2, trace=True) as rt:
        warm = run_full_flow(name, cfg, runtime=rt)
        warm_trace = normalized_json(rt.tracer.finish(), rt.tracer.events)
        assert rt.stats.tasks_dispatched == 0
    assert steps[0] == 0
    assert warm_trace == cold_trace
    _assert_same_flow(warm, cold)



@pytest.mark.parametrize("name", ["s27", "g208"])
def test_warm_cache_skips_full_simulations(tmp_path, name):
    cfg = flow_config_for(name, l_g=64 if name != "s27" else 128)
    with RuntimeContext(cache_dir=tmp_path) as rt_cold:
        cold = run_full_flow(name, cfg, runtime=rt_cold)
    with RuntimeContext(cache_dir=tmp_path) as rt_warm:
        warm = run_full_flow(name, cfg, runtime=rt_warm)

    assert warm.table6 == cold.table6
    assert [e.assignment for e in warm.procedure.omega] == [
        e.assignment for e in cold.procedure.omega
    ]
    assert warm.procedure.detection_time == cold.procedure.detection_time
    assert warm.reverse_order.kept == cold.reverse_order.kept

    stats = rt_warm.stats
    assert stats.full_sim_hits + stats.full_simulations > 0
    assert stats.full_sim_skip_rate >= 0.9, (
        f"warm rerun skipped only {stats.full_sim_skip_rate:.0%} of full "
        "simulations"
    )


def test_g208_flow_cache_counters_pinned(tmp_path):
    """Every fault-simulator entry point shares one cache protocol; its
    counters for a cold and a warm g208 flow are pinned exactly."""
    counters = (
        "full_simulations", "screen_simulations", "full_sim_hits",
        "screen_hits", "cache_misses",
    )
    seen = []
    for _ in ("cold", "warm"):
        with RuntimeContext(cache_dir=tmp_path) as rt:
            run_full_flow("g208", flow_config_for("g208"), runtime=rt)
        seen.append({name: getattr(rt.stats, name) for name in counters})
    cold, warm = seen
    assert cold == dict(
        full_simulations=56, screen_simulations=51, full_sim_hits=0,
        screen_hits=0, cache_misses=109,
    )
    assert warm == dict(
        full_simulations=0, screen_simulations=0, full_sim_hits=56,
        screen_hits=51, cache_misses=0,
    )


def test_cold_vs_no_cache_identical(tmp_path):
    cfg = flow_config_for("s27", l_g=128)
    plain = run_full_flow("s27", cfg)
    with RuntimeContext(cache_dir=tmp_path) as rt:
        cached = run_full_flow("s27", cfg, runtime=rt)
    assert cached.table6 == plain.table6
    assert cached.procedure.detection_time == plain.procedure.detection_time


def test_explicit_enable_cache_false_beats_cache_dir(tmp_path):
    with RuntimeContext(cache_dir=tmp_path) as rt:
        assert rt.cache is not None and rt.cache.root == tmp_path
    with RuntimeContext(cache_dir=tmp_path, enable_cache=False) as rt:
        assert rt.cache is None and rt.journal is None
        run_full_flow("s27", flow_config_for("s27", l_g=32), runtime=rt)
    assert list(tmp_path.rglob("*")) == []
    with RuntimeContext(
        cache_dir=tmp_path, enable_cache=False, resume=True
    ) as rt:
        assert rt.cache is None
        assert rt.journal is not None
        assert rt.journal.path == tmp_path / "checkpoints" / "journal.json"
