"""CLI behaviour added with the runtime layer: ``--version``, the
runtime flags, and clean one-line errors for unknown circuits."""

from __future__ import annotations

import pytest

from repro import __version__
from repro.cli import main
from repro.flows import clear_cache


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert f"repro {__version__}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "nosuch"],
        ["table6", "nosuch"],
        ["tradeoff", "nosuch"],
    ],
)
def test_unknown_circuit_is_clean_one_line_error(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc != 0
    assert "Traceback" not in captured.err
    err_lines = [line for line in captured.err.splitlines() if line]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("repro: error:")
    assert "nosuch" in err_lines[0]


def test_missing_bench_file_is_clean_error(capsys):
    rc = main(["flow", "no/such/file.bench"])
    captured = capsys.readouterr()
    assert rc != 0
    assert "Traceback" not in captured.err
    assert captured.err.startswith("repro: error:")


def test_flow_with_runtime_flags(tmp_path, capsys):
    rc = main(
        [
            "flow",
            "s27",
            "--jobs",
            "2",
            "--cache-dir",
            str(tmp_path),
            "--stats",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "s27" in out
    assert "runtime stats" in out
    assert "workers" in out
    assert len(list(tmp_path.glob("*.json"))) > 0, "cache must be populated"


def test_flow_no_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    rc = main(["flow", "s27", "--no-cache"])
    assert rc == 0
    assert list(tmp_path.glob("*.json")) == []


def test_table6_with_stats(tmp_path, capsys):
    clear_cache()
    try:
        rc = main(
            ["table6", "s27", "--cache-dir", str(tmp_path), "--stats"]
        )
    finally:
        clear_cache()
    out = capsys.readouterr().out
    assert rc == 0
    assert "Table 6" in out
    assert "runtime stats" in out


def test_flow_no_cache_beats_cache_dir(tmp_path, capsys):
    cache = tmp_path / "D"
    cache.mkdir()
    rc = main(["flow", "s27", "--cache-dir", str(cache), "--no-cache"])
    assert rc == 0
    assert list(cache.rglob("*")) == []


def test_flow_no_cache_resume_journals_under_cache_dir(tmp_path, capsys):
    cache = tmp_path / "D"
    rc = main(
        ["flow", "s27", "--cache-dir", str(cache), "--no-cache", "--resume"]
    )
    assert rc == 0
    assert sorted(p.relative_to(cache).as_posix() for p in cache.rglob("*")) == [
        "checkpoints",
        "checkpoints/journal.json",
    ]
