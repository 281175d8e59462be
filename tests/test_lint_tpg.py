"""TPG hardware rules (T family) and saved-design linting."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core import WeightAssignment
from repro.core.weight import Weight
from repro.cli import main
from repro.errors import HardwareError, LintError
from repro.hw import LfsrSpec, load_design, save_design, synthesize_tpg
from repro.hw.fsm import WeightFsm, build_weight_fsms
from repro.hw.verify import verify_tpg
from repro.lint import lint_design, lint_design_path


def _design(strings, l_g=8, lfsr=None):
    return synthesize_tpg(
        [WeightAssignment.from_strings(strings)], l_g, lfsr=lfsr
    )


class TestCleanDesigns:
    def test_synthesized_design_has_no_errors(self):
        report = lint_design(_design(["01", "1", "100"]))
        assert report.error_count == 0
        assert report.warning_count == 0

    def test_default_artifact_names_the_circuit(self):
        report = lint_design(_design(["100"]))
        assert all(d.artifact.startswith("tpg:") for d in report)

    def test_t009_is_informational_only(self):
        # L_S=3 needs 2 state bits, leaving one encoded state
        # unreachable: reported as a note, never gating anything.
        report = lint_design(_design(["100"]))
        notes = report.by_rule()["T009"]
        assert len(notes) == 1
        assert "1 of 4 encoded states unreachable" in notes[0].message


class TestOmegaRules:
    def test_mixed_width_t001(self):
        design = _design(["01", "1"])
        bad = dataclasses.replace(design, assignments=(
            WeightAssignment.from_strings(["01", "1"]),
            WeightAssignment.from_strings(["1"]),
        ))
        report = lint_design(bad)
        assert len(report.by_rule()["T001"]) == 1
        assert "[1, 2]" in report.by_rule()["T001"][0].message

    def test_port_width_mismatch_t002(self):
        design = _design(["01", "01"])
        bad = dataclasses.replace(design, assignments=(
            WeightAssignment.from_strings(["01"]),
        ))
        report = lint_design(bad)
        findings = report.by_rule()["T002"]
        assert len(findings) == 1
        assert "2 output ports for width-1" in findings[0].message

    def test_missing_fsm_output_t003(self):
        design = _design(["01", "01"])
        bad = dataclasses.replace(design, assignments=(
            WeightAssignment.from_strings(["01", "100"]),
        ))
        report = lint_design(bad)
        findings = report.by_rule()["T003"]
        assert len(findings) == 1
        assert findings[0].location == "assignment0/input1"

    def test_missing_lfsr_t008(self):
        design = _design(["1", "1"])
        bad = dataclasses.replace(design, assignments=(
            WeightAssignment.from_strings(["R", "1"]),
        ))
        report = lint_design(bad)
        assert len(report.by_rule()["T008"]) == 1

    def test_random_weights_with_lfsr_are_fine(self):
        design = synthesize_tpg(
            [WeightAssignment.from_strings(["R", "1"])],
            l_g=8,
            lfsr=LfsrSpec(width=4, seed=0b1011),
        )
        assert verify_tpg(design).ok
        assert lint_design(design).error_count == 0


class TestFsmBankRules:
    def test_dead_fsm_output_t004(self):
        design = _design(["01", "1"])
        bad = dataclasses.replace(design, assignments=(
            WeightAssignment.from_strings(["01", "01"]),
        ))
        findings = lint_design(bad).by_rule()["T004"]
        assert len(findings) == 1
        assert "is not used by any assignment" in findings[0].message

    def test_alphabet_extended_bank_without_declaration_t004(self):
        # Defect fixture: this is exactly what optimizer-style designs
        # looked like before TpgDesign grew the ``alphabet`` field — a
        # bank holding weights beyond Ω with nothing declaring them.
        # Pin that the old shape still (rightly) trips T004.
        design = _design(["01", "1"])
        extra = Weight.from_string("100")
        undeclared = dataclasses.replace(
            design,
            fsms=tuple(build_weight_fsms(
                [w for a in design.assignments for w in a.weights] + [extra]
            )),
        )
        assert undeclared.alphabet is None
        findings = lint_design(undeclared).by_rule()["T004"]
        assert len(findings) == 1
        assert "100" in findings[0].message

    def test_declared_alphabet_lints_clean(self):
        # The fix: the same extra weight, declared as alphabet at
        # synthesis time, is legitimate reconfiguration capacity.
        design = synthesize_tpg(
            [WeightAssignment.from_strings(["01", "1"])],
            l_g=8,
            alphabet=[Weight.from_string("100"), Weight.from_string("01")],
        )
        report = lint_design(design)
        assert report.error_count == 0
        assert "T004" not in report.by_rule()

    def test_reducible_fsm_output_t005(self):
        w = Weight.from_string("0101")
        design = _design(["0101"])
        bad = dataclasses.replace(
            design,
            assignments=(WeightAssignment((w,)),),
            fsms=(WeightFsm(length=4, outputs=(w,)),),
        )
        findings = lint_design(bad).by_rule()["T005"]
        assert len(findings) == 1
        assert "period 2 < 4 states" in findings[0].message

    def test_duplicate_fsm_output_t006(self):
        w = Weight.from_string("01")
        design = _design(["01"])
        bad = dataclasses.replace(
            design, fsms=(WeightFsm(length=2, outputs=(w, w)),)
        )
        findings = lint_design(bad).by_rule()["T006"]
        assert len(findings) == 1
        assert "expand to the same sequence" in findings[0].message

    def test_counter_width_mismatch_t007(self):
        design = _design(["01", "1"], l_g=8)
        bad = dataclasses.replace(design, l_g=16)
        findings = lint_design(bad).by_rule()["T007"]
        assert len(findings) == 1
        assert "phase (cycle) counter" in findings[0].message
        assert "expected 4 for L_G=16" in findings[0].message


class TestDesignIo:
    def test_round_trip_preserves_behaviour(self, tmp_path):
        design = _design(["01", "1", "100"], l_g=12)
        path = tmp_path / "design.json"
        save_design(design, path)
        loaded = load_design(path)
        assert loaded.l_g == design.l_g
        assert loaded.assignments == design.assignments
        assert loaded.output_ports == design.output_ports
        assert verify_tpg(loaded).ok

    def test_round_trip_with_lfsr(self, tmp_path):
        design = synthesize_tpg(
            [WeightAssignment.from_strings(["R", "1"])],
            l_g=8,
            lfsr=LfsrSpec(width=4, seed=0b1011),
        )
        path = tmp_path / "design.json"
        save_design(design, path)
        loaded = load_design(path)
        assert loaded.lfsr == design.lfsr
        assert verify_tpg(loaded).ok

    def test_round_trip_preserves_alphabet(self, tmp_path):
        alphabet = (Weight.from_string("100"), Weight.from_string("01"))
        design = synthesize_tpg(
            [WeightAssignment.from_strings(["01", "1"])],
            l_g=8,
            alphabet=alphabet,
        )
        path = tmp_path / "design.json"
        save_design(design, path)
        loaded = load_design(path)
        assert loaded.alphabet == alphabet
        assert verify_tpg(loaded).ok
        report = lint_design_path(path)
        assert report.error_count == 0
        assert "T004" not in report.by_rule()

    def test_saved_design_lints_clean(self, tmp_path):
        design = _design(["01", "1"], l_g=8)
        path = tmp_path / "design.json"
        save_design(design, path)
        report = lint_design_path(path)
        assert report.error_count == 0
        assert all(d.artifact == str(path) for d in report)

    def test_parameter_drift_is_caught(self, tmp_path):
        # Hand-edit L_G in the saved file: the netlist's counter no
        # longer matches, which is exactly what T007 exists for.
        design = _design(["01", "1"], l_g=8)
        path = tmp_path / "design.json"
        save_design(design, path)
        payload = json.loads(path.read_text())
        payload["l_g"] = 32
        path.write_text(json.dumps(payload))
        report = lint_design_path(path)
        assert "T007" in report.by_rule()

    def test_corrupted_bench_reports_instead_of_crashing(self, tmp_path):
        design = _design(["01", "1"], l_g=8)
        path = tmp_path / "design.json"
        save_design(design, path)
        payload = json.loads(path.read_text())
        payload["bench"] = payload["bench"].replace(
            "cyc_q0", "cyc_q0_gone", 1
        )
        path.write_text(json.dumps(payload))
        report = lint_design_path(path)
        assert report.error_count > 0
        # netlist errors stop design-level linting — no T findings
        assert not any(d.rule_id.startswith("T") for d in report)

    def test_not_json_raises_linterror(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("{not json")
        with pytest.raises(LintError, match="not valid JSON"):
            lint_design_path(path)

    @pytest.mark.parametrize(
        "lfsr, field",
        [({}, "width"), ({"width": "x", "seed": 1}, "width"),
         ({"width": 4, "seed": True}, "seed")],
    )
    def test_malformed_lfsr_is_one_error_line(
        self, tmp_path, capsys, lfsr, field
    ):
        design = _design(["R", "1"], lfsr=LfsrSpec(width=4, seed=3))
        path = tmp_path / "design.json"
        save_design(design, path)
        payload = json.loads(path.read_text())
        payload["lfsr"] = lfsr
        path.write_text(json.dumps(payload))
        with pytest.raises(HardwareError, match=f"'lfsr.{field}'"):
            load_design(path)
        rc = main(["lint", str(path)])
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if line]
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith("repro: error:")
        assert f"'lfsr.{field}'" in lines[0]

    @pytest.mark.parametrize(
        "field, value",
        [("l_g", 0), ("l_g", -5), ("l_g", True), ("assignments", [])],
    )
    def test_degenerate_window_or_assignments_is_one_error_line(
        self, tmp_path, capsys, field, value
    ):
        # Such a design used to load, and verify_tpg compared nothing
        # and passed it (cycles_checked 0 or negative).
        design = _design(["01", "1"], l_g=8)
        path = tmp_path / "design.json"
        save_design(design, path)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(HardwareError, match=f"'{field}'"):
            load_design(path)
        rc = main(["lint", str(path)])
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if line]
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith("repro: error:")
        assert f"'{field}'" in lines[0]

    @pytest.mark.parametrize(
        "change", [{"l_g": 0}, {"l_g": -5}, {"assignments": ()}]
    )
    def test_verify_rejects_degenerate_in_memory_design(self, change):
        design = dataclasses.replace(_design(["01", "1"], l_g=8), **change)
        with pytest.raises(HardwareError):
            verify_tpg(design)

    def test_wrong_kind_raises_linterror(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(LintError):
            lint_design_path(path)


def test_build_weight_fsms_never_produces_lint_findings():
    # The production FSM builder canonicalizes and merges, so T005/T006
    # cannot fire on anything it builds.
    weights = [Weight.from_string(s)
               for s in ("01", "0101", "100", "100100", "1")]
    fsms = build_weight_fsms(weights)
    design = _design(["01", "100", "1"])
    bad = dataclasses.replace(design, fsms=tuple(fsms))
    report = lint_design(bad)
    assert "T005" not in report.by_rule()
    assert "T006" not in report.by_rule()
