"""Tests for the full-report generator and its CLI command."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments.reporting import HEADER, generate_report


class TestGenerateReport:
    def test_subset_report(self):
        text = generate_report(experiment_ids=["E1", "E9"])
        assert HEADER.splitlines()[0] in text
        assert "[E1]" in text and "[E9]" in text
        assert "[E6]" not in text

    def test_timing_section(self):
        text = generate_report(experiment_ids=["E1"])
        assert "experiment runtimes:" in text
        assert "E1" in text.split("experiment runtimes:")[1]

    def test_timing_can_be_suppressed(self):
        text = generate_report(experiment_ids=["E1"], include_timing=False)
        assert "experiment runtimes:" not in text

    def test_unknown_ids_rejected(self):
        with pytest.raises(KeyError):
            generate_report(experiment_ids=["E1", "E99"])

    def test_order_preserved(self):
        text = generate_report(experiment_ids=["E9", "E1"], include_timing=False)
        assert text.index("[E9]") < text.index("[E1]")


class TestReportCli:
    def test_report_to_stdout(self, capsys):
        assert main(["report", "--only", "E1"]) == 0
        out = capsys.readouterr().out
        assert "[E1]" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(["report", "--only", "E1", "--output", str(target)]) == 0
        assert "[E1]" in target.read_text()
        assert "written to" in capsys.readouterr().out
