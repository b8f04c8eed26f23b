"""The one-shot verification report."""

import pytest

import repro.report
from repro.core.errors import FusionError
from repro.report import ReportItem, VerificationReport, verification_report


@pytest.fixture(scope="module")
def report():
    return verification_report()


class TestVerificationReport:
    def test_all_claims_verified(self, report):
        failing = [item for item in report.items if not item.verdict]
        assert report.all_hold, failing

    def test_covers_every_section(self, report):
        """The report is the experiment index: §3 is E1–E5, §4 E6–E9, §5
        E10–E12 and §6 E14.  E13 ablates the machinery, not a claim."""
        experiments = {item.experiment for item in report.items}
        assert experiments == {f"E{number}" for number in range(1, 15)} - {"E13"}

    def test_markdown_rendering(self, report):
        markdown = report.to_markdown()
        assert markdown.startswith("# Verification report")
        assert "ALL CLAIMS VERIFIED" in markdown
        assert markdown.count("✓") == len(report.items)
        assert "✗" not in markdown

    def test_failure_rendering(self):
        failing = VerificationReport(
            items=[ReportItem("EX", "a false claim", False, "details")]
        )
        markdown = failing.to_markdown()
        assert not failing.all_hold
        assert "FAILURES FOUND" in markdown
        assert "✗ FAIL" in markdown

    def test_cli_report_command(self, capsys):
        from repro.cli import main

        assert main(["report"]) == 0
        assert "ALL CLAIMS VERIFIED" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "checker, error, row_start",
        [
            ("check_theorem_1", AssertionError, "| E3 | Theorem 1"),
            ("fusion_census", FusionError, "| E4 | fusion"),
        ],
    )
    def test_failing_checker_renders_as_a_failed_row(
        self, monkeypatch, capsys, checker, error, row_start
    ):
        """A checker that raises on a counterexample yields a ✗ row and a
        non-zero exit, not a traceback."""
        from repro.cli import main

        def refuted(*_args, **_kwargs):
            raise error("planted counterexample")

        monkeypatch.setattr(repro.report, checker, refuted)
        report = verification_report()
        assert not report.all_hold
        (row,) = [line for line in report.to_markdown().splitlines()
                  if line.startswith(row_start)]
        assert "| ✗ FAIL | planted counterexample |" in row
        assert main(["report"]) != 0
        assert "FAILURES FOUND" in capsys.readouterr().out
