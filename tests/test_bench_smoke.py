"""The bench harness smoke mode (``repro bench --quick``).

Tier-1 coverage so the benchmark harness cannot silently rot: the quick
exploration-scale subset must run end to end through the CLI, with its
cold-start split, streaming truncation, memory axis and budget guard;
the trajectory writer must never clobber an earlier file.
"""

import json

import pytest

import repro.bench
from repro.bench import (
    BenchBudgetExceeded,
    BenchRecoveryMismatch,
    run_benchmarks,
    write_trajectory,
)
from repro.cli import main


class TestExplorationScaleSmoke:
    """The exploration-scale suite's quick mode is tier-1: the scale
    harness (compiled-table cold split, streaming truncation, budget
    guard) must not rot between full-size runs."""

    def test_quick_suite_exits_zero(self, capsys):
        # exploration-scale is the default suite.
        assert main(
            ["bench", "--quick", "--no-write", "--budget", "600"]
        ) == 0
        out = capsys.readouterr().out
        assert "universe_star_broadcast_n5" in out
        assert "universe_tree_broadcast_d2" in out
        assert "universe_star_broadcast_n5_truncated" in out

    def test_quick_suite_document_shape(self):
        document = run_benchmarks(
            repeats=3, quick=True, suite="exploration-scale", budget=600
        )
        assert document["suite"] == "exploration-scale"
        assert document["mode"] == "quick"
        assert document["repeats"] == 1  # quick forces single repeats
        assert document["budget_seconds"] == 600
        benchmarks = document["benchmarks"]
        star = benchmarks["universe_star_broadcast_n5"]
        # Cold-start attribution: table build reported separately from BFS.
        assert star["table_build_seconds"] >= 0
        assert (
            abs(
                star["first_seconds"]
                - star["table_build_seconds"]
                - star["bfs_first_seconds"]
            )
            < 1e-6
        )
        truncated = benchmarks["universe_star_broadcast_n5_truncated"]
        assert truncated["complete"] is False
        assert truncated["configurations"] == truncated["max_configurations"]
        # The memory axis records the one store only.
        assert benchmarks["explore_rss_star_n5_arena"]["peak_rss_mb"] > 0
        assert benchmarks["sharded_rss_star_n5_workers2_packed"]["summed_rss_mb"] > 0
        assert not [name for name in benchmarks if name.endswith("_objects")]
        assert json.loads(json.dumps(document)) == document

    def test_budget_overrun_fails(self, capsys):
        with pytest.raises(BenchBudgetExceeded):
            run_benchmarks(
                repeats=1, quick=True, suite="exploration-scale", budget=1e-9
            )
        assert (
            main(
                [
                    "bench",
                    "--suite",
                    "exploration-scale",
                    "--quick",
                    "--no-write",
                    "--budget",
                    "0.000000001",
                ]
            )
            == 1
        )
        assert "budget" in capsys.readouterr().out

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_benchmarks(repeats=1, suite="nope")

    def test_core_suite_and_check_flag_are_gone(self):
        with pytest.raises(ValueError):
            run_benchmarks(repeats=1, suite="core")
        with pytest.raises(SystemExit):
            main(["bench", "--suite", "core", "--no-write"])
        with pytest.raises(SystemExit):
            main(["bench", "--quick", "--check", "--no-write"])

    def test_repeats_validation(self):
        with pytest.raises(ValueError):
            run_benchmarks(repeats=0)
        with pytest.raises(SystemExit):
            main(["bench", "--quick", "--no-write", "--repeats", "0"])

    def test_trajectory_files_never_clobber(self, tmp_path):
        # A hand-built document: the writer needs no bench run.
        document = {
            "date": "2026-01-02",
            "suite": "exploration-scale",
            "benchmarks": {"universe_star_broadcast_n5": {"best_seconds": 0.01}},
        }
        first = write_trajectory(document, tmp_path)
        second = write_trajectory(document, tmp_path)
        third = write_trajectory(document, tmp_path / "nested")
        assert first.name == "BENCH_2026-01-02.json"
        assert second.name == "BENCH_2026-01-02-2.json"
        assert third.name == "BENCH_2026-01-02.json"
        for path in (first, second, third):
            assert json.loads(path.read_text()) == document


class TestFaultRecoveryFailure:
    def test_recovery_mismatch_fails_with_one_line(self, monkeypatch, capsys):
        """A failed bit-identity check exits 1 with one summary line,
        like a shard mismatch or a budget overrun — no traceback."""

        def mismatch(baseline, recovered, label):
            raise BenchRecoveryMismatch(f"{label}: injected mismatch")

        monkeypatch.setattr(repro.bench, "_assert_recovered_identical", mismatch)
        assert (
            main(["bench", "--suite", "fault-recovery", "--quick", "--no-write"])
            == 1
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["repro bench FAILED: kill: injected mismatch"]
