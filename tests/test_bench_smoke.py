"""The bench harness smoke mode (``repro bench --quick --check``).

Tier-1 coverage so the benchmark harness cannot silently rot: the quick
subset must run end to end, the cross-checks must pass against the
reference oracles, and a rigged oracle disagreement must be caught.
"""

import json

import pytest

from repro.bench import (
    BenchCheckFailure,
    main,
    run_benchmarks,
    run_cross_checks,
    write_trajectory,
)


class TestQuickCheckSmoke:
    def test_cli_quick_check_exits_zero(self, capsys):
        assert main(["--quick", "--check", "--no-write"]) == 0
        out = capsys.readouterr().out
        assert "cross-checked vs reference oracles" in out
        assert "iso_properties_star_n3" in out

    def test_quick_document_shape(self):
        document = run_benchmarks(repeats=3, quick=True, check=True)
        assert document["mode"] == "quick"
        assert document["repeats"] == 1  # quick forces single repeats
        assert set(document["cross_checked"]) == {
            "pingpong",
            "star_broadcast_n3",
            "token_bus_h4",
            "star_broadcast_n4_truncated",
        }
        benchmarks = document["benchmarks"]
        paired = benchmarks["iso_properties_star_n3"]
        assert paired["object_seconds"] > 0
        assert paired["speedup_vs_object"] > 0
        assert json.loads(json.dumps(document)) == document  # JSON-ready

    def test_trajectory_write(self, tmp_path):
        document = run_benchmarks(repeats=1, quick=True)
        path = write_trajectory(document, tmp_path)
        assert path.exists() and path.name.startswith("BENCH_")
        assert json.loads(path.read_text())["mode"] == "quick"

    def test_cross_checks_cover_truncated_universe(self):
        assert "star_broadcast_n4_truncated" in run_cross_checks()

    def test_check_failure_is_reported(self, monkeypatch, capsys):
        from repro import bench

        def broken(universe, x, sets):
            return frozenset()

        monkeypatch.setattr(
            bench.reference, "composed_class_reference", broken
        )
        with pytest.raises(BenchCheckFailure):
            run_cross_checks()
        assert main(["--quick", "--check", "--no-write"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_repeats_validation(self):
        with pytest.raises(ValueError):
            run_benchmarks(repeats=0)
        with pytest.raises(SystemExit):
            main(["--quick", "--no-write", "--repeats", "0"])


class TestExplorationScaleSmoke:
    """The exploration-scale suite's quick mode is tier-1: the scale
    harness (compiled-table cold split, streaming truncation, budget
    guard) must not rot between full-size runs."""

    def test_quick_suite_exits_zero(self, capsys):
        assert main(
            [
                "--suite",
                "exploration-scale",
                "--quick",
                "--no-write",
                "--budget",
                "600",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "universe_star_broadcast_n5" in out
        assert "universe_tree_broadcast_d2" in out
        assert "universe_star_broadcast_n5_truncated" in out

    def test_quick_suite_document_shape(self):
        document = run_benchmarks(
            repeats=1, quick=True, suite="exploration-scale", budget=600
        )
        assert document["suite"] == "exploration-scale"
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
        import json

        assert json.loads(json.dumps(document)) == document

    def test_budget_overrun_fails(self, capsys):
        from repro.bench import BenchBudgetExceeded

        with pytest.raises(BenchBudgetExceeded):
            run_benchmarks(
                repeats=1, quick=True, suite="exploration-scale", budget=1e-9
            )
        assert (
            main(
                [
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

    def test_trajectory_files_never_clobber(self, tmp_path):
        document = run_benchmarks(repeats=1, quick=True)
        first = write_trajectory(document, tmp_path)
        second = write_trajectory(document, tmp_path)
        assert first != second
        assert first.exists() and second.exists()
        assert second.name.endswith("-2.json")
