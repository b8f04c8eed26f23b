"""The command-line interface."""

import re

import pytest

from repro.cli import build_protocol, main, make_parser

from test_universe_arena import small_chunks  # noqa: F401  (fixture)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["explore", "nonsense"])


class TestCommands:
    def test_experiments_is_not_a_command(self):
        """``repro report`` is the experiment index."""
        with pytest.raises(SystemExit):
            main(["experiments"])

    def test_bench_is_not_a_command(self):
        """perfbench is the one benchmark; argparse rejects ``bench``."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--quick"])
        assert excinfo.value.code == 2

    def test_explore_pingpong(self, capsys):
        assert main(["explore", "pingpong", "--rounds", "1"]) == 0
        output = capsys.readouterr().out
        assert "5 configurations" in output
        assert "self loop" in output

    def test_explore_suppresses_large_diagrams(self, capsys):
        assert main(
            ["explore", "tokenbus", "--hops", "4", "--diagram-limit", "3"]
        ) == 0
        assert "suppressed" in capsys.readouterr().out

    def test_explore_workers_matches_single_process(self, capsys):
        command = ["explore", "broadcast", "--topology", "star", "--size", "5"]
        assert main(command) == 0
        single = capsys.readouterr().out
        assert main([*command, "--workers", "2"]) == 0
        sharded = capsys.readouterr().out
        assert "634 configurations (complete: True)" in single
        assert "634 configurations (complete: True, workers: 2)" in sharded

    def test_explore_reports_spilled_arena(self, small_chunks, capsys, tmp_path):
        assert main(
            ["explore", "broadcast", "--topology", "star", "--size", "5",
             "--spill-dir", str(tmp_path)]
        ) == 0
        arena_line = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("arena: ")
        )
        sealed, raw, compressed, spilled, on_disk = map(
            int, re.findall(r"\d+", arena_line)
        )
        assert sealed > 0 and 0 < compressed < raw
        assert spilled > 0 and on_disk > 0

    def test_check_broadcast(self, capsys):
        assert main(["check", "broadcast", "--size", "3"]) == 0
        output = capsys.readouterr().out
        assert "all hold" in output
        assert "Theorem 1" in output

    def test_check_limit_is_a_one_line_error(self, capsys):
        # Exit 1 means "a property FAILED"; a blown bound is a usage
        # error, reported like ``repro explore`` reports it.
        assert main(["check", "broadcast", "--limit", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: exploration exceeded 5 ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_check_pingpong(self, capsys):
        assert main(["check", "pingpong", "--rounds", "1"]) == 0
        assert "knowledge facts 1-12: all hold" in capsys.readouterr().out

    def test_simulate_election(self, capsys):
        assert main(["simulate", "election", "--size", "4", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "undelivered" in output
        assert "n0 |" in output

    def test_simulate_snapshot(self, capsys):
        assert main(["simulate", "snapshot", "--size", "3"]) == 0
        assert "0 undelivered" in capsys.readouterr().out

    def test_simulate_toggle(self, capsys):
        assert main(["simulate", "toggle", "--flips", "2"]) == 0


class TestBuildProtocol:
    def test_every_choice_builds(self):
        parser = make_parser()
        for name in ("pingpong", "tokenbus", "broadcast", "toggle",
                     "election", "snapshot"):
            args = parser.parse_args(["explore", name])
            assert build_protocol(name, args) is not None

    def test_broadcast_topologies(self, capsys):
        for topology, count in (("line", 6), ("star", 14), ("ring", 66)):
            assert main(
                ["explore", "broadcast", "--topology", topology, "--size", "3"]
            ) == 0
            assert f"{count} configurations" in capsys.readouterr().out

    def test_broadcast_tree_topology(self, capsys):
        # A binary tree over seven processes, as the library builds it.
        assert main(
            ["explore", "broadcast", "--topology", "tree", "--size", "7"]
        ) == 0
        assert "422 configurations (complete: True)" in capsys.readouterr().out


def build_checkpoint(tmp_path, *extra):
    """A complete star n=4 checkpointed exploration via the CLI."""
    path = tmp_path / "u.ckpt"
    assert main(
        ["explore", "broadcast", "--topology", "star", "--size", "4",
         "--checkpoint", str(path), *extra]
    ) == 0
    return path


def corrupt_tail(path):
    seg = sorted(path.parent.glob(f"{path.name}.g*-*.seg"))[-1]
    raw = bytearray(seg.read_bytes())
    raw[-1] ^= 0xFF
    seg.write_bytes(bytes(raw))
    return seg


class TestCheckpointCommand:
    def test_verify_ok(self, capsys, tmp_path):
        path = build_checkpoint(tmp_path)
        capsys.readouterr()
        assert main(["checkpoint", "verify", str(path)]) == 0
        output = capsys.readouterr().out
        assert "INTEGRITY: ok" in output
        assert "format version: 2" in output

    def test_verify_corrupt_exits_nonzero(self, capsys, tmp_path):
        path = build_checkpoint(tmp_path)
        corrupt_tail(path)
        capsys.readouterr()
        assert main(["checkpoint", "verify", str(path)]) == 1
        output = capsys.readouterr().out
        assert "INTEGRITY: FAILED" in output
        assert "salvageable" in output

    def test_inspect_corrupt_reports_but_exits_zero(self, capsys, tmp_path):
        path = build_checkpoint(tmp_path)
        corrupt_tail(path)
        capsys.readouterr()
        assert main(["checkpoint", "inspect", str(path)]) == 0
        assert "corrupt" in capsys.readouterr().out

    def test_missing_file_exits_two(self, capsys, tmp_path):
        assert main(["checkpoint", "verify", str(tmp_path / "no.ckpt")]) == 2
        assert "no such file" in capsys.readouterr().out

    def test_compact_exit_codes(self, capsys, tmp_path):
        path = build_checkpoint(tmp_path)
        capsys.readouterr()
        assert main(["checkpoint", "compact", str(path)]) == 0
        assert "compacted" in capsys.readouterr().out
        assert main(["checkpoint", "verify", str(path)]) == 0
        assert main(["checkpoint", "compact", str(path)]) == 0
        assert "not compacted" in capsys.readouterr().out
        capsys.readouterr()
        assert main(["checkpoint", "compact", str(tmp_path / "no.ckpt")]) == 2
        assert "checkpoint error" in capsys.readouterr().err

    def test_compact_damaged_checkpoint_exits_two(self, capsys, tmp_path):
        path = build_checkpoint(tmp_path)
        corrupt_tail(path)
        capsys.readouterr()
        assert main(["checkpoint", "compact", str(path)]) == 2
        assert "damaged" in capsys.readouterr().err

    def test_resume_via_cli_round_trip(self, capsys, tmp_path):
        path = build_checkpoint(tmp_path)
        capsys.readouterr()
        assert main(
            ["explore", "broadcast", "--topology", "star", "--size", "4",
             "--checkpoint", str(path)]
        ) == 0
        assert "resumed from checkpoint" in capsys.readouterr().out


class TestExploreRobustnessFlags:
    def test_strict_resume_of_corrupt_checkpoint_exits_two(
        self, capsys, tmp_path
    ):
        path = build_checkpoint(tmp_path)
        corrupt_tail(path)
        capsys.readouterr()
        assert main(
            ["explore", "broadcast", "--topology", "star", "--size", "4",
             "--checkpoint", str(path), "--strict"]
        ) == 2
        assert "checkpoint error" in capsys.readouterr().err

    def test_salvage_resume_prints_recovery(self, capsys, tmp_path):
        path = build_checkpoint(tmp_path)
        corrupt_tail(path)
        capsys.readouterr()
        assert main(
            ["explore", "broadcast", "--topology", "star", "--size", "4",
             "--checkpoint", str(path)]
        ) == 0
        output = capsys.readouterr().out
        assert "recovery: corrupt_segment" in output
        assert "salvage-truncate" in output

    def test_incompatible_checkpoint_exits_two(self, capsys, tmp_path):
        path = build_checkpoint(tmp_path)
        capsys.readouterr()
        assert main(
            ["explore", "broadcast", "--topology", "star", "--size", "5",
             "--checkpoint", str(path)]
        ) == 2
        assert "incompatible" in capsys.readouterr().err

    def test_fault_spec_torn_save_needs_checkpoint(self, capsys):
        assert main(
            ["explore", "broadcast", "--topology", "star", "--size", "4",
             "--fault", "torn_save@2"]
        ) == 2
        assert "requires a checkpoint" in capsys.readouterr().err

    def test_bad_fault_spec_exits_two(self, capsys):
        assert main(
            ["explore", "broadcast", "--topology", "star", "--size", "4",
             "--fault", "torn_save:0@2"]
        ) == 2
        assert "takes no shard" in capsys.readouterr().err

    def test_corrupt_segment_fault_round_trip(self, capsys, tmp_path):
        """Inject the fault via the CLI, then verify + salvage via the
        CLI: the full operator workflow."""
        path = tmp_path / "u.ckpt"
        assert main(
            ["explore", "broadcast", "--topology", "star", "--size", "4",
             "--checkpoint", str(path), "--fault", "corrupt_segment@2"]
        ) == 0
        capsys.readouterr()
        assert main(["checkpoint", "verify", str(path)]) == 1
        capsys.readouterr()
        assert main(
            ["explore", "broadcast", "--topology", "star", "--size", "4",
             "--checkpoint", str(path)]
        ) == 0
        assert "salvage-truncate" in capsys.readouterr().out


class TestStorageFaultCli:
    """Hostile-storage workflows through the operator surface: --fault
    storage kinds, the loud DEGRADED banner, and --json reports."""

    def test_inspect_json_report(self, capsys, tmp_path):
        import json

        path = build_checkpoint(tmp_path)
        capsys.readouterr()
        assert main(["checkpoint", "inspect", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is True
        assert report["format_version"] == 2
        assert report["segments"] and all(
            row["status"] == "ok" for row in report["segments"]
        )

    def test_verify_json_corrupt_exits_one(self, capsys, tmp_path):
        import json

        path = build_checkpoint(tmp_path)
        corrupt_tail(path)
        capsys.readouterr()
        assert main(["checkpoint", "verify", str(path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False
        # inspect keeps the same report but only fails on unreadable.
        capsys.readouterr()
        assert main(["checkpoint", "inspect", str(path), "--json"]) == 0

    def test_json_missing_file_exits_two(self, capsys, tmp_path):
        import json

        assert main(
            ["checkpoint", "inspect", str(tmp_path / "no.ckpt"), "--json"]
        ) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["exists"] is False

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_enospc_degrades_loudly_and_manifest_survives(
        self, capsys, tmp_path
    ):
        """ENOSPC mid-run: exit 0, one DEGRADED banner on stderr, and
        the committed prefix still verifies clean."""
        path = tmp_path / "u.ckpt"
        assert main(
            ["explore", "broadcast", "--topology", "star", "--size", "4",
             "--checkpoint", str(path), "--fault", "enospc@1"]
        ) == 0
        captured = capsys.readouterr()
        assert "checkpoint DEGRADED" in captured.err
        assert "disable-checkpointing" in captured.out
        assert main(["checkpoint", "verify", str(path)]) == 0

    def test_transient_fault_prints_retry_recovery(self, capsys, tmp_path):
        path = tmp_path / "u.ckpt"
        assert main(
            ["explore", "broadcast", "--topology", "star", "--size", "4",
             "--checkpoint", str(path), "--fault", "eio_write@1"]
        ) == 0
        captured = capsys.readouterr()
        assert "recovery: storage_retry -> retry" in captured.out
        assert "DEGRADED" not in captured.err
        capsys.readouterr()
        assert main(["checkpoint", "verify", str(path)]) == 0

    def test_storage_fault_without_target_exits_two(self, capsys):
        assert main(
            ["explore", "broadcast", "--topology", "star", "--size", "4",
             "--fault", "enospc@1"]
        ) == 2
        assert "checkpoint path or a spill" in capsys.readouterr().err

    def test_shard_qualified_storage_kind_exits_two(self, capsys):
        assert main(
            ["explore", "broadcast", "--topology", "star", "--size", "4",
             "--fault", "enospc:0@1"]
        ) == 2
        assert "takes no shard" in capsys.readouterr().err
