"""Layer-boundary checkpoint/resume and the RSS watchdog.

The contract: an exploration interrupted at any layer boundary and
resumed from its checkpoint file finishes with a universe bit-identical
to an uninterrupted run — same dense ids, CSR arrays, hash buckets
(collision layout included), completeness flag — for the in-process
kernel and the sharded engine alike, and even across engines (a kernel
checkpoint resumed sharded, and vice versa), because the file stores
the merged discovery stream rather than engine-specific state.
"""

import os
import pathlib
import re
import subprocess
import sys
import textwrap
import warnings
import zlib
from array import array

import pytest

import repro.universe.checkpoint as checkpoint_module
from repro.core.configuration import Configuration
from repro.core.errors import UniverseError
from repro.protocols.token_bus import TokenBusProtocol
from repro.universe.arena import ArenaStore, compress_batch, decompress_batch
from repro.universe.checkpoint import (
    MANIFEST_MAGIC,
    SEGMENT_MAGIC,
    CheckpointError,
    CheckpointSession,
    RssWatchdog,
    compact_checkpoint,
    compatibility_token,
    inspect_checkpoint,
    process_rss_mb,
)
from repro.universe.explorer import Universe
from repro.universe.options import (
    CheckpointPolicy,
    ExplorationOptions,
    Limits,
    ResourceBudget,
    Sharding,
)
from repro.universe.faults import FaultPlan
from repro.universe.sharded import SupervisionPolicy

from test_universe_sharded import assert_bit_identical, star_protocol

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def segment_files(path):
    return sorted(
        item
        for item in path.parent.iterdir()
        if re.fullmatch(re.escape(path.name) + r"\.g\d+-\d{6,}\.seg", item.name)
    )


def snapshot_files(path):
    """Every file of one checkpoint (manifest plus segments), by name."""
    files = [path, *segment_files(path)]
    return {item.name: item.read_bytes() for item in files}


def flip_last_byte(path):
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))


def partial_checkpoint(tmp_path, cap=300, name="u.ckpt", size=5):
    path = tmp_path / name
    Universe(
        star_protocol(size),
        options=ExplorationOptions(
            limits=Limits(max_configurations=cap, on_limit="truncate"),
            checkpoint=CheckpointPolicy(path=path),
        ),
    )
    return path

FAST = SupervisionPolicy(heartbeat_timeout=5.0, poll_interval=0.02)


def interrupt_then_resume(tmp_path, cap, workers=None, resume_workers=None):
    """Truncate an exploration at ``cap`` configurations (the natural
    mid-exploration interruption: the checkpoint keeps the last
    completed layer boundary), then resume with the cap lifted."""
    path = tmp_path / "universe.ckpt"
    partial = Universe(
        star_protocol(5),
        options=ExplorationOptions(
            limits=Limits(max_configurations=cap, on_limit="truncate"),
            checkpoint=CheckpointPolicy(path=path),
            sharding=Sharding(workers=workers),
        ),
    )
    assert not partial.is_complete
    resumed = Universe(
        star_protocol(5),
        options=ExplorationOptions(
            checkpoint=CheckpointPolicy(path=path),
            sharding=Sharding(workers=resume_workers),
        ),
    )
    return partial, resumed


class TestKernelResume:
    def test_interrupted_run_resumes_bit_identical(self, tmp_path):
        single = Universe(star_protocol(5))
        partial, resumed = interrupt_then_resume(tmp_path, cap=200)
        assert len(partial) == 200
        assert_bit_identical(single, resumed)
        assert resumed._checkpoint_session.resumed_from is not None

    def test_every_interruption_point(self, tmp_path):
        """Truncating at many different caps always resumes exactly."""
        single = Universe(star_protocol(5))
        for cap in (2, 17, 80, 300, 633):
            path = tmp_path / f"cap{cap}.ckpt"
            Universe(
                star_protocol(5),
                options=ExplorationOptions(
                    limits=Limits(max_configurations=cap, on_limit="truncate"),
                    checkpoint=CheckpointPolicy(path=path),
                ),
            )
            resumed = Universe(
                star_protocol(5),
                options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
            )
            assert_bit_identical(single, resumed)

    def test_fresh_run_with_checkpoint_writes_file(self, tmp_path):
        path = tmp_path / "fresh.ckpt"
        universe = Universe(
            star_protocol(4),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert path.exists()
        session = universe._checkpoint_session
        assert session.resumed_from is None
        assert session.saves >= 1
        assert not path.with_name(path.name + ".tmp").exists()  # atomic

    def test_resume_of_complete_run_is_idempotent(self, tmp_path):
        path = tmp_path / "done.ckpt"
        first = Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        again = Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert again._checkpoint_session.resumed_from == len(first)
        assert_bit_identical(first, again)

    def test_checkpoint_every_reduces_saves(self, tmp_path):
        dense = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                checkpoint=CheckpointPolicy(path=tmp_path / "dense.ckpt"),
            ),
        )
        sparse = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                checkpoint=CheckpointPolicy(path=tmp_path / "sparse.ckpt", every=4),
            ),
        )
        assert sparse._checkpoint_session.saves < (
            dense._checkpoint_session.saves
        )
        # The final state is always saved, so resume still completes.
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                checkpoint=CheckpointPolicy(path=tmp_path / "sparse.ckpt"),
            ),
        )
        assert_bit_identical(dense, resumed)

    def test_interval_validation(self, tmp_path):
        with pytest.raises(UniverseError, match=">= 1"):
            Universe(
                star_protocol(4),
                options=ExplorationOptions(
                    checkpoint=CheckpointPolicy(path=tmp_path / "x.ckpt", every=0),
                ),
            )

    def test_max_events_round_trip(self, tmp_path):
        single = Universe(
            star_protocol(5),
            options=ExplorationOptions(limits=Limits(max_events=6)),
        )
        path = tmp_path / "capped.ckpt"
        Universe(
            star_protocol(5),
            options=ExplorationOptions(
                limits=Limits(
                    max_events=6,
                    max_configurations=100,
                    on_limit="truncate",
                ),
                checkpoint=CheckpointPolicy(path=path),
            ),
        )
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                limits=Limits(max_events=6),
                checkpoint=CheckpointPolicy(path=path),
            ),
        )
        assert not resumed.is_complete  # max_events truncation preserved
        assert_bit_identical(single, resumed)


def decoded_segments(path):
    """Every committed segment of checkpoint ``path``, decoded: the
    header without its payload framing fields, plus the delta."""
    segments = []
    for item in segment_files(path):
        header, payload = checkpoint_module._decode_segment(item.read_bytes())
        decoded = {
            key: value
            for key, value in header.items()
            if key not in ("payload_len", "payload_crc")
        }
        delta = decompress_batch(payload)
        for key in ("parents", "events", "vocabulary", "succ_ids", "succ_offsets"):
            decoded[f"delta_{key}"] = delta[key]
        segments.append(decoded)
    return segments


class TestEnginesCommitTheSameStream:
    """The layer driver commits for both engines: the kernel and the
    sharded engine write the same decoded segment stream (and the same
    bytes: see :class:`TestReproducibleSegmentBytes`)."""

    @pytest.mark.parametrize(
        "every, limits",
        [
            (1, Limits()),
            (2, Limits()),
            (1, Limits(max_configurations=300, on_limit="truncate")),
        ],
        ids=["every1", "every2", "mid-layer-cap"],
    )
    def test_kernel_and_sharded_segments_match(self, tmp_path, every, limits):
        streams = []
        for workers in (None, 2):
            path = tmp_path / f"workers{workers}.ckpt"
            Universe(
                star_protocol(5),
                options=ExplorationOptions(
                    limits=limits,
                    checkpoint=CheckpointPolicy(path=path, every=every),
                    sharding=Sharding(workers=workers),
                ),
            )
            streams.append(decoded_segments(path))
        kernel, sharded = streams
        assert kernel == sharded
        assert len(kernel) >= 2
        if limits.on_limit == "truncate":
            # The cap stops a layer midway: the last commit is the
            # previous boundary, short of the cap.
            assert kernel[-1]["count"] < limits.max_configurations
        assert sum(segment["records"] for segment in kernel) > 0


class TestReproducibleSegmentBytes:
    def test_equal_records_pickle_to_equal_bytes(self):
        """However equal strings, messages and events are shared, equal
        event lists (a segment's vocabulary) pickle to the same bytes,
        and nothing changes value or type (``1`` and ``True`` stay
        apart)."""
        import pickle

        from repro.core.events import Message, internal, receive, send

        def events(fresh):
            def copy(value):
                return pickle.loads(pickle.dumps(value)) if fresh else value

            message = Message("hub", "x", "fact", payload=("hub", 1))
            return [
                copy(send(message)),
                copy(receive(message)),
                copy(internal("hub", "step", payload=1)),
                copy(internal("hub", "step", payload=True)),
                copy(send(message)),
            ]

        shared, fresh = events(False), events(True)
        assert shared == fresh
        assert pickle.dumps(shared) != pickle.dumps(fresh)
        canonical = checkpoint_module._canonical_vocabulary
        assert pickle.dumps(canonical(shared)) == pickle.dumps(canonical(fresh))
        decoded = pickle.loads(pickle.dumps(canonical(fresh)))
        assert decoded == shared
        assert [type(event.payload) for event in decoded[2:4]] == [int, bool]
        assert decoded[0] is decoded[4]
        assert decoded[0].message is decoded[1].message

    def test_bytes_are_a_function_of_the_records(self, tmp_path):
        """Fresh interpreters, both engines, two hash seeds: every run
        writes byte-identical segments.  The sharded coordinator holds
        events unpickled from whichever worker expanded each parent, and
        that split follows address-derived hashes, so pickling its live
        objects used to share different strings and messages per run."""
        runs = {}
        for workers in (1, 2):
            for seed in ("0", "1"):
                path = tmp_path / f"w{workers}-s{seed}" / "star5.ckpt"
                path.parent.mkdir()
                script = f"""
                    from repro.protocols.broadcast import BroadcastProtocol, star_topology
                    from repro.universe.explorer import Universe
                    from repro.universe.options import (
                        CheckpointPolicy, ExplorationOptions, Sharding,
                    )

                    Universe(
                        BroadcastProtocol(
                            star_topology("hub", ("w", "x", "y", "z")), "hub"
                        ),
                        options=ExplorationOptions(
                            checkpoint=CheckpointPolicy(path={str(path)!r}, every=1),
                            sharding=Sharding(workers={workers}),
                        ),
                    )
                """
                env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
                subprocess.run(
                    [sys.executable, "-c", textwrap.dedent(script)],
                    env=env,
                    check=True,
                    timeout=120,
                )
                runs[workers, seed] = {
                    item.name: item.read_bytes() for item in segment_files(path)
                }
        first = runs[1, "0"]
        assert len(first) >= 8
        for key, segments in runs.items():
            assert segments == first, key


def tree_protocol():
    from repro.protocols.broadcast import BroadcastProtocol, tree_topology

    names = tuple(f"t{index}" for index in range(7))
    return BroadcastProtocol(tree_topology(names), names[0])


def counting_trusted(monkeypatch) -> list:
    """Spy on ``Configuration._from_trusted``: every object it builds
    appends its arguments to the returned list."""
    built = []
    trusted = Configuration._from_trusted.__func__

    def counting(cls, *args):
        built.append(args)
        return trusted(cls, *args)

    monkeypatch.setattr(Configuration, "_from_trusted", classmethod(counting))
    return built


class TestObjectFreeResume:
    """Resume replays the discovery stream as rolling hashes: it builds
    no configuration and leaves nothing for a later read to finish."""

    def test_complete_resume_builds_no_configuration(self, tmp_path, monkeypatch):
        path = tmp_path / "done.ckpt"
        options = ExplorationOptions(checkpoint=CheckpointPolicy(path=path))
        first = Universe(tree_protocol(), options=options)
        built = counting_trusted(monkeypatch)
        scans = []
        monkeypatch.setattr(
            ArenaStore, "parent_event_columns", lambda store: scans.append(store)
        )
        again = Universe(tree_protocol(), options=options)
        assert built == []
        assert scans == []  # no frontier is left to load
        arena = again._configurations
        assert (arena.materialisations, arena.chain_walks) == (0, 0)
        arena[len(arena) - 1]  # the counter is live: a read builds objects
        assert built
        monkeypatch.undo()
        # Every hash column and the whole dedup table are already built.
        assert again._ids_by_hash == first._ids_by_hash
        assert [arena.content_hash(i) for i in range(len(arena))] == [
            first._configurations.content_hash(i) for i in range(len(first))
        ]
        assert_bit_identical(first, again)

    def test_mid_run_resume_builds_no_configuration(self, tmp_path, monkeypatch):
        """The frontier window is rebuilt from the parent and event
        columns, so the rest of the exploration builds no object either."""
        uninterrupted = Universe(star_protocol(5))
        path = partial_checkpoint(tmp_path, cap=200)
        built = counting_trusted(monkeypatch)
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert built == []
        monkeypatch.undo()
        assert resumed._checkpoint_session.resumed_from is not None
        assert_bit_identical(uninterrupted, resumed)

    @pytest.mark.parametrize("cap", [None, 150], ids=["complete", "mid-run"])
    def test_resume_under_another_hash_seed(self, tmp_path, cap):
        """A checkpoint written under one ``PYTHONHASHSEED`` resumes
        bit-identically under another: hashes are recomputed at load."""
        path = tmp_path / "seeded.ckpt"
        preamble = f"""
            from repro.protocols.broadcast import BroadcastProtocol, tree_topology
            from repro.universe.explorer import Universe
            from repro.universe.options import (
                CheckpointPolicy, ExplorationOptions, Limits,
            )
            from repro.universe.reference import reference_bfs

            def tree_protocol():
                names = tuple(f"t{{index}}" for index in range(7))
                return BroadcastProtocol(tree_topology(names), names[0])

            checkpoint = CheckpointPolicy(path={str(path)!r})
        """
        write = preamble + f"""
            limits = Limits(max_configurations={cap!r}, on_limit="truncate")
            Universe(tree_protocol(), options=ExplorationOptions(
                limits=limits, checkpoint=checkpoint))
        """
        resume = preamble + """
            resumed = Universe(tree_protocol(), options=ExplorationOptions(
                checkpoint=checkpoint))
            assert resumed._checkpoint_session.resumed_from is not None
            assert reference_bfs(tree_protocol()).differences(resumed) == []
        """
        for seed, script in (("0", write), ("1", resume)):
            env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
            subprocess.run(
                [sys.executable, "-c", textwrap.dedent(script)],
                env=env,
                check=True,
                timeout=120,
            )


class TestShardedResume:
    def test_sharded_interrupt_sharded_resume(self, tmp_path):
        single = Universe(star_protocol(5))
        _, resumed = interrupt_then_resume(
            tmp_path, cap=200, workers=2, resume_workers=2
        )
        assert_bit_identical(single, resumed)

    def test_cross_engine_resume(self, tmp_path):
        """The file format is engine-neutral: kernel checkpoint resumed
        sharded, sharded checkpoint resumed by the kernel."""
        single = Universe(star_protocol(5))
        (tmp_path / "a").mkdir()
        _, kernel_to_sharded = interrupt_then_resume(
            tmp_path / "a", cap=150, workers=None, resume_workers=3
        )
        assert_bit_identical(single, kernel_to_sharded)
        (tmp_path / "b").mkdir()
        _, sharded_to_kernel = interrupt_then_resume(
            tmp_path / "b", cap=150, workers=2, resume_workers=None
        )
        assert_bit_identical(single, sharded_to_kernel)

    def test_resume_with_fault_injection(self, tmp_path):
        """Checkpoint resume composes with failover in the same run."""
        single = Universe(star_protocol(5))
        path = tmp_path / "both.ckpt"
        partial = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                limits=Limits(max_configurations=200, on_limit="truncate"),
                checkpoint=CheckpointPolicy(path=path),
                sharding=Sharding(workers=2),
            ),
        )
        # Fault layers are absolute BFS layer indices; a resumed run
        # starts at the checkpoint's layer, so target one past it.
        resume_layer = partial._checkpoint_session.layers + 1
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                checkpoint=CheckpointPolicy(path=path),
                sharding=Sharding(
                    workers=2,
                    fault_plan=FaultPlan.kill(0, resume_layer),
                    supervision=FAST,
                ),
            ),
        )
        assert resumed.recovery_log
        assert_bit_identical(single, resumed)


class TestStar7Acceptance:
    def test_interrupted_star7_resumes_exactly(self, tmp_path):
        """The acceptance case: a checkpointed star n=7 run interrupted
        mid-exploration resumes to the same ids/CSR/completeness."""
        single = Universe(
            star_protocol(7),
            options=ExplorationOptions(limits=Limits(max_configurations=None)),
        )
        assert len(single) == 75_974
        path = tmp_path / "star7.ckpt"
        partial = Universe(
            star_protocol(7),
            options=ExplorationOptions(
                limits=Limits(max_configurations=30_000, on_limit="truncate"),
                checkpoint=CheckpointPolicy(path=path),
            ),
        )
        assert not partial.is_complete
        resumed = Universe(
            star_protocol(7),
            options=ExplorationOptions(
                limits=Limits(max_configurations=None),
                checkpoint=CheckpointPolicy(path=path),
            ),
        )
        assert resumed.is_complete
        assert len(resumed) == len(single)
        assert resumed._succ_offsets == single._succ_offsets
        assert resumed._succ_ids == single._succ_ids
        assert resumed._ids_by_hash == single._ids_by_hash
        assert resumed._checkpoint_session.resumed_from is not None
        assert resumed._checkpoint_session.resumed_from <= 30_000


class TestFileFormat:
    def build_checkpoint(self, tmp_path):
        path = tmp_path / "u.ckpt"
        Universe(
            star_protocol(5),
            options=ExplorationOptions(
                limits=Limits(max_configurations=100, on_limit="truncate"),
                checkpoint=CheckpointPolicy(path=path),
            ),
        )
        return path

    def test_wrong_protocol_rejected(self, tmp_path):
        path = self.build_checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="incompatible"):
            Universe(
                star_protocol(6),
                options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
            )
        with pytest.raises(CheckpointError, match="incompatible"):
            Universe(
                TokenBusProtocol(max_hops=4),
                options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
            )

    def test_wrong_max_events_rejected(self, tmp_path):
        path = self.build_checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="incompatible"):
            Universe(
                star_protocol(5),
                options=ExplorationOptions(
                    limits=Limits(max_events=4),
                    checkpoint=CheckpointPolicy(path=path),
                ),
            )

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="bad magic"):
            Universe(
                star_protocol(5),
                options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
            )

    def test_truncated_file_rejected(self, tmp_path):
        path = self.build_checkpoint(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            Universe(
                star_protocol(5),
                options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
            )

    def test_corrupt_payload_rejected(self, tmp_path):
        path = self.build_checkpoint(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(MANIFEST_MAGIC) + 4] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            Universe(
                star_protocol(5),
                options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
            )

    def test_checkpoint_error_is_universe_error(self):
        assert issubclass(CheckpointError, UniverseError)

    def test_token_shape(self):
        protocol = star_protocol(4)
        token = compatibility_token(protocol, 7)
        assert token[0] == 2  # format version (segmented) leads the token
        assert token[3] == 7
        assert token == compatibility_token(star_protocol(4), 7)
        assert token != compatibility_token(star_protocol(5), 7)

    def test_session_validates_interval(self, tmp_path):
        with pytest.raises(UniverseError, match=">= 1"):
            CheckpointSession(
                tmp_path / "x", star_protocol(4), None, every=0
            )


class TestRssWatchdog:
    def test_process_rss_is_measurable(self):
        rss = process_rss_mb()
        assert rss is not None and rss > 1.0
        assert process_rss_mb(os.getpid()) == pytest.approx(rss, rel=0.5)

    def test_unknown_pid_is_none_not_error(self):
        assert process_rss_mb(2**31 - 7) is None

    def test_budget_validation(self):
        with pytest.raises(UniverseError, match="positive"):
            RssWatchdog(0)
        with pytest.raises(UniverseError, match="positive"):
            Universe(
                star_protocol(4),
                options=ExplorationOptions(budget=ResourceBudget(rss_budget_mb=-5)),
            )

    def test_tiny_budget_truncates_gracefully(self):
        """Crossing the budget degrades to truncate, not a crash."""
        universe = Universe(
            star_protocol(5),
            options=ExplorationOptions(budget=ResourceBudget(rss_budget_mb=1)),
        )
        assert not universe.is_complete
        assert len(universe) < 634
        # CSR padding: every configuration has a (possibly empty) row.
        assert len(universe._succ_offsets) == len(universe) + 1

    def test_tiny_budget_truncates_sharded(self):
        """Both engines run the one-rung RSS ladder: the same truncation
        point, and one ``("rss_budget", "truncate", layer)`` recovery
        event each, the only rung there is."""
        kernel, sharded = (
            Universe(
                star_protocol(5),
                options=ExplorationOptions(
                    budget=ResourceBudget(rss_budget_mb=1),
                    sharding=Sharding(workers=workers),
                ),
            )
            for workers in (None, 2)
        )
        for universe in (kernel, sharded):
            assert not universe.is_complete
            assert len(universe._succ_offsets) == len(universe) + 1
        assert_bit_identical(kernel, sharded)

        def rungs(universe):
            return [
                (event["kind"], event["action"], event["layer"])
                for event in universe.recovery_log
            ]

        assert rungs(kernel) == rungs(sharded)
        for universe in (kernel, sharded):
            [(kind, rung, layer)] = rungs(universe)
            assert (kind, rung) == ("rss_budget", "truncate")
            assert layer is not None

    def test_truncation_writes_only_the_checkpoint(self, tmp_path):
        """The ladder's one rung truncates; the arena writes nothing of
        its own, so the checkpoint's manifest and segments are the only
        files the run leaves."""
        universe = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                checkpoint=CheckpointPolicy(path=tmp_path / "oom.ckpt"),
                budget=ResourceBudget(rss_budget_mb=1),
            ),
        )
        assert not universe.is_complete
        assert [
            (event["kind"], event["action"]) for event in universe.recovery_log
        ] == [("rss_budget", "truncate")]
        names = sorted(entry.name for entry in tmp_path.iterdir())
        assert names[0] == "oom.ckpt"
        assert names[1:] and all(
            name.startswith("oom.ckpt.") and name.endswith(".seg")
            for name in names[1:]
        )

    def test_generous_budget_changes_nothing(self):
        single = Universe(star_protocol(5))
        budgeted = Universe(
            star_protocol(5),
            options=ExplorationOptions(budget=ResourceBudget(rss_budget_mb=100_000)),
        )
        assert budgeted.is_complete
        assert_bit_identical(single, budgeted)

    def test_rss_truncation_then_resume(self, tmp_path):
        """The OOM-avoidance story end to end: budget trips, checkpoint
        survives, resume without the budget finishes bit-identically."""
        single = Universe(star_protocol(5))
        path = tmp_path / "oom.ckpt"
        partial = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                checkpoint=CheckpointPolicy(path=path),
                budget=ResourceBudget(rss_budget_mb=1),
            ),
        )
        assert not partial.is_complete
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert resumed.is_complete
        assert_bit_identical(single, resumed)


class TestRssWatchdogDegraded:
    """Hosts with no way to measure RSS must degrade loudly, not arm a
    check that silently never fires."""

    def test_unmeasurable_rss_warns_once_and_deactivates(self, monkeypatch):
        monkeypatch.setattr(checkpoint_module, "process_rss_mb", lambda pid=None: None)
        watchdog = RssWatchdog(100)
        assert watchdog.active
        with pytest.warns(RuntimeWarning, match="RSS watchdog disabled"):
            assert watchdog.exceeded() is False
        assert not watchdog.active
        # Second crossing attempt: silent, still inactive, still False.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert watchdog.exceeded() is False
        assert not watchdog.active

    def test_degraded_watchdog_never_truncates(self, monkeypatch):
        monkeypatch.setattr(checkpoint_module, "process_rss_mb", lambda pid=None: None)
        with pytest.warns(RuntimeWarning, match="RSS watchdog disabled"):
            universe = Universe(
                star_protocol(5),
                options=ExplorationOptions(budget=ResourceBudget(rss_budget_mb=1)),
            )
        # A 1 MiB budget would normally truncate immediately; without a
        # measurement the run completes and the degradation is visible.
        assert universe.is_complete
        assert universe.rss_watchdog_active is False

    def test_healthy_watchdog_is_observable(self):
        universe = Universe(
            star_protocol(4),
            options=ExplorationOptions(budget=ResourceBudget(rss_budget_mb=100_000)),
        )
        assert universe.rss_watchdog_active is True
        assert Universe(star_protocol(4)).rss_watchdog_active is None


class TestSegmentedLayout:
    """On-disk anatomy of the version-2 format."""

    def test_manifest_plus_segments(self, tmp_path):
        path = partial_checkpoint(tmp_path)
        assert path.read_bytes().startswith(MANIFEST_MAGIC)
        segments = segment_files(path)
        assert len(segments) >= 2  # one delta per layer save
        for seg in segments:
            assert seg.read_bytes().startswith(SEGMENT_MAGIC)
        report = inspect_checkpoint(path)
        assert [row["name"] for row in report["segments"]] == [
            seg.name for seg in segments
        ]

    def test_saves_append_not_rewrite(self, tmp_path):
        """Each layer save appends one segment; earlier segment files
        are never touched again (byte-for-byte)."""
        path = tmp_path / "u.ckpt"
        Universe(
            star_protocol(5),
            options=ExplorationOptions(
                limits=Limits(max_configurations=100, on_limit="truncate"),
                checkpoint=CheckpointPolicy(path=path),
            ),
        )
        early = {seg.name: seg.read_bytes() for seg in segment_files(path)}
        Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        late = {seg.name: seg.read_bytes() for seg in segment_files(path)}
        assert set(early) < set(late)
        for name, blob in early.items():
            assert late[name] == blob

    def test_compaction_bounds_file_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(checkpoint_module, "DEFAULT_COMPACT_SEGMENTS", 3)
        single = Universe(star_protocol(5))
        path = tmp_path / "u.ckpt"
        universe = Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        session = universe._checkpoint_session
        assert session.saves >= 9  # ten layers, saved every layer
        assert len(segment_files(path)) <= 4  # folded, not accumulated
        assert session._generation >= 1
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert_bit_identical(single, resumed)

    def test_compaction_threshold_validation(self, tmp_path):
        with pytest.raises(UniverseError, match=">= 2"):
            CheckpointSession(
                tmp_path / "x", star_protocol(4), None, compact_at=1
            )


class TestCorruptionSalvage:
    """Damaged checkpoints resume from the longest intact prefix."""

    def test_corrupt_tail_salvages_and_completes(self, tmp_path):
        single = Universe(star_protocol(5))
        path = partial_checkpoint(tmp_path)
        flip_last_byte(segment_files(path)[-1])
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert resumed.is_complete
        assert_bit_identical(single, resumed)
        session = resumed._checkpoint_session
        assert session.salvaged
        events = [
            entry
            for entry in resumed.recovery_log
            if entry["action"] == "salvage-truncate"
        ]
        assert len(events) == 1
        assert events[0]["kind"] == "corrupt_segment"
        assert "CRC mismatch" in events[0]["detail"]

    def test_deleted_tail_segment_salvages(self, tmp_path):
        single = Universe(star_protocol(5))
        path = partial_checkpoint(tmp_path)
        segment_files(path)[-1].unlink()
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert resumed.is_complete
        assert_bit_identical(single, resumed)
        events = [
            entry
            for entry in resumed.recovery_log
            if entry["action"] == "salvage-truncate"
        ]
        assert "missing" in events[0]["detail"]

    def test_corrupt_first_segment_restarts(self, tmp_path):
        """No salvageable prefix at all: the run restarts from scratch
        (logged) and still finishes correctly."""
        single = Universe(star_protocol(5))
        path = partial_checkpoint(tmp_path)
        flip_last_byte(segment_files(path)[0])
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert resumed.is_complete
        assert_bit_identical(single, resumed)
        assert resumed._checkpoint_session.resumed_from is None
        assert any(
            entry["action"] == "restart" for entry in resumed.recovery_log
        )

    def test_strict_mode_raises_instead(self, tmp_path):
        path = partial_checkpoint(tmp_path)
        flip_last_byte(segment_files(path)[-1])
        with pytest.raises(CheckpointError, match="salvage"):
            Universe(
                star_protocol(5),
                options=ExplorationOptions(
                    checkpoint=CheckpointPolicy(path=path, strict=True),
                ),
            )

    def test_strict_on_intact_file_is_inert(self, tmp_path):
        single = Universe(star_protocol(5))
        path = partial_checkpoint(tmp_path)
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                checkpoint=CheckpointPolicy(path=path, strict=True),
            ),
        )
        assert_bit_identical(single, resumed)

    def test_orphan_segment_discarded_and_logged(self, tmp_path):
        """A segment file the manifest never committed (torn save) is
        removed on resume, not merged."""
        single = Universe(star_protocol(5))
        path = partial_checkpoint(tmp_path)
        orphan = path.with_name(f"{path.name}.g0-000099.seg")
        orphan.write_bytes(SEGMENT_MAGIC + b"torn half-written segment")
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert not orphan.exists()
        assert_bit_identical(single, resumed)
        torn = [
            entry
            for entry in resumed.recovery_log
            if entry["action"] == "discard-orphan"
        ]
        assert torn and torn[0]["detail"] == orphan.name

    def test_salvage_overwrites_damaged_names(self, tmp_path):
        """After salvage, continued saves reuse the truncated segment
        names; a later resume sees a fully healthy file again."""
        path = partial_checkpoint(tmp_path)
        flip_last_byte(segment_files(path)[-1])
        Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        report = inspect_checkpoint(path)
        assert report["valid"], report
        again = Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert not again.recovery_log


class TestCheckpointFaultInjection:
    """The torn_save / corrupt_segment chaos hooks, in-process."""

    def test_torn_save_dies_between_segment_and_manifest(
        self, tmp_path, monkeypatch
    ):
        class TornDeath(BaseException):
            pass

        def die():
            raise TornDeath

        monkeypatch.setattr(CheckpointSession, "_hard_exit", staticmethod(die))
        path = tmp_path / "u.ckpt"
        with pytest.raises(TornDeath):
            Universe(
                star_protocol(5),
                options=ExplorationOptions(
                    checkpoint=CheckpointPolicy(path=path),
                    sharding=Sharding(fault_plan=FaultPlan.torn_save(3)),
                ),
            )
        # The segment append outran the manifest: that is the torn state.
        report = inspect_checkpoint(path)
        assert report["orphans"], report
        single = Universe(star_protocol(5))
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert_bit_identical(single, resumed)
        assert any(
            entry["action"] == "discard-orphan"
            for entry in resumed.recovery_log
        )

    def test_corrupt_segment_fault_round_trip(self, tmp_path):
        """The fault bit-flips a committed segment after its manifest
        commit; the next resume must salvage exactly there."""
        single = Universe(star_protocol(5))
        path = tmp_path / "u.ckpt"
        Universe(
            star_protocol(5),
            options=ExplorationOptions(
                checkpoint=CheckpointPolicy(path=path),
                sharding=Sharding(fault_plan=FaultPlan.corrupt_segment(4)),
            ),
        )
        report = inspect_checkpoint(path)
        assert not report["valid"]
        assert any("corrupt" in row["status"] for row in report["segments"])
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert_bit_identical(single, resumed)
        assert resumed._checkpoint_session.salvaged

    def test_checkpoint_fault_requires_checkpoint_path(self):
        with pytest.raises(UniverseError, match="requires a checkpoint"):
            Universe(
                star_protocol(4),
                options=ExplorationOptions(
                    sharding=Sharding(fault_plan=FaultPlan.torn_save(2)),
                ),
            )

    def test_fault_fires_at_most_once(self, tmp_path):
        """A corrupt_segment fault fires on one save only; the session
        keeps saving clean segments afterwards."""
        path = tmp_path / "u.ckpt"
        Universe(
            star_protocol(5),
            options=ExplorationOptions(
                checkpoint=CheckpointPolicy(path=path),
                sharding=Sharding(fault_plan=FaultPlan.corrupt_segment(2)),
            ),
        )
        report = inspect_checkpoint(path)
        bad = [r for r in report["segments"] if r["status"] != "ok"]
        assert len(bad) == 1


class TestVersioning:
    """One readable format version: older and newer files are refused
    with an error naming their version."""

    def test_v1_file_rejected_everywhere(self, tmp_path):
        """The retired version-1 magic is recognised, not mistaken for
        garbage: resume, inspect and compact all name version 1."""
        path = tmp_path / "v1.ckpt"
        path.write_bytes(b"REPRO-CKPT\n" + b"\x00" * 64)
        files = snapshot_files(path)
        message = r"version 1 is not supported.*reads version 2"
        with pytest.raises(CheckpointError, match=message):
            Universe(
                star_protocol(5),
                options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
            )
        report = inspect_checkpoint(path)
        assert report["format_version"] == 1
        assert not report["valid"]
        assert "version 1 is not supported" in report["error"]
        with pytest.raises(CheckpointError, match=message):
            compact_checkpoint(path)
        assert snapshot_files(path) == files

    def test_future_version_fixture_rejected(self, tmp_path):
        fixture = FIXTURES / "checkpoint_v99.ckpt"
        path = tmp_path / "u.ckpt"
        path.write_bytes(fixture.read_bytes())
        with pytest.raises(
            CheckpointError,
            match=r"version 99 is not supported.*reads version 2\)",
        ):
            Universe(
                star_protocol(5),
                options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
            )
        report = inspect_checkpoint(path)
        assert report["format_version"] == 99
        assert not report["valid"]
        assert "not supported" in report["error"]

    def test_token_mismatch_messages_name_the_field(self, tmp_path):
        path = partial_checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="protocol"):
            Universe(
                TokenBusProtocol(max_hops=4),
                options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
            )
        with pytest.raises(CheckpointError, match="process set"):
            Universe(
                star_protocol(6),
                options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
            )
        with pytest.raises(CheckpointError, match="max_events="):
            Universe(
                star_protocol(5),
                options=ExplorationOptions(
                    limits=Limits(max_events=4),
                    checkpoint=CheckpointPolicy(path=path),
                ),
            )


class TestInspectCheckpoint:
    def test_valid_report(self, tmp_path):
        path = partial_checkpoint(tmp_path)
        report = inspect_checkpoint(path)
        assert report["valid"]
        assert report["format_version"] == 2
        assert report["token"]["protocol"].endswith("BroadcastProtocol")
        assert len(report["token"]["processes"]) == 5
        assert report["layers"] == report["salvageable_layers"]
        assert all(row["status"] == "ok" for row in report["segments"])
        assert report["orphans"] == []

    def test_quick_probe_skips_payloads(self, tmp_path):
        path = partial_checkpoint(tmp_path)
        report = inspect_checkpoint(path, verify_segments=False)
        assert all(row["status"] == "unverified" for row in report["segments"])
        assert report["layers"] == report["salvageable_layers"]

    def test_missing_file_report(self, tmp_path):
        report = inspect_checkpoint(tmp_path / "nope.ckpt")
        assert not report["exists"]
        assert not report["valid"]

    def test_corrupt_tail_report(self, tmp_path):
        path = partial_checkpoint(tmp_path)
        flip_last_byte(segment_files(path)[-1])
        report = inspect_checkpoint(path)
        assert not report["valid"]
        assert report["salvageable_layers"] < report["layers"]
        assert "corrupt" in report["segments"][-1]["status"]

    def test_never_raises_on_garbage(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"complete nonsense")
        report = inspect_checkpoint(path)
        assert not report["valid"]
        assert "bad magic" in report["error"]


class TestOfflineCompaction:
    """``compact_checkpoint`` / ``repro checkpoint compact``: fold a
    checkpoint's committed segments into one, crash-safely."""

    def test_multi_segment_folds_into_one(self, tmp_path):
        single = Universe(star_protocol(5))
        path = partial_checkpoint(tmp_path)
        before = inspect_checkpoint(path)
        old = segment_files(path)
        assert len(old) >= 2
        bytes_before = sum(seg.stat().st_size for seg in old)
        report = compact_checkpoint(path)
        assert report["compacted"] is True
        assert report["segments_before"] == len(old)
        assert report["segments_after"] == 1
        assert report["bytes_before"] == bytes_before
        assert report["generation"] == before["generation"] + 1
        assert report["layers"] == before["layers"]
        assert report["count"] == before["count"]
        (folded,) = segment_files(path)
        assert folded.name == (
            f"{path.name}.g{report['generation']}-000000.seg"
        )
        assert report["bytes_after"] == folded.stat().st_size
        assert not any(seg.exists() for seg in old)
        after = inspect_checkpoint(path)
        assert after["valid"], after
        assert after["generation"] == report["generation"]
        assert after["orphans"] == []
        for field in ("layers", "count", "complete", "frontier_start"):
            assert after[field] == before[field]
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert_bit_identical(single, resumed)
        assert not resumed.recovery_log

    def test_single_segment_is_a_no_op(self, tmp_path):
        path = partial_checkpoint(tmp_path)
        compact_checkpoint(path)
        files = snapshot_files(path)
        report = compact_checkpoint(path)
        assert report["compacted"] is False
        assert report["segments_before"] == report["segments_after"] == 1
        assert snapshot_files(path) == files

    def test_damaged_segment_raises_and_touches_nothing(self, tmp_path):
        path = partial_checkpoint(tmp_path)
        flip_last_byte(segment_files(path)[1])
        files = snapshot_files(path)
        with pytest.raises(CheckpointError, match="damaged"):
            compact_checkpoint(path)
        assert snapshot_files(path) == files

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no such checkpoint"):
            compact_checkpoint(tmp_path / "nope.ckpt")

    def test_session_and_offline_folds_write_the_same_bytes(
        self, tmp_path, monkeypatch
    ):
        """The in-session auto-compaction and the offline verb fold the
        same committed segments into byte-identical segments."""
        (tmp_path / "offline").mkdir()
        (tmp_path / "session").mkdir()
        offline = partial_checkpoint(tmp_path / "offline", cap=40, size=4)
        assert len(segment_files(offline)) == 4
        compact_checkpoint(offline)
        monkeypatch.setattr(checkpoint_module, "DEFAULT_COMPACT_SEGMENTS", 3)
        session = partial_checkpoint(tmp_path / "session", cap=40, size=4)
        (offline_fold,) = segment_files(offline)
        (session_fold,) = segment_files(session)
        assert offline_fold.name == session_fold.name == "u.ckpt.g1-000000.seg"
        assert offline_fold.read_bytes() == session_fold.read_bytes()


class TestFormatStability:
    """The on-disk format is pinned by a committed fixture: a star n=4
    checkpoint (manifest plus four delta segments) truncated at 40
    configurations, written by an earlier build of this module."""

    FIXTURE = "star4_v2.ckpt"

    def copy_fixture(self, tmp_path):
        for item in FIXTURES.glob(f"{self.FIXTURE}*"):
            (tmp_path / item.name).write_bytes(item.read_bytes())
        return tmp_path / self.FIXTURE

    def test_fixture_inspects_valid(self, tmp_path):
        path = self.copy_fixture(tmp_path)
        report = inspect_checkpoint(path)
        assert report["valid"], report
        assert report["format_version"] == 2
        assert len(report["segments"]) == 4
        assert report["orphans"] == []

    def test_fixture_resumes_bit_identical(self, tmp_path):
        single = Universe(star_protocol(4))
        path = self.copy_fixture(tmp_path)
        resumed = Universe(
            star_protocol(4),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert resumed._checkpoint_session.resumed_from is not None
        assert not resumed.recovery_log
        assert_bit_identical(single, resumed)

    def test_resumed_fixture_carries_on_in_v3_and_compacts(self, tmp_path):
        """Resuming the version-2 fixture to completion appends
        version-3 segments to its version-2 ones; the mixed file
        verifies and resumes bit-identical, and compaction folds it into
        one version-3 segment that resumes bit-identical again."""
        single = Universe(star_protocol(4))
        path = self.copy_fixture(tmp_path)
        options = ExplorationOptions(checkpoint=CheckpointPolicy(path=path))
        Universe(star_protocol(4), options=options)
        report = inspect_checkpoint(path)
        assert report["valid"], report
        assert report["complete"]
        versions = segment_versions(path)
        assert versions[:4] == [2, 2, 2, 2]
        assert versions[4:] and set(versions[4:]) == {3}
        again = Universe(star_protocol(4), options=options)
        assert again._checkpoint_session.resumed_from == len(single)
        assert_bit_identical(single, again)
        folded = compact_checkpoint(path)
        assert folded["compacted"] and folded["segments_after"] == 1
        assert inspect_checkpoint(path)["valid"]
        assert segment_versions(path) == [3]
        assert_bit_identical(single, Universe(star_protocol(4), options=options))

    @pytest.mark.parametrize("source", ["v2-fixture", "v3-mid-run", "v3-complete"])
    def test_resumed_vocabulary_is_in_first_appearance_order(
        self, tmp_path, source
    ):
        """The arena's event table after any resume is the one an
        uninterrupted build has: every event once, in the order the
        discovery stream first uses it."""
        size = 4 if source == "v2-fixture" else 5
        single = Universe(star_protocol(size))
        if source == "v2-fixture":
            path = self.copy_fixture(tmp_path)
        elif source == "v3-mid-run":
            path = partial_checkpoint(tmp_path, cap=200)
        else:
            path = tmp_path / "done.ckpt"
            Universe(
                star_protocol(size),
                options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
            )
        resumed = Universe(
            star_protocol(size),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert resumed._checkpoint_session.resumed_from is not None
        ours = resumed._configurations
        theirs = single._configurations
        assert ours.vocabulary == theirs.vocabulary
        assert ours._event_index == theirs._event_index
        assert columns_of(ours) == columns_of(theirs)


def segment_versions(path):
    """The payload version of each segment of checkpoint ``path``."""
    return [
        checkpoint_module._decode_segment(item.read_bytes())[0]["version"]
        for item in segment_files(path)
    ]


def columns_of(arena):
    """An arena's parent and event columns, as two lists."""
    parents, events = arena.columns(0, len(arena))
    return list(parents), list(events)


def rewrite_last_segment(path, mutate):
    """Re-encode checkpoint ``path``'s last segment with ``mutate``
    applied to its decoded payload, with fresh CRCs and a manifest entry
    to match, so only the payload's own consistency checks can catch
    the damage."""
    manifest = checkpoint_module._read_manifest(path)
    entry = manifest["segments"][-1]
    segment = path.with_name(entry["name"])
    header, payload = checkpoint_module._decode_segment(segment.read_bytes())
    decoded = decompress_batch(payload)
    mutate(decoded)
    payload = compress_batch(decoded)
    header = dict(
        header, payload_len=len(payload), payload_crc=zlib.crc32(payload)
    )
    blob = checkpoint_module._encode_segment(header, payload)
    segment.write_bytes(blob)
    entry.update(size=len(blob), payload_crc=header["payload_crc"])
    checkpoint_module._commit_manifest(path, manifest)


def drop_last_parent(decoded):
    decoded["parents"] = decoded["parents"][:-8]


def drop_last_record(decoded):
    decoded["parents"] = decoded["parents"][:-8]
    decoded["events"] = decoded["events"][:-4]


def event_past_the_vocabulary(decoded):
    events = array("i")
    events.frombytes(decoded["events"])
    events[-1] = len(decoded["vocabulary"])
    decoded["events"] = events.tobytes()


class TestColumnDamage:
    """A version-3 segment whose CRCs check out but whose columns
    disagree is corrupt: verify reports it, resume salvages the prefix
    before it, and ``strict`` refuses it."""

    DAMAGE = {
        "columns-differ": (drop_last_parent, "columns disagree"),
        "header-records": (drop_last_record, "columns disagree"),
        "event-index": (event_past_the_vocabulary, "outside its"),
    }

    @pytest.fixture(params=sorted(DAMAGE))
    def damaged(self, request, tmp_path):
        mutate, reason = self.DAMAGE[request.param]
        path = partial_checkpoint(tmp_path)
        rewrite_last_segment(path, mutate)
        return path, reason

    def test_verify_reports_the_segment_corrupt(self, damaged, capsys):
        from repro.cli import main

        path, reason = damaged
        report = inspect_checkpoint(path)
        assert not report["valid"]
        *intact, last = report["segments"]
        assert all(row["status"] == "ok" for row in intact)
        assert last["status"].startswith("corrupt: ")
        assert reason in last["status"]
        assert report["salvageable_layers"] == intact[-1]["layer_to"]
        assert main(["checkpoint", "verify", str(path)]) == 1
        assert "INTEGRITY: FAILED" in capsys.readouterr().out

    def test_resume_salvages_the_prefix(self, damaged):
        path, reason = damaged
        single = Universe(star_protocol(5))
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert resumed._checkpoint_session.salvaged
        (event,) = [
            entry
            for entry in resumed.recovery_log
            if entry["action"] == "salvage-truncate"
        ]
        assert reason in event["detail"]
        assert_bit_identical(single, resumed)

    def test_strict_resume_raises(self, damaged):
        path, reason = damaged
        with pytest.raises(CheckpointError, match=reason):
            Universe(
                star_protocol(5),
                options=ExplorationOptions(
                    checkpoint=CheckpointPolicy(path=path, strict=True)
                ),
            )


class TestWriterBytes:
    """The writer's output is pinned by digest: a fresh interpreter
    writes these exact bytes for star n=4 (``hub`` plus ``p0..p2``)
    truncated at 40 configurations, under any hash seed.  The committed
    ``star4_v2`` fixture pins the version-2 segment reader; an older
    build wrote it, so its bytes differ from these."""

    DIGESTS = {
        "star4.ckpt": (
            "39c6cdc63ee937bbe2cba50f17bf267d414ef6495fc8ca38ecfca7c281dd22af"
        ),
        "star4.ckpt.g0-000000.seg": (
            "0ddffc80a5af8624d7d9f51e1cc39ac5b771d0595db4a70866cab991d4e1fdc0"
        ),
        "star4.ckpt.g0-000001.seg": (
            "7e9d760b375e9d510e4f03a145a5d6fe6a035d027b67b0f2ca1c5b1f64715ba4"
        ),
        "star4.ckpt.g0-000002.seg": (
            "68da0f697e8bf9100d44d79c81465906c85c4573610d5aef0d40f2b70d63c67c"
        ),
        "star4.ckpt.g0-000003.seg": (
            "c2f33f0d7bcea227303b71ebc4b3c97fac01dd8f40b92e96b7587ea0023d96f6"
        ),
    }

    def test_fresh_interpreter_writes_the_pinned_bytes(self, tmp_path):
        import hashlib

        path = tmp_path / "star4.ckpt"
        script = f"""
            from repro.protocols.broadcast import BroadcastProtocol, star_topology
            from repro.universe.explorer import Universe
            from repro.universe.options import (
                CheckpointPolicy, ExplorationOptions, Limits,
            )

            Universe(
                BroadcastProtocol(star_topology("hub", ("p0", "p1", "p2")), "hub"),
                options=ExplorationOptions(
                    limits=Limits(max_configurations=40, on_limit="truncate"),
                    checkpoint=CheckpointPolicy(path={str(path)!r}),
                ),
            )
        """
        subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            check=True,
            timeout=120,
        )
        written = {
            item.name: hashlib.sha256(item.read_bytes()).hexdigest()
            for item in tmp_path.iterdir()
        }
        assert written == self.DIGESTS


class TestOrphanNameMatching:
    """Orphan segments are matched by literal file name: a checkpoint
    whose name holds glob metacharacters never claims (or deletes)
    another checkpoint's segments."""

    @pytest.mark.parametrize(
        "victim, resumed_name",
        [("run1.ckpt", "run[1].ckpt"), ("ab.ckpt", "a*.ckpt")],
    )
    def test_resume_leaves_other_checkpoints_alone(
        self, tmp_path, victim, resumed_name
    ):
        single = Universe(star_protocol(4))
        victim_path = tmp_path / victim
        Universe(
            star_protocol(4),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=victim_path)),
        )
        victim_files = snapshot_files(victim_path)
        path = tmp_path / resumed_name
        Universe(
            star_protocol(4),
            options=ExplorationOptions(
                limits=Limits(max_configurations=40, on_limit="truncate"),
                checkpoint=CheckpointPolicy(path=path),
            ),
        )
        resumed = Universe(
            star_protocol(4),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert_bit_identical(single, resumed)
        assert not any(
            entry["action"] == "discard-orphan"
            for entry in resumed.recovery_log
        )
        assert snapshot_files(victim_path) == victim_files
        assert inspect_checkpoint(victim_path)["valid"]

    @pytest.mark.parametrize(
        "victim, inspected_name",
        [("run1.ckpt", "run[1].ckpt"), ("ab.ckpt", "a*.ckpt")],
    )
    def test_inspect_lists_only_its_own_orphans(
        self, tmp_path, victim, inspected_name
    ):
        Universe(
            star_protocol(4),
            options=ExplorationOptions(
                checkpoint=CheckpointPolicy(path=tmp_path / victim),
            ),
        )
        path = tmp_path / inspected_name
        Universe(
            star_protocol(4),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert inspect_checkpoint(path)["orphans"] == []
        orphan = tmp_path / f"{inspected_name}.g0-000099.seg"
        orphan.write_bytes(SEGMENT_MAGIC + b"torn half-written segment")
        report = inspect_checkpoint(path)
        assert report["valid"], report
        assert report["orphans"] == [orphan.name]
        resumed = Universe(
            star_protocol(4),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert [
            entry["detail"]
            for entry in resumed.recovery_log
            if entry["action"] == "discard-orphan"
        ] == [orphan.name]
        assert inspect_checkpoint(tmp_path / victim)["valid"]
