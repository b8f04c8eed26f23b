"""Fault injection and recovery: the sharded engine under failure.

The reliability contract of PR 6: killing, hanging or corrupting any
worker at any BFS layer must (a) never deadlock the coordinator and
(b) produce a universe bit-identical to the fault-free exploration —
because shard expansion is a pure function of the merged discovery
stream, failover (respawn-and-replay or fold-into-coordinator) cannot
perturb the result.  The matrix below asserts exactly that, plus the
supporting machinery: typed failures, structured worker-error
propagation with original tracebacks, exception-safe teardown with no
orphan processes or leaked descriptors, and the :class:`FaultPlan`
delivery semantics.
"""

import multiprocessing
import os
import time

import pytest

from repro.core.errors import UniverseError
from repro.protocols.broadcast import BroadcastProtocol, tree_topology
from repro.protocols.failure_monitor import SyncFailureMonitorProtocol
from repro.protocols.token_bus import TokenBusProtocol
from repro.universe.checkpoint import inspect_checkpoint
from repro.universe.explorer import Universe
from repro.universe.options import (
    CheckpointPolicy,
    ExplorationOptions,
    Limits,
    Sharding,
)
from repro.universe.faults import FAULT_KINDS, Fault, FaultPlan
from repro.universe.reference import reference_bfs
from repro.universe.sharded import (
    ShardedExplorer,
    SupervisionPolicy,
    WorkerError,
)

from test_universe_arena import REFERENCE_CASES, force_hash_collisions
from test_universe_sharded import assert_bit_identical, star_protocol

# Deterministic faults need no long grace periods; a tight poll keeps
# the matrix fast while the 5 s heartbeat ceiling stays far above any
# honest expansion gap at these sizes.
FAST = SupervisionPolicy(heartbeat_timeout=5.0, poll_interval=0.02)


def layer_count(universe: Universe) -> int:
    """Number of BFS layers (= layer exchanges) of a universe."""
    layers = 0
    start, count = 0, 1
    offsets = universe._succ_offsets
    ids = universe._succ_ids
    while start < count:
        end = count
        # children discovered by this layer = max id seen + 1
        for parent in range(start, end):
            for child in ids[offsets[parent]:offsets[parent + 1]]:
                if child >= count:
                    count = child + 1
        layers += 1
        start = end
    return layers


class TestKillMatrix:
    """Kill each worker at each layer — the acceptance matrix."""

    def test_star5_every_worker_every_layer(self):
        single = Universe(star_protocol(5))
        layers = layer_count(single)
        assert layers == 10
        for workers in (2, 3):
            for layer in range(layers):
                for shard in range(workers):
                    recovered = Universe(
                        star_protocol(5),
                        options=ExplorationOptions(
                            sharding=Sharding(
                                workers=workers,
                                fault_plan=FaultPlan.kill(shard, layer),
                                supervision=FAST,
                            ),
                        ),
                    )
                    assert_bit_identical(single, recovered)
                    assert recovered.recovery_log, (
                        f"kill(w{shard}@L{layer}) never fired"
                    )
                    event = recovered.recovery_log[0]
                    assert event["shard"] == shard
                    assert event["layer"] == layer
                    assert event["kind"] == "exit"

    def test_star6_acceptance_scale(self):
        """Star n=6 × workers 2–4: every layer at K=2, representative
        layers at K=3 and K=4 (the full cube would dominate suite
        time on a single-core runner without adding coverage)."""
        single = Universe(star_protocol(6))
        layers = layer_count(single)
        assert layers == 12
        cases = [(2, layer) for layer in range(layers)]
        cases += [(3, layer) for layer in (0, 4, 8, layers - 1)]
        cases += [(4, layer) for layer in (1, 6, layers - 1)]
        for workers, layer in cases:
            shard = layer % workers
            recovered = Universe(
                star_protocol(6),
                options=ExplorationOptions(
                    sharding=Sharding(
                        workers=workers,
                        fault_plan=FaultPlan.kill(shard, layer),
                        supervision=FAST,
                    ),
                ),
            )
            assert_bit_identical(single, recovered)
            assert recovered.recovery_log

    @pytest.mark.parametrize(
        "factory",
        [
            pytest.param(
                lambda: BroadcastProtocol(
                    tree_topology(tuple(f"t{i}" for i in range(7))), "t0"
                ),
                id="tree",
            ),
            pytest.param(lambda: TokenBusProtocol(max_hops=5), id="tokenbus"),
            pytest.param(
                lambda: SyncFailureMonitorProtocol(rounds=2),
                id="custom-enabling",
            ),
        ],
    )
    def test_other_protocol_families(self, factory):
        single = Universe(factory())
        for workers, layer in ((2, 2), (3, 1)):
            recovered = Universe(
                factory(),
                options=ExplorationOptions(
                    sharding=Sharding(
                        workers=workers,
                        fault_plan=FaultPlan.kill(layer % workers, layer),
                        supervision=FAST,
                    ),
                ),
            )
            assert_bit_identical(single, recovered)
            assert recovered.recovery_log


class TestOtherFaultKinds:
    def test_corrupt_batch_detected_before_unpickling(self):
        single = Universe(star_protocol(5))
        recovered = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                sharding=Sharding(
                    workers=2,
                    fault_plan=FaultPlan.corrupt_batch(1, 4),
                    supervision=FAST,
                ),
            ),
        )
        assert_bit_identical(single, recovered)
        assert recovered.recovery_log[0]["kind"] == "corrupt"

    def test_dropped_batch_times_out_and_recovers(self):
        single = Universe(star_protocol(5))
        policy = SupervisionPolicy(heartbeat_timeout=0.5, poll_interval=0.02)
        start = time.monotonic()
        recovered = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                sharding=Sharding(
                    workers=2,
                    fault_plan=FaultPlan.drop_batch(0, 3),
                    supervision=policy,
                ),
            ),
        )
        elapsed = time.monotonic() - start
        assert_bit_identical(single, recovered)
        assert recovered.recovery_log[0]["kind"] == "timeout"
        # The wait was bounded: one timeout window plus exploration,
        # nowhere near a hang.
        assert elapsed < 10

    def test_short_delay_is_absorbed(self):
        single = Universe(star_protocol(5))
        recovered = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                sharding=Sharding(
                    workers=2,
                    fault_plan=FaultPlan.delay_batch(0, 2, 0.1),
                    supervision=FAST,
                ),
            ),
        )
        assert_bit_identical(single, recovered)
        assert not recovered.recovery_log  # no failover needed

    def test_long_delay_is_a_timeout(self):
        single = Universe(star_protocol(5))
        policy = SupervisionPolicy(heartbeat_timeout=0.4, poll_interval=0.02)
        recovered = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                sharding=Sharding(
                    workers=2,
                    fault_plan=FaultPlan.delay_batch(1, 3, 1.5),
                    supervision=policy,
                ),
            ),
        )
        assert_bit_identical(single, recovered)
        assert recovered.recovery_log[0]["kind"] == "timeout"

    def test_multiple_faults_one_run(self):
        single = Universe(star_protocol(5))
        plan = FaultPlan(
            (
                Fault("kill", 0, 2),
                Fault("corrupt_batch", 1, 5),
            )
        )
        recovered = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                sharding=Sharding(workers=2, fault_plan=plan, supervision=FAST),
            ),
        )
        assert_bit_identical(single, recovered)
        assert len(recovered.recovery_log) == 2

    def test_seeded_plan_is_reproducible(self):
        first = FaultPlan.seeded(7, workers=3, max_layer=5, faults=2)
        second = FaultPlan.seeded(7, workers=3, max_layer=5, faults=2)
        assert first.faults == second.faults
        assert FaultPlan.seeded(8, workers=3, max_layer=5).faults != (
            first.faults[:1]
        )


NO_RESPAWN = SupervisionPolicy(
    heartbeat_timeout=5.0, poll_interval=0.02, max_respawns=0
)


def kill_every_worker(workers: int, layer: int) -> FaultPlan:
    return FaultPlan(tuple(Fault("kill", shard, layer) for shard in range(workers)))


def folds(universe: Universe) -> list:
    return [event for event in universe.recovery_log if event["action"] == "fold"]


class TestFoldPath:
    """Respawn budget exhausted: the shard folds into the coordinator."""

    @pytest.mark.parametrize("layer", [0, 2])
    @pytest.mark.parametrize(
        "label,factory,bounds",
        REFERENCE_CASES,
        ids=[entry[0] for entry in REFERENCE_CASES],
    )
    def test_every_worker_folded_matches_reference(
        self, label, factory, bounds, layer
    ):
        """Both workers die at ``layer`` with no respawn budget, so the
        coordinator's own frontier expands every shard from there on —
        on every protocol family the reference cases cover (custom
        enabling, selective receive, the enabling filter, ``max_events``
        and truncation)."""
        universe = Universe(
            factory(),
            options=ExplorationOptions(
                limits=Limits(**bounds),
                sharding=Sharding(
                    workers=2,
                    fault_plan=kill_every_worker(2, layer),
                    supervision=NO_RESPAWN,
                ),
            ),
        )
        assert reference_bfs(factory(), **bounds).differences(universe) == []
        assert len(folds(universe)) == 2

    @pytest.mark.parametrize("layer", [1, 4])
    def test_fold_under_forced_hash_collisions(self, monkeypatch, layer):
        """The coordinator's fold and merge resolve collision buckets,
        including cross-layer chain walks, exactly like the reference."""
        force_hash_collisions(monkeypatch)
        reference = reference_bfs(star_protocol(5))
        buckets = [b for b in reference.ids_by_hash.values() if type(b) is list]
        assert len(buckets) > 50
        universe = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                sharding=Sharding(
                    workers=2,
                    fault_plan=kill_every_worker(2, layer),
                    supervision=NO_RESPAWN,
                ),
            ),
        )
        assert reference.differences(universe) == []
        assert len(folds(universe)) == 2

    @pytest.mark.parametrize("writer_workers", [None, 2])
    def test_resume_then_fold(self, tmp_path, writer_workers):
        """A truncated checkpoint (kernel- or shard-written) resumed on
        the sharded engine, with every worker killed at the first
        resumed layer: the coordinator folds from the restored frontier."""
        path = tmp_path / "partial.ckpt"
        partial = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                limits=Limits(max_configurations=200, on_limit="truncate"),
                checkpoint=CheckpointPolicy(path=path),
                sharding=Sharding(workers=writer_workers),
            ),
        )
        assert len(partial) == 200
        first_layer = inspect_checkpoint(path)["layers"]
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                checkpoint=CheckpointPolicy(path=path),
                sharding=Sharding(
                    workers=2,
                    fault_plan=kill_every_worker(2, first_layer),
                    supervision=NO_RESPAWN,
                ),
            ),
        )
        assert resumed._checkpoint_session.resumed_from is not None
        assert reference_bfs(star_protocol(5)).differences(resumed) == []
        assert [event["layer"] for event in folds(resumed)] == [first_layer] * 2

    def test_fold_is_bit_identical(self):
        single = Universe(star_protocol(5))
        recovered = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                sharding=Sharding(
                    workers=2, fault_plan=FaultPlan.kill(1, 3), supervision=NO_RESPAWN
                ),
            ),
        )
        assert_bit_identical(single, recovered)
        assert recovered.recovery_log[0]["action"] == "fold"

    def test_fold_at_first_layer(self):
        single = Universe(star_protocol(5))
        recovered = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                sharding=Sharding(
                    workers=3, fault_plan=FaultPlan.kill(0, 0), supervision=NO_RESPAWN
                ),
            ),
        )
        assert_bit_identical(single, recovered)

    def test_every_worker_folded(self):
        """Kill all workers: the coordinator finishes the run alone."""
        single = Universe(star_protocol(5))
        plan = FaultPlan((Fault("kill", 0, 1), Fault("kill", 1, 2)))
        recovered = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                sharding=Sharding(
                    workers=2, fault_plan=plan, supervision=NO_RESPAWN
                ),
            ),
        )
        assert_bit_identical(single, recovered)
        assert [event["action"] for event in recovered.recovery_log] == [
            "fold",
            "fold",
        ]


class TestFaultsWithBounds:
    def test_truncation_survives_a_kill(self):
        """Recovery composes with on_limit="truncate": same cut point."""
        single = Universe(
            star_protocol(6),
            options=ExplorationOptions(
                limits=Limits(max_configurations=500, on_limit="truncate"),
            ),
        )
        recovered = Universe(
            star_protocol(6),
            options=ExplorationOptions(
                limits=Limits(max_configurations=500, on_limit="truncate"),
                sharding=Sharding(
                    workers=2,
                    fault_plan=FaultPlan.kill(0, 4),
                    supervision=FAST,
                ),
            ),
        )
        assert not recovered.is_complete
        assert_bit_identical(single, recovered)

    def test_max_events_survives_a_kill(self):
        single = Universe(
            star_protocol(5),
            options=ExplorationOptions(limits=Limits(max_events=6)),
        )
        recovered = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                limits=Limits(max_events=6),
                sharding=Sharding(
                    workers=2,
                    fault_plan=FaultPlan.kill(1, 2),
                    supervision=FAST,
                ),
            ),
        )
        assert_bit_identical(single, recovered)


class TestWorkerErrorPropagation:
    def test_original_traceback_reaches_the_caller(self):
        class Boom(SyncFailureMonitorProtocol):
            def enabled_events(self, configuration):
                if len(configuration) >= 2:
                    raise RuntimeError("intentional worker explosion")
                return super().enabled_events(configuration)

        with pytest.raises(WorkerError) as excinfo:
            Universe(
                Boom(rounds=2),
                options=ExplorationOptions(sharding=Sharding(workers=2)),
            )
        error = excinfo.value
        assert error.worker_type == "RuntimeError"
        assert "intentional worker explosion" in error.worker_traceback
        assert "enabled_events" in error.worker_traceback
        assert "original worker traceback" in str(error)

    def test_worker_error_is_a_universe_error(self):
        assert issubclass(WorkerError, UniverseError)

    def test_deterministic_errors_are_not_retried(self):
        class Boom(SyncFailureMonitorProtocol):
            def enabled_events(self, configuration):
                if len(configuration) >= 1:
                    raise ValueError("always fails")
                return super().enabled_events(configuration)

        try:
            Universe(
                Boom(rounds=1),
                options=ExplorationOptions(sharding=Sharding(workers=2)),
            )
        except WorkerError:
            pass
        # No respawn was attempted for an application error: spawning a
        # replacement would deterministically fail the same way.


class TestTeardownHygiene:
    def test_no_orphan_processes_after_success(self):
        Universe(
            star_protocol(5),
            options=ExplorationOptions(sharding=Sharding(workers=3)),
        )
        for _ in range(50):
            if not multiprocessing.active_children():
                break
            time.sleep(0.02)
        assert multiprocessing.active_children() == []

    def test_no_orphans_after_recovery(self):
        Universe(
            star_protocol(5),
            options=ExplorationOptions(
                sharding=Sharding(
                    workers=2,
                    fault_plan=FaultPlan.kill(0, 3),
                    supervision=FAST,
                ),
            ),
        )
        for _ in range(50):
            if not multiprocessing.active_children():
                break
            time.sleep(0.02)
        assert multiprocessing.active_children() == []

    def test_no_orphans_after_worker_error(self):
        class Boom(SyncFailureMonitorProtocol):
            def enabled_events(self, configuration):
                if len(configuration) >= 2:
                    raise RuntimeError("boom")
                return super().enabled_events(configuration)

        with pytest.raises(WorkerError):
            Universe(
                Boom(rounds=2),
                options=ExplorationOptions(sharding=Sharding(workers=3)),
            )
        for _ in range(50):
            if not multiprocessing.active_children():
                break
            time.sleep(0.02)
        assert multiprocessing.active_children() == []

    def test_no_fd_leak_across_explorations(self):
        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        Universe(
            star_protocol(4),
            options=ExplorationOptions(sharding=Sharding(workers=2)),
        )  # warm imports / allocators
        before = open_fds()
        for _ in range(3):
            Universe(
                star_protocol(4),
                options=ExplorationOptions(sharding=Sharding(workers=2)),
            )
            Universe(
                star_protocol(4),
                options=ExplorationOptions(
                    sharding=Sharding(
                        workers=2,
                        fault_plan=FaultPlan.kill(0, 1),
                        supervision=FAST,
                    ),
                ),
            )
        assert open_fds() <= before

    def test_coordinator_exception_still_tears_down(self, monkeypatch):
        """A coordinator-side exception mid-exploration (stand-in for
        KeyboardInterrupt) must reach the caller with every child
        reaped and both pipe ends closed."""
        original = ShardedExplorer._exchange_layer
        calls = {"count": 0}

        def explode(self, *args, **kwargs):
            calls["count"] += 1
            if calls["count"] == 3:
                raise KeyboardInterrupt
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ShardedExplorer, "_exchange_layer", explode)
        with pytest.raises(KeyboardInterrupt):
            Universe(
                star_protocol(5),
                options=ExplorationOptions(sharding=Sharding(workers=2)),
            )
        for _ in range(50):
            if not multiprocessing.active_children():
                break
            time.sleep(0.02)
        assert multiprocessing.active_children() == []


class TestFaultPlanApi:
    def test_unknown_kind_rejected(self):
        with pytest.raises(UniverseError, match="unknown fault kind"):
            Fault("explode", 0, 0)

    def test_negative_fields_rejected(self):
        with pytest.raises(UniverseError, match="shard must be >= 0"):
            Fault("kill", -1, 0)
        with pytest.raises(UniverseError, match="layer must be >= 0"):
            Fault("kill", 0, -1)
        with pytest.raises(UniverseError, match="delay must be >= 0"):
            Fault("delay_batch", 0, 0, -1.0)

    def test_plan_validates_shard_range(self):
        with pytest.raises(UniverseError, match="only 2 workers"):
            Universe(
                star_protocol(4),
                options=ExplorationOptions(
                    sharding=Sharding(workers=2, fault_plan=FaultPlan.kill(5, 0)),
                ),
            )

    def test_plan_requires_sharded_engine(self):
        with pytest.raises(UniverseError, match="workers >= 2"):
            Universe(
                star_protocol(4),
                options=ExplorationOptions(
                    sharding=Sharding(fault_plan=FaultPlan.kill(0, 0)),
                ),
            )
        with pytest.raises(UniverseError, match="workers >= 2"):
            Universe(
                star_protocol(4),
                options=ExplorationOptions(sharding=Sharding(supervision=FAST)),
            )

    def test_faults_delivered_once(self):
        plan = FaultPlan.kill(0, 2)
        assert plan.take_for_shard(0) == [("kill", 2, 0.0)]
        assert plan.take_for_shard(0) == []  # replacement: not re-armed
        assert plan.take_for_shard(1) == []

    def test_all_kinds_named(self):
        assert set(FAULT_KINDS) == {
            "kill",
            "drop_batch",
            "delay_batch",
            "corrupt_batch",
            "torn_save",
            "corrupt_segment",
            "stall_write",
            "enospc",
            "eio_read",
            "eio_write",
            "fsync_fail",
            "slow_io",
            "fd_exhaust",
        }

    def test_repr_names_targets(self):
        assert "kill(w1@L3)" in repr(FaultPlan.kill(1, 3))


class TestSupervisionPolicyApi:
    def test_invalid_policies_rejected(self):
        with pytest.raises(UniverseError):
            SupervisionPolicy(heartbeat_timeout=0)
        with pytest.raises(UniverseError):
            SupervisionPolicy(poll_interval=-1)
        with pytest.raises(UniverseError):
            SupervisionPolicy(max_respawns=-1)
        with pytest.raises(UniverseError):
            SupervisionPolicy(heartbeat_parents=0)

    def test_default_respawn_budget_scales_with_workers(self):
        assert SupervisionPolicy().resolve_respawns(4) == 4
        assert SupervisionPolicy(max_respawns=1).resolve_respawns(4) == 1


class TestDiscoveryStreamReconstruction:
    def test_stream_replays_to_the_same_universe(self):
        """The failover replay source: the arena's discovery records,
        replayed into a fresh arena, rebuild the identical state."""
        from repro.universe.arena import ArenaStore, record_columns

        universe = Universe(star_protocol(5))
        arena = universe._configurations
        stream = arena.records(1, len(arena))
        assert len(stream) == len(universe) - 1  # one record per discovery
        rebuilt = ArenaStore()
        processes = universe.protocol.ordered_processes
        assert rebuilt.replay(*record_columns(stream), processes) == (
            universe._ids_by_hash
        )
        assert len(rebuilt) == len(universe)
        for ours, theirs in zip(rebuilt, arena):
            assert ours == theirs
            assert ours._histories == theirs._histories


class TestFaultSpecParsing:
    """The CLI grammar: ``kind[:shard]@layer[~seconds]``."""

    def test_worker_spec(self):
        plan = FaultPlan.parse(["kill:1@3"])
        (fault,) = plan.faults
        assert (fault.kind, fault.shard, fault.layer) == ("kill", 1, 3)

    def test_delay_spec_with_seconds(self):
        plan = FaultPlan.parse(["delay_batch:0@2~0.25"])
        (fault,) = plan.faults
        assert fault.kind == "delay_batch"
        assert fault.seconds == 0.25

    def test_checkpoint_spec_has_no_shard(self):
        plan = FaultPlan.parse(["torn_save@5", "corrupt_segment@2"])
        assert all(f.is_checkpoint and f.shard == -1 for f in plan.faults)
        assert [f.layer for f in plan.faults] == [5, 2]

    def test_missing_layer_rejected(self):
        with pytest.raises(UniverseError, match="bad fault spec"):
            FaultPlan.parse(["kill:0"])
        with pytest.raises(UniverseError, match="bad fault spec"):
            FaultPlan.parse(["kill:0@x"])

    def test_checkpoint_spec_with_shard_rejected(self):
        with pytest.raises(UniverseError, match="takes no shard"):
            FaultPlan.parse(["torn_save:0@5"])

    def test_worker_spec_without_shard_rejected(self):
        with pytest.raises(UniverseError, match="needs a shard"):
            FaultPlan.parse(["kill@3"])

    def test_bad_seconds_rejected(self):
        with pytest.raises(UniverseError, match="not a number"):
            FaultPlan.parse(["delay_batch:0@2~soon"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(UniverseError, match="unknown fault kind"):
            FaultPlan.parse(["explode:0@1"])


class TestCheckpointFaultPlans:
    def test_constructors_target_the_session_not_a_shard(self):
        for plan in (FaultPlan.torn_save(5), FaultPlan.corrupt_segment(3)):
            (fault,) = plan.faults
            assert fault.is_checkpoint
            assert fault.shard == -1
        assert "torn_save(@L5)" in repr(FaultPlan.torn_save(5))

    def test_kind_partition(self):
        mixed = FaultPlan.parse(["kill:0@1", "torn_save@2"])
        assert mixed.has_worker_faults
        assert mixed.has_checkpoint_faults
        assert not FaultPlan.torn_save(1).has_worker_faults
        assert not FaultPlan.kill(0, 1).has_checkpoint_faults

    def test_checkpoint_faults_fire_once(self):
        plan = FaultPlan.parse(["torn_save@2", "corrupt_segment@4"])
        assert sorted(plan.take_checkpoint_faults()) == [
            ("corrupt_segment", 4, 0.0),
            ("torn_save", 2, 0.0),
        ]
        assert plan.take_checkpoint_faults() == []  # not re-armed

    def test_worker_delivery_skips_checkpoint_faults(self):
        plan = FaultPlan.parse(["kill:0@1", "torn_save@2"])
        assert plan.take_for_shard(0) == [("kill", 1, 0.0)]
        assert plan.take_checkpoint_faults() == [("torn_save", 2, 0.0)]

    def test_seeded_draws_checkpoint_kinds(self):
        plan = FaultPlan.seeded(
            7, workers=2, max_layer=5, faults=4, kinds=("torn_save",)
        )
        assert len(plan) == 4
        assert all(f.is_checkpoint and f.shard == -1 for f in plan.faults)
        again = FaultPlan.seeded(
            7, workers=2, max_layer=5, faults=4, kinds=("torn_save",)
        )
        assert [f.as_wire() for f in plan.faults] == [
            f.as_wire() for f in again.faults
        ]

    def test_seeded_layer_sequence_stable_across_kinds(self):
        """Swapping the kind pool (same size) must not shift the seeded
        layer sequence — campaigns stay comparable across fault mixes."""
        kills = FaultPlan.seeded(3, workers=2, max_layer=9, faults=5)
        torn = FaultPlan.seeded(
            3, workers=2, max_layer=9, faults=5, kinds=("torn_save",)
        )
        assert [f.layer for f in kills.faults] == [f.layer for f in torn.faults]

    def test_checkpoint_fault_validation_ignores_workers(self):
        FaultPlan.torn_save(3).validate(workers=1)  # no shard to range-check


class TestSpawnRetry:
    """Transient worker-start failures retry with backoff."""

    RETRY_POLICY = SupervisionPolicy(
        heartbeat_timeout=5.0, poll_interval=0.02, spawn_backoff=0.001
    )

    @staticmethod
    def flaky_start(monkeypatch, failures, error_factory):
        """Patch fork-context Process.start to fail ``failures`` times."""
        from multiprocessing.context import ForkProcess

        original = ForkProcess.start
        calls = {"n": 0}

        def start(self):
            calls["n"] += 1
            if calls["n"] <= failures:
                raise error_factory()
            return original(self)

        monkeypatch.setattr(ForkProcess, "start", start)
        return calls

    def test_transient_error_classification(self):
        import errno

        from repro.universe.retry import transient_spawn_error

        assert transient_spawn_error(OSError(errno.EAGAIN, "try again"))
        assert transient_spawn_error(
            OSError(12345, "resource temporarily unavailable")
        )
        assert not transient_spawn_error(OSError(errno.EPERM, "no"))

    def test_eagain_is_retried_and_logged(self, monkeypatch):
        import errno

        calls = self.flaky_start(
            monkeypatch,
            2,
            lambda: OSError(errno.EAGAIN, "Resource temporarily unavailable"),
        )
        single = Universe(star_protocol(5))
        universe = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                sharding=Sharding(workers=2, supervision=self.RETRY_POLICY),
            ),
        )
        assert_bit_identical(single, universe)
        retries = [
            entry
            for entry in universe.recovery_log
            if entry["kind"] == "spawn" and entry["action"] == "retry"
        ]
        assert len(retries) == 2
        assert calls["n"] >= 3

    def test_persistent_eagain_exhausts_the_budget(self, monkeypatch):
        import errno

        calls = self.flaky_start(
            monkeypatch,
            10**6,
            lambda: OSError(errno.EAGAIN, "Resource temporarily unavailable"),
        )
        with pytest.raises(OSError):
            Universe(
                star_protocol(4),
                options=ExplorationOptions(
                    sharding=Sharding(workers=2, supervision=self.RETRY_POLICY),
                ),
            )
        assert calls["n"] == self.RETRY_POLICY.spawn_attempts

    def test_non_transient_error_is_not_retried(self, monkeypatch):
        import errno

        calls = self.flaky_start(
            monkeypatch, 10**6, lambda: OSError(errno.EPERM, "denied")
        )
        with pytest.raises(OSError):
            Universe(
                star_protocol(4),
                options=ExplorationOptions(
                    sharding=Sharding(workers=2, supervision=self.RETRY_POLICY),
                ),
            )
        assert calls["n"] == 1

    def test_policy_validation(self):
        with pytest.raises(UniverseError, match="spawn_attempts"):
            SupervisionPolicy(spawn_attempts=0)
        with pytest.raises(UniverseError, match="spawn_backoff"):
            SupervisionPolicy(spawn_backoff=-0.1)
