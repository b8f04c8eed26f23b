"""Hostile-storage hardening: fault shim, typed retry, degradation ladder.

The reliability contract of PR 10: every filesystem call under the
checkpoint routes through the file-ops shim, so the six
storage fault kinds (``enospc``/``eio_read``/``eio_write``/
``fsync_fail``/``slow_io``/``fd_exhaust``) are deterministic and
testable.  Transient errors are absorbed by the typed retry (the run
stays healthy and bit-identical); permanent errors take a *graceful
degradation* rung (checkpointing disabled loudly) and the exploration
still completes; unclassified errors stay sticky
and re-raise verbatim — robustness must never hide a bug.
"""

import errno
import json
import warnings

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.errors import UniverseError
from repro.universe.checkpoint import CheckpointSession, inspect_checkpoint
from repro.universe.explorer import Universe
from repro.universe.options import (
    CheckpointPolicy,
    ExplorationOptions,
    Limits,
    Sharding,
)
from repro.universe.faults import (
    CHECKPOINT_FAULT_KINDS,
    STORAGE_FAULT_KINDS,
    WORKER_FAULT_KINDS,
    Fault,
    FaultPlan,
)
from repro.universe.fileops import (
    DEFAULT_FILEOPS,
    STORAGE_OP_KINDS,
    FaultInjectingFileOps,
    FileOps,
)
from repro.universe.recovery import RecoveryEvent, RecoveryLog
from repro.universe.retry import (
    PERMANENT,
    TRANSIENT,
    RetryPolicy,
    classify_storage_error,
    is_storage_error,
    retry_io,
    transient_spawn_error,
)

from test_universe_sharded import assert_bit_identical, star_protocol


def no_sleep(_seconds):
    """Backoff stub so retry tests never actually wait."""


class TestFileOpsShim:
    """The fault-injecting shim delivers each kind deterministically."""

    def test_kind_catalogue_matches_fault_plan(self):
        shim_kinds = {k for kinds in STORAGE_OP_KINDS.values() for k in kinds}
        assert shim_kinds == set(STORAGE_FAULT_KINDS)

    def test_arm_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown storage fault"):
            FaultInjectingFileOps().arm("torn_save")

    def test_arm_rejects_nonpositive_times(self):
        with pytest.raises(ValueError, match=">= 1"):
            FaultInjectingFileOps().arm("enospc", times=0)

    def test_enospc_fires_on_write(self, tmp_path):
        ops = FaultInjectingFileOps()
        ops.arm("enospc")
        with pytest.raises(OSError) as info:
            ops.write_durable(tmp_path / "x", b"payload")
        assert info.value.errno == errno.ENOSPC
        assert ops.fired == [("enospc", "write")]

    def test_fsync_fail_fires_on_fsync_only(self, tmp_path):
        ops = FaultInjectingFileOps()
        ops.arm("fsync_fail")
        with pytest.raises(OSError) as info:
            ops.write_durable(tmp_path / "x", b"payload")
        assert info.value.errno == errno.EIO
        # The write itself went through; only the fsync was faulted.
        assert ops.fired == [("fsync_fail", "fsync")]

    def test_fd_exhaust_fires_on_write_mode_open_only(self, tmp_path):
        path = tmp_path / "x"
        path.write_bytes(b"existing")
        ops = FaultInjectingFileOps()
        ops.arm("fd_exhaust")
        with ops.open(path, "rb") as handle:  # read opens are never faulted
            assert handle.read() == b"existing"
        with pytest.raises(OSError) as info:
            ops.open(path, "wb")
        assert info.value.errno == errno.EMFILE

    def test_eio_read_fires_on_read_bytes(self, tmp_path):
        path = tmp_path / "x"
        path.write_bytes(b"existing")
        ops = FaultInjectingFileOps()
        ops.arm("eio_read")
        with pytest.raises(OSError) as info:
            ops.read_bytes(path)
        assert info.value.errno == errno.EIO
        assert ops.read_bytes(path) == b"existing"  # fired exactly once

    def test_slow_io_sleeps_instead_of_raising(self, tmp_path):
        ops = FaultInjectingFileOps()
        ops.arm("slow_io", seconds=0.0)
        ops.write_durable(tmp_path / "x", b"payload")
        assert (tmp_path / "x").read_bytes() == b"payload"
        assert ops.fired == [("slow_io", "write")]

    def test_each_fault_fires_at_most_times(self, tmp_path):
        ops = FaultInjectingFileOps()
        ops.arm("eio_write", times=2)
        for _ in range(2):
            with pytest.raises(OSError):
                ops.write_durable(tmp_path / "x", b"payload")
        ops.write_durable(tmp_path / "x", b"payload")  # budget spent
        assert len(ops.fired) == 2

    def test_one_error_fault_per_operation(self, tmp_path):
        """Two armed write faults fire on two *separate* writes."""
        ops = FaultInjectingFileOps()
        ops.arm("enospc")
        ops.arm("eio_write")
        with pytest.raises(OSError) as first:
            ops.write_durable(tmp_path / "x", b"a")
        with pytest.raises(OSError) as second:
            ops.write_durable(tmp_path / "x", b"a")
        assert first.value.errno == errno.ENOSPC
        assert second.value.errno == errno.EIO
        assert ops.armed == ()

    def test_passthrough_write_durable_round_trips(self, tmp_path):
        DEFAULT_FILEOPS.write_durable(tmp_path / "x", b"payload")
        assert DEFAULT_FILEOPS.read_bytes(tmp_path / "x") == b"payload"


class TestTypedRetry:
    """Transient retried with backoff; permanent/unclassified escalate."""

    def test_classification_table(self):
        assert classify_storage_error(OSError(errno.ENOSPC, "x")) == PERMANENT
        assert classify_storage_error(OSError(errno.EROFS, "x")) == PERMANENT
        assert classify_storage_error(OSError(errno.EIO, "x")) == TRANSIENT
        assert classify_storage_error(OSError(errno.EMFILE, "x")) == TRANSIENT
        assert classify_storage_error(OSError(errno.EBADF, "x")) is None
        assert classify_storage_error(ValueError("x")) is None
        assert classify_storage_error(OSError("no errno")) is None

    def test_is_storage_error_covers_both_classes(self):
        assert is_storage_error(OSError(errno.ENOSPC, "x"))
        assert is_storage_error(OSError(errno.EIO, "x"))
        assert not is_storage_error(OSError(errno.EBADF, "x"))
        assert not is_storage_error(RuntimeError("x"))

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError, match="factor"):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff=-1.0)

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(attempts=8, backoff=0.1, factor=2.0, max_backoff=0.3)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)  # capped
        assert policy.delay(7) == pytest.approx(0.3)

    def test_transient_retries_then_succeeds(self):
        failures = [OSError(errno.EIO, "flaky"), OSError(errno.EINTR, "flaky")]
        retries = []

        def flaky():
            if failures:
                raise failures.pop(0)
            return "done"

        result = retry_io(
            "unit",
            flaky,
            on_retry=lambda *args: retries.append(args),
            sleep=no_sleep,
        )
        assert result == "done"
        assert [attempt for _, attempt, _, _ in retries] == [1, 2]

    def test_transient_exhaustion_reraises_final_error(self):
        def always():
            raise OSError(errno.EIO, "still flaky")

        policy = RetryPolicy(attempts=3, backoff=0.0)
        with pytest.raises(OSError, match="still flaky"):
            retry_io("unit", always, policy=policy, sleep=no_sleep)

    def test_permanent_escalates_immediately(self):
        calls = []

        def full():
            calls.append(1)
            raise OSError(errno.ENOSPC, "disk full")

        with pytest.raises(OSError, match="disk full"):
            retry_io("unit", full, sleep=no_sleep)
        assert len(calls) == 1

    def test_unclassified_escalates_immediately(self):
        calls = []

        def bug():
            calls.append(1)
            raise OSError(errno.EBADF, "programming error")

        with pytest.raises(OSError, match="programming error"):
            retry_io("unit", bug, sleep=no_sleep)
        assert len(calls) == 1

    def test_spawn_transients_by_errno_and_message(self):
        assert transient_spawn_error(OSError(errno.EAGAIN, "x"))
        assert transient_spawn_error(
            RuntimeError("Resource temporarily unavailable")
        )
        assert not transient_spawn_error(OSError(errno.ENOSPC, "x"))


class TestStorageFaultPlanDelivery:
    def test_storage_faults_need_a_filesystem_target(self):
        with pytest.raises(UniverseError, match="nothing else touches the filesystem"):
            Universe(
                star_protocol(4),
                options=ExplorationOptions(
                    sharding=Sharding(fault_plan=FaultPlan.parse(["enospc@1"])),
                ),
            )

    @pytest.mark.parametrize("kind", STORAGE_FAULT_KINDS)
    def test_every_storage_kind_needs_a_checkpoint(self, kind):
        """The checkpoint is the only filesystem user, so each storage
        kind is refused without one, on either engine."""
        for workers in (None, 2):
            plan = FaultPlan.parse([f"{kind}@1"])
            assert plan.has_storage_faults
            with pytest.raises(UniverseError, match="requires a checkpoint path"):
                Universe(
                    star_protocol(4),
                    options=ExplorationOptions(
                        sharding=Sharding(workers=workers, fault_plan=plan),
                    ),
                )

    def test_storage_helper_rejects_worker_kinds(self):
        with pytest.raises(UniverseError, match="unknown storage fault"):
            FaultPlan.storage("kill", 1)

    def test_take_storage_faults_delivers_once(self):
        plan = FaultPlan.parse(["enospc@2", "eio_read@0", "kill:0@1"])
        assert plan.has_storage_faults
        taken = plan.take_storage_faults()
        assert sorted(taken) == [("eio_read", 0, 0.0), ("enospc", 2, 0.0)]
        assert plan.take_storage_faults() == []
        assert plan.take_for_shard(0) == [("kill", 1, 0.0)]


class TestCheckpointDegradation:
    """Permanent write failure disables checkpointing loudly; the
    exploration continues and the last committed manifest stays valid."""

    def run_degraded(self, tmp_path, spec="enospc@1"):
        path = tmp_path / "degraded.ckpt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            universe = Universe(
                star_protocol(5),
                options=ExplorationOptions(
                    checkpoint=CheckpointPolicy(path=path),
                    sharding=Sharding(fault_plan=FaultPlan.parse([spec])),
                ),
            )
        loud = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return universe, path, loud

    def test_enospc_degrades_and_run_completes(self, tmp_path):
        universe, path, loud = self.run_degraded(tmp_path)
        baseline = Universe(star_protocol(5))
        assert_bit_identical(baseline, universe)
        assert universe.checkpoint_degraded
        session = universe._checkpoint_session
        assert "injected enospc" in session.degraded_reason
        assert len(loud) == 1  # exactly one warning, not one per save
        events = [e for e in universe.recovery_log if e.kind == "checkpoint_degraded"]
        assert len(events) == 1
        assert events[0].rung == "disable-checkpointing"
        assert events[0]["action"] == "disable-checkpointing"

    def test_degraded_manifest_verifies_clean(self, tmp_path):
        universe, path, _ = self.run_degraded(tmp_path)
        report = inspect_checkpoint(path)
        assert report["valid"], report
        # The committed prefix resumes and completes bit-identically.
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert_bit_identical(universe, resumed)
        assert not resumed.checkpoint_degraded

    def test_transient_eio_write_is_absorbed(self, tmp_path):
        path = tmp_path / "flaky.ckpt"
        universe = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                checkpoint=CheckpointPolicy(path=path),
                sharding=Sharding(fault_plan=FaultPlan.parse(["eio_write@1"])),
            ),
        )
        assert not universe.checkpoint_degraded
        retries = [e for e in universe.recovery_log if e.kind == "storage_retry"]
        assert retries and retries[0].rung == "retry"
        assert inspect_checkpoint(path)["valid"]
        assert_bit_identical(Universe(star_protocol(5)), universe)

    def test_transient_fsync_fail_is_absorbed(self, tmp_path):
        path = tmp_path / "fsync.ckpt"
        universe = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                checkpoint=CheckpointPolicy(path=path),
                sharding=Sharding(fault_plan=FaultPlan.parse(["fsync_fail@1"])),
            ),
        )
        assert not universe.checkpoint_degraded
        assert any(e.kind == "storage_retry" for e in universe.recovery_log)
        assert inspect_checkpoint(path)["valid"]

    def test_eio_read_on_resume_is_retried(self, tmp_path):
        path = tmp_path / "resume.ckpt"
        Universe(
            star_protocol(5),
            options=ExplorationOptions(
                limits=Limits(max_configurations=200, on_limit="truncate"),
                checkpoint=CheckpointPolicy(path=path),
            ),
        )
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                checkpoint=CheckpointPolicy(path=path),
                sharding=Sharding(fault_plan=FaultPlan.parse(["eio_read@0"])),
            ),
        )
        assert any(e.kind == "storage_retry" for e in resumed.recovery_log)
        assert_bit_identical(Universe(star_protocol(5)), resumed)

    def test_sharded_run_degrades_gracefully_too(self, tmp_path):
        path = tmp_path / "sharded.ckpt"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            universe = Universe(
                star_protocol(5),
                options=ExplorationOptions(
                    checkpoint=CheckpointPolicy(path=path),
                    sharding=Sharding(
                        workers=2,
                        fault_plan=FaultPlan.parse(["enospc@2"]),
                    ),
                ),
            )
        assert universe.checkpoint_degraded
        assert_bit_identical(Universe(star_protocol(5)), universe)
        assert inspect_checkpoint(path)["valid"]


class _ExplodingFileOps(FileOps):
    """Raises a fixed error on every write — a stand-in for a bug."""

    def __init__(self, error: BaseException) -> None:
        self.error = error
        self.writes = 0

    def write(self, handle, data) -> int:
        self.writes += 1
        raise self.error


class TestWriterStickyError:
    """Unclassified failures are never absorbed: the session is dead and
    every later save/flush re-raises the original error verbatim."""

    def make_session(self, tmp_path, error):
        universe = Universe(star_protocol(4))
        session = CheckpointSession(
            tmp_path / "sticky.ckpt",
            star_protocol(4),
            None,
            fileops=_ExplodingFileOps(error),
        )
        return universe, session

    def test_unclassified_oserror_reraises_verbatim(self, tmp_path):
        error = OSError(errno.EBADF, "not a storage problem")
        universe, session = self.make_session(tmp_path, error)
        session.save(len(universe), universe)
        with pytest.raises(OSError) as info:
            session.flush()
        assert info.value is error  # the exact object, not a rewrap
        assert not session.degraded
        # Sticky: the next save refuses too, with the same error.
        with pytest.raises(OSError) as again:
            session.save(len(universe), universe)
        assert again.value is error

    def test_flush_never_deadlocks_after_degradation(self, tmp_path):
        universe = Universe(star_protocol(4))
        ops = FaultInjectingFileOps()
        log = RecoveryLog()
        session = CheckpointSession(
            tmp_path / "deg.ckpt",
            star_protocol(4),
            None,
            fileops=ops,
            recovery_log=log,
        )
        ops.arm("enospc")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            session.save(len(universe), universe)
            session.flush()  # returns promptly instead of waiting forever
        assert session.degraded
        session.save(len(universe), universe)  # no-op, no exception
        session.flush()
        assert [e.kind for e in log] == ["checkpoint_degraded"]

    def test_queue_ordered_arming_declines_when_unorderable(self, tmp_path):
        session = CheckpointSession(tmp_path / "idle.ckpt", star_protocol(4), None)
        # An idle, drained writer is already ordered — the caller arms
        # directly.
        assert not session.arm_storage_faults([("enospc", 0.0)])
        # So is a degraded session: nothing will ever be written again.
        with pytest.warns(RuntimeWarning, match="checkpointing disabled"):
            session._degrade(OSError(errno.ENOSPC, "disk full"))
        assert not session.arm_storage_faults([("enospc", 0.0)])


class TestRecoveryEventCompat:
    """The frozen dataclass keeps the pre-PR 10 dict surface alive."""

    def test_dict_compatibility(self):
        event = RecoveryEvent("worker", "respawn", layer=3, shard=1)
        assert event["kind"] == "worker"
        assert event["action"] == "respawn"  # historical alias of rung
        assert event.action == "respawn"
        assert event.get("shard") == 1
        assert event.get("missing", "fallback") == "fallback"
        with pytest.raises(KeyError):
            event["missing"]
        assert "action" in event.keys() and "rung" in event.keys()
        assert event.as_dict()["seq"] == 0

    def test_log_sequencing_and_legacy_append(self):
        log = RecoveryLog()
        assert not log
        log.record("worker", "respawn", shard=0)
        log.record("worker", "fold", shard=1)
        log.record("rss_budget", "truncate", layer=4)
        assert [e.seq for e in log] == [0, 1, 2]
        assert [e.rung for e in log] == ["respawn", "fold", "truncate"]
        assert [e.shard for e in log] == [0, 1, None]
        assert log[2].layer == 4
        assert len(log) == 3 and bool(log)

    def test_events_are_frozen(self):
        event = RecoveryEvent("worker", "respawn")
        with pytest.raises(AttributeError):
            event.rung = "fold"


# -- hypothesis: the CLI fault grammar round-trips exactly --------------

SHARDLESS_KINDS = CHECKPOINT_FAULT_KINDS + STORAGE_FAULT_KINDS

fault_seconds = st.one_of(
    st.just(0.0),
    st.floats(
        min_value=0.001,
        max_value=100.0,
        allow_nan=False,
        allow_infinity=False,
    ),
)


@st.composite
def faults(draw) -> Fault:
    kind = draw(st.sampled_from(WORKER_FAULT_KINDS + SHARDLESS_KINDS))
    shard = -1 if kind in SHARDLESS_KINDS else draw(
        st.integers(min_value=0, max_value=7)
    )
    layer = draw(st.integers(min_value=0, max_value=50))
    return Fault(kind, shard, layer, seconds=draw(fault_seconds))


class TestFaultGrammarRoundTrip:
    @given(fault=faults())
    @settings(max_examples=120, deadline=None)
    def test_spec_parse_round_trips(self, fault):
        """``Fault.spec()`` is the exact inverse of ``FaultPlan.parse``."""
        plan = FaultPlan.parse([fault.spec()])
        assert plan.faults == (fault,)

    @given(faults_list=st.lists(faults(), min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_plans_round_trip_in_order(self, faults_list):
        plan = FaultPlan.parse([fault.spec() for fault in faults_list])
        assert plan.faults == tuple(faults_list)

    @given(
        kind=st.sampled_from(SHARDLESS_KINDS),
        shard=st.integers(min_value=0, max_value=7),
        layer=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_shard_qualified_shardless_kinds_rejected(self, kind, shard, layer):
        with pytest.raises(UniverseError, match="takes no shard"):
            FaultPlan.parse([f"{kind}:{shard}@{layer}"])

    @given(
        kind=st.sampled_from(WORKER_FAULT_KINDS),
        layer=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_worker_kinds_require_a_shard(self, kind, layer):
        with pytest.raises(UniverseError, match="needs a shard"):
            FaultPlan.parse([f"{kind}@{layer}"])

    @given(fault=faults())
    @settings(max_examples=60, deadline=None)
    def test_json_report_spelling_is_stable(self, fault):
        """Specs survive a JSON round trip (the --json report embeds
        them as plain strings)."""
        assert json.loads(json.dumps(fault.spec())) == fault.spec()
