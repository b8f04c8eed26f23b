"""Whole-process crash chaos: SIGKILL + resume must be lossless.

These tests drive ``tests/chaos.py``: real ``repro explore`` child
processes, killed with SIGKILL (and once mid-save via the ``torn_save``
fault, which leaves a genuinely torn on-disk state), resumed under
fresh interpreter hash seeds, until the exploration completes.  The
surviving checkpoint must reconstruct bit-identically.

The acceptance bar (ISSUE 7): at least three forced deaths including
one torn save, at star n=6, for the kernel and the sharded engine, and
across kernel<->sharded switches of the same checkpoint file.
"""

from chaos import TORN_SAVE_EXIT, run_campaign, verify_bit_identical

STAR6 = 6332  # |universe| of the star n=6 broadcast protocol


def run_and_check(tmp_path, **kwargs):
    path = tmp_path / "chaos.ckpt"
    result = run_campaign(path, **kwargs)
    assert result.completed, result.describe()
    count = verify_bit_identical(path, result.size)
    return result, count


class TestKernelChaos:
    def test_three_deaths_including_torn_save(self, tmp_path):
        result, count = run_and_check(
            tmp_path, size=6, kills=3, seed=11, workers_schedule=(1,)
        )
        assert count == STAR6
        assert result.kills + result.torn_saves >= 3, result.describe()
        assert result.torn_saves >= 1, result.describe()
        # The torn save really died mid-save, not at a layer boundary.
        torn = [a for a in result.attempts if a.outcome == "torn_save"]
        assert torn[0].returncode == TORN_SAVE_EXIT

    def test_pure_sigkill_campaign(self, tmp_path):
        """No cooperating fault at all: every death is external."""
        result, count = run_and_check(
            tmp_path, size=6, kills=3, seed=2, workers_schedule=(1,), torn_save=False
        )
        assert count == STAR6
        assert result.kills >= 3, result.describe()

    def test_sigkill_mid_background_write(self, tmp_path):
        """An external SIGKILL lands while the background checkpoint
        writer is provably between segment append and manifest replace
        (held there by the ``stall_write`` fault): the orphan segment is
        discarded on resume and the survivor stays bit-identical."""
        result, count = run_and_check(
            tmp_path, size=5, kills=2, seed=13, workers_schedule=(1,),
            stall_kill=True,
        )
        assert count == 634
        assert result.stall_kills >= 1, result.describe()
        stalled = [a for a in result.attempts if a.outcome == "stall_kill"]
        # SIGKILL, not a cooperative exit: no returncode ever written.
        assert stalled[0].returncode == -9


class TestShardedChaos:
    def test_three_deaths_including_torn_save(self, tmp_path):
        result, count = run_and_check(
            tmp_path, size=6, kills=3, seed=3, workers_schedule=(2,)
        )
        assert count == STAR6
        assert result.kills + result.torn_saves >= 3, result.describe()
        assert result.torn_saves >= 1, result.describe()


class TestEngineSwitchChaos:
    def test_kernel_and_sharded_share_the_survivor(self, tmp_path):
        """The same checkpoint file is crashed and resumed under the
        kernel, two workers, and three workers in turn."""
        result, count = run_and_check(
            tmp_path, size=6, kills=4, seed=5, workers_schedule=(1, 2, 1, 3)
        )
        assert count == STAR6
        assert result.kills + result.torn_saves >= 4, result.describe()
        engines = {a.workers for a in result.attempts}
        assert {1, 2}.issubset(engines), result.describe()

    def test_hash_seeds_differ_across_attempts(self, tmp_path):
        """Every resume runs in a fresh interpreter hash domain; the
        checkpoint must be portable across all of them."""
        result, count = run_and_check(
            tmp_path, size=5, kills=3, seed=17, workers_schedule=(1, 2)
        )
        assert count == 634
        seeds = [a.hash_seed for a in result.attempts]
        assert len(set(seeds)) == len(seeds), result.describe()


class TestDiskFaultChaos:
    """Hostile storage layered on top of the crash campaign (PR 10):
    every crashed attempt carries a seeded transient storage fault, the
    final run absorbs a permanent ENOSPC by degrading loudly, and the
    survivor must still be bit-identical."""

    def test_disk_faults_campaign_survives(self, tmp_path):
        result, count = run_and_check(
            tmp_path, size=5, kills=1, seed=11, workers_schedule=(1,),
            disk_faults=True,
        )
        assert count == 634
        injected = sum(len(a.storage_faults) for a in result.attempts)
        assert injected >= 2, result.describe()
        # The completing run always carries the permanent fault.
        final = result.attempts[-1]
        assert any(
            spec.startswith("enospc@") for spec in final.storage_faults
        ), result.describe()

    def test_disk_faults_sharded(self, tmp_path):
        result, count = run_and_check(
            tmp_path, size=5, kills=1, seed=3, workers_schedule=(2,),
            disk_faults=True,
        )
        assert count == 634
        assert sum(len(a.storage_faults) for a in result.attempts) >= 2
