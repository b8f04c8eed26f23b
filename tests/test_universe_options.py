"""The ExplorationOptions API: the one way to configure a Universe.

Contract: ``Universe(protocol, options=None)`` is the whole signature,
so a former flat keyword (``workers=2``, ``max_configurations=...``) is
a ``TypeError``; options built the same way build the same universe —
same dense ids, same CSR arrays, same ``recovery_log`` under fault
injection; and the dataclasses are picklable leaves so an options
object travels intact through both ``fork`` and ``spawn`` worker
starts.
"""

import dataclasses
import inspect
import multiprocessing
import pickle

import pytest

from repro.core.errors import UniverseError
from repro.universe.explorer import Universe
from repro.universe.faults import FaultPlan
from repro.universe.options import (
    CheckpointPolicy,
    ExplorationOptions,
    Limits,
    ResourceBudget,
    Sharding,
    options_from_args,
)
from repro.universe.sharded import SupervisionPolicy
from test_universe_sharded import assert_bit_identical, star_protocol

FAST = SupervisionPolicy(heartbeat_timeout=5.0, poll_interval=0.02)


class TestOptionsStyle:
    """Explorations configured through every options group."""

    def test_options_property_reflects_construction(self):
        options = ExplorationOptions(limits=Limits(max_configurations=500))
        universe = Universe(star_protocol(4), options=options)
        assert universe.options is options
        assert universe.options.store == "arena"
        assert Universe(star_protocol(4)).options == ExplorationOptions()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_sharded_options_style(self, workers):
        single = Universe(star_protocol(5))
        sharded = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                sharding=Sharding(workers=workers, supervision=FAST)
            ),
        )
        assert_bit_identical(single, sharded)

    def test_arena_store_options_style(self):
        default = Universe(star_protocol(5))
        arena = Universe(star_protocol(5), options=ExplorationOptions(store="arena"))
        assert len(default) == len(arena)
        assert default._succ_ids == arena._succ_ids
        assert default._ids_by_hash == arena._ids_by_hash


class TestRecoveryEquivalence:
    """Fault-injected runs built from equal options agree, recovery_log
    and all."""

    def test_same_recovery_log_under_kill(self):
        options = ExplorationOptions(
            sharding=Sharding(
                workers=2, supervision=FAST, fault_plan=FaultPlan.kill(0, 1)
            )
        )
        # A fault plan is consumed as it fires: pickle a fresh copy first.
        copy = pickle.loads(pickle.dumps(options))
        first = Universe(star_protocol(5), options=options)
        again = Universe(star_protocol(5), options=copy)
        assert_bit_identical(first, again)
        strip = lambda log: [  # noqa: E731 - local comparator
            {k: e[k] for k in ("kind", "shard", "layer", "action")}
            for e in log
        ]
        assert strip(first.recovery_log) == strip(again.recovery_log)
        assert first.recovery_log  # the fault actually fired

    def test_checkpoint_policy_round_trip(self, tmp_path):
        path = tmp_path / "u.ckpt"
        first = Universe(
            star_protocol(5),
            options=ExplorationOptions(
                checkpoint=CheckpointPolicy(path=path, every=2)
            ),
        )
        resumed = Universe(
            star_protocol(5),
            options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
        )
        assert path.exists()
        assert resumed._checkpoint_session.resumed_from is not None
        assert_bit_identical(first, resumed)


class TestSignature:
    """``Universe(protocol, options=None)`` and nothing else."""

    @pytest.mark.parametrize(
        "kwarg,value",
        [
            ("max_events", 4),
            ("max_configurations", 700),
            ("on_limit", "truncate"),
            ("workers", 2),
            ("checkpoint", "u.ckpt"),
            ("checkpoint_every", 2),
            ("checkpoint_strict", True),
            ("rss_budget_mb", 4096.0),
            ("fault_plan", None),
            ("supervision", None),
            ("store", "arena"),
        ],
    )
    def test_flat_keywords_rejected(self, kwarg, value):
        signature = inspect.signature(Universe)
        assert list(signature.parameters) == ["protocol", "options"]
        with pytest.raises(TypeError, match=kwarg):
            signature.bind(star_protocol(4), **{kwarg: value})

    def test_resource_budget_is_the_rss_ceiling_only(self):
        assert [field.name for field in dataclasses.fields(ResourceBudget)] == [
            "rss_budget_mb"
        ]

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="max_configs"):
            Universe(star_protocol(4), max_configs=10)

    def test_non_options_object_rejected(self):
        with pytest.raises(TypeError, match="ExplorationOptions"):
            Universe(star_protocol(4), options={"store": "arena"})

    def test_invalid_values_still_validated(self):
        with pytest.raises(UniverseError):
            Universe(
                star_protocol(4),
                options=ExplorationOptions(limits=Limits(on_limit="explode")),
            )


def _spawned_child(blob, queue):
    """Top-level so a spawned interpreter can import and run it."""
    options = pickle.loads(blob)
    universe = Universe(star_protocol(4), options=options)
    queue.put((len(universe), universe.is_complete, universe.options.store))


class TestPicklePortability:
    """Options objects cross process-start boundaries intact."""

    def options(self):
        return ExplorationOptions(
            limits=Limits(max_configurations=10_000),
            checkpoint=CheckpointPolicy(every=2),
            budget=ResourceBudget(rss_budget_mb=4096.0),
            sharding=Sharding(
                workers=2,
                supervision=FAST,
                fault_plan=FaultPlan.kill(0, 1),
            ),
            store="arena",
        )

    def test_pickle_round_trip_preserves_equality(self):
        options = self.options()
        clone = pickle.loads(pickle.dumps(options))
        assert clone.limits == options.limits
        assert clone.checkpoint == options.checkpoint
        assert clone.budget == options.budget
        assert clone.store == options.store
        assert clone.sharding.workers == options.sharding.workers
        assert clone.sharding.supervision == FAST
        # FaultPlan compares by identity; its schedule must survive.
        assert (
            clone.sharding.fault_plan.faults
            == options.sharding.fault_plan.faults
        )

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_options_cross_process_starts(self, method):
        ctx = multiprocessing.get_context(method)
        queue = ctx.Queue()
        blob = pickle.dumps(
            ExplorationOptions(limits=Limits(max_configurations=10_000))
        )
        child = ctx.Process(target=_spawned_child, args=(blob, queue))
        child.start()
        try:
            count, complete, store = queue.get(timeout=120)
        finally:
            child.join(timeout=30)
        assert complete
        assert store == "arena"
        assert count == len(Universe(star_protocol(4)))


class TestOptionsFromArgs:
    """The CLI->options mapping shared by explore and check."""

    def test_full_namespace_maps_one_to_one(self, tmp_path):
        import argparse

        args = argparse.Namespace(
            limit=123,
            checkpoint=str(tmp_path / "c.ckpt"),
            checkpoint_every=3,
            strict=True,
            rss_budget=2048.0,
            workers=4,
            fault=["torn_save@2"],
        )
        options = options_from_args(args)
        assert options.limits.max_configurations == 123
        assert options.limits.on_limit == "truncate"  # implied by budget
        assert options.checkpoint.every == 3
        assert options.checkpoint.strict is True
        assert options.budget.rss_budget_mb == 2048.0
        assert options.sharding.workers == 4
        assert len(options.sharding.fault_plan) == 1

    def test_partial_namespace_uses_defaults(self):
        import argparse

        options = options_from_args(argparse.Namespace())
        assert options == ExplorationOptions(
            limits=Limits(max_configurations=1_000_000)
        )
