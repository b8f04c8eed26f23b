"""The grouped ExplorationOptions API and its legacy-kwarg shim.

Contract (ISSUE 9): both calling styles run through one code path
inside the explorer, so a ``Universe`` built from legacy kwargs and one
built from the equivalent ``ExplorationOptions`` are the same universe
— same dense ids, same CSR arrays, same ``recovery_log`` under fault
injection.  A ``DeprecationWarning`` fires only on a *conflicting*
double specification (and the legacy kwarg wins); the dataclasses are
picklable leaves so an options object travels intact through both
``fork`` and ``spawn`` worker starts.
"""

import multiprocessing
import pickle
import warnings

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


def no_warnings():
    """Error on any DeprecationWarning inside the block."""
    ctx = warnings.catch_warnings()
    warnings.simplefilter("error", DeprecationWarning)
    return ctx


class TestCallStyleMatrix:
    """One protocol through every calling style: identical universes."""

    def build(self, style):
        protocol = star_protocol(5)
        if style == "legacy":
            return Universe(
                protocol, max_configurations=2_000, on_limit="raise"
            )
        if style == "options":
            return Universe(
                protocol,
                options=ExplorationOptions(
                    limits=Limits(max_configurations=2_000, on_limit="raise")
                ),
            )
        if style == "mixed":
            # Options object plus a legacy kwarg filling a field the
            # options left at its default: no conflict, no warning.
            return Universe(
                protocol,
                max_configurations=2_000,
                options=ExplorationOptions(limits=Limits(on_limit="raise")),
            )
        raise AssertionError(style)

    @pytest.mark.parametrize("style", ["options", "mixed"])
    def test_styles_build_the_same_universe(self, style):
        with no_warnings():
            reference = self.build("legacy")
            other = self.build(style)
        assert_bit_identical(reference, other)

    def test_options_property_reflects_resolution(self):
        universe = Universe(star_protocol(4), max_configurations=500)
        assert universe.options.limits.max_configurations == 500
        assert universe.options.store == "arena"

    @pytest.mark.parametrize("workers", [2, 3])
    def test_sharded_options_style(self, workers):
        with no_warnings():
            single = Universe(star_protocol(5))
            sharded = Universe(
                star_protocol(5),
                options=ExplorationOptions(
                    sharding=Sharding(workers=workers, supervision=FAST)
                ),
            )
        assert_bit_identical(single, sharded)

    def test_arena_store_options_style(self, tmp_path):
        with no_warnings():
            default = Universe(star_protocol(5))
            arena = Universe(
                star_protocol(5),
                options=ExplorationOptions(
                    store="arena",
                    budget=ResourceBudget(spill_dir=tmp_path),
                ),
            )
        assert len(default) == len(arena)
        assert default._succ_ids == arena._succ_ids
        assert default._ids_by_hash == arena._ids_by_hash


class TestRecoveryEquivalence:
    """Fault-injected runs agree across call styles, recovery_log and
    all."""

    def test_same_recovery_log_under_kill(self):
        plan_a = FaultPlan.kill(0, 1)
        plan_b = FaultPlan.kill(0, 1)
        with no_warnings():
            legacy = Universe(
                star_protocol(5),
                workers=2,
                supervision=FAST,
                fault_plan=plan_a,
            )
            styled = Universe(
                star_protocol(5),
                options=ExplorationOptions(
                    sharding=Sharding(
                        workers=2, supervision=FAST, fault_plan=plan_b
                    )
                ),
            )
        assert_bit_identical(legacy, styled)
        strip = lambda log: [  # noqa: E731 - local comparator
            {k: e[k] for k in ("kind", "shard", "layer", "action")}
            for e in log
        ]
        assert strip(legacy.recovery_log) == strip(styled.recovery_log)
        assert legacy.recovery_log  # the fault actually fired

    def test_checkpoint_policy_round_trip(self, tmp_path):
        path = tmp_path / "u.ckpt"
        with no_warnings():
            first = Universe(
                star_protocol(5),
                options=ExplorationOptions(
                    checkpoint=CheckpointPolicy(path=path, every=2)
                ),
            )
            resumed = Universe(
                star_protocol(5),
                options=ExplorationOptions(
                    checkpoint=CheckpointPolicy(path=path)
                ),
            )
        assert path.exists()
        assert resumed._checkpoint_session.resumed_from is not None
        assert_bit_identical(first, resumed)


class TestShim:
    """Conflict detection and rejection semantics of resolve_options."""

    def test_conflicting_double_spec_warns_and_legacy_wins(self):
        with pytest.warns(DeprecationWarning, match="legacy kwarg wins"):
            universe = Universe(
                star_protocol(4),
                max_configurations=700,
                options=ExplorationOptions(
                    limits=Limits(max_configurations=9)
                ),
            )
        assert universe.options.limits.max_configurations == 700
        assert len(universe) > 9  # the tighter options value did not apply

    def test_equal_double_spec_does_not_warn(self):
        with no_warnings():
            Universe(
                star_protocol(4),
                max_configurations=5_000,
                options=ExplorationOptions(
                    limits=Limits(max_configurations=5_000)
                ),
            )

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
    """The CLI->options mapping shared by explore and bench."""

    def test_full_namespace_maps_one_to_one(self, tmp_path):
        import argparse

        args = argparse.Namespace(
            limit=123,
            checkpoint=str(tmp_path / "c.ckpt"),
            checkpoint_every=3,
            strict=True,
            rss_budget=2048.0,
            spill_dir=str(tmp_path),
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
