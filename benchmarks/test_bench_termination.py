"""E12 — §5(c): the termination-detection message lower bound.

Prints the overhead-vs-underlying table (Dijkstra–Scholten meets the
bound exactly; polling exceeds it), the step-1 spontaneous-overhead
scenario, and the step-2 ambiguity census over a small exhaustive
detector universe.  Benchmarks a full DS detection run.
"""

from repro.applications.termination_bounds import (
    detector_ambiguity,
    overhead_table,
    run_dijkstra_scholten,
    spontaneous_ds_workload,
    spontaneous_overhead_after_termination,
)
from repro.protocols.polling_detector import PollingDetectorProtocol
from repro.protocols.termination import (
    Activation,
    TerminationWorkload,
    generate_workload,
)
from repro.simulation.scheduler import RandomScheduler
from repro.universe.explorer import Universe
from repro.universe.options import ExplorationOptions, Limits


def test_bench_overhead_table(benchmark):
    rows = overhead_table(process_counts=(3, 4, 5, 6), seeds=(0, 1))
    print("\n[E12] overhead vs underlying messages:")
    print(f"{'procs':>5} {'seed':>4} {'underlying':>10} {'DS':>6} "
          f"{'polling':>8} {'DS meets bound':>14}")
    for row in rows:
        assert row.ds_overhead == row.underlying
        assert row.ds_meets_bound
        print(
            f"{row.processes:>5} {row.seed:>4} {row.underlying:>10} "
            f"{row.ds_overhead:>6} {row.polling_overhead:>8} "
            f"{str(row.ds_meets_bound):>14}"
        )

    workload = generate_workload(("a", "b", "c", "d"), seed=0)
    benchmark(run_dijkstra_scholten, workload, RandomScheduler(0))


def test_bench_lower_bound_arguments(benchmark):
    # Step 1: spontaneous overhead after termination.
    scenario = spontaneous_ds_workload()
    run, trace = run_dijkstra_scholten(scenario, RandomScheduler(0))
    spontaneous = spontaneous_overhead_after_termination(
        trace, run.termination_index
    )
    assert spontaneous >= 1
    print(
        "\n[E12] step 1: constructed scenario has "
        f"{spontaneous} spontaneous overhead message(s) after termination "
        f"(termination at event {run.termination_index}, detection at "
        f"{run.detection_index})"
    )

    # Step 2: the detector cannot distinguish running from terminated.
    workload = TerminationWorkload(
        processes=("a", "b"), root="a", plans={"a": (Activation(("b",)),)}
    )
    protocol = PollingDetectorProtocol(workload, max_waves=1)
    universe = Universe(
        protocol,
        options=ExplorationOptions(limits=Limits(max_configurations=2_000_000)),
    )
    census = detector_ambiguity(universe)
    assert census["ambiguous"] == census["not_terminated"]
    print(
        "[E12] step 2: over a complete detector universe of "
        f"{census['universe']} computations, {census['ambiguous']} of "
        f"{census['not_terminated']} non-terminated configurations are "
        "detector-isomorphic to a terminated one (100%)"
    )

    def ds_run():
        return run_dijkstra_scholten(scenario, RandomScheduler(0))

    benchmark(ds_run)
