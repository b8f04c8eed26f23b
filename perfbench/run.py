"""Repository benchmark: one named workload, end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It needs no build: the workload
runs from the checkout's ``src`` in a fresh interpreter (``workloads.py``)
whose ``PYTHONHASHSEED`` is the seed.  ``setup_s`` is the wall time of
a few more fresh interpreters that only import and build the workload's
inputs.  Every time reported is the median over the run's samples, each
scaled to a reference host speed by the yardstick timed beside it
(``yardstick.py``; ``README.md`` says why).

The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the ``end_to_end`` ones of ``BENCHMARK.json``, with
``--trace 1`` the ``per_layer`` ones.  The line before it stamps the
run: cores, Python, commit, load average.  Run records (and the spans of
traced runs) go to ``.perfbench/runs/``.  See ``README.md`` for the
workloads and the layer each metric belongs to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import yardstick  # noqa: E402
from workloads import MIN_CPUS, WORKLOADS  # noqa: E402

SETUP_PROBES = 7
"""Fresh interpreters timed per run for ``setup_s``."""

RUN_LIMIT_S = 170.0
"""Wall-clock limit of one whole run, set-up probes included."""


class BenchError(Exception):
    """A run that cannot produce a result (exit code 2, no result line)."""


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git
    (a checkout without ``.git`` reads ``unknown``)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as head:
            text = head.read().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as packed:
            for line in packed:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(argv: list[str], env: dict, deadline: float) -> str:
    """Run a child to completion in its own process group; return stdout.

    On timeout the whole group (the sharded engine's workers included)
    is killed and reaped before the error propagates."""
    child = subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchError(f"{argv[2:]} exceeded the run's time limit") from None
    if child.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise BenchError(f"{argv[2:]} exited {child.returncode}:\n{tail}")
    return out


def measure(args, spec: dict, root: str, scratch: str) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(args.seed % 2**32)
    env["PYTHONPATH"] = os.path.join(root, "src")
    child = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scratch", scratch,
    ]
    setups = []

    def probe_setup(count: int) -> None:
        _, before = yardstick.measure()
        for _ in range(count):
            start = time.perf_counter()
            spawn(child + ["--setup-only"], env, deadline)
            seconds = time.perf_counter() - start
            _, after = yardstick.measure()
            setups.append({
                "raw_setup_s": seconds,
                "setup_s": yardstick.scale(seconds, (before + after) / 2),
            })
            before = after

    # Half the set-up probes before the workload and half after, so they
    # sample the machine across the whole run.
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    out = spawn(
        child + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        env, deadline,
    )
    probe_setup(SETUP_PROBES // 2)
    report = json.loads(out.strip().splitlines()[-1])
    iterations = report["iterations"]
    plain = [entry for entry in iterations if not entry["traced"]]

    def median(entries, key):
        return statistics.median(entry[key] for entry in entries)

    setup_s = median(setups, "setup_s")

    def total(entries):
        # One set-up, one build and the answers: what a user waits for.
        return setup_s + median(entries, "explore_s") + median(entries, "query_s")

    total_s = total(plain)
    if not args.trace:
        values = {
            "setup_s": setup_s,
            "explore_s": median(plain, "explore_s"),
            "query_s": median(plain, "query_s"),
            "total_s": total_s,
            "peak_rss_mb": report["peak_rss_mb"] + report["worker_rss_mb"],
        }
        names = spec["end_to_end"]
    else:
        traced = [entry for entry in iterations if entry["traced"]]
        values = {metric["name"]: 0 for metric in spec["per_layer"]}
        for name in traced[0]["layers"]:
            values[name] = statistics.median_low(
                entry["layers"][name] for entry in traced)
        if args.workload == "shard2-star6":
            values["sharded.coordinator_rss_mb"] = report["peak_rss_mb"]
        values["trace.total_s"] = total(traced)
        values["trace.overhead_s"] = total(traced) - total_s
        values["trace.coverage"] = statistics.median(
            entry["coverage"] for entry in traced)
        names = spec["per_layer"]
    unknown = set(values) - {metric["name"] for metric in names}
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in names
    }
    record = {"setup_probes_s": setups, "report": report}
    result = {
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
            raise BenchError(
                "no src/repro here: run from the root of a repository checkout")
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        if args.workload not in WORKLOADS or args.workload not in {
            workload["name"] for workload in spec["workloads"]
        }:
            raise BenchError(f"unknown workload {args.workload!r}")
        if cpu_count() < MIN_CPUS.get(args.workload, 1):
            raise BenchError(
                f"{args.workload} needs {MIN_CPUS[args.workload]} cores, this "
                f"machine gives {cpu_count()}: refusing rather than report "
                "numbers not comparable with other machines")
        stamp = {
            "workload": args.workload,
            "why": next(w["why"] for w in spec["workloads"]
                        if w["name"] == args.workload),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": cpu_count(),
            "python": platform.python_version(),
            "commit": git_commit(root),
            "loadavg": os.getloadavg(),
        }
        runs = os.path.join(root, ".perfbench", "runs")
        os.makedirs(runs, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix="scratch-", dir=os.path.dirname(runs))
        try:
            result, record = measure(args, spec, root, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    record.update(stamp=stamp, result=result)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(runs, name), "w") as handle:
        json.dump(record, handle)
    for failure in record["report"]["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
