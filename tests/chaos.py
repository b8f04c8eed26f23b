"""Whole-process crash chaos harness for checkpointed exploration.

The strongest durability claim the checkpoint subsystem makes is not
"survives a polite KeyboardInterrupt" but "survives the machine going
away mid-write".  This harness proves it the only honest way: it runs
``repro explore --checkpoint`` as a real subprocess, SIGKILLs it at
seeded layer targets (no cleanup handlers run), resumes it — possibly
under a different engine and a different interpreter hash seed — and
repeats until the exploration completes.  The surviving checkpoint must
reconstruct a universe bit-identical to an uninterrupted in-process run.

Torn writes are covered by the ``torn_save`` checkpoint fault: the
subprocess hard-exits (``os._exit``) between appending a segment and
publishing the manifest, leaving a genuinely torn on-disk state (an
orphan segment the next resume must discard).

Since checkpoint writes moved to a background thread, the same window
can also be hit *externally*: the ``stall_write`` fault holds the
writer open between segment append and manifest replace, the harness
watches the filesystem for the uncommitted segment to appear, and
SIGKILLs the whole process mid-background-write — no cooperation from
the dying process beyond the stall itself (``--stall-kill``).

Hostile storage is the third axis (``--disk-faults``): every crashed
attempt additionally carries a seeded *transient* storage fault
(``eio_write``/``eio_read``/``fsync_fail``/``slow_io``/``fd_exhaust``
via the fault-injecting file-ops shim), so SIGKILLs land on runs whose
checkpoint I/O is already retrying; the final completing run carries a
*permanent* ``enospc``, so it finishes with checkpointing degraded and
the survivor must resume from the last cleanly committed manifest.

Usable as a library (``tests/test_universe_chaos.py``) and as a CLI for
the CI smoke::

    python tests/chaos.py --size 5 --kills 3 --seed 7
    python tests/chaos.py --size 6 --kills 3 --workers 2 --seed 1
    python tests/chaos.py --size 6 --kills 4 --workers-schedule 1,2,1,3
    python tests/chaos.py --size 5 --kills 3 --stall-kill --seed 4
    python tests/chaos.py --size 5 --kills 1 --disk-faults --seed 11
"""

from __future__ import annotations

import argparse
import os
import pathlib
import random
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.universe.checkpoint import inspect_checkpoint  # noqa: E402

TORN_SAVE_EXIT = 23  # os._exit status of the torn_save checkpoint fault
POLL_INTERVAL = 0.001  # star explorations save layers every few ms
DEFAULT_TIMEOUT = 180.0

# Storage fault kinds that are absorbed (retried or merely slowed) so a
# crashed attempt's checkpoint keeps advancing towards its kill target;
# the permanent enospc is reserved for the final completing run.
TRANSIENT_STORAGE_KINDS = (
    "eio_write",
    "eio_read",
    "fsync_fail",
    "slow_io",
    "fd_exhaust",
)


@dataclass
class ChaosAttempt:
    """One subprocess run: how it started and how it ended."""

    workers: int
    hash_seed: int
    outcome: str  # "sigkill" | "stall_kill" | "torn_save" | "complete"
    target_layer: int | None
    layers_on_disk: int
    returncode: int | None
    storage_faults: tuple[str, ...] = ()


@dataclass
class ChaosResult:
    """Outcome of a full kill/resume campaign."""

    size: int
    seed: int
    attempts: list[ChaosAttempt] = field(default_factory=list)
    completed: bool = False

    @property
    def kills(self) -> int:
        return sum(
            1 for a in self.attempts if a.outcome in ("sigkill", "stall_kill")
        )

    @property
    def stall_kills(self) -> int:
        return sum(1 for a in self.attempts if a.outcome == "stall_kill")

    @property
    def torn_saves(self) -> int:
        return sum(1 for a in self.attempts if a.outcome == "torn_save")

    def describe(self) -> str:
        lines = [
            f"chaos campaign: star n={self.size}, seed={self.seed}, "
            f"{len(self.attempts)} attempts "
            f"({self.kills} SIGKILLs, of which {self.stall_kills} "
            f"mid-background-write, {self.torn_saves} torn saves)"
        ]
        for i, a in enumerate(self.attempts):
            where = (
                f"targeting layer {a.target_layer}"
                if a.target_layer is not None
                else "running to completion"
            )
            storage = (
                f" storage={','.join(a.storage_faults)}"
                if a.storage_faults
                else ""
            )
            lines.append(
                f"  attempt {i}: workers={a.workers} "
                f"PYTHONHASHSEED={a.hash_seed} {where}{storage} -> "
                f"{a.outcome} "
                f"(rc={a.returncode}, {a.layers_on_disk} layers on disk)"
            )
        lines.append(f"  completed: {self.completed}")
        return "\n".join(lines)


def explore_command(
    path: pathlib.Path,
    size: int,
    workers: int,
    fault_specs: tuple[str, ...] = (),
) -> list[str]:
    """The exact ``repro explore`` invocation the campaign crashes."""
    cmd = [
        sys.executable,
        "-m",
        "repro.cli",
        "explore",
        "broadcast",
        "--topology",
        "star",
        "--size",
        str(size),
        "--checkpoint",
        str(path),
        "--checkpoint-every",
        "1",
    ]
    if workers > 1:
        cmd += ["--workers", str(workers)]
    for spec in fault_specs:
        cmd += ["--fault", spec]
    return cmd


def _subprocess_env(hash_seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Every attempt runs in a different hash domain: resume must not
    # depend on the writer's interpreter hash seed.
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def layers_on_disk(path: pathlib.Path) -> int:
    """Current layer count per the manifest (0 if absent/unreadable)."""
    report = inspect_checkpoint(path, verify_segments=False)
    if not report.get("exists") or report.get("error"):
        return 0
    return int(report.get("layers") or 0)


def orphan_on_disk(path: pathlib.Path) -> bool:
    """True when a segment file exists that the manifest never
    committed — i.e. some writer is (or died) between segment append
    and manifest replace."""
    report = inspect_checkpoint(path, verify_segments=False)
    return bool(report.get("orphans"))


def _run_and_kill(
    cmd: list[str],
    path: pathlib.Path,
    target_layer: int | None,
    hash_seed: int,
    timeout: float,
    kill_on_orphan: bool = False,
) -> tuple[str, int | None]:
    """Run the explorer; SIGKILL it once the checkpoint reaches the
    target layer — or, with ``kill_on_orphan``, the instant an
    uncommitted segment appears on disk (the stalled background writer
    sitting between append and manifest commit).  Returns (outcome,
    returncode)."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=_subprocess_env(hash_seed),
    )
    deadline = time.monotonic() + timeout
    try:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                raise TimeoutError(f"chaos subprocess exceeded {timeout}s: {cmd}")
            if kill_on_orphan and orphan_on_disk(path):
                # The writer is inside the append->commit window: this
                # SIGKILL lands mid-background-write by construction.
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait()
                return "stall_kill", proc.returncode
            if target_layer is not None and layers_on_disk(path) >= target_layer:
                # No warning, no cleanup: the process is simply gone.
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait()
                return "sigkill", proc.returncode
            time.sleep(POLL_INTERVAL)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode == TORN_SAVE_EXIT:
        return "torn_save", proc.returncode
    if proc.returncode == 0:
        return "complete", proc.returncode
    return f"error:{proc.returncode}", proc.returncode


def run_campaign(
    path: pathlib.Path,
    size: int = 6,
    kills: int = 3,
    seed: int = 0,
    workers_schedule: tuple[int, ...] = (1,),
    torn_save: bool = True,
    stall_kill: bool = False,
    timeout: float = DEFAULT_TIMEOUT,
    disk_faults: bool = False,
) -> ChaosResult:
    """Crash/resume until the exploration completes.

    ``kills`` counts forced deaths before the final clean run; when
    ``torn_save`` is true one death is a mid-save hard exit (torn
    write) rather than an external SIGKILL.  ``stall_kill`` makes the
    campaign's *first* death an external SIGKILL landed while the
    background checkpoint writer is provably between segment append and
    manifest replace (held open by the ``stall_write`` fault; first so
    the fresh file guarantees the watched-for orphan is ours).
    ``workers_schedule`` cycles across attempts, so mixed schedules
    exercise kernel<->sharded resume of the same file.

    ``disk_faults`` layers hostile storage on top: every crashed
    attempt carries one seeded transient storage fault (retried or
    absorbed, so the checkpoint keeps advancing into the kill window)
    and the final completing run carries a permanent ``enospc``, which
    degrades checkpointing loudly but must not stop the run — nor
    invalidate the last committed manifest the bit-identity check then
    resumes from.
    """
    rng = random.Random(seed)
    result = ChaosResult(size=size, seed=seed)
    path = pathlib.Path(path)

    deaths = 0
    attempt = 0
    while True:
        workers = workers_schedule[attempt % len(workers_schedule)]
        hash_seed = rng.randrange(1, 2**31)
        faults: tuple[str, ...] = ()
        storage_faults: tuple[str, ...] = ()
        target_layer: int | None = None
        kill_on_orphan = False
        if disk_faults:
            base = layers_on_disk(path)
            if deaths < kills:
                kind = TRANSIENT_STORAGE_KINDS[
                    rng.randrange(len(TRANSIENT_STORAGE_KINDS))
                ]
                layer = base + rng.randint(0, 2)
                spec = (
                    f"{kind}@{layer}~0.05"
                    if kind == "slow_io"
                    else f"{kind}@{layer}"
                )
                storage_faults = (spec,)
            else:
                # The completing run finishes on a full disk: one loud
                # degradation, exploration unharmed, last manifest clean.
                storage_faults = (f"enospc@{base + rng.randint(1, 2)}",)
        if deaths < kills:
            # Aim a little past whatever is already on disk so every
            # death forfeits real progress.  A star-n broadcast universe
            # has exactly 2n layers; clamping the target below that
            # guarantees the run cannot complete before its kill lands.
            base = layers_on_disk(path)
            target_layer = min(base + rng.randint(1, 3), 2 * size - 2)
            if stall_kill and deaths == 0:
                # Hold the append->commit window open long enough for
                # the 1 ms orphan poll to land a kill inside it.
                faults = (f"stall_write@{target_layer}~2.0",)
                target_layer = None
                kill_on_orphan = True
            elif torn_save and deaths == (1 if stall_kill else 0):
                faults = (f"torn_save@{target_layer}",)
                target_layer = None  # the fault itself is the killer
        outcome, returncode = _run_and_kill(
            explore_command(path, size, workers, faults + storage_faults),
            path,
            target_layer,
            hash_seed,
            timeout,
            kill_on_orphan=kill_on_orphan,
        )
        result.attempts.append(
            ChaosAttempt(
                workers=workers,
                hash_seed=hash_seed,
                outcome=outcome,
                target_layer=target_layer,
                layers_on_disk=layers_on_disk(path),
                returncode=returncode,
                storage_faults=storage_faults,
            )
        )
        if outcome in ("sigkill", "stall_kill", "torn_save"):
            deaths += 1
        elif outcome == "complete":
            result.completed = True
            return result
        else:
            raise RuntimeError(
                f"chaos subprocess failed unexpectedly ({outcome}):\n"
                + result.describe()
            )
        attempt += 1
        if attempt > kills * 6 + 10:
            raise RuntimeError(
                "chaos campaign failed to converge:\n" + result.describe()
            )


def verify_bit_identical(path: pathlib.Path, size: int) -> int:
    """Resume the survivor in-process and compare it with the reference
    BFS (:mod:`repro.universe.reference`), which shares no code with the
    engines that wrote the checkpoint; returns the universe size."""
    from repro.cli import broadcast_protocol
    from repro.universe.explorer import Universe
    from repro.universe.options import CheckpointPolicy, ExplorationOptions
    from repro.universe.reference import reference_bfs

    survivor = Universe(
        broadcast_protocol("star", size),
        options=ExplorationOptions(checkpoint=CheckpointPolicy(path=path)),
    )
    if not survivor.is_complete:
        raise AssertionError("surviving checkpoint is not complete")
    differences = reference_bfs(broadcast_protocol("star", size)).differences(
        survivor
    )
    if differences:
        raise AssertionError(
            f"survivor differs from the reference BFS in {differences}"
        )
    return len(survivor)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="crash a checkpointed exploration until it gives up or wins"
    )
    parser.add_argument("--size", type=int, default=6, help="star protocol size")
    parser.add_argument("--kills", type=int, default=3, help="forced deaths")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker count for every attempt (shorthand for a flat schedule)",
    )
    parser.add_argument(
        "--workers-schedule",
        type=str,
        default=None,
        help="comma-separated worker counts cycled across attempts, e.g. 1,2,1",
    )
    parser.add_argument(
        "--no-torn-save",
        action="store_true",
        help="use only external SIGKILLs (skip the mid-save torn write)",
    )
    parser.add_argument(
        "--stall-kill",
        action="store_true",
        help="make the first death a SIGKILL landed while the background "
        "checkpoint writer is between segment append and manifest commit "
        "(held open by the stall_write fault)",
    )
    parser.add_argument(
        "--disk-faults",
        action="store_true",
        help="layer seeded storage faults on top of the kills: crashed "
        "attempts get one transient fault (eio_write/eio_read/"
        "fsync_fail/slow_io/fd_exhaust), the final completing run gets "
        "a permanent enospc (checkpointing degrades loudly, the last "
        "committed manifest must still verify clean)",
    )
    parser.add_argument(
        "--keep-checkpoint",
        type=str,
        default=None,
        metavar="PATH",
        help="write the checkpoint here and keep it (default: temp dir)",
    )
    args = parser.parse_args(argv)

    if args.workers_schedule:
        schedule = tuple(int(w) for w in args.workers_schedule.split(","))
    else:
        schedule = (args.workers,)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        path = (
            pathlib.Path(args.keep_checkpoint)
            if args.keep_checkpoint
            else pathlib.Path(tmp) / "chaos.ckpt"
        )
        result = run_campaign(
            path,
            size=args.size,
            kills=args.kills,
            seed=args.seed,
            workers_schedule=schedule,
            torn_save=not args.no_torn_save,
            stall_kill=args.stall_kill,
            disk_faults=args.disk_faults,
        )
        print(result.describe())
        if args.disk_faults:
            injected = sum(
                len(a.storage_faults) for a in result.attempts
            )
            if not injected:
                raise RuntimeError(
                    "no storage fault was injected:\n" + result.describe()
                )
            print(f"storage faults injected: {injected}")
        if args.stall_kill and not result.stall_kills:
            raise RuntimeError(
                "no kill landed inside the background-write window:\n"
                + result.describe()
            )
        count = verify_bit_identical(path, args.size)
        print(f"survivor is bit-identical to the reference BFS ({count} configurations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
