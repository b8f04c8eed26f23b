"""Sharded workers must not outlive a SIGKILLed coordinator.

Each forked worker inherits copies of the coordinator-side pipe ends
(its own and its earlier siblings').  Unless the worker closes them, its
``recv`` never sees EOF when the coordinator dies, and the worker blocks
forever as an orphan.  This test kills a real ``repro explore --workers
2`` process the moment its first checkpoint layer lands and requires
every worker to be gone shortly after.
"""

import os
import pathlib
import signal
import subprocess
import time

import pytest

from chaos import explore_command, layers_on_disk

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="needs /proc to find the workers"
)


def children_of(pid: int) -> set[int]:
    """Live processes whose parent is ``pid``."""
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            found.add(int(entry))
    return found


def alive(pid: int) -> bool:
    """Running (an exited, unreaped zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_workers_exit_when_the_coordinator_is_sigkilled(tmp_path):
    path = tmp_path / "orphan.ckpt"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    coordinator = subprocess.Popen(
        explore_command(path, size=6, workers=2),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env
    )
    workers: set[int] = set()
    try:
        deadline = time.monotonic() + 60
        while layers_on_disk(path) < 1:
            assert coordinator.poll() is None, "exploration ended before the kill"
            assert time.monotonic() < deadline, "no checkpoint layer within 60 s"
            time.sleep(0.01)
        workers = children_of(coordinator.pid)
        os.kill(coordinator.pid, signal.SIGKILL)
        coordinator.wait()
        assert coordinator.returncode == -signal.SIGKILL
        assert len(workers) >= 2, workers
        time.sleep(10)
        survivors = {pid for pid in workers if alive(pid)}
        assert not survivors, f"orphaned workers still running: {survivors}"
    finally:
        if coordinator.poll() is None:
            coordinator.kill()
            coordinator.wait()
        for pid in workers:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)
