"""Stopping the CLI with a signal leaves no pool worker behind.

``repro serve`` stops through ``service.stop()`` on SIGINT and on
SIGTERM, even when it was started as a non-interactive shell starts a
background job: with SIGINT ignored.  Any other command exits on SIGTERM through the
interpreter's normal shutdown, which shuts the worker pool down.  Each
test starts the command with ``--jobs 2``, waits for its pool workers,
sends the signal, then requires the command to exit and every worker
it had to be gone.
"""

import contextlib
import json
import os
import pathlib
import re
import select
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(
    not pathlib.Path("/proc/self/stat").exists(),
    reason="finds worker processes through /proc",
)


def _stat(path):
    """``(state, ppid)`` from a ``/proc/<pid>/stat`` file, or None."""
    try:
        fields = pathlib.Path(path).read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def _alive(pid):
    stat = _stat(f"/proc/{pid}/stat")
    return stat is not None and stat[0] not in ("Z", "X")


def _children(pid):
    return [
        int(path.parent.name)
        for path in pathlib.Path("/proc").glob("[0-9]*/stat")
        if (_stat(path) or (None, None))[1] == pid
    ]


def _wait_for(predicate, seconds):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    return predicate()


@pytest.fixture
def started():
    """``start(*args)`` runs ``python -m repro ARGS`` with SIGINT
    ignored; teardown kills whatever it started that still runs."""
    procs, workers = [], []

    def start(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            ["sh", "-c", 'trap "" INT; exec "$@"', "sh"]
            + [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
            cwd=ROOT,
        )
        procs.append(proc)
        return proc, workers

    yield start
    for pid in workers:
        if _alive(pid):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def _pool_workers(proc, workers):
    found = _wait_for(lambda: len(_children(proc.pid)) >= 2, 120)
    workers.extend(_children(proc.pid))
    assert found, "the pooled run started no workers"
    return list(workers)


def _assert_gone(workers):
    assert _wait_for(lambda: not any(map(_alive, workers)), 30), [
        pid for pid in workers if _alive(pid)
    ]


@pytest.mark.parametrize(
    "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
)
def test_serve_stops_and_leaves_no_worker(started, signum):
    proc, workers = started(
        "serve", "--port", "0", "--jobs", "2", "--no-cache", "--trials", "12"
    )
    ready, _, _ = select.select([proc.stdout], [], [], 120)
    assert ready, "repro serve did not start"
    port = int(re.search(r":(\d+) ", proc.stdout.readline()).group(1))
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/batch",
        data=json.dumps({"trials": 12}).encode(),
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=300) as response:
        assert response.status == 200
    pool = _pool_workers(proc, workers)
    proc.send_signal(signum)
    assert proc.wait(timeout=60) == 0
    _assert_gone(pool)


def test_pooled_batch_exits_on_sigterm_and_leaves_no_worker(started):
    # 20,000 trials are five jobs per entry: the run is mid-way when
    # its workers have started.
    proc, workers = started(
        "batch", "--jobs", "2", "--trials", "20000", "--no-cache"
    )
    pool = _pool_workers(proc, workers)
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=300) == 128 + signal.SIGTERM
    _assert_gone(pool)
