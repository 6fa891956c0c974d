"""A real ``semimatch serve`` subprocess, observed from outside.

The benchmark never runs the server in its own interpreter: the server
is ``python -m repro.experiments.cli serve`` on an ephemeral loopback
port, so it never shares the client's GIL.  What the benchmark knows
about it beyond its answers it reads from ``/proc`` (CPU time and resident
memory of the process tree: the front-end plus, for a pool, its
workers),
from its stderr (tracebacks at stop) and from ``/dev/shm`` (segments
left behind).
"""

from __future__ import annotations

import ctypes
import os
import re
import select
import subprocess
import sys
import time

from repro.service.client import ServiceClient

_LISTENING = re.compile(rb"listening on \S+:(\d+)")
_TICKS = os.sysconf("SC_CLK_TCK")
_SHM = "/dev/shm"
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its descendants: a process whose
    parent exits (a pool worker, a server's ``multiprocessing`` resource
    tracker) is re-parented here, not to init, so :func:`reap` can stop
    it and wait for it."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _waitpid(pid: int) -> None:
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass


def reap() -> None:
    """Stop every process this one started and wait for each: the
    ``multiprocessing`` resource tracker that the in-process
    shared-memory probe starts, then whatever descendant is left."""
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except (OSError, AttributeError, ChildProcessError):
        pass
    me = os.getpid()
    for _ in range(10):
        left = [p for p in process_tree(me) if p != me]
        if not left:
            break
        for pid in left:
            try:
                os.kill(pid, 9)
            except OSError:
                pass
        for pid in left:
            _waitpid(pid)
    while True:  # zombies of children that ended on their own
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            break


def shm_entries() -> set[str]:
    try:
        return set(os.listdir(_SHM))
    except OSError:
        return set()


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(k) for k in fh.read().split())
        except OSError:
            pass
    return kids


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(_children(p))
    return out


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU time of the given live processes."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _TICKS


def rss_mb(pids: list[int]) -> float:
    """Summed ``VmRSS`` of the given live processes, in MiB."""
    kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return kib / 1024.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Server:
    """One ``semimatch serve`` process (``workers > 0`` for a pool).

    :meth:`start` returns once the server has given its first good
    answer (a solve of ``probe``); :attr:`setup_s` is the time from
    spawn to that answer.  :meth:`stop` asks it to shut down over the
    protocol, escalates to signals, and waits for the whole tree."""

    def __init__(self, root: str, log_path: str, *, workers: int = 0):
        self.root = root
        self.log_path = log_path
        self.workers = workers
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.setup_s = 0.0
        self.teardown_errors = 0
        self._tree: list[int] = []

    def start(self, probe, options, timeout: float = 60.0) -> "Server":
        cmd = [
            sys.executable, "-m", "repro.experiments.cli", "serve",
            "--port", "0", "--allow-shutdown",
        ]
        if self.workers:
            cmd += ["--workers", str(self.workers)]
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        t0 = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=log,
            )
        self.port = self._read_port(t0 + timeout)
        with ServiceClient(port=self.port, timeout=timeout) as client:
            client.solve(probe, options=options)
        self.setup_s = time.perf_counter() - t0
        self._tree = process_tree(self.proc.pid)
        return self

    def _read_port(self, deadline: float) -> int:
        # only called from start(), after Popen
        fd = self.proc.stdout.fileno()
        buf = b""
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                buf += chunk
                match = _LISTENING.search(buf)
                if match:
                    return int(match.group(1))
            elif self.proc.poll() is not None:
                break
        self.kill()
        raise RuntimeError(
            f"server did not start: {buf.decode(errors='replace')!r}"
        )

    def tree(self) -> list[int]:
        """The live process tree (refreshed: a pool may restart workers)."""
        if self.proc is not None and self.proc.poll() is None:
            self._tree = process_tree(self.proc.pid)
        return self._tree

    def sample(self) -> tuple[float, float]:
        """``(CPU seconds, resident MiB)`` of the process tree now."""
        tree = self.tree()
        return cpu_seconds(tree), rss_mb(tree)

    def stop(self, timeout: float = 20.0) -> None:
        """Shut down over the protocol, then by signal; wait for every
        process of the tree and count tracebacks on stderr."""
        if self.proc is None:
            return
        tree = self.tree()
        if self.proc.poll() is None:
            try:
                with ServiceClient(port=self.port, timeout=5.0) as client:
                    client.shutdown()
            except (OSError, ConnectionError):
                pass
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.terminate()
                try:
                    self.proc.wait(5.0)
                except subprocess.TimeoutExpired:
                    pass
        self.kill(tree)
        with open(self.log_path, "rb") as fh:
            log = fh.read().decode(errors="replace")
        self.teardown_errors = log.count("Traceback (most recent call last)")

    def kill(self, tree: list[int] | None = None) -> None:
        """SIGKILL whatever of the tree is still alive, and reap it."""
        if self.proc is None:
            return
        pids = tree if tree is not None else self.tree()
        for pid in pids:
            if pid != self.proc.pid and _alive(pid):
                try:
                    os.kill(pid, 9)
                except OSError:
                    pass
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        deadline = time.monotonic() + 10.0
        while any(_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        for pid in pids:  # orphans re-parented here (adopt_orphans)
            if pid != self.proc.pid:
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
