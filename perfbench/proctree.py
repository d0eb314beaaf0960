"""The benchmark process and its descendants, read from /proc.

- others_running() tells whether a Python thread of this process other
  than the caller, or any thread of a descendant process, is running.
  The speed kernel is timed only when none is, so the kernel never
  shares a core with the program's work.
- TreeRss samples the summed VmRSS of the process tree.
  getrusage(RUSAGE_SELF) sees only this process, so a program that moves
  work into worker processes would hide their memory.  TreeRss is entered
  only around the passes, so the set-up probes the benchmark starts
  itself are not counted.  Pages that forked workers share with their
  parent count once per process.
"""
from __future__ import annotations

import os
import resource
import signal
import threading

PERIOD_S = 0.05
RSS_THREAD = "perfbench-rss"


def _tasks(pid: int) -> list[str]:
    return os.listdir(f"/proc/{pid}/task")


def _children(pid: int) -> list[int]:
    out = []
    for tid in _tasks(pid):
        with open(f"/proc/{pid}/task/{tid}/children") as f:
            out += [int(c) for c in f.read().split()]
    return out


def _walk(pid: int):
    """This pid and its live descendants; ones that end meanwhile are left out."""
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            todo += _children(p)
        except (FileNotFoundError, ProcessLookupError):
            continue
        yield p


def _state(path: str) -> str:
    with open(path) as f:
        return f.read().rpartition(")")[2].split()[0]


def others_running() -> bool:
    """True if another Python thread or a descendant's thread is running or runnable.

    Threads this process made outside Python, such as the BLAS pool, are
    left out.  The caller is the main thread's signal handler, which runs
    between bytecodes: any BLAS call the main thread made has returned,
    and those threads at most spin while they wait for the next one.
    TreeRss's own thread is left out too.
    """
    own = os.getpid()
    me = threading.get_native_id()
    threads = [(own, t.native_id) for t in threading.enumerate()
               if t.native_id != me and t.name != RSS_THREAD]
    for pid in _walk(own):
        try:
            threads += [(pid, int(tid)) for tid in _tasks(pid)] if pid != own else []
        except (FileNotFoundError, ProcessLookupError):
            continue  # ended while being listed
    for pid, tid in threads:
        try:
            if _state(f"/proc/{pid}/task/{tid}/stat") == "R":
                return True
        except (FileNotFoundError, ProcessLookupError):
            continue
    return False


def _rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0


def tree_rss_kb() -> int:
    """Summed VmRSS of this process and its live descendants."""
    total = 0
    for pid in _walk(os.getpid()):
        try:
            total += _rss_kb(pid)
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


class TreeRss:
    """Peak of tree_rss_kb() sampled every PERIOD_S from a thread while entered."""

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name=RSS_THREAD, daemon=True)

    def _run(self) -> None:
        # leave the speed sampler's timer signal to the main thread
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        while True:
            self.peak_kb = max(self.peak_kb, tree_rss_kb())
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak_kb = max(self.peak_kb, tree_rss_kb())


def peak_rss_mb(tree: TreeRss) -> float:
    """Larger of this process's own peak and the sampled peak of its tree."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own_kb, tree.peak_kb) / 1024.0
