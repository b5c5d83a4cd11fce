"""One pool of forked worker processes, for the stages that run per-frame tasks.

map fits a side's frames and simulate renders and writes a scan's frames
through ordered_map: one process per usable CPU, at most one per task, and
results in task order, so outputs do not depend on the number of processes.
Workers are forked, so the task itself, with the inputs it closes over
(a side's frame list, a scene), reaches them without being pickled; only
task positions and results cross the pipes, and an exception a task raises
reaches the caller.

multiprocessing and concurrent.futures are imported by ordered_map itself,
so importing the package does not load them.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, TypeVar

Result = TypeVar("Result")

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>

# A worker's task, set once by _init_worker in each worker process (the
# parent never assigns it).
_task: Callable[[int], object] | None = None


def worker_count(n_tasks: int) -> int:
    """Processes to run tasks with: one per usable CPU, at most one per task."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_tasks)


def _init_worker(task: Callable[[int], object], parent: int) -> None:
    """Set a worker's task, and tie the worker's life to its parent's.

    Ctrl-C reaches the whole process group; only the parent acts on it, and
    its pool then stops the workers. On Linux a worker is killed when its
    parent dies, so a stage killed mid-run leaves no process behind.
    """
    import signal

    global _task
    _task = task
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if sys.platform.startswith("linux"):
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:  # the parent died before prctl took effect
            os._exit(1)


def _run_task(position: int) -> object:
    return _task(position)  # type: ignore[misc]


def ordered_map(
    task: Callable[[int], Result], n_tasks: int, worker: str, in_process: bool = False
) -> list[Result]:
    """[task(i) for i in range(n_tasks)], computed by a pool of forked processes.

    The pool has worker_count(n_tasks) processes. With one, where processes
    cannot be forked, or when the caller asks for in_process (a layer function
    it calls has been replaced, and a replacement records its calls in the
    process that makes them), the tasks run in this process. A worker that
    dies raises ChildProcessError, whose message starts with worker (say,
    "a rendering process"). The pool's processes are gone when this returns
    or raises.
    """
    import multiprocessing

    workers = worker_count(n_tasks)
    if workers < 2 or in_process or "fork" not in multiprocessing.get_all_start_methods():
        return [task(position) for position in range(n_tasks)]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(task, os.getpid()),
        ) as pool:
            return list(pool.map(_run_task, range(n_tasks)))
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"{worker} died: {exc}") from exc
