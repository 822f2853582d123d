"""Independent calls spread over the CPUs of the affinity mask.

Two ways, both over a pool of forked workers: map_in_order, where the
calling process only collects results (verify --battery), and run_split,
where it also takes its share of the calls (compute_all).  Fork, not
spawn: a worker starts with the imported package and with whatever its
caller built before the pool, such as a space and its pair table, and
shares those pages until it writes them, where a spawned worker would
import and build everything again.  multiprocessing and concurrent.futures
are imported only when a pool is built, so start-up and one-CPU runs never
pay for them.
"""
from __future__ import annotations

import os
import sys


def _usable_cpus() -> int:
    """The CPUs in this process's affinity mask; 1 where the platform has no
    fork or no affinity mask."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def map_in_order(fn, items: list, *args):
    """Yield fn(item, *args) for each item in order, and raise where the
    first failing item's call raises, as the plain loop does.

    With w = min(len(items), _usable_cpus()) > 1 the calls run in a pool of
    w forked worker processes and this process only collects their results,
    so fn, items, args and fn's results must pickle.  On a failure or an
    interrupt the calls not yet started are cancelled, and every worker is
    joined before the exception leaves.
    """
    workers = min(len(items), _usable_cpus())
    if workers < 2:
        yield from (fn(item, *args) for item in items)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    sys.stdout.flush()   # a worker flushes the buffers it inherits on exit
    sys.stderr.flush()
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        yield from pool.map(fn, items, *([arg] * len(items) for arg in args))


_tasks: list = []   # a run_split worker's tasks, inherited from its caller


def _adopt(tasks: list) -> None:
    global _tasks
    _tasks = tasks


def _run(index: int):
    return _tasks[index]()


def run_split(tasks: list) -> list:
    """[task() for task in tasks], raising where the first failing task in
    list order raises, as the plain loop does.

    With w = min(len(tasks), _usable_cpus()) > 1 this process runs tasks 0,
    w, 2w, ... itself, and a pool of w - 1 forked workers runs the others,
    each taking the next one as it frees up.  The tasks reach the workers
    through the pool's initializer, which fork passes on without pickling,
    so they may be closures; their results and exceptions must pickle.  A
    call made inside a worker of a pool (multiprocessing.parent_process()
    is set) runs its tasks in its own process, so pools never nest.  On a
    failure or an interrupt the tasks not yet started are cancelled, and
    every worker is joined before the exception leaves.
    """
    workers = min(len(tasks), _usable_cpus())
    if workers > 1:
        import multiprocessing
        if multiprocessing.parent_process() is not None:
            workers = 1
    if workers < 2:
        return [task() for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    sys.stdout.flush()   # a worker flushes the buffers it inherits on exit
    sys.stderr.flush()
    pool = ProcessPoolExecutor(workers - 1, mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt, initargs=(tasks,))
    try:
        theirs = {i: pool.submit(_run, i) for i in range(len(tasks)) if i % workers}
        mine, failure = {}, None
        for i in range(0, len(tasks), workers):
            try:
                mine[i] = tasks[i]()
            except Exception as exc:
                failure = exc
                break
        # A worker's task before the caller's failing one fails first.
        out = []
        for i in range(len(tasks)):
            if i % workers:
                out.append(theirs[i].result())
            elif i in mine:
                out.append(mine[i])
            else:
                raise failure
        return out
    finally:
        pool.shutdown(cancel_futures=True)
