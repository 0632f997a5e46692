"""Pools of forked worker processes for a stage's independent jobs.

``ingest`` runs its days and ``mi`` each day's bootstrap replicates on
such a pool when there is enough work to repay starting it. Workers are
started with ``fork``, so they inherit the parent's arrays without a copy
through a pipe. ``multiprocessing`` is imported only once a pool is due;
imported with this module it would add about 0.8 MB to the peak memory of
every stage.
"""

from __future__ import annotations

import concurrent.futures
import contextlib

from . import engine

MAX_WORKERS = 4


def pool_workers(jobs: int, work: float, min_work: float) -> int:
    """Workers for ``jobs`` independent jobs of ``work`` in all; 1 runs them inline.

    That is ``min(CPUs, jobs, MAX_WORKERS)`` when it is at least 2, ``work``
    is at least ``min_work`` and the platform has ``fork``, and 1 otherwise.
    """
    workers = min(engine.cpu_count(), jobs, MAX_WORKERS)
    if workers < 2 or work < min_work:
        return 1
    import multiprocessing
    return workers if "fork" in multiprocessing.get_all_start_methods() else 1


@contextlib.contextmanager
def fork_pool(workers: int, initializer=None, initargs=()):
    """A ``ProcessPoolExecutor`` of ``workers`` forked processes, each first
    running ``initializer(*initargs)``; on exit the jobs not yet started are
    cancelled and the workers are joined, on success and on error."""
    import multiprocessing
    pool = concurrent.futures.ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=initializer, initargs=initargs)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)
