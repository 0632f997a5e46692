"""A stage's independent jobs, inline or on a pool of forked processes.

``ingest`` runs its days and ``mi`` a day's bootstrap replicates through
:func:`run_jobs`, on a pool when there is enough work to repay starting
it. Workers are forked, so they inherit the job function and the jobs, the
parent's arrays among them: only job numbers go out, and results and log
records come back. ``multiprocessing`` is imported only once a pool is due
(with this module it would add about 0.8 MB to every stage's peak memory),
and ``logging.handlers`` with it, in the parent, so that the workers
inherit it through the fork instead of each importing it again.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import logging

from . import engine
from .errors import WorkerLost

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
def fork_pool(workers: int):
    """A ``ProcessPoolExecutor`` of ``workers`` forked processes that hold
    their log records for the parent; on exit the jobs not yet started are
    cancelled and the workers are joined, on success and on error."""
    import logging.handlers     # for _hold_logs, so that no worker imports it
    import multiprocessing
    pool = concurrent.futures.ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"), initializer=_hold_logs)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def run_jobs(fn, jobs, workers: int, name) -> list:
    """``[fn(job) for job in jobs]``, inline for 1 worker, else on a
    :func:`fork_pool` that inherits ``fn`` and the listed jobs as module
    state and is sent only job numbers (results still pickle). Each job's
    log records are emitted once the jobs before it have finished; the
    first failing job's error is then raised with the worker's traceback as
    its cause, and the jobs not yet started are cancelled. A worker that
    dies (killed, or exited) raises :class:`WorkerLost` naming
    ``name(i)``, the first job ``i`` whose result did not come back, once
    every worker is joined. One pool runs at a time.
    """
    if workers == 1:
        return [fn(job) for job in jobs]
    global _work
    _work = fn, list(jobs)
    results = []
    try:
        with fork_pool(workers) as pool:
            futures = [pool.submit(_run_held, i) for i in range(len(_work[1]))]
            for future in futures:
                try:
                    (result, records), failed = future.result(), None
                except _JobFailed as exc:
                    records, failed = exc.args[0], exc
                for record in records:
                    logging.getLogger(record.name).handle(record)
                if failed is not None:
                    raise failed.args[1] from failed.__cause__   # the worker's traceback
                results.append(result)
            return results
    except concurrent.futures.BrokenExecutor as exc:
        raise WorkerLost(f"a pool worker died: {name(len(results))} "
                         "returned no result") from exc
    finally:
        _work = None


class _JobFailed(Exception):
    """A pooled job's error, with the log records the job made before it."""

    def __str__(self):
        return f"{len(self.args[0])} log records before the error above"


class _HeldRecords(list):
    put_nowait = list.append    # the queue a QueueHandler puts records on


_held = _HeldRecords()   # a pool worker's log records of its current job
_work = None             # the pool's (fn, jobs), inherited through the fork


def _hold_logs() -> None:
    """Pool initializer: keep the worker's log records for the parent to emit.
    ``logging.handlers`` comes imported from the parent (:func:`fork_pool`)."""
    for logger in (logging.getLogger(), *logging.Logger.manager.loggerDict.values()):
        for handler in list(getattr(logger, "handlers", ())):   # placeholders have none
            logger.removeHandler(handler)
    logging.getLogger().addHandler(logging.handlers.QueueHandler(_held))


def _run_held(i: int):
    """Job ``i`` in a pool worker; returns its result and log records."""
    fn, jobs = _work
    _held.clear()
    try:
        result = fn(jobs[i])
    except BaseException as exc:
        raise _JobFailed(list(_held), exc) from exc
    return result, list(_held)
