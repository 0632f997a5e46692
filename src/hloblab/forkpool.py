"""A stage's independent jobs, inline or on a pool of forked processes.

``ingest`` runs its days and ``mi`` a day's bootstrap replicates through
:func:`run_jobs`, on a pool when there is enough work to repay starting
it. Workers are forked, so they inherit the job function and the jobs, the
parent's arrays among them: only job numbers go out, and only results and
errors come back. Workers log nothing; what a job has to report, it
returns. ``multiprocessing`` is imported only once a pool is due (with this
module it would add about 0.8 MB to every stage's peak memory).
"""

from __future__ import annotations

import concurrent.futures
import contextlib

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
    """A ``ProcessPoolExecutor`` of ``workers`` forked processes; on exit the
    jobs not yet started are cancelled and the workers are joined, on
    success and on error."""
    import multiprocessing
    pool = concurrent.futures.ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def run_jobs(fn, jobs, workers: int, name):
    """Yields ``fn(job)`` for each of ``jobs``, in job order: inline for 1
    worker, else from a :func:`fork_pool` that inherits ``fn`` and the
    listed jobs as module state and is sent only job numbers (results still
    pickle). Each result is yielded once the jobs before it have finished,
    and the first failing job's error is raised in its turn, with the
    worker's traceback as its cause and the jobs not yet started cancelled.
    A worker that dies (killed, or exited) raises :class:`WorkerLost`
    naming ``name(i)``, the first job ``i`` whose result did not come back,
    once every worker is joined. The pool is shut down when the iterator
    ends, fails or is closed, so a caller that stops early leaves no
    worker behind. One pool runs at a time.
    """
    if workers == 1:
        yield from map(fn, jobs)
        return
    global _work
    _work = fn, list(jobs)
    done = 0
    try:
        with fork_pool(workers) as pool:
            for future in [pool.submit(_run, i) for i in range(len(_work[1]))]:
                yield future.result()
                done += 1
    except concurrent.futures.BrokenExecutor as exc:
        raise WorkerLost(f"a pool worker died: {name(done)} returned no result") from exc
    finally:
        _work = None


_work = None    # the pool's (fn, jobs), inherited through the fork


def _run(i: int):
    """Job ``i`` in a pool worker."""
    fn, jobs = _work
    return fn(jobs[i])
