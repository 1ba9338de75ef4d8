"""The one process pool botsift uses: a function over items on both cores.

The jobs of evaluate.run_fold_jobs and the large CSV reads and writes
run through fork_map. Forked children inherit the function and the items, so
neither is pickled: only item indices go out, and only the results (or an
exception) come back. Callers keep large data out of the results; a child
that fills a shared buffer or writes a file returns a small status instead.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

# Processes that work side by side: at most two, and no more than the CPUs
# this process may run on (its affinity mask, where the platform has one).
# The work is Python-bound (the MLP's SGD step, float formatting, CSV
# parsing), so threads cannot help.
WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)

_task: tuple[Callable, Sequence] | None = None  # set only inside pool processes


def _adopt(fn: Callable, items: Sequence) -> None:
    global _task
    _task = (fn, items)


def _call(index: int):
    fn, items = _task
    return fn(items[index])


def fork_map(fn: Callable, items: Sequence) -> list:
    """[fn(item) for item in items], run in a pool of up to WORKERS forked
    processes; results come back in item order.

    With fewer than two workers or items the calls run inline, without
    importing multiprocessing; they also run inline where the fork start
    method is unavailable. An item goes out only to a free worker, and none
    after a call raises: the running calls finish, then the first to raise,
    in item order, is raised here. A child that dies (say, killed for memory)
    raises BrokenProcessPool, where a multiprocessing.Pool would wait forever.
    """
    items = list(items)
    workers = min(WORKERS, len(items))
    if workers < 2:
        return [fn(item) for item in items]
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    futures, running = [], set()
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(fn, items)) as pool:
        for index in range(len(items)):
            if len(running) == workers:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                if any(future.exception() for future in done):
                    break
            futures.append(pool.submit(_call, index))
            running.add(futures[-1])
    return [future.result() for future in futures]
