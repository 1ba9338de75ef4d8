"""The one process pool botsift uses: a function over items on both cores.

The experiment's (arm, model) jobs and the large CSV reads and writes run
through fork_map. Forked children inherit the function and the items, so
neither is pickled: only item indices go out, and only the results come
back. Callers keep large data out of the results; a child that fills a
shared buffer or writes a file returns a small status instead.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

# Processes that work side by side. The work is Python-bound (the MLP's
# SGD step, float formatting, CSV parsing), so threads cannot help.
WORKERS = min(2, os.cpu_count() or 1)

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
    method is unavailable. An exception fn raises in a child is raised here. A child
    that dies (say, killed for memory) raises BrokenProcessPool, where a
    multiprocessing.Pool would wait forever.
    """
    items = list(items)
    workers = min(WORKERS, len(items))
    if workers < 2:
        return [fn(item) for item in items]
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(fn, items)) as pool:
        return list(pool.map(_call, range(len(items))))
