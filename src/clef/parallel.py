"""Ordered, bounded thread-pool map for independent per-item work.

Session synthesis, filtering and file hashing spend their time in numpy,
scipy and hashlib calls that release the GIL, so threads scale them across
CPUs without copying arrays between processes.  Results come back in input
order, so whatever the caller writes does not depend on the CPU count.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

_END = object()


def cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_ordered(fn, items, workers: int | None = None):
    """Yield ``fn(item)`` for each of ``items``, in input order, computed on
    ``workers`` threads (default: ``cpu_count()``).

    At most ``workers`` items are submitted and not yet handed to the
    consumer, so a slow consumer cannot make results pile up.  A worker's
    exception is re-raised here unchanged, the queued items are cancelled,
    and the pool is shut down however the consumer stops.
    """
    workers = workers or cpu_count()
    items = iter(items)
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        pending = deque(pool.submit(fn, item)
                        for _, item in zip(range(workers), items))
        while pending:
            yield pending.popleft().result()
            item = next(items, _END)
            if item is not _END:
                pending.append(pool.submit(fn, item))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
