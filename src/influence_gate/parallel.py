"""An ordered map over the CPUs the process may use.

`ordered_map(fn, items)` yields fn(item) for each item, in item order. The
worker count W is the number of CPUs in the process's affinity mask, capped
at the CPU quota of its cgroup (see `_quota_cpus`) and at the item count.
Where W is 1 or less, the items are mapped in this process. Otherwise W
worker processes of a `concurrent.futures.ProcessPoolExecutor` compute
them while this process only collects. The workers are forked, so they
inherit fn and the data it reads: only items and results are pickled, and
fn may be a closure. At most 2W items are in flight, so this process holds
O(W) results. A result arrives as a pickled copy of what fn returns, so
the output does not depend on W. Each worker holds what fn allocates for
one item, so memory grows with W.

W is 1, and nothing is forked, where `os.fork` or `os.sched_getaffinity`
is missing and where another Python thread is running: a forked child gets
a copy of every lock but only the calling thread, so a lock that another
thread holds would stay held in the child. That check does not see the
threads of a BLAS library. numpy's OpenBLAS registers a `pthread_atfork`
handler that stops its thread pool before each fork, so a child starts
without BLAS threads and starts its own on its first call; Python 3.12 and
later still emit a DeprecationWarning at a fork while that pool runs. The
pool forks all W workers before it starts its own management thread.
"""

import math
import os
import threading
from collections import deque
from itertools import islice

_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"


def _worker_count(items: int) -> int:
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    workers = min(len(os.sched_getaffinity(0)), items)
    return min(workers, _quota_cpus()) if workers > 1 else workers


def _quota_cpus() -> float:
    """The CPUs' worth of time per period that the CPU quota of the
    process's cgroup, or of any cgroup above it, allows, rounded up; inf
    where no quota is set or none can be read. A container started with a
    CPU limit (`docker --cpus`, a Kubernetes CPU limit) sees every CPU of
    the host in its affinity mask but may use only this many. Reads cgroup
    v2's cpu.max, or v1's cpu.cfs_quota_us and cpu.cfs_period_us."""
    cpus = math.inf
    for line in _read(_PROC_CGROUP).splitlines():
        _, controllers, path = line.split(":", 2)
        if controllers == "":
            base = _CGROUP_ROOT
        elif "cpu" in controllers.split(","):
            base = os.path.join(_CGROUP_ROOT, "cpu")
        else:
            continue
        directory = base + path.rstrip("/")
        while True:
            cpus = min(cpus, _quota_in(directory))
            if directory == base:
                break
            directory = os.path.dirname(directory)
    return cpus


def _quota_in(directory: str) -> float:
    """The CPU quota of the cgroup in `directory`, in CPUs rounded up, or
    inf where it has none ("max" in v2, -1 in v1) or no quota file."""
    limit = _read(os.path.join(directory, "cpu.max")).split()
    if len(limit) != 2:
        limit = [_read(os.path.join(directory, name))
                 for name in ("cpu.cfs_quota_us", "cpu.cfs_period_us")]
    try:
        quota, period = int(limit[0]), int(limit[1])
    except ValueError:
        return math.inf
    return max(1, math.ceil(quota / period)) if quota > 0 and period > 0 else math.inf


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def ordered_map(fn, items):
    """Yield fn(item) for each of `items`, in order, computed on up to as
    many processes as the process may use CPUs (see the module doc). Where
    W is 1 or less it forks nothing and computes every item here.

    An exception that fn raises in a worker is raised here with its type
    and message, and so is one that pickling a result raises. A worker that
    dies raises `concurrent.futures.process.BrokenProcessPool`, a
    RuntimeError. Every worker is joined when the generator ends, raises or
    is closed; items not yet started are cancelled.
    """
    items = list(items)
    workers = _worker_count(len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    # Imported here: commands that never fork do not pay for the import.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"),
                               initializer=_install, initargs=(fn,))
    try:
        todo = iter(items)
        pending = deque(pool.submit(_call, item) for item in islice(todo, 2 * workers))
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(_call, item) for item in islice(todo, 1))
            yield result
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


# The fn of the pool this worker process serves, set as the worker starts.
_worker_fn = None


def _install(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _call(item):
    return _worker_fn(item)
