"""An ordered map over the CPUs the process may use.

`ordered_map(fn, items)` yields fn(item) for each item, in item order. The
worker count W is the number of CPUs in the process's affinity mask, capped
at the CPU quota of its cgroup (see `_quota_cpus`) and at the item count,
and item i goes to worker i mod W. Worker 0 is the calling process; the
others are `os.fork` children, which inherit fn and the data it reads, so
nothing but results is pickled. Each child sends its results back through
its own pipe, one item at a time, and blocks on the pipe until the parent
reads: the parent holds at most one pending result per child. A child's
results arrive as pickled copies of what fn returns, so the output does
not depend on W. Each worker holds what fn allocates for one item, so
memory grows with W.

W is 1, and nothing is forked, where `os.fork` or `os.sched_getaffinity`
is missing and where another Python thread is running: a forked child gets
a copy of every lock but only the calling thread, so a lock that another
thread holds would stay held in the child. That check does not see the
threads of a BLAS library. numpy's OpenBLAS registers a `pthread_atfork`
handler that stops its thread pool before each fork, so a child starts
without BLAS threads and starts its own on its first call; Python 3.12 and
later still emit a DeprecationWarning at a fork while that pool runs.
"""

import math
import os
import pickle
import threading

# signal.SIGKILL, the same on every POSIX system. Importing `signal` for it
# would build its enums on every start-up, which fork-less commands pay too.
_SIGKILL = 9

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
    W is 1 it forks nothing and computes every item here.

    An exception that fn raises in a child is raised here with its type and
    message. A child that ends without sending a result raises RuntimeError,
    and one whose result cannot be pickled raises pickle.PicklingError.
    Every child is killed and reaped when the generator ends, raises or is
    closed; one that has already sent every result is exiting anyway.
    """
    items = list(items)
    workers = _worker_count(len(items))
    pids, pipes = [], []
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, list(enumerate(items))[worker::workers], write_fd, pipes)
                pids.append(pid)
            finally:
                os.close(write_fd)  # only the parent gets here: _serve never returns
        for index, item in enumerate(items):
            worker = index % workers
            yield fn(item) if worker == 0 else _receive(pipes[worker - 1], index)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)


def _receive(pipe, index: int):
    """The result of item `index` from a child's pipe, or its exception."""
    try:
        ok, value = pickle.load(pipe)
    except EOFError:
        raise RuntimeError(f"worker process ended before sending the result of item {index}") \
            from None
    if not ok:
        raise value
    return value


def _serve(fn, indexed_items, write_fd: int, pipes) -> None:
    """Child side of `ordered_map`: send (True, fn(item)) or (False,
    exception) for each (index, item), pickled, then leave through
    os._exit. A normal exit would run the parent's exit handlers and flush
    the buffers of files it had open, such as a report being written, so
    their data would be written twice."""
    code = 1
    try:
        for pipe in pipes:
            pipe.close()  # the read ends of this and earlier children
        with open(write_fd, "wb") as out:
            for index, item in indexed_items:
                try:
                    message = (True, fn(item))
                except Exception as exc:
                    message = (False, exc)
                try:
                    frame = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    frame = pickle.dumps((False, pickle.PicklingError(
                        f"worker result of item {index} cannot be pickled: {exc}")))
                out.write(frame)
                out.flush()
        code = 0
    finally:
        os._exit(code)
