"""The ordered map over the CPUs the process may use."""

import math
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from influence_gate import parallel
from influence_gate.parallel import ordered_map

from conftest import use_cpus


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def no_fork():
    raise AssertionError("os.fork called")


class CustomError(Exception):
    pass


def record_forks(monkeypatch) -> list:
    """The pids of the children that os.fork makes from here on."""
    children, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return children


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_results_come_back_in_item_order(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    children = record_forks(monkeypatch)
    results = list(ordered_map(lambda x: (x * x, os.getpid()), range(10)))
    assert [value for value, _ in results] == [x * x for x in range(10)]
    # One CPU maps here. On more, the pool forks W distinct workers before
    # its first item, they compute every item, and this process collects.
    pids = {pid for _, pid in results}
    if cpus == 1:
        assert children == [] and pids == {os.getpid()}
    else:
        assert len(set(children)) == len(children) == cpus and pids <= set(children)
    assert_no_child_left()


@pytest.mark.parametrize("error", [ValueError("bad item 4"), CustomError("custom 4")])
def test_child_exception_is_raised_with_its_type_and_message(monkeypatch, error):
    use_cpus(monkeypatch, 3)

    def fn(x):
        if x == 4:
            raise error
        return x

    with pytest.raises(type(error), match=str(error)):
        list(ordered_map(fn, range(6)))
    assert_no_child_left()


def test_child_that_dies_without_sending_raises(monkeypatch):
    use_cpus(monkeypatch, 2)

    def fn(x):
        if x == 1:
            os._exit(3)
        return x

    with pytest.raises(BrokenProcessPool) as raised:
        list(ordered_map(fn, range(4)))
    assert isinstance(raised.value, RuntimeError)
    assert_no_child_left()


def test_result_that_cannot_be_pickled_raises(monkeypatch):
    use_cpus(monkeypatch, 2)
    with pytest.raises(TypeError, match="pickle"):
        list(ordered_map(lambda x: threading.Lock(), range(4)))
    assert_no_child_left()


def test_closing_early_reaps_every_child(monkeypatch):
    use_cpus(monkeypatch, 3)
    results = ordered_map(lambda x: x, range(9))
    assert next(results) == 0
    assert next(results) == 1
    results.close()
    assert_no_child_left()


def test_exception_in_the_consumer_reaps_every_child(monkeypatch):
    use_cpus(monkeypatch, 3)
    with pytest.raises(KeyError):
        for x in ordered_map(lambda x: x, range(9)):
            if x == 2:
                raise KeyError(x)
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_workers_run_at_most_two_items_each_ahead_of_the_consumer(monkeypatch, tmp_path, cpus):
    # Each call appends one line to the log; O_APPEND makes each write land
    # whole at the end of the file, whichever process makes it.
    use_cpus(monkeypatch, cpus)
    log = tmp_path / "calls"

    def fn(x):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, b"%d\n" % x)
        finally:
            os.close(fd)
        return x

    results = ordered_map(fn, range(100))
    assert next(results) == 0
    time.sleep(0.3)
    assert len(log.read_bytes().splitlines()) <= (2 * cpus + 1 if cpus > 1 else 1)
    results.close()
    assert_no_child_left()


@pytest.mark.parametrize("cpus, items", [(1, 5), (4, 1), (4, 0)])
def test_one_cpu_or_one_item_never_forks(monkeypatch, cpus, items):
    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(os, "fork", no_fork)
    assert list(ordered_map(lambda x: x + 1, range(items))) == list(range(1, items + 1))
    assert_no_child_left()


def cgroup_tree(monkeypatch, tmp_path, membership: str, files: dict) -> None:
    """Point the cgroup reads at a made-up /proc/self/cgroup and cgroup
    file system under tmp_path."""
    (tmp_path / "cgroup").write_text(membership)
    for name, text in files.items():
        path = tmp_path / "fs" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    monkeypatch.setattr(parallel, "_PROC_CGROUP", str(tmp_path / "cgroup"))
    monkeypatch.setattr(parallel, "_CGROUP_ROOT", str(tmp_path / "fs"))


@pytest.mark.parametrize("membership, files, cpus", [
    # v2: the tightest quota on the path up from the process's cgroup.
    ("0::/pod/box\n", {"pod/box/cpu.max": "max 100000\n",
                       "pod/cpu.max": "150000 100000\n"}, 2),
    ("0::/pod/box\n", {"pod/box/cpu.max": "50000 100000\n",
                       "pod/cpu.max": "300000 100000\n"}, 1),
    ("0::/\n", {"cpu.max": "400000 100000\n"}, 4),
    # v1: the cpu controller, mounted with cpuacct.
    ("4:memory:/a\n3:cpu,cpuacct:/a/b\n",
     {"cpu/a/b/cpu.cfs_quota_us": "-1\n", "cpu/a/b/cpu.cfs_period_us": "100000\n",
      "cpu/a/cpu.cfs_quota_us": "250000\n", "cpu/a/cpu.cfs_period_us": "100000\n"}, 3),
    # No quota set, or nothing to read.
    ("0::/box\n", {"box/cpu.max": "max 100000\n"}, math.inf),
    ("3:cpu:/\n", {"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"},
     math.inf),
    ("0::/box\n", {}, math.inf),
    ("", {}, math.inf),
])
def test_cgroup_cpu_quota(monkeypatch, tmp_path, membership, files, cpus):
    cgroup_tree(monkeypatch, tmp_path, membership, files)
    assert parallel._quota_cpus() == cpus


def test_cpu_quota_caps_the_worker_count(monkeypatch, tmp_path):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    cgroup_tree(monkeypatch, tmp_path, "0::/box\n", {"box/cpu.max": "200000 100000\n"})
    children = record_forks(monkeypatch)
    pids = set(ordered_map(lambda x: os.getpid(), range(6)))
    assert len(children) == 2 and pids <= set(children)
    assert_no_child_left()


def test_another_running_thread_never_forks(monkeypatch):
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        assert list(ordered_map(lambda x: -x, range(3))) == [0, -1, -2]
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
