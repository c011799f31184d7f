"""The ordered map over the CPUs the process may use."""

import math
import os
import pickle
import threading

import pytest

from influence_gate import parallel
from influence_gate.parallel import ordered_map

from conftest import use_cpus


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class CustomError(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_results_come_back_in_item_order(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    results = list(ordered_map(lambda x: (x * x, os.getpid()), range(10)))
    assert [value for value, _ in results] == [x * x for x in range(10)]
    # Item i is computed by worker i mod W, and worker 0 is this process.
    pids = [pid for _, pid in results]
    assert pids[::cpus] == [os.getpid()] * len(pids[::cpus])
    assert len(set(pids)) == cpus
    assert all(pids[i] == pids[i % cpus] for i in range(10))
    assert_no_child_left()


@pytest.mark.parametrize("error", [ValueError("bad item 4"), CustomError("custom 4")])
def test_child_exception_is_raised_with_its_type_and_message(monkeypatch, error):
    use_cpus(monkeypatch, 3)

    def fn(x):
        if x == 4:  # worker 1 of 3
            raise error
        return x

    with pytest.raises(type(error), match=str(error)):
        list(ordered_map(fn, range(6)))
    assert_no_child_left()


def test_child_that_dies_without_sending_raises(monkeypatch):
    use_cpus(monkeypatch, 2)
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="ended before sending the result of item 1"):
        list(ordered_map(fn, range(4)))
    assert_no_child_left()


def test_result_that_cannot_be_pickled_raises(monkeypatch):
    use_cpus(monkeypatch, 2)
    with pytest.raises(pickle.PicklingError, match="result of item 1 cannot be pickled"):
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


@pytest.mark.parametrize("cpus, items", [(1, 5), (4, 1), (4, 0)])
def test_one_cpu_or_one_item_never_forks(monkeypatch, cpus, items):
    use_cpus(monkeypatch, cpus)

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    assert list(ordered_map(lambda x: x + 1, range(items))) == list(range(1, items + 1))


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
    pids = list(ordered_map(lambda x: os.getpid(), range(6)))
    assert pids[::2] == [os.getpid()] * 3
    assert len(set(pids)) == 2
    assert_no_child_left()


def test_another_running_thread_never_forks(monkeypatch):
    use_cpus(monkeypatch, 2)

    def no_fork():
        raise AssertionError("os.fork called")

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
