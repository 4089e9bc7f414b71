"""Fixtures that control how `experiment._fork_map` splits its work, and
the reference CSV writer that the writers' bytes are compared with."""

import os
import signal

import pytest

FORK_TEST_TIMEOUT_S = 120


@pytest.fixture
def cpus(monkeypatch):
    """`cpus(n)` makes the process's affinity mask hold n CPUs."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return use


@pytest.fixture
def forks(monkeypatch):
    """The pids this process forks, in order. A fork inside a forked child
    raises there, and so reaches the parent as that child's error. A test
    that waits for its children longer than FORK_TEST_TIMEOUT_S fails
    instead of hanging, and at teardown every pid must have been waited
    for: no zombie is left."""
    parent, real_fork, pids = os.getpid(), os.fork, []

    def fork():
        if os.getpid() != parent:
            raise AssertionError("a forked child forked again")
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    def timeout(signum, frame):
        raise TimeoutError(f"forked work still running after {FORK_TEST_TIMEOUT_S} s")

    monkeypatch.setattr(os, "fork", fork)
    handler = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(FORK_TEST_TIMEOUT_S)  # a forked child starts with no alarm
    try:
        yield pids
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def row_template_csv():
    """`row_template_csv(path, header, cols)` writes float columns as CSV in
    text mode, each row formatted by one `",".join(["%.17g"] * k) + "\\n"`
    template: the reference for the bytes that the program's writers write."""
    def write(path, header, cols):
        row = ",".join(["%.17g"] * len(cols)) + "\n"
        with open(path, "w") as out:
            out.write(",".join(header) + "\n")
            out.writelines(row % values for values in zip(*(c.tolist() for c in cols)))
    return write
