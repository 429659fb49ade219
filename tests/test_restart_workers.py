"""Greedy restarts shared with forked workers give the serial fit."""

import contextlib
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbmfit import InfeasibleError, SearchConfig, greedy_argmax, sample
from sbmfit import search
from sbmfit.experiments import balanced_params

from conftest import random_graph
from test_search import (
    GREEDY_ORACLE_CASES,
    GREEDY_ORACLE_SBM,
    assert_same_fit,
    check_greedy_oracle_case,
    check_greedy_oracle_sbm,
)

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def force_workers(mp, cpus):
    """Give every greedy fit `cpus` usable CPUs and no break-even floor."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    mp.setattr(search, "_FORK_MIN_WORK", 0)


def refuse_fork(mp):
    def fork():
        raise AssertionError("os.fork called")

    mp.setattr(os, "fork", fork)


def assert_no_children():
    # Raises only when this process has no child at all, running or zombie.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def wait_for(path, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > deadline:
            raise AssertionError(f"{path} never appeared")
        time.sleep(0.005)


@contextlib.contextmanager
def hard_timeout(seconds):
    """Raise TimeoutError in this process if the block runs longer than seconds,
    even from inside a blocking system call."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def hang_guard(request):
    """Fail a restart-protocol test that runs past the 60 s these tests
    assert as their bound, instead of hanging the suite."""
    claim_count = request.function is test_claim_counter_hands_out_each_restart_once
    if request.cls in (TestFailures, TestClaimMap) or claim_count:
        with hard_timeout(60):
            yield
    else:
        yield


def small_graph():
    _, g = sample(balanced_params(2, 12.0, 2.0, 0.05), 60, seed=3)
    return g


class TestWorkerCountInvariance:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(4, 40), k=st.sampled_from([2, 3, 4]),
           objective=st.sampled_from(["ml", "icl"]),
           slack=st.sampled_from([0.3, 0.9, 1.0]),
           max_sweeps=st.sampled_from([1, 2, 60]), restarts=st.integers(1, 6),
           cpus=st.sampled_from([2, 3]))
    def test_same_fit_as_serial(self, seed, n, k, objective, slack, max_sweeps, restarts,
                                cpus):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, p=float(rng.uniform(0.05, 0.9)))
        cfg = SearchConfig(objective=objective, alpha=slack / k, restarts=restarts,
                           max_sweeps=max_sweeps, seed=int(rng.integers(2**31)))
        with pytest.MonkeyPatch.context() as mp:
            force_workers(mp, 1)
            try:
                want = greedy_argmax(g, k, cfg)
            except InfeasibleError:
                want = None
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(1)  # the child's copy of the list is discarded
            return real_fork()

        with pytest.MonkeyPatch.context() as mp:
            force_workers(mp, cpus)
            mp.setattr(os, "fork", counting_fork)
            if want is None:
                with pytest.raises(InfeasibleError):
                    greedy_argmax(g, k, cfg)
                return
            got = greedy_argmax(g, k, cfg)
        assert len(forks) == min(cpus, restarts) - 1
        assert_same_fit(got, want)
        assert_no_children()

    @pytest.mark.parametrize("objective", ["ml", "icl"])
    def test_default_break_even_on_sampled_graph(self, monkeypatch, objective):
        _, g = sample(balanced_params(3, 12.0, 2.0, 0.05), 240, seed=7)
        cfg = SearchConfig(objective=objective, restarts=6, seed=5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        want = greedy_argmax(g, 3, cfg)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert g.n * cfg.restarts > search._FORK_MIN_WORK
        assert_same_fit(greedy_argmax(g, 3, cfg), want)


def test_claim_counter_hands_out_each_restart_once():
    # More workers than cores and near-empty tasks: a lost or doubled
    # claim would drop or repeat an index.
    start = time.monotonic()
    results = search._claim_map(500, lambda i: (i, os.getpid()), 6)
    assert time.monotonic() - start < 60
    assert [i for i, _ in results] == list(range(500))
    assert_no_children()


class TestClaimMap:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_in_index_order(self, workers):
        # Workers interleave their claims and each sends its pairs as one
        # block, so only the merge puts the results in index order.
        results = search._claim_map(12, lambda i: time.sleep(0.001 * (12 - i)) or i * i,
                                    workers)
        assert results == [i * i for i in range(12)]
        assert_no_children()

    def test_one_worker_raises_the_task_exception_itself(self, monkeypatch):
        # A plain loop: no fork, no claim record, no wrapped exception.
        refuse_fork(monkeypatch)
        monkeypatch.setattr(os, "memfd_create", lambda *args: pytest.fail("memfd_create called"),
                            raising=False)
        ran = []

        def task(i):
            if i == 3:
                raise KeyError(i)
            ran.append(i)
            return i

        with pytest.raises(KeyError) as info:
            search._claim_map(6, task, 1)
        assert type(info.value) is KeyError and info.value.__cause__ is None
        assert ran == [0, 1, 2]


class TestReferenceOracleForked:
    """The greedy reference oracle with every multi-restart fit on two workers."""

    @settings(max_examples=80, deadline=None)
    @given(**GREEDY_ORACLE_CASES)
    def test_fit_equals_reference(self, seed, n, k, objective, slack, max_sweeps, restarts):
        with pytest.MonkeyPatch.context() as mp:
            force_workers(mp, 2)
            check_greedy_oracle_case(seed, n, k, objective, slack, max_sweeps, restarts)

    @pytest.mark.parametrize("k,objective", GREEDY_ORACLE_SBM)
    def test_sampled_sbm_equals_reference(self, monkeypatch, k, objective):
        force_workers(monkeypatch, 2)
        check_greedy_oracle_sbm(k, objective)


def kill_child_holding_the_claim_lock(tmp_path, monkeypatch, advanced):
    """SIGKILL the child between locking the claim counter and unlocking it,
    before or after it advanced the index: the kernel drops its lock, this
    process claims on, and the child's empty result pipe raises."""
    force_workers(monkeypatch, 2)
    parent = os.getpid()
    marker = tmp_path / "child-locked"
    real_pwrite, run_restart = os.pwrite, search._run_restart

    def pwrite(fd, data, offset):
        if os.getpid() == parent:
            return real_pwrite(fd, data, offset)
        if advanced:
            real_pwrite(fd, data, offset)
        marker.touch()
        os.kill(os.getpid(), signal.SIGKILL)

    def after_child_locked(g, k, cfg, min_size, restart, ctx=None):
        wait_for(marker)
        return run_restart(g, k, cfg, min_size, restart, ctx)

    monkeypatch.setattr(os, "pwrite", pwrite)
    monkeypatch.setattr(search, "_run_restart", after_child_locked)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=r"sent no result \(wait status 9\)"):
        greedy_argmax(small_graph(), 2, SearchConfig(restarts=4))
    assert time.monotonic() - start < 10
    assert_no_children()


class TestFailures:
    def test_child_exception_reaches_parent(self, tmp_path, monkeypatch):
        force_workers(monkeypatch, 2)
        parent = os.getpid()
        marker = tmp_path / "child-ran"
        run_restart = search._run_restart

        def flaky(g, k, cfg, min_size, restart, ctx=None):
            if os.getpid() != parent:
                marker.touch()
                raise ValueError(f"restart {restart} failed in a child")
            wait_for(marker)  # so the child claims a restart
            return run_restart(g, k, cfg, min_size, restart, ctx)

        monkeypatch.setattr(search, "_run_restart", flaky)
        with pytest.raises(ValueError, match=r"restart \d+ failed in a child") as info:
            greedy_argmax(small_graph(), 2, SearchConfig(restarts=4))
        assert "in restart worker" in str(info.value.__cause__)
        assert "failed in a child" in str(info.value.__cause__)  # the child's traceback
        assert_no_children()

    def test_interrupt_kills_and_reaps_children(self, tmp_path, monkeypatch):
        force_workers(monkeypatch, 3)
        parent = os.getpid()
        markers = [tmp_path / f"child-{i}" for i in range(2)]

        def stuck(g, k, cfg, min_size, restart, ctx=None):
            if os.getpid() != parent:
                # One marker per child, by the order of their claims.
                for path in markers:
                    try:
                        with open(path, "x"):
                            break
                    except FileExistsError:
                        continue
                time.sleep(120)
            for path in markers:
                wait_for(path)
            raise KeyboardInterrupt

        monkeypatch.setattr(search, "_run_restart", stuck)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            greedy_argmax(small_graph(), 2, SearchConfig(restarts=6))
        assert time.monotonic() - start < 60
        assert_no_children()

    def test_child_killed_holding_the_claim_record(self, tmp_path, monkeypatch):
        kill_child_holding_the_claim_lock(tmp_path, monkeypatch, advanced=False)

    def test_child_killed_after_advancing_the_claim(self, tmp_path, monkeypatch):
        kill_child_holding_the_claim_lock(tmp_path, monkeypatch, advanced=True)

    def test_dead_child_noticed_while_another_runs(self, tmp_path, monkeypatch):
        force_workers(monkeypatch, 3)
        parent = os.getpid()
        markers = [tmp_path / f"child-{i}" for i in (1, 2)]
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(1)  # a child sees its own fork order
            return real_fork()

        def split(g, k, cfg, min_size, restart, ctx=None):
            if os.getpid() == parent:
                for path in markers:
                    wait_for(path)
                return 0.0, [0] * g.n, 0, restart, True
            markers[len(forks) - 1].touch()
            if len(forks) == 1:
                time.sleep(120)  # the first child is still busy ...
            os.kill(os.getpid(), signal.SIGKILL)  # ... when the second dies

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(search, "_run_restart", split)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="sent no result"):
            greedy_argmax(small_graph(), 2, SearchConfig(restarts=6))
        assert time.monotonic() - start < 10
        assert_no_children()


class TestStaysInProcess:
    def test_one_cpu_never_forks(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        refuse_fork(monkeypatch)
        _, g = sample(balanced_params(2, 12.0, 2.0, 0.05), 200, seed=1)
        assert greedy_argmax(g, 2, SearchConfig(restarts=15)).feasible

    def test_small_fit_never_forks(self, monkeypatch):
        # An exact-n10-sized fit: n * restarts = 200, below the break-even.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        refuse_fork(monkeypatch)
        _, g = sample(balanced_params(2, 18.0, 1.0, 0.05), 10, seed=0)
        cfg = SearchConfig(objective="icl", alpha=0.2, restarts=20)
        assert g.n * cfg.restarts <= search._FORK_MIN_WORK
        assert greedy_argmax(g, 2, cfg).feasible

    def test_other_thread_never_forks(self, monkeypatch):
        force_workers(monkeypatch, 2)
        refuse_fork(monkeypatch)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert greedy_argmax(small_graph(), 2, SearchConfig(restarts=4)).feasible
        finally:
            release.set()
            thread.join()
