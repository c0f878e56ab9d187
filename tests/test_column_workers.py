"""Long commitment columns shared with a worker process.

A column of at least ``group._SPLIT`` values has its tail half computed in
one forked worker, on a machine of more than one CPU. Whatever happens to
the worker or to the column (closed early, read by several threads,
carried into a forked child, its worker killed), the values must be the
ones ``pow`` gives, in column order, and no worker may outlive its
process.
"""

import itertools
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import pytest

from phrchain import group as group_module
from phrchain.crypto import SchnorrProof, credential_prove, keygen, ring_prove, ring_verify
from test_group import _column_inputs, _column_oracle
from test_ring_batch import _with_branch

SPLIT = group_module._SPLIT
PACKAGE_ROOT = Path(group_module.__file__).resolve().parents[1]


def _head(count: int) -> int:
    """How many values of a long column the caller computes itself."""
    return count // 2


many_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="no worker is forked on a machine of one CPU")


@pytest.fixture()
def workers():
    """This process's column worker, forked afresh by the test's first long
    column and stopped after it."""
    group_module._stop_workers()
    yield
    group_module._stop_workers()


@pytest.fixture()
def traffic(monkeypatch):
    """What crosses to the worker: under ``asked``, the length of every tail
    sent, and under ``answered``, whether each tail read came back computed."""
    seen = {"asked": [], "answered": []}
    ask, answer = group_module._Worker.ask, group_module._Worker.answer

    def recorded_ask(self, tail):
        if tail is not None:
            seen["asked"].append(len(tail[3]))
        return ask(self, tail)

    def recorded_answer(self, count):
        values = answer(self, count)
        if count:  # a cancel reads its reply with a count of 0
            seen["answered"].append(values is not None)
        return values

    monkeypatch.setattr(group_module._Worker, "ask", recorded_ask)
    monkeypatch.setattr(group_module._Worker, "answer", recorded_answer)
    return seen


def _pids() -> list[int]:
    return [worker.pid for worker in group_module._workers or ()]


@many_cpus
@pytest.mark.parametrize("count", [SPLIT - 1, SPLIT, SPLIT + 1, 4000])
def test_a_long_column_equals_pow_with_hostile_keys_in_the_tail(group, workers, traffic, count):
    keys, challenges, responses = _column_inputs(group, count, count)
    p = group.modulus
    hostile = [
        (0, 0, 0), (0, 5, 3), (1, 2**300, 7), (p - 1, 1, 0), (p, group.order - 1, 2**300),
        (-1, -(2**300), 1), (2**256, 0, 9), (2 * p, 3, 0), (-p, 0, 0), (p - keys[0], 11, 12),
    ]
    for i, row in enumerate(hostile, start=count - len(hostile)):
        keys[i], challenges[i], responses[i] = row
    column = list(group.schnorr_commitments(keys, challenges, responses))
    assert column == _column_oracle(group, keys, challenges, responses)
    if count < SPLIT:
        assert traffic["asked"] == [] and group_module._workers is None
    else:
        # The caller keeps the head; the hostile rows sat in the tail.
        assert traffic["asked"] == [count - _head(count)] and count - _head(count) >= len(hostile)
        assert traffic["answered"] == [True] and len(_pids()) == 1


@many_cpus
def test_a_column_closed_in_its_head_or_tail_leaves_the_workers_ready(group, workers, traffic):
    # Each closed column is followed at once by a column over other inputs,
    # which must not read the closed one's tail, and whose own tail the
    # worker computes.
    closed = _column_inputs(group, 4000, 61)
    expected = _column_oracle(group, *closed)
    following = _column_inputs(group, 4000, 60)
    following_expected = _column_oracle(group, *following)
    head = _head(4000)
    for stop in (1, head - 1, head, head + 1, 3999):
        column = group.schnorr_commitments(*closed)
        assert list(itertools.islice(column, stop)) == expected[:stop]
        column.close()
        traffic["answered"].clear()
        assert list(group.schnorr_commitments(*following)) == following_expected
        assert traffic["answered"] == [True]
    # An abandoned column cancels its tail when it is collected, too.
    column = group.schnorr_commitments(*closed)
    next(column)
    del column
    traffic["answered"].clear()
    assert list(group.schnorr_commitments(*following)) == following_expected
    assert traffic["answered"] == [True]
    assert len(_pids()) == 1 and all(_pids())


@many_cpus
def test_a_forgery_in_the_head_or_the_tail_is_rejected_and_the_next_proof_verifies(group, workers):
    rng = random.Random(62)
    kps = [keygen(group, rng) for _ in range(SPLIT + 100)]
    ring = [kp.public for kp in kps]
    proof = ring_prove(group, ring, 7, kps[7].secret, b"ctx", rng)
    for branch in (3, len(ring) - 3):
        original = proof.branches[branch]
        forged = _with_branch(
            proof, branch, SchnorrProof(original.commitment, original.challenge, (original.response + 1) % group.order)
        )
        assert not ring_verify(group, ring, forged, b"ctx")
        assert ring_verify(group, ring, proof, b"ctx")
    assert len(_pids()) == 1


@many_cpus
def test_threads_computing_long_columns_get_exact_values(group, workers):
    # Several threads, switching often: one holds the worker, the others
    # compute their columns whole.
    jobs = [_column_inputs(group, 1200, 70 + i) for i in range(4)]
    expected = [_column_oracle(group, *job) for job in jobs]
    assert list(group.schnorr_commitments(*jobs[0])) == expected[0]  # forks the worker
    start = threading.Barrier(len(jobs))
    results = [None] * len(jobs)

    def work(i):
        start.wait(timeout=60)
        results[i] = [list(group.schnorr_commitments(*jobs[i])) for _ in range(3)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[values] * 3 for values in expected]
    assert len(_pids()) == 1 and group_module._workers[0].lock.acquire(blocking=False)


def test_no_worker_is_forked_while_another_thread_runs(group, workers):
    keys, challenges, responses = _column_inputs(group, 1000, 63)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60,))
    waiting.start()
    try:
        assert list(group.schnorr_commitments(keys, challenges, responses)) == _column_oracle(
            group, keys, challenges, responses
        )
        assert group_module._workers is None
    finally:
        release.set()
        waiting.join(timeout=60)
    assert not waiting.is_alive()


def test_one_cpu_forks_nothing(group, workers, monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    keys, challenges, responses = _column_inputs(group, SPLIT + 1, 64)
    assert list(group.schnorr_commitments(keys, challenges, responses)) == _column_oracle(
        group, keys, challenges, responses
    )
    assert forks == [] and group_module._workers == []


def test_many_cpus_fork_one_worker_for_the_tail(group, workers, traffic, monkeypatch):
    # Only one worker has been measured, so more CPUs fork no more workers.
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for count, seed in ((SPLIT, 69), (4000, 70)):
        keys, challenges, responses = _column_inputs(group, count, seed)
        assert list(group.schnorr_commitments(keys, challenges, responses)) == _column_oracle(
            group, keys, challenges, responses
        )
    assert forks == [1] and len(_pids()) == 1
    assert traffic["asked"] == [SPLIT - _head(SPLIT), 4000 - _head(4000)]
    assert traffic["answered"] == [True, True]


@many_cpus
def test_a_forked_child_never_uses_its_parents_workers(group, workers):
    keys, challenges, responses = _column_inputs(group, 1000, 65)
    expected = _column_oracle(group, keys, challenges, responses)
    assert list(group.schnorr_commitments(keys, challenges, responses)) == expected
    parents = _pids()
    # This column's tail is out with the parent's worker across the fork.
    column = group.schnorr_commitments(keys, challenges, responses)
    assert next(column) == expected[0]
    child = os.fork()
    if not child:
        status = 1
        try:
            # The child forks a worker of its own first, so that its pipes may
            # reuse the numbers of the parent's, then finishes the column it
            # inherited: it must compute the tail itself.
            fresh = list(group.schnorr_commitments(keys, challenges, responses))
            own = _pids()
            inherited = [expected[0], *column]
            if fresh == inherited == expected and len(own) == 1 and not set(own) & set(parents):
                status = 0
            group_module._stop_workers()
        finally:
            os._exit(status)
    assert [expected[0], *column] == expected
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert _pids() == parents
    assert list(group.schnorr_commitments(keys, challenges, responses)) == expected


@many_cpus
def test_a_killed_workers_share_is_computed_by_the_caller(group, workers):
    keys, challenges, responses = _column_inputs(group, 1000, 66)
    expected = _column_oracle(group, keys, challenges, responses)
    assert list(group.schnorr_commitments(keys, challenges, responses)) == expected
    # Killed between columns.
    killed = _pids()
    for pid in killed:
        os.kill(pid, signal.SIGKILL)
    assert list(group.schnorr_commitments(keys, challenges, responses)) == expected
    assert group_module._workers == []
    for pid in killed:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # already reaped
    # Killed while its tail is out.
    group_module._stop_workers()
    column = group.schnorr_commitments(keys, challenges, responses)
    values = [next(column)]
    killed = _pids()
    assert killed
    for pid in killed:
        os.kill(pid, signal.SIGKILL)
    values.extend(column)
    assert values == expected
    assert group_module._workers == []


@many_cpus
def test_no_secret_is_sent_to_a_worker(group, workers, monkeypatch):
    # Every exponent the provers hand to exp (identity secrets in the witness
    # checks, nonces, block secrets) stays in the caller; the ring keys and
    # the simulated challenges and responses do cross. What is recorded is
    # each request's pickle, the bytes the connection writes to the pipe.
    rng = random.Random(67)
    kps = [keygen(group, rng) for _ in range(SPLIT + 40)]
    ring = [kp.public for kp in kps]
    sent, exponents = [], []
    ask, exp = group_module._Worker.ask, group_module.GroupParams.exp

    def recorded_ask(self, tail):
        if tail is not None:
            sent.append(bytes(ForkingPickler.dumps(tail)))
        return ask(self, tail)

    def recorded_exp(self, base, exponent):
        exponents.append(exponent)
        return exp(self, base, exponent)

    monkeypatch.setattr(group_module._Worker, "ask", recorded_ask)
    monkeypatch.setattr(group_module.GroupParams, "exp", recorded_exp)
    for index in (2, len(ring) - 2):
        ring_prove(group, ring, index, kps[index].secret, b"ctx", rng)
        credential_prove(group, ring, index, kps[index].secret, keygen(group, rng), rng)
    monkeypatch.undo()
    assert len(sent) == 4
    blob = b"".join(sent)
    numbers = {n for message in map(pickle.loads, sent) for column in message[3:] for n in column}
    assert ring[-1] in numbers and ring[-1].to_bytes(32, "little") in blob  # the search can see a value
    secrets = set(exponents) | {kp.secret for kp in kps}
    assert len(exponents) >= 8 and not secrets & numbers
    for secret in secrets:
        assert secret.to_bytes(32, "big") not in blob and secret.to_bytes(32, "little") not in blob


@many_cpus
def test_a_process_that_verifies_a_large_ring_leaves_no_worker_behind():
    code = (
        "import random\n"
        "from phrchain import group\n"
        "from phrchain.crypto import keygen, ring_prove, ring_verify\n"
        "g = group.GroupParams.default()\n"
        "rng = random.Random(68)\n"
        "kps = [keygen(g, rng) for _ in range(1000)]\n"
        "ring = [kp.public for kp in kps]\n"
        "assert ring_verify(g, ring, ring_prove(g, ring, 600, kps[600].secret, b'ctx', rng), b'ctx')\n"
        "print(*(worker.pid for worker in group._workers))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE_ROOT), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    pids = [int(pid) for pid in result.stdout.split()]
    assert len(pids) == 1
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
