"""Long commitment columns shared with a worker process.

A column of at least ``group._SPLIT`` values is shared with one forked
worker, on a machine of more than one CPU: the worker works backward from
the tail, the caller forward from the head, and they meet wherever their
speeds put them. Wherever they meet, and whatever happens to the worker or
to the column (ended early, computed by several threads, carried into a
forked child, its worker stopped or killed), the values must be the ones
``pow`` gives, and no worker may outlive its process.
"""

import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import pytest

from phrchain import group as group_module
from phrchain.crypto import SchnorrProof, _branch_layout, credential_prove, keygen, ring_prove, ring_verify
from test_group import _column_inputs, _column_oracle, _elements, _records, _scalars
from test_ring_batch import _with_branch

SPLIT = group_module._SPLIT
RUN = group_module._RUN
PACKAGE_ROOT = Path(group_module.__file__).resolve().parents[1]

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
    """What crosses to the worker: under ``asked``, the number of keys of
    every column sent, and under ``stops``, the number of stops sent."""
    seen = {"asked": [], "stops": 0}
    ask = group_module._Worker.ask

    def recorded_ask(self, request, *data):
        if request is None:
            seen["stops"] += 1
        else:
            seen["asked"].append(len(data[0]) // request[2].element_size)
        return ask(self, request, *data)

    monkeypatch.setattr(group_module._Worker, "ask", recorded_ask)
    return seen


@pytest.fixture()
def caller(monkeypatch):
    """The runs this process computes, as (start, stop) pairs under
    ``runs``; with ``pause`` set, each full run of the caller first sleeps
    that many seconds, and ``after_run``, if set, is called after each."""
    seen = {"runs": [], "pause": 0.0, "after_run": None}
    run, me = group_module._Pinned.run, os.getpid()

    def recorded(self, group, keys, records, start, width, out):
        if os.getpid() != me:  # the worker, forked from this process
            return run(self, group, keys, records, start, width, out)
        keys = list(keys)
        if seen["pause"] and len(keys) == RUN:
            time.sleep(seen["pause"])
        failed = run(self, group, keys, records, start, width, out)
        seen["runs"].append((start, start + len(keys) if failed is None else failed + 1))
        if seen["after_run"]:
            seen["after_run"]()
        return failed

    monkeypatch.setattr(group_module._Pinned, "run", recorded)
    return seen


def _pids() -> list[int]:
    return [worker.pid for worker in group_module._workers or ()]


def _met(caller) -> int:
    """Where the caller's share of the last column ended."""
    return max((stop for _, stop in caller["runs"]), default=0)


def _hostile_inputs(group, count, seed):
    """A column's inputs whose last rows hold keys a registry refuses: 0 mod
    p, 1, p - 1, a non-residue and keys of p and above, with challenges
    that meet 0^0."""
    keys, challenges, responses = _column_inputs(group, count, seed)
    p = group.modulus
    hostile = [
        (0, 0, 0), (0, 5, 3), (1, 2**256 - 1, 7), (p - 1, 1, 0), (p, group.order - 1, 2**256 - 1),
        (2**256 - 1, p - 1, 1), (2 * p, 3, 0), (p - keys[0], 11, 12), (0, p - 1, 9),
    ]
    for i, row in enumerate(hostile, start=count - len(hostile)):
        keys[i], challenges[i], responses[i] = row
    return keys, challenges, responses


def _stalled():
    """``_Worker.ask`` that stops the worker right after its column is sent,
    so that the caller computes the whole column."""
    ask = group_module._Worker.ask

    def stalling(self, request, *data):
        sent = ask(self, request, *data)
        if sent and request is not None:
            os.kill(self.pid, signal.SIGSTOP)
        return sent

    return stalling


@many_cpus
@pytest.mark.parametrize("count", [SPLIT - 1, SPLIT, SPLIT + 1, 4000])
@pytest.mark.parametrize("meeting", ["head", "middle", "tail"])
def test_both_columns_equal_pow_with_hostile_keys_wherever_the_two_meet(
    group, workers, traffic, caller, monkeypatch, count, meeting
):
    keys, challenges, responses = _hostile_inputs(group, count, count)
    expected = _column_oracle(group, keys, challenges, responses)
    records = _records(group, expected, challenges, responses)
    # The worker is forked by a first column, so that the caller's pause
    # and the stall below touch the caller and the worker alone.
    assert _elements(group, group.schnorr_commitments(keys, _scalars(group, challenges, responses))) == expected
    if meeting == "head":
        caller["pause"] = 0.02  # the worker computes most of the column
    elif meeting == "tail":
        monkeypatch.setattr(group_module._Worker, "ask", _stalled())
    for column in ("prover", "verifier"):
        caller["runs"].clear()
        if column == "prover":
            values = group.schnorr_commitments(keys, _scalars(group, challenges, responses))
            assert _elements(group, values) == expected
        else:
            assert group.schnorr_failure(keys, records) is None
        if count < SPLIT:
            assert traffic["asked"] == [] and group_module._workers is None
            assert caller["runs"] == [(0, count)]
            continue
        for pid in _pids():
            os.kill(pid, signal.SIGCONT)  # the next column's bytes need a reader
        met = _met(caller)
        if meeting == "head":
            assert met <= count // 2
        elif meeting == "tail":
            assert met == count
    if count >= SPLIT:
        assert len(_pids()) == 1 and traffic["asked"] == [count] * len(traffic["asked"])


@many_cpus
def test_a_forgery_on_either_side_of_the_meeting_point_is_rejected(group, workers, caller):
    rng = random.Random(62)
    kps = [keygen(group, rng) for _ in range(SPLIT + 100)]
    ring = [kp.public for kp in kps]
    proof = ring_prove(group, ring, 7, kps[7].secret, b"ctx", rng)
    records, _ = proof._records(_branch_layout(group))
    assert group.schnorr_failure(ring, records) is None
    met = _met(caller)
    assert 0 < met <= len(ring)
    for branch in (3, len(ring) - 3):
        original = proof.branches[branch]
        forged = _with_branch(
            proof, branch, SchnorrProof(original.commitment, original.challenge, (original.response + 1) % group.order)
        )
        assert not ring_verify(group, ring, forged, b"ctx")
        assert ring_verify(group, ring, proof, b"ctx")
        # The column names the forged branch, whichever side reached it.
        forged_records = bytearray(records)
        forged_records[branch * 96 + 95] ^= 1
        assert group.schnorr_failure(ring, bytes(forged_records)) == branch
    assert len(_pids()) == 1


@many_cpus
def test_a_column_that_ends_at_once_leaves_the_worker_ready(group, workers, traffic):
    # A verifier's column whose first record fails ends after one value, and
    # sends the worker its stop without waiting for the run the worker has
    # in hand. The next column, at once, must drop that run's reply and
    # get its own values, the worker taking part.
    keys, challenges, responses = _column_inputs(group, 4000, 61)
    values = _column_oracle(group, keys, challenges, responses)
    forged = _records(group, [values[0] ^ 1, *values[1:]], challenges, responses)
    following = _column_inputs(group, 4000, 60)
    following_expected = _column_oracle(group, *following)
    following_scalars = _scalars(group, *following[1:])
    for _ in range(3):
        assert group.schnorr_failure(keys, forged) == 0
        assert _elements(group, group.schnorr_commitments(following[0], following_scalars)) == following_expected
    assert traffic["asked"] == [4000] * 6 and traffic["stops"] == 6
    assert len(_pids()) == 1 and all(_pids())


@many_cpus
def test_threads_computing_long_columns_get_exact_values(group, workers):
    # Several threads, switching often: one holds the worker, the others
    # compute their columns whole.
    jobs = [_column_inputs(group, 1200, 70 + i) for i in range(4)]
    expected = [_column_oracle(group, *job) for job in jobs]
    scalars = [_scalars(group, *job[1:]) for job in jobs]
    assert _elements(group, group.schnorr_commitments(jobs[0][0], scalars[0])) == expected[0]  # forks the worker
    start = threading.Barrier(len(jobs))
    results = [None] * len(jobs)

    def work(i):
        start.wait(timeout=60)
        results[i] = [_elements(group, group.schnorr_commitments(jobs[i][0], scalars[i])) for _ in range(3)]

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
        values = group.schnorr_commitments(keys, _scalars(group, challenges, responses))
        assert _elements(group, values) == _column_oracle(group, keys, challenges, responses)
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
    values = group.schnorr_commitments(keys, _scalars(group, challenges, responses))
    assert _elements(group, values) == _column_oracle(group, keys, challenges, responses)
    assert forks == [] and group_module._workers == []


def test_many_cpus_fork_one_worker(group, workers, traffic, monkeypatch):
    # Only one worker has been measured, so more CPUs fork no more workers.
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for count, seed in ((SPLIT, 69), (4000, 70)):
        keys, challenges, responses = _column_inputs(group, count, seed)
        values = group.schnorr_commitments(keys, _scalars(group, challenges, responses))
        assert _elements(group, values) == _column_oracle(group, keys, challenges, responses)
    assert forks == [1] and len(_pids()) == 1
    assert traffic["asked"] == [SPLIT, 4000] and traffic["stops"] == 2


@many_cpus
def test_a_forked_child_never_uses_its_parents_workers(group, workers):
    keys, challenges, responses = _column_inputs(group, 1000, 65)
    scalars = _scalars(group, challenges, responses)
    expected = group.schnorr_commitments(keys, scalars)
    assert _elements(group, expected) == _column_oracle(group, keys, challenges, responses)
    parents = _pids()
    child = os.fork()
    if not child:
        status = 1
        try:
            # The child forks a worker of its own, whose pipes may reuse the
            # numbers of the parent's, and computes with it.
            fresh = [group.schnorr_commitments(keys, scalars) for _ in range(2)]
            own = _pids()
            if fresh == [expected] * 2 and len(own) == 1 and not set(own) & set(parents):
                status = 0
            group_module._stop_workers()
        finally:
            os._exit(status)
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert _pids() == parents
    assert group.schnorr_commitments(keys, scalars) == expected


@many_cpus
def test_a_killed_workers_share_is_computed_by_the_caller(group, workers, caller):
    keys, challenges, responses = _column_inputs(group, 1000, 66)
    scalars = _scalars(group, challenges, responses)
    expected = _column_oracle(group, keys, challenges, responses)
    assert _elements(group, group.schnorr_commitments(keys, scalars)) == expected
    # Killed between columns.
    killed = _pids()
    for pid in killed:
        os.kill(pid, signal.SIGKILL)
    assert _elements(group, group.schnorr_commitments(keys, scalars)) == expected
    assert group_module._workers == []
    for pid in killed:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # already reaped
    # Killed mid-column, after the caller's first run, for each column.
    records = _records(group, expected, challenges, responses)
    for compute in (lambda: _elements(group, group.schnorr_commitments(keys, scalars)) == expected,
                    lambda: group.schnorr_failure(keys, records) is None):
        group_module._stop_workers()
        assert compute()  # forks a fresh worker
        killed = _pids()

        def kill():
            caller["after_run"] = None
            for pid in killed:
                os.kill(pid, signal.SIGKILL)

        caller["after_run"] = kill
        assert compute()
        assert group_module._workers == []
        for pid in killed:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


@many_cpus
def test_no_secret_is_sent_to_a_worker(group, workers, monkeypatch):
    # Every exponent the provers hand to exp (identity secrets in the witness
    # checks, nonces, block secrets) stays in the caller; the ring keys and
    # the simulated challenges and responses do cross. What is recorded is
    # what the connection writes to the pipe for each column: the header's
    # pickle, then the keys' and the records' bytes as they are.
    rng = random.Random(67)
    kps = [keygen(group, rng) for _ in range(SPLIT + 40)]
    ring = [kp.public for kp in kps]
    sent, exponents = [], []
    ask, exp = group_module._Worker.ask, group_module.GroupParams.exp

    def recorded_ask(self, request, *data):
        if request is not None:
            sent.append((bytes(ForkingPickler.dumps(request)), *data))
        return ask(self, request, *data)

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
    blob = b"".join(part for message in sent for part in message)
    headers = [pickle.loads(header) for header, *_ in sent]
    assert all(len(header) == 3 and header[2] == group for header in headers)
    assert all(len(keys) == (len(ring) - 1) * 32 == len(records) // 2 for _, keys, records in sent)
    assert ring[-1].to_bytes(32, "big") in blob  # the search can see a value
    secrets = set(exponents) | {kp.secret for kp in kps}
    assert len(exponents) >= 8
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
