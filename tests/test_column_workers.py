"""Long commitment columns shared with a worker process.

A column of at least ``group._SPLIT`` values is shared with one forked
worker, on a machine of more than one CPU: the worker works forward from
the head over the records that have arrived, the caller backward from the
tail once its records are all in, and they meet wherever their speeds put
them. A prover's records reach the worker in chunks as they are drawn.
Wherever the two meet, and whatever happens to the worker, to the stream
or to the column (chunks late, the stream raising, the column ended early,
computed by several threads, carried into a forked child, its worker
stopped or killed), the values must be the ones ``pow`` gives, and no
worker may outlive its process.
"""

import fcntl
import os
import pickle
import random
import signal
import struct
import subprocess
import sys
import termios
import threading
import time
from pathlib import Path

import pytest

from phrchain import group as group_module
from phrchain.crypto import SchnorrProof, _branch_layout, credential_prove, keygen, ring_prove, ring_verify
from test_group import _column_inputs, _column_oracle, _elements, _records, _scalars
from test_ring_batch import _with_branch

SPLIT = group_module._SPLIT
RUN = group_module._RUN
CHUNK = group_module._CHUNK
RINGS = group_module._RINGS
PACKAGE_ROOT = Path(group_module.__file__).resolve().parents[1]

many_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="no worker is forked on a machine of one CPU")


def _pids() -> list[int]:
    return [worker.pid for worker in group_module._workers or ()]


def _resume() -> None:
    """Let a stopped worker run again, and wait until it has read every
    message sent to it: a worker stopped again at once, by the next column,
    would otherwise leave the earlier columns' bytes in its pipe, and the
    pipe would fill."""
    for worker in group_module._workers or ():
        if not worker.pid:
            continue
        os.kill(worker.pid, signal.SIGCONT)
        deadline = time.monotonic() + 30
        while _unread(worker) and _alive(worker.pid) and time.monotonic() < deadline:
            time.sleep(0.001)


def _alive(pid: int) -> bool:
    """Whether the process runs, or is stopped: not dead and not yet reaped."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


def _unread(worker) -> int:
    """The bytes in the worker's request pipe that it has not read yet."""
    pending = fcntl.ioctl(worker.requests.fileno(), termios.FIONREAD, bytes(4))
    return struct.unpack("i", pending)[0]


@pytest.fixture()
def workers():
    """This process's column worker, forked afresh by the test's first long
    column, and stopped after it (resumed first, if the test stopped it)."""
    group_module._stop_workers()
    yield
    _resume()
    group_module._stop_workers()


@pytest.fixture()
def traffic(monkeypatch):
    """What crosses to the worker: under ``headers``, each column's header
    as the worker unpickles it, with the keys' bytes sent after it, or None;
    under ``counts``, the number of values of each column shared; under
    ``chunks``, the number of record chunks sent; under ``stops``, the
    number of stops sent."""
    seen = {"headers": [], "counts": [], "chunks": 0, "stops": 0, "opening": False}
    ask, share = group_module._Worker.ask, group_module._Worker.share

    def recorded_share(self, work, chunks):
        seen["opening"] = True
        seen["counts"].append(work.count)
        return share(self, work, chunks)

    def recorded_ask(self, *messages):
        if seen["opening"]:
            seen["opening"] = False
            seen["headers"].append((pickle.loads(messages[0]), messages[1] if len(messages) > 1 else None))
        elif messages == (b"",):
            seen["stops"] += 1
        else:
            seen["chunks"] += len(messages)
        return ask(self, *messages)

    monkeypatch.setattr(group_module._Worker, "share", recorded_share)
    monkeypatch.setattr(group_module._Worker, "ask", recorded_ask)
    return seen


@pytest.fixture()
def caller(monkeypatch):
    """The runs this process computes, as (start, stop) pairs under
    ``runs``; with ``pause`` set, each full run of the caller first sleeps
    that many seconds, and ``after_run``, if set, is called after each."""
    seen = {"runs": [], "pause": 0.0, "after_run": None}
    run, me = group_module._Pinned.run, os.getpid()

    def recorded(self, group, keys, entries, records, at, start, width, out):
        if os.getpid() != me:  # the worker, forked from this process
            return run(self, group, keys, entries, records, at, start, width, out)
        keys = list(keys)
        if seen["pause"] and len(keys) == RUN:
            time.sleep(seen["pause"])
        failed = run(self, group, keys, entries, records, at, start, width, out)
        seen["runs"].append((start, start + len(keys) if failed is None else failed + 1))
        if seen["after_run"]:
            seen["after_run"]()
        return failed

    monkeypatch.setattr(group_module._Pinned, "run", recorded)
    return seen


def _reached(caller) -> int:
    """Where the caller's share of the last column began: the lowest index it computed."""
    return min((start for start, _ in caller["runs"]), default=None)


def _hostile_inputs(group, count, seed):
    """A column's inputs whose first and last rows hold keys a registry
    refuses: 0 mod p, 1, p - 1, a non-residue, p, 2p and 2^256 - 1, with
    challenges that meet 0^0."""
    keys, challenges, responses = _column_inputs(group, count, seed)
    p = group.modulus
    hostile = [
        (0, 0, 0), (0, 5, 3), (1, 2**256 - 1, 7), (p - 1, 1, 0), (p, group.order - 1, 2**256 - 1),
        (2**256 - 1, p - 1, 1), (2 * p, 3, 0), (p - keys[0], 11, 12), (0, p - 1, 9),
    ]
    for i, row in zip([*range(len(hostile)), *range(count - len(hostile), count)], hostile + hostile):
        keys[i], challenges[i], responses[i] = row
    return keys, challenges, responses


def _chunks(scalars, pause=0.0, after=None, fail_after=None):
    """A prover's pairs as its draws yield them, in chunks of ``CHUNK``:
    each chunk after ``pause`` seconds, ``after(n)`` called once chunk n is
    taken, and ``RuntimeError`` raised once ``fail_after`` chunks are taken."""
    width = 2 * 32
    for n, at in enumerate(range(0, len(scalars), CHUNK * width)):
        time.sleep(pause)
        yield scalars[at : at + CHUNK * width]
        if after:
            after(n)
        if n + 1 == fail_after:
            raise RuntimeError("the draws failed")


def _stalled():
    """``_Worker.ask`` that stops the worker right after each message of a
    column, so that the caller computes the whole column."""
    ask = group_module._Worker.ask

    def stalling(self, *messages):
        sent = ask(self, *messages)
        if sent and messages != (b"",):
            os.kill(self.pid, signal.SIGSTOP)
        return sent

    return stalling


@many_cpus
@pytest.mark.parametrize("count", [SPLIT - 1, SPLIT, SPLIT + 1, 4000])
@pytest.mark.parametrize("meeting", ["tail", "speeds", "head"])
def test_both_columns_equal_pow_with_hostile_keys_wherever_the_two_meet(
    group, workers, traffic, caller, monkeypatch, count, meeting
):
    keys, challenges, responses = _hostile_inputs(group, count, count)
    expected = _column_oracle(group, keys, challenges, responses)
    records, scalars = _records(group, expected, challenges, responses), _scalars(group, challenges, responses)
    # The worker is forked by a first column, so that the caller's pause
    # and the stall below touch the caller and the worker alone.
    assert _elements(group, group.schnorr_commitments(group.ring_table(keys), scalars)) == expected
    if meeting == "tail":
        caller["pause"] = 0.02  # the worker computes most of the column
    elif meeting == "head":
        monkeypatch.setattr(group_module._Worker, "ask", _stalled())
    for column in ("prover", "streamed prover", "verifier"):
        caller["runs"].clear()
        if column == "prover":
            assert _elements(group, group.schnorr_commitments(group.ring_table(keys), scalars)) == expected
        elif column == "streamed prover":
            assert _elements(group, group.schnorr_commitments(group.ring_table(keys), _chunks(scalars))) == expected
        else:
            assert group.schnorr_failure(group.ring_table(keys), records) is None
        if count < SPLIT:
            assert traffic["headers"] == [] and group_module._workers is None
            assert caller["runs"] == [(0, count)]
            continue
        _resume()  # the next column's bytes need a reader
        reached = _reached(caller)
        if meeting == "tail":
            assert reached >= count // 2
        elif meeting == "head":
            assert reached == 0
    if count >= SPLIT:
        assert len(_pids()) == 1 and traffic["counts"] == [count] * 4
        # The ring's keys crossed once; the worker kept its table.
        assert [keyed is not None for _, keyed in traffic["headers"]] == [True, False, False, False]


@many_cpus
@pytest.mark.parametrize("count", [SPLIT - 1, SPLIT, SPLIT + 1, 4000])
@pytest.mark.parametrize("stream", ["late chunks", "worker stopped", "worker killed", "draws raise"])
def test_a_streamed_column_equals_pow_whatever_happens_mid_stream(
    group, workers, traffic, caller, count, stream
):
    # Hostile keys at both ends, and the ring's position 5 skipped, as a
    # prover skips its witness: its key and its pair are not in the column.
    keys, challenges, responses = _hostile_inputs(group, count, 100 + count)
    expected = _column_oracle(group, keys, challenges, responses)
    scalars = _scalars(group, challenges, responses)
    ring = group.ring_table([*keys[:5], group.generator, *keys[5:]])
    assert _elements(group, group.schnorr_commitments(ring, scalars, 5)) == expected  # forks the worker
    forked = _pids()

    def stop(n):
        if n == 1:
            for pid in forked:
                os.kill(pid, signal.SIGSTOP if stream == "worker stopped" else signal.SIGKILL)

    caller["runs"].clear()
    if stream == "draws raise":
        with pytest.raises(RuntimeError, match="the draws failed"):
            group.schnorr_commitments(ring, _chunks(scalars, fail_after=2), 5)
    else:
        chunks = _chunks(scalars, pause=0.01) if stream == "late chunks" else _chunks(scalars, after=stop)
        assert _elements(group, group.schnorr_commitments(ring, chunks, 5)) == expected
    if count < SPLIT:
        assert traffic["headers"] == [] and not forked
        return
    if stream == "late chunks":
        assert _reached(caller) > 0  # the worker computed the head as its chunks came
    elif stream == "worker stopped":
        assert _reached(caller) < count - CHUNK  # the caller computed past the worker's chunks
        _resume()
    elif stream == "worker killed":
        assert group_module._workers == []
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)  # already reaped
        return
    else:
        assert traffic["chunks"] == 1 + 2  # the first column's one chunk, then two drawn
    assert traffic["stops"] == 2
    # The next column, at once, gets its own values with the same worker.
    caller["runs"].clear()
    assert _elements(group, group.schnorr_commitments(ring, _chunks(scalars), 5)) == expected
    records = _records(group, expected, challenges, responses)
    assert group.schnorr_failure(group.ring_table([*keys[:5], *keys[5:]]), records) is None
    assert _pids() == forked and traffic["stops"] == 4


@many_cpus
def test_a_forgery_on_either_side_of_the_meeting_point_is_rejected(group, workers, caller):
    rng = random.Random(62)
    kps = [keygen(group, rng) for _ in range(SPLIT + 100)]
    ring = [kp.public for kp in kps]
    proof = ring_prove(group, ring, 7, kps[7].secret, b"ctx", rng)
    records, _ = proof._records(_branch_layout(group))
    caller["runs"].clear()
    assert group.schnorr_failure(group.ring_table(ring), records) is None
    assert 0 <= _reached(caller) < len(ring)
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
        assert group.schnorr_failure(group.ring_table(ring), bytes(forged_records)) == branch
    assert len(_pids()) == 1


@many_cpus
@pytest.mark.parametrize("end", ["head", "tail"])
def test_a_column_that_ends_at_once_leaves_the_worker_ready(group, workers, traffic, caller, end):
    # A verifier's column whose failing record the caller or the worker
    # meets first ends after a few values, and sends the worker its stop
    # without waiting for the run the worker has in hand. The caller's runs
    # double from one value, so it meets a failing last record at its first
    # value and hears of a failing first one early. The next column, at
    # once, must drop the worker's last reply and get its own values, the
    # worker taking part.
    keys, challenges, responses = _column_inputs(group, 4000, 61)
    values = _column_oracle(group, keys, challenges, responses)
    at = 0 if end == "head" else len(values) - 1
    forged = _records(group, [*values[:at], values[at] ^ 1, *values[at + 1 :]], challenges, responses)
    following = _column_inputs(group, 4000, 60)
    following_expected = _column_oracle(group, *following)
    following_ring, following_scalars = group.ring_table(following[0]), _scalars(group, *following[1:])
    for _ in range(3):
        caller["runs"].clear()
        assert group.schnorr_failure(group.ring_table(keys), forged) == at
        lengths = [stop - start for start, stop in caller["runs"]]
        assert lengths == [min(2**i, RUN) for i in range(len(lengths))]
        if end == "tail":
            assert caller["runs"] == [(at, at + 1)]
        assert _elements(group, group.schnorr_commitments(following_ring, following_scalars)) == following_expected
    assert traffic["counts"] == [4000] * 6 and traffic["stops"] == 6
    assert [keyed is not None for _, keyed in traffic["headers"]] == [True, True] + [False] * 4
    assert len(_pids()) == 1 and all(_pids())


def test_a_table_made_from_sent_keys_tests_no_key(group, monkeypatch):
    # The worker gates nothing, so the table it makes from a ring's bytes
    # holds entries with no verdict, and its values are still pow's, for
    # hostile keys too.
    keys, challenges, responses = _hostile_inputs(group, 20, 90)
    tested = []
    is_element = group_module.GroupParams.is_element
    monkeypatch.setattr(group_module.GroupParams, "is_element", lambda self, v: tested.append(v) or is_element(self, v))
    table = group_module._ring_of_bytes(group, group_module._key_bytes(group, keys))
    values = group.schnorr_commitments(table, _scalars(group, challenges, responses))
    assert _elements(group, values) == _column_oracle(group, keys, challenges, responses)
    assert tested == []


@many_cpus
def test_more_rings_than_the_worker_keeps_are_sent_again(group, workers, traffic):
    # The worker keeps the tables of the last RINGS rings it was sent. Going
    # round RINGS + 1 rings, each has been dropped by the time it comes
    # back, so its keys cross again; a ring met twice running does not.
    jobs = [_column_inputs(group, SPLIT, 80 + i) for i in range(RINGS + 1)]
    expected = [_column_oracle(group, *job) for job in jobs]
    for _ in range(2):
        for job, values in zip(jobs, expected):
            for _ in range(2):
                values_of_job = group.schnorr_commitments(group.ring_table(job[0]), _scalars(group, *job[1:]))
                assert _elements(group, values_of_job) == values
    sent = [keyed for _, keyed in traffic["headers"]]
    assert [keyed is not None for keyed in sent] == [True, False] * (2 * len(jobs))
    assert [keyed for keyed in sent if keyed] == [group_module._key_bytes(group, job[0]) for job in jobs] * 2
    assert len(group_module._workers[0].rings) == RINGS


@many_cpus
def test_threads_computing_long_columns_get_exact_values(group, workers):
    # Several threads, switching often: one holds the worker, the others
    # compute their columns whole.
    jobs = [_column_inputs(group, 1200, 70 + i) for i in range(4)]
    expected = [_column_oracle(group, *job) for job in jobs]
    scalars = [_scalars(group, *job[1:]) for job in jobs]
    rings = [group.ring_table(job[0]) for job in jobs]
    assert _elements(group, group.schnorr_commitments(rings[0], scalars[0])) == expected[0]  # forks the worker
    start = threading.Barrier(len(jobs))
    results = [None] * len(jobs)

    def work(i):
        start.wait(timeout=60)
        results[i] = [_elements(group, group.schnorr_commitments(rings[i], _chunks(scalars[i]))) for _ in range(3)]

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
        values = group.schnorr_commitments(group.ring_table(keys), _scalars(group, challenges, responses))
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
    values = group.schnorr_commitments(group.ring_table(keys), _chunks(_scalars(group, challenges, responses)))
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
        values = group.schnorr_commitments(group.ring_table(keys), _scalars(group, challenges, responses))
        assert _elements(group, values) == _column_oracle(group, keys, challenges, responses)
    assert forks == [1] and len(_pids()) == 1
    assert traffic["counts"] == [SPLIT, 4000] and traffic["stops"] == 2


@many_cpus
def test_a_forked_child_never_uses_its_parents_workers(group, workers):
    keys, challenges, responses = _column_inputs(group, 1000, 65)
    scalars = _scalars(group, challenges, responses)
    expected = group.schnorr_commitments(group.ring_table(keys), scalars)
    assert _elements(group, expected) == _column_oracle(group, keys, challenges, responses)
    parents = _pids()
    child = os.fork()
    if not child:
        status = 1
        try:
            # The child forks a worker of its own, whose pipes may reuse the
            # numbers of the parent's, and computes with it: the parent's
            # worker keeps this ring's table, the child's is sent the keys.
            fresh = [group.schnorr_commitments(group.ring_table(keys), scalars) for _ in range(2)]
            own = _pids()
            if fresh == [expected] * 2 and len(own) == 1 and not set(own) & set(parents):
                status = 0
            group_module._stop_workers()
        finally:
            os._exit(status)
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert _pids() == parents
    assert group.schnorr_commitments(group.ring_table(keys), scalars) == expected


@many_cpus
def test_a_killed_workers_share_is_computed_by_the_caller(group, workers, caller):
    keys, challenges, responses = _column_inputs(group, 1000, 66)
    scalars = _scalars(group, challenges, responses)
    expected = _column_oracle(group, keys, challenges, responses)
    assert _elements(group, group.schnorr_commitments(group.ring_table(keys), scalars)) == expected
    # Killed between columns.
    killed = _pids()
    for pid in killed:
        os.kill(pid, signal.SIGKILL)
    assert _elements(group, group.schnorr_commitments(group.ring_table(keys), scalars)) == expected
    assert group_module._workers == []
    for pid in killed:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # already reaped
    # Killed mid-column, after the caller's first run, for each column.
    records = _records(group, expected, challenges, responses)
    for compute in (lambda: _elements(group, group.schnorr_commitments(group.ring_table(keys), scalars)) == expected,
                    lambda: group.schnorr_failure(group.ring_table(keys), records) is None):
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
    # checks, witness and possession nonces, block secrets) stays in the
    # caller; the ring keys, the table's name, the skipped position and the
    # simulated challenges and responses do cross. What is recorded is every
    # message written to the pipe: each column's header, the keys' bytes
    # when the worker does not keep the ring, the chunks and the stops.
    rng = random.Random(67)
    kps = [keygen(group, rng) for _ in range(SPLIT + 40)]
    ring = [kp.public for kp in kps]
    sent, exponents = [], []
    ask, exp = group_module._Worker.ask, group_module.GroupParams.exp

    def recorded_ask(self, *messages):
        sent.append(messages)
        return ask(self, *messages)

    def recorded_exp(self, base, exponent):
        exponents.append(exponent)
        return exp(self, base, exponent)

    monkeypatch.setattr(group_module._Worker, "ask", recorded_ask)
    monkeypatch.setattr(group_module.GroupParams, "exp", recorded_exp)
    for index in (2, len(ring) - 2):
        ring_prove(group, ring, index, kps[index].secret, b"ctx", rng)
        credential_prove(group, ring, index, kps[index].secret, keygen(group, rng), rng)
    monkeypatch.undo()
    # A header is a pickle, whose first byte is 0x80; a chunk's first byte
    # is a challenge's, below the order's 0x7f.
    headers = [pickle.loads(messages[0]) for messages in sent if messages[0][:1] == b"\x80"]
    assert len(headers) == 4
    table = group.ring_table(ring)
    for column, (number, _, sent_group, name, skip, width, keyed) in enumerate(headers, start=1):
        assert (number, sent_group, name, width) == (column, group, table.digest, 64)
        assert skip in (2, len(ring) - 2) and keyed == (column == 1)
    messages = [message for messages in sent for message in messages]
    assert messages.count(table.encoding) == 1 and messages.count(b"") == 4
    chunks = [m for m in messages if m and m != table.encoding and m[:1] != b"\x80"]
    assert sum(map(len, chunks)) == 4 * (len(ring) - 1) * 64 and all(len(m) % 64 == 0 for m in chunks)
    blob = b"".join(messages)
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
