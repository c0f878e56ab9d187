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

import dataclasses
import fcntl
import functools
import os
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
from hypothesis import given, settings, strategies as st

from phrchain import group as group_module
from phrchain.consensus import verify_block
from phrchain.crypto import (
    SchnorrProof, _branch_layout, credential_prove, credential_verify, key_list_digest, keygen, ring_prove, ring_verify,
)
from phrchain.group import GroupParams
from phrchain.registry import Registry
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


def _kill(pids) -> None:
    """SIGKILL each worker and wait until it has exited: a column finds a
    dead worker, and reaps it, at its next write, read or end."""
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.001)


def _header(message) -> tuple:
    """A column's header as the worker reads it (``group._HEADER``, then each
    segment, ``group._SEGMENT``, then the group's bytes): (column, CPU, group,
    width, segments), each segment (name, skip, length, keyed)."""
    message = bytes(message)
    column, cpu, width, count = group_module._HEADER.unpack_from(message)
    at = group_module._HEADER.size + count * group_module._SEGMENT.size
    segments = tuple(group_module._SEGMENT.iter_unpack(message[group_module._HEADER.size : at]))
    return column, cpu, GroupParams.from_bytes(message[at:]), width, segments


def _unread(worker) -> int:
    """The bytes in the worker's request pipe that it has not read yet."""
    pending = fcntl.ioctl(worker.requests, termios.FIONREAD, bytes(4))
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
    as the worker decodes it (``_header``), with the bytes of the keys sent after it,
    or None; under ``counts``, the number of values of each column shared;
    under ``chunks``, the number of record messages sent; under ``stops``,
    the number of stops sent."""
    seen = {"headers": [], "counts": [], "chunks": 0, "stops": 0, "opening": False, "keyed": 0}
    ask, share = group_module._Worker.ask, group_module._Worker.share

    def recorded_share(self, work, chunks):
        seen["opening"] = True
        seen["counts"].append(work.count)
        return share(self, work, chunks)

    def recorded_ask(self, *messages):
        for message in messages:
            if seen["opening"]:
                seen["opening"] = False
                header = _header(message)
                seen["keyed"] = sum(length * header[2].element_size for _, _, length, keyed in header[4] if keyed)
                seen["headers"].append([header, b"" if seen["keyed"] else None])
            elif not message:
                seen["stops"] += 1
            elif seen["keyed"]:
                seen["headers"][-1][1] += bytes(message)
                seen["keyed"] -= len(message)
            else:
                seen["chunks"] += 1
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

    def recorded(self, group, entries, records, at, start, width, out):
        if os.getpid() != me:  # the worker, forked from this process
            return run(self, group, entries, records, at, start, width, out)
        entries = list(entries)
        if seen["pause"] and len(entries) == RUN:
            time.sleep(seen["pause"])
        failed = run(self, group, entries, records, at, start, width, out)
        seen["runs"].append((start, start + len(entries) if failed is None else failed + 1))
        if seen["after_run"]:
            seen["after_run"]()
        return failed

    monkeypatch.setattr(group_module._Pinned, "run", recorded)
    return seen


def _whole(group, keys):
    """A prover column's one segment: the ring's table, skipping no position."""
    ring = group.ring_table(keys)
    return [(ring, len(ring))]


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
    assert _elements(group, group.schnorr_commitments(_whole(group, keys), scalars)) == expected
    if meeting == "tail":
        caller["pause"] = 0.02  # the worker computes most of the column
    elif meeting == "head":
        monkeypatch.setattr(group_module._Worker, "ask", _stalled())
    for column in ("prover", "streamed prover", "verifier"):
        caller["runs"].clear()
        if column == "prover":
            assert _elements(group, group.schnorr_commitments(_whole(group, keys), scalars)) == expected
        elif column == "streamed prover":
            assert _elements(group, group.schnorr_commitments(_whole(group, keys), _chunks(scalars))) == expected
        else:
            assert group.schnorr_failure([group.ring_table(keys)], records) is None
        if count < SPLIT:
            assert traffic["headers"] == [] and group_module._workers is None
            # One run per chunk, in order: a column computed in one process joins no copy of its chunks.
            chunked = column == "streamed prover"
            runs = [(at, min(at + CHUNK, count)) for at in range(0, count, CHUNK)]
            assert caller["runs"] == (runs if chunked else [(0, count)])
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
    assert _elements(group, group.schnorr_commitments([(ring, 5)], scalars)) == expected  # forks the worker
    forked = _pids()

    def stop(n):
        if n == 1 and stream == "worker stopped":
            for pid in forked:
                os.kill(pid, signal.SIGSTOP)
        elif n == 1:
            _kill(forked)

    caller["runs"].clear()
    if stream == "draws raise":
        with pytest.raises(RuntimeError, match="the draws failed"):
            group.schnorr_commitments([(ring, 5)], _chunks(scalars, fail_after=2))
    else:
        chunks = _chunks(scalars, pause=0.01) if stream == "late chunks" else _chunks(scalars, after=stop)
        assert _elements(group, group.schnorr_commitments([(ring, 5)], chunks)) == expected
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
        # The first column's records in messages of CHUNK, then two chunks drawn.
        assert traffic["chunks"] == -(-count // CHUNK) + 2
    assert traffic["stops"] == 2
    # The next column, at once, gets its own values with the same worker.
    caller["runs"].clear()
    assert _elements(group, group.schnorr_commitments([(ring, 5)], _chunks(scalars))) == expected
    records = _records(group, expected, challenges, responses)
    assert group.schnorr_failure([group.ring_table([*keys[:5], *keys[5:]])], records) is None
    assert _pids() == forked and traffic["stops"] == 4


@many_cpus
def test_a_forgery_on_either_side_of_the_meeting_point_is_rejected(group, workers, caller):
    rng = random.Random(62)
    kps = [keygen(group, rng) for _ in range(SPLIT + 100)]
    ring = [kp.public for kp in kps]
    proof = ring_prove(group, ring, 7, kps[7].secret, b"ctx", rng)
    records, _ = proof._records(_branch_layout(group))
    caller["runs"].clear()
    assert group.schnorr_failure([group.ring_table(ring)], records) is None
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
        assert group.schnorr_failure([group.ring_table(ring)], bytes(forged_records)) == branch
    assert len(_pids()) == 1


@many_cpus
@pytest.mark.parametrize("end", ["head", "tail"])
def test_a_column_that_ends_at_once_leaves_the_worker_ready(group, workers, traffic, caller, end):
    # A verifier's column whose failing record the caller or the worker
    # meets first ends after a few values, and sends the worker its stop
    # without waiting for the run the worker has in hand. The caller's runs
    # are RUN values each, so it meets a failing last record in its first
    # run and hears of a failing first one between runs. The next column,
    # at once, must drop the worker's last reply and get its own values,
    # the worker taking part.
    keys, challenges, responses = _column_inputs(group, 4000, 61)
    values = _column_oracle(group, keys, challenges, responses)
    at = 0 if end == "head" else len(values) - 1
    forged = _records(group, [*values[:at], values[at] ^ 1, *values[at + 1 :]], challenges, responses)
    following = _column_inputs(group, 4000, 60)
    following_expected = _column_oracle(group, *following)
    following_ring, following_scalars = group.ring_table(following[0]), _scalars(group, *following[1:])
    for _ in range(3):
        caller["runs"].clear()
        assert group.schnorr_failure([group.ring_table(keys)], forged) == at
        lengths = [stop - start for start, stop in caller["runs"]]
        assert lengths == [RUN] * len(lengths)
        if end == "tail":
            assert caller["runs"] == [(at + 1 - RUN, at + 1)]
        following_values = group.schnorr_commitments(_whole(group, following_ring), following_scalars)
        assert _elements(group, following_values) == following_expected
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
    values = group.schnorr_commitments(_whole(group, table), _scalars(group, challenges, responses))
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
                values_of_job = group.schnorr_commitments(_whole(group, job[0]), _scalars(group, *job[1:]))
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
    # The first column forks the worker.
    assert _elements(group, group.schnorr_commitments(_whole(group, rings[0]), scalars[0])) == expected[0]
    start = threading.Barrier(len(jobs))
    results = [None] * len(jobs)

    def work(i):
        start.wait(timeout=60)
        segments = _whole(group, rings[i])
        results[i] = [_elements(group, group.schnorr_commitments(segments, _chunks(scalars[i]))) for _ in range(3)]

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
        values = group.schnorr_commitments(_whole(group, keys), _scalars(group, challenges, responses))
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
    values = group.schnorr_commitments(_whole(group, keys), _chunks(_scalars(group, challenges, responses)))
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
        values = group.schnorr_commitments(_whole(group, keys), _scalars(group, challenges, responses))
        assert _elements(group, values) == _column_oracle(group, keys, challenges, responses)
    assert forks == [1] and len(_pids()) == 1
    assert traffic["counts"] == [SPLIT, 4000] and traffic["stops"] == 2


@many_cpus
def test_a_forked_child_never_uses_its_parents_workers(group, workers):
    keys, challenges, responses = _column_inputs(group, 1000, 65)
    scalars = _scalars(group, challenges, responses)
    expected = group.schnorr_commitments(_whole(group, keys), scalars)
    assert _elements(group, expected) == _column_oracle(group, keys, challenges, responses)
    parents = _pids()
    child = os.fork()
    if not child:
        status = 1
        try:
            # The child forks a worker of its own, whose pipes may reuse the
            # numbers of the parent's, and computes with it: the parent's
            # worker keeps this ring's table, the child's is sent the keys.
            fresh = [group.schnorr_commitments(_whole(group, keys), scalars) for _ in range(2)]
            own = _pids()
            if fresh == [expected] * 2 and len(own) == 1 and not set(own) & set(parents):
                status = 0
            group_module._stop_workers()
        finally:
            os._exit(status)
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert _pids() == parents
    assert group.schnorr_commitments(_whole(group, keys), scalars) == expected


@many_cpus
def test_a_killed_workers_share_is_computed_by_the_caller(group, workers, caller):
    keys, challenges, responses = _column_inputs(group, 1000, 66)
    scalars = _scalars(group, challenges, responses)
    expected = _column_oracle(group, keys, challenges, responses)
    assert _elements(group, group.schnorr_commitments(_whole(group, keys), scalars)) == expected
    # Killed between columns.
    killed = _pids()
    _kill(killed)
    assert _elements(group, group.schnorr_commitments(_whole(group, keys), scalars)) == expected
    assert group_module._workers == []
    for pid in killed:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # already reaped
    # Killed mid-column, after the caller's first run, for each column.
    records = _records(group, expected, challenges, responses)
    for compute in (lambda: _elements(group, group.schnorr_commitments(_whole(group, keys), scalars)) == expected,
                    lambda: group.schnorr_failure([group.ring_table(keys)], records) is None):
        group_module._stop_workers()
        assert compute()  # forks a fresh worker
        killed = _pids()

        def kill():
            caller["after_run"] = None
            _kill(killed)

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
    # message written to the pipe: each column's header (the first message
    # a column sends), the keys' bytes when the worker does not keep the
    # ring, the chunks and the stops.
    rng = random.Random(67)
    kps = [keygen(group, rng) for _ in range(SPLIT + 40)]
    ring = [kp.public for kp in kps]
    sent, exponents, opening = [], [], []
    ask, share, exp = group_module._Worker.ask, group_module._Worker.share, group_module.GroupParams.exp

    def recorded_share(self, work, chunks):
        opening.append(True)
        return share(self, work, chunks)

    def recorded_ask(self, *messages):
        sent.append((opening.pop() if opening else False, messages))
        return ask(self, *messages)

    def recorded_exp(self, base, exponent):
        exponents.append(exponent)
        return exp(self, base, exponent)

    monkeypatch.setattr(group_module._Worker, "share", recorded_share)
    monkeypatch.setattr(group_module._Worker, "ask", recorded_ask)
    monkeypatch.setattr(group_module.GroupParams, "exp", recorded_exp)
    for index in (2, len(ring) - 2):
        ring_prove(group, ring, index, kps[index].secret, b"ctx", rng)
        credential_prove(group, ring, index, kps[index].secret, keygen(group, rng), rng)
    monkeypatch.undo()
    headers = [_header(messages[0]) for opened, messages in sent if opened]
    assert len(headers) == 4
    table = group.ring_table(ring)
    for column, (number, _, sent_group, width, segments) in enumerate(headers, start=1):
        [(name, skip, length, keyed)] = segments
        assert (number, sent_group, name, width, length) == (column, group, table.digest, 64, len(ring))
        assert skip in (2, len(ring) - 2)
        assert keyed == (column == 1)
    messages = [message for _, messages in sent for message in messages]
    assert messages.count(table.encoding) == 1 and messages.count(b"") == 4
    opened = [messages[0] for opened, messages in sent if opened]
    chunks = [m for m in messages if m and m != table.encoding and m not in opened]
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


@many_cpus
def test_a_shared_column_loads_no_multiprocessing_and_its_worker_exits_at_eof():
    # The worker speaks frames over two os.pipe()s: a process that has
    # shared a column has loaded neither multiprocessing nor pickle. Its
    # worker, stopped without a kill, exits with status 0 at EOF on its
    # request pipe, and is reaped.
    code = (
        "import os, random, sys\n"
        "from phrchain import group\n"
        "g = group.GroupParams.default()\n"
        "rng = random.Random(69)\n"
        "keys = tuple(pow(rng.randrange(2, g.modulus - 1), 2, g.modulus) for _ in range(400))\n"
        "pairs = b''.join(g.encode_scalar(rng.randrange(g.order)) for _ in range(2 * 400))\n"
        "table = g.ring_table(keys)\n"
        "values = g.schnorr_commitments([(table, len(table))], pairs)\n"
        "[worker] = group._workers\n"
        "forked = worker.pid\n"
        "import fcntl, struct, termios, time\n"
        "def unread():\n"
        "    return struct.unpack('i', fcntl.ioctl(worker.requests, termios.FIONREAD, bytes(4)))[0]\n"
        "def state():\n"
        "    return open(f'/proc/{forked}/stat').read().rsplit(')', 1)[1].split()[0]\n"
        "deadline = time.monotonic() + 30\n"
        "while (unread() or state() != 'S') and time.monotonic() < deadline:\n"
        "    time.sleep(0.001)  # until the worker has read its stop and waits for the next header\n"
        "print(forked, 'multiprocessing' in sys.modules, 'pickle' in sys.modules)\n"
        "reaped, waitpid = [], os.waitpid\n"
        "os.waitpid = lambda pid, options: reaped.append(waitpid(pid, options)) or reaped[-1]\n"
        "group._stop_workers()\n"
        "print(*(os.waitstatus_to_exitcode(status) for pid, status in reaped if pid == forked))\n"
        "print(group._workers, values.hex())\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE_ROOT), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    shared, statuses, rest = result.stdout.splitlines()
    pid, multiprocessing, pickled = shared.split()
    assert (multiprocessing, pickled) == ("False", "False")
    assert statuses == "0"  # exited at EOF, and reaped by the stop
    stopped, values = rest.split()
    assert stopped == "None"
    group = GroupParams.default()
    rng = random.Random(69)
    keys = [pow(rng.randrange(2, group.modulus - 1), 2, group.modulus) for _ in range(400)]
    scalars = [rng.randrange(group.order) for _ in range(2 * 400)]
    challenges, responses = scalars[0::2], scalars[1::2]
    assert _elements(group, bytes.fromhex(values)) == _column_oracle(group, keys, challenges, responses)
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid), 0)


def _block(group, sizes, skips, seed):
    """Two rings with hostile keys at both ends (``_hostile_inputs``), as one
    column's segments, each skipping its position in ``skips`` (its length
    for none), and the column's inputs: the keys that take values, in
    order, their challenges and responses."""
    segments, keys, challenges, responses = [], [], [], []
    for n, (size, skip) in enumerate(zip(sizes, skips)):
        ring_keys, ring_challenges, ring_responses = _hostile_inputs(group, size, seed + n)
        segments.append((group.ring_table(ring_keys), skip))
        kept = [i for i in range(size) if i != skip]
        keys += [ring_keys[i] for i in kept]
        challenges += [ring_challenges[i] for i in kept]
        responses += [ring_responses[i] for i in kept]
    return segments, keys, challenges, responses


@many_cpus
@pytest.mark.parametrize("stream", ["whole", "worker stopped", "worker killed"])
@pytest.mark.parametrize("skips", [(299, 0), (0, 69)])
def test_a_block_column_equals_pow_with_hostile_keys_in_either_ring(group, workers, traffic, stream, skips):
    # A prover's block column: a 300-key ring and a 70-key ring, each with
    # hostile keys at both ends and its witness position skipped, one column
    # of 368 values, its draws streamed in chunks that run across the two
    # rings. Whatever happens to the worker mid-block, the values are pow's.
    segments, keys, challenges, responses = _block(group, (300, 70), skips, 700 + skips[0])
    expected = _column_oracle(group, keys, challenges, responses)
    scalars = _scalars(group, challenges, responses)
    assert _elements(group, group.schnorr_commitments(segments, scalars)) == expected  # forks the worker
    forked = _pids()
    assert len(forked) == 1 and traffic["counts"] == [368]

    def stop(n):
        if n == 1 and stream == "worker stopped":
            for pid in forked:
                os.kill(pid, signal.SIGSTOP)
        elif n == 1 and stream == "worker killed":
            _kill(forked)

    assert _elements(group, group.schnorr_commitments(segments, _chunks(scalars, after=stop))) == expected
    if stream == "worker killed":
        assert group_module._workers == []
        return
    _resume()
    # The verifier's block column over the same two rings, every key, one chunk a ring.
    segments, keys, challenges, responses = _block(group, (300, 70), (300, 70), 700 + skips[0])
    records = _records(group, _column_oracle(group, keys, challenges, responses), challenges, responses)
    rings = [ring for ring, _ in segments]
    assert group.schnorr_failure(rings, [records[: 300 * 96], records[300 * 96 :]]) is None
    assert _pids() == forked and traffic["counts"] == [368, 368, 370]


@many_cpus
@pytest.mark.parametrize("at", [0, 299, 300, 369])
def test_a_forged_record_at_either_end_of_either_ring_fails_the_block_column(group, workers, at):
    # The first and last records of each ring's segment: the last patient
    # record and the first hospital one meet at the segments' border.
    segments, keys, challenges, responses = _block(group, (300, 70), (300, 70), 800)
    values = _column_oracle(group, keys, challenges, responses)
    rings = [ring for ring, _ in segments]
    forged = _records(group, [*values[:at], values[at] ^ 1, *values[at + 1 :]], challenges, responses)
    for _ in range(2):  # forks the worker, then shares the column with it
        assert group.schnorr_failure(rings, [forged[: 300 * 96], forged[300 * 96 :]]) == at
    assert len(_pids()) == 1


@many_cpus
@pytest.mark.parametrize(
    "forged", ["patient first", "patient last", "hospital first", "hospital last", "hospital context"]
)
def test_a_block_forged_at_either_end_of_either_ring_is_rejected(make_world, workers, traffic, forged):
    # A block whose 200/64-key credentials are checked as one shared column
    # is refused for a branch forged at either end of either ring, its
    # column sent its stop, or for a joint context that the hash checks
    # refuse before the column, which then sends the worker nothing; and
    # its honest twin is accepted after.
    world = make_world(patients=200, hospitals=64, seed=81)
    block, _ = world.submit_block(world.patient(5), b"data", 1, hospital_index=7, append=False)
    assert verify_block(block, world.directories)
    party, end = forged.split()
    credential = getattr(block, f"{party}_credential")
    if end == "context":
        credential = dataclasses.replace(credential, joint_context=credential.joint_context[:-1] + b"\0")
    else:
        branches = list(credential.membership.branches)
        i = 0 if end == "first" else len(branches) - 1
        branches[i] = dataclasses.replace(branches[i], response=(branches[i].response + 1) % world.group.order)
        membership = dataclasses.replace(credential.membership, branches=tuple(branches))
        credential = dataclasses.replace(credential, membership=membership)
    forgery = dataclasses.replace(block, **{f"{party}_credential": credential})
    assert not verify_block(forgery, world.directories)
    assert verify_block(block, world.directories)
    shared = [262, 264, 264] if end == "context" else [262, 264, 264, 264]
    assert len(_pids()) == 1 and traffic["counts"] == shared and traffic["stops"] == len(shared)


@functools.lru_cache(maxsize=2)
def _honest_proofs(size):
    """A ring of ``size`` keys, a block key, and an honest ring proof and
    credential over them."""
    group = GroupParams.default()
    rng = random.Random(83 + size)
    kps = [keygen(group, rng) for _ in range(size)]
    ring, block_kp = [kp.public for kp in kps], keygen(group, rng)
    proof = ring_prove(group, ring, size // 2, kps[size // 2].secret, b"ctx", rng)
    credential = credential_prove(group, ring, size // 3, kps[size // 3].secret, block_kp, rng)
    return ring, block_kp.public, proof, credential


def _hash_forgery(group, proof, check):
    """The ring proof with one hash check broken and every gate kept: its
    binding challenge moved, or one branch's challenge, so that the
    challenges no longer sum to it."""
    q = group.order
    if check == "binding challenge":
        return dataclasses.replace(proof, binding_challenge=(proof.binding_challenge + 1) % q)
    branch = proof.branches[1]
    return _with_branch(proof, 1, dataclasses.replace(branch, challenge=(branch.challenge + 1) % q))


@pytest.mark.parametrize("size", [8, pytest.param(300, marks=many_cpus)])
@pytest.mark.parametrize(
    "verifier, check",
    [
        ("ring", "binding challenge"), ("ring", "challenge sum"),
        ("credential", "joint context"), ("credential", "possession challenge"),
        ("credential", "binding challenge"), ("credential", "challenge sum"),
    ],
)
def test_a_proof_whose_hashes_fail_is_refused_before_its_column(group, workers, traffic, caller, size, verifier, check):
    # Gates, then hashes, then the column: a proof that passes its gates and
    # fails a hash check computes no column value here and sends the worker
    # no header; its honest twin then computes its column, shared with the
    # worker at 300 keys.
    ring, block_public, proof, credential = _honest_proofs(size)
    caller["runs"].clear()  # the proving's own columns
    traffic["headers"].clear()
    traffic["counts"].clear()
    if verifier == "ring":
        forged = _hash_forgery(group, proof, check)

        def verify(p):
            return ring_verify(group, ring, p, b"ctx")
    else:
        possession = credential.possession
        if check == "joint context":
            context = credential.joint_context
            forged = dataclasses.replace(credential, joint_context=context[:-1] + bytes([context[-1] ^ 1]))
        elif check == "possession challenge":
            moved = dataclasses.replace(possession, challenge=(possession.challenge + 1) % group.order)
            forged = dataclasses.replace(credential, possession=moved)
        else:
            forged = dataclasses.replace(credential, membership=_hash_forgery(group, credential.membership, check))
        proof = credential

        def verify(p):
            return credential_verify(group, ring, block_public, p)

    assert not verify(forged)
    assert caller["runs"] == [] and traffic["headers"] == [] and traffic["counts"] == []
    assert verify(proof)
    if size >= SPLIT:
        assert traffic["counts"] == [size]
    else:
        assert caller["runs"] and traffic["counts"] == []


@pytest.mark.parametrize("size", [8, pytest.param(300, marks=many_cpus)])
def test_a_skip_outside_its_ring_is_refused_before_the_column(group, workers, traffic, caller, size):
    keys, challenges, responses = _column_inputs(group, size, 90 + size)
    table = group.ring_table(keys)
    scalars = _scalars(group, challenges, responses)
    for skip in (-1, size + 1):
        with pytest.raises(IndexError, match=f"position {skip} outside a ring of {size}"):
            group.schnorr_commitments([(table, skip)], scalars)
    assert caller["runs"] == [] and traffic["headers"] == []
    # Skipping the last key, or none, is a column of its own.
    expected = _column_oracle(group, keys, challenges, responses)
    assert _elements(group, group.schnorr_commitments([(table, size - 1)], scalars[: -2 * 32])) == expected[:-1]
    assert _elements(group, group.schnorr_commitments([(table, size)], scalars)) == expected
    assert traffic["counts"] == ([size - 1, size] if size >= SPLIT else [])


@many_cpus
def test_a_worker_stopped_mid_run_exits_with_status_0():
    # A column whose last record fails ends at the caller's first run, from
    # the tail, while the worker computes the head; stopped at once, the
    # worker finds its reply pipe closed, and exits with status 0, round
    # after round. Each round forks a worker afresh, with an honest column
    # that leaves it the ring's table, so that the forged column's worker
    # starts on its head at once.
    code = (
        "import os\n"
        "import random\n"
        "from phrchain import group\n"
        "g = group.GroupParams.default()\n"
        "rng = random.Random(71)\n"
        "keys = tuple(pow(rng.randrange(2, g.modulus - 1), 2, g.modulus) for _ in range(4000))\n"
        "pairs = b''.join(g.encode_scalar(rng.randrange(g.order)) for _ in range(2 * 4000))\n"
        "table = g.ring_table(keys)\n"
        "values = g.schnorr_commitments([(table, len(table))], pairs)\n"
        "records = b''.join(values[i * 32 : (i + 1) * 32] + pairs[i * 64 : (i + 1) * 64] for i in range(4000))\n"
        "forged = records[: -65] + bytes([records[-65] ^ 1]) + records[-64 :]\n"
        "reaped, waitpid = [], os.waitpid\n"
        "os.waitpid = lambda pid, options: reaped.append(waitpid(pid, options)) or reaped[-1]\n"
        "for _ in range(20):\n"
        "    assert g.schnorr_failure([table], records) is None\n"
        "    assert g.schnorr_failure([table], forged) == 3999\n"
        "    [worker] = group._workers\n"
        "    forked = worker.pid\n"
        "    group._stop_workers()\n"
        "    print(*(os.waitstatus_to_exitcode(status) for pid, status in reaped if pid == forked))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE_ROOT), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0"] * 20


@many_cpus
def test_a_grown_ring_sends_the_worker_all_its_keys_once(group, workers, traffic):
    # A registry grown by 100 keys hands out a new key tuple: the caller
    # makes its table from its keys, and the worker, which keeps the table
    # of the ring before the batch, is sent every key of the grown ring
    # once; the grown ring's next check finds both tables kept and sends
    # no key.
    rng = random.Random(72)
    kps = [keygen(group, rng) for _ in range(400)]
    registry = Registry(group, "patient")
    for kp in kps[:300]:
        registry.enroll(kp.public)
    first = registry.keys
    assert ring_verify(group, first, ring_prove(group, first, 4, kps[4].secret, b"ctx", rng), b"ctx")
    for kp in kps[300:]:
        registry.enroll(kp.public)
    grown = registry.keys
    table = group.ring_table(grown)
    lookups = group_module._key_verdict.cache_info()
    assert group.ring_table(registry.keys[: len(registry.keys)]) is table
    assert group_module._key_verdict.cache_info() == lookups  # found by identity: no key read
    assert table.encoding == group_module._key_bytes(group, grown) and table.digest == key_list_digest(group, grown)
    assert ring_verify(group, grown, ring_prove(group, grown, 350, kps[350].secret, b"ctx", rng), b"ctx")
    digests = {len(ring): key_list_digest(group, ring) for ring in (first, grown)}
    headers = [(header[4], keyed) for header, keyed in traffic["headers"]]
    assert [segments for segments, _ in headers] == [
        ((digests[300], 4, 300, True),), ((digests[300], 300, 300, False),),
        ((digests[400], 350, 400, True),), ((digests[400], 400, 400, False),),
    ]
    assert [bytes(keyed) if keyed is not None else None for _, keyed in headers] == [
        group_module._key_bytes(group, first), None, group_module._key_bytes(group, grown), None,
    ]
    assert len(_pids()) == 1


@many_cpus
def test_a_stopped_worker_never_blocks_its_caller(group, workers, traffic):
    # With the worker stopped, columns go on being offered to it until far
    # more than its pipe holds has been asked of it: each returns pow's
    # values at once, the caller computing what the worker cannot, and is
    # never left waiting on a full pipe. Resumed, the worker drains its pipe
    # and shares the next column.
    keys, challenges, responses = _column_inputs(group, 4000, 91)
    expected = _column_oracle(group, keys, challenges, responses)
    scalars, records = _scalars(group, challenges, responses), _records(group, expected, challenges, responses)
    ring = group.ring_table(keys)
    assert _elements(group, group.schnorr_commitments(_whole(group, keys), scalars)) == expected  # forks the worker
    [pid] = _pids()
    os.kill(pid, signal.SIGSTOP)

    def timeout(*_):
        raise TimeoutError("a column waited on its stopped worker")

    handler = signal.signal(signal.SIGALRM, timeout)
    try:
        for _ in range(4):  # 4 x (256 + 384) KB of records asked of a 1 MiB pipe
            signal.alarm(30)
            assert _elements(group, group.schnorr_commitments(_whole(group, keys), _chunks(scalars))) == expected
            assert group.schnorr_failure([ring], records) is None
            signal.alarm(0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert _pids() == [pid] and _unread(group_module._workers[0]) < 1 << 20
    _resume()
    assert group.schnorr_failure([ring], records) is None
    assert _pids() == [pid] and traffic["counts"] == [4000] * 10


@many_cpus
def test_a_proof_longer_than_the_pipe_holds_is_shared(group, workers, traffic, caller):
    # One proof's records, one chunk of 8300 records of 96 bytes, and its
    # ring's keys are more than the request pipe may hold unread. They are
    # sent in messages as the worker reads them, so the worker computes the
    # head of the column, and the ring's table reaches it: the next check
    # sends no key.
    keys, challenges, responses = _column_inputs(group, 8300, 93)
    records = _records(group, _column_oracle(group, keys, challenges, responses), challenges, responses)
    ring = group.ring_table(keys)
    for _ in range(2):
        caller["runs"].clear()
        assert group.schnorr_failure([ring], records) is None
        assert _reached(caller) > 0
    assert len(records) > group_module._workers[0].budget
    assert [keyed for _, keyed in traffic["headers"]] == [group_module._key_bytes(group, keys), None]
    assert len(_pids()) == 1 and traffic["stops"] == 2


@many_cpus
def test_a_small_pipe_carries_a_rings_keys_and_records_in_turn(group, workers, traffic, caller, monkeypatch):
    # Pipes of 64 KiB, of which 48 KiB may be left unread: a 2000-key
    # ring's keys (64 KB) and a prover's pairs (128 KB) are sent as the
    # worker reads them, and the worker takes part from the first column.
    monkeypatch.setattr(group_module, "_PIPE_BYTES", 1 << 16)
    keys, challenges, responses = _column_inputs(group, 2000, 94)
    expected = _column_oracle(group, keys, challenges, responses)
    scalars = _scalars(group, challenges, responses)
    for _ in range(2):
        caller["runs"].clear()
        assert _elements(group, group.schnorr_commitments(_whole(group, keys), _chunks(scalars))) == expected
        assert _reached(caller) > 0
    assert group_module._workers[0].budget == (1 << 16) * 3 // 4
    assert [keyed for _, keyed in traffic["headers"]] == [group_module._key_bytes(group, keys), None]
    assert len(_pids()) == 1 and traffic["stops"] == 2


@many_cpus
def test_a_pipe_that_refuses_the_size_asked_keeps_its_own(group, workers, monkeypatch):
    # A worker is forked all the same, and what may be left unread in its
    # request pipe is three quarters of the size the pipe has.
    real = fcntl.fcntl

    def refusing(fd, command, *args):
        if command == fcntl.F_SETPIPE_SZ:
            raise PermissionError("pipe size refused")
        return real(fd, command, *args)

    monkeypatch.setattr(fcntl, "fcntl", refusing)
    keys, challenges, responses = _column_inputs(group, SPLIT + 8, 95)
    values = group.schnorr_commitments(_whole(group, keys), _scalars(group, challenges, responses))
    assert _elements(group, values) == _column_oracle(group, keys, challenges, responses)
    [worker] = group_module._workers
    assert worker.pid and worker.budget == real(worker.requests, fcntl.F_GETPIPE_SZ) * 3 // 4


@many_cpus
def test_a_column_stopped_before_its_keys_are_in_sends_them_again(group, workers, traffic, monkeypatch):
    # 64 KiB pipes, the worker stopped: a 2000-key ring's keys (64 KB) are
    # only part sent when a verifier's column, whose last record fails, ends
    # at the caller's first value. Resumed, the worker reads the stop before
    # the rest of the keys and keeps no table of the ring, and the caller's
    # mirror has not taken it either: the next column sends the keys again
    # and gets pow's values from the same worker.
    monkeypatch.setattr(group_module, "_PIPE_BYTES", 1 << 16)
    warm = _column_inputs(group, SPLIT, 97)
    group.schnorr_commitments(_whole(group, warm[0]), _scalars(group, *warm[1:]))  # forks the worker
    [pid] = _pids()
    keys, challenges, responses = _column_inputs(group, 2000, 96)
    values = _column_oracle(group, keys, challenges, responses)
    forged = _records(group, [*values[:-1], values[-1] ^ 1], challenges, responses)
    ring = group.ring_table(keys)
    os.kill(pid, signal.SIGSTOP)
    assert group.schnorr_failure([ring], forged) == len(values) - 1
    _resume()
    assert ring.digest not in group_module._workers[0].rings
    following = group.schnorr_commitments(_whole(group, keys), _chunks(_scalars(group, challenges, responses)))
    assert _elements(group, following) == values
    keyed = [keyed for _, keyed in traffic["headers"]]
    assert len(keyed) == 3 and keyed[2] == group_module._key_bytes(group, keys)
    assert 0 < len(keyed[1]) < len(keyed[2])  # the stopped column's keys, part sent
    assert _pids() == [pid] and ring.digest in group_module._workers[0].rings


# ---------------------------------------------------------------------------
# The guard: drawn sequences of rings through one live worker
# ---------------------------------------------------------------------------

GUARD_POOL = 2400


@functools.lru_cache(maxsize=1)
def _guard_pool(group):
    """Distinct subgroup keys (squares mod p), each with a fixed challenge
    and response, and their position: every ring of the guard is drawn from
    these keys, so each key's ``pow`` value is computed once per session."""
    rng, p = random.Random(2718), group.modulus
    keys = list(dict.fromkeys(pow(rng.randrange(2, p - 1), 2, p) for _ in range(GUARD_POOL + 16)))[:GUARD_POOL]
    pairs = [(group.random_scalar(rng), group.random_scalar(rng)) for _ in keys]
    return keys, pairs, {key: i for i, key in enumerate(keys)}, {}


def _guard_oracle(group, keys):
    """The ``pow`` value of each key, with its pool challenge and response."""
    _, pairs, position, values = _guard_pool(group)
    for key in keys:
        if key not in values:
            c, s = pairs[position[key]]
            values[key] = _column_oracle(group, [key], [c], [s])[0]
    return [values[key] for key in keys]


def _guard_pairs(group, keys):
    _, pairs, position, _ = _guard_pool(group)
    return [pairs[position[key]] for key in keys]


LENGTHS = st.one_of(st.sampled_from([SPLIT - 1, SPLIT, SPLIT + 1, SPLIT + 2]), st.integers(1, 2000))
MOVES = st.one_of(
    st.tuples(st.just("fresh"), LENGTHS, st.integers(0, GUARD_POOL)),
    st.tuples(st.just("kept"), st.integers(0, 99)),
    st.tuples(st.just("grown"), st.integers(1, 150)),
    st.tuples(st.just("prefix"), st.integers(0, 99), st.integers(1, 2000)),
    st.tuples(st.just("equal"), st.integers(0, 99)),
)
COLUMNS = st.tuples(
    st.sampled_from(["prove", "stream", "verify"]),
    st.booleans(),  # a second ring, the last one met, as a block's column has
    st.integers(0, 2**32),  # where the prover skips, or which records fail
    st.integers(0, 2),  # how many records fail
)


@many_cpus
@settings(max_examples=30, deadline=None)
@given(initial=st.integers(1, 1200), steps=st.lists(st.tuples(MOVES, COLUMNS), min_size=1, max_size=7))
def test_drawn_rings_through_a_live_worker_give_pows_values(group, initial, steps):
    # Rings fresh, kept (the same tuple), grown by an enrollment batch, a
    # prefix sliced afresh or an equal tuple sliced afresh, up to more live
    # rings than the caller and the worker keep, each proved over (whole
    # or streamed, one witness position skipped) or checked with drawn
    # records forged, through the one worker this process forks.
    pool = _guard_pool(group)[0]
    registry = Registry(group, "patient")
    for key in pool[:initial]:
        registry.enroll(key)
    rings = [registry.keys]
    group_module._stop_workers()
    try:
        for (move, *arguments), (column, pair, drawn, failing) in steps:
            if move == "fresh":
                length, start = arguments
                start = min(start, GUARD_POOL - length)
                ring = tuple(pool[start : start + length])
            elif move == "grown":
                for key in pool[len(registry) : len(registry) + arguments[0]]:
                    registry.enroll(key)
                ring = registry.keys
            else:
                kept = rings[arguments[0] % len(rings)]
                if move == "kept":
                    ring = kept
                elif move == "equal":
                    ring = tuple(list(kept))
                else:
                    ring = kept[: max(1, arguments[1] % len(kept))]
            rings.append(ring)
            chosen = [ring, rings[-2]] if pair else [ring]
            tables = [group.ring_table(keys) for keys in chosen]
            rng = random.Random(drawn)
            if column == "verify":
                keys = [key for keys in chosen for key in keys]
                values = _guard_oracle(group, keys)
                forged = set(rng.sample(range(len(keys)), min(failing, len(keys))))
                challenges, responses = zip(*_guard_pairs(group, keys))
                written = [value ^ 1 if i in forged else value for i, value in enumerate(values)]
                records = _records(group, written, challenges, responses)
                failed = group.schnorr_failure(tables, records)
                assert failed in forged if forged else failed is None
            else:
                segments = [(table, rng.randrange(len(table) + 1)) for table in tables]
                keys = [key for table, skip in segments for i, key in enumerate(table.keys) if i != skip]
                scalars = _scalars(group, *zip(*_guard_pairs(group, keys))) if keys else b""
                if column == "stream":
                    scalars = _chunks(scalars)
                assert _elements(group, group.schnorr_commitments(segments, scalars)) == _guard_oracle(group, keys)
            assert len(_pids()) <= 1 and all(_pids())
    finally:
        group_module._stop_workers()
