"""Span recorder that instruments phrchain from outside, for traced runs.

Each public entry point is replaced, for the life of a ``Tracer``, at the
name its caller looks it up under: ``phrchain.ledger.credential_prove``
rather than ``phrchain.crypto.credential_prove``, class attributes such as
``GroupParams.exp``. Nothing under ``src/`` changes.

Two kinds of instrument exist:

* a span records ``(name, start, end, parent, op, counted_s, rejected)``
  in memory. ``counted_s`` is the time spent in counted primitives called
  directly inside the span; ``rejected`` is set for verifiers that said no;
* a counter keeps only a call count and a total time per operation. It
  is used for the hot primitives (``exp``, ``is_element``,
  ``key_list_digest``, ``chain_state``), where one span per call would
  cost more than the call.

A span's self time is its duration minus the part of it covered by child
spans and by counted primitives, so the module self times of one
operation partition its traced duration.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

from phrchain import access, consensus, crypto, ledger, registry
from phrchain.group import GroupParams
from phrchain.ledger import ApprovalBlock, Chain, PatientBlock, PatientSecrets, RequestBlock
from phrchain.registry import Registry

SETUP_OP = -1
RESET_OP = -2

_BLOCK_KIND = {PatientBlock: "patient", RequestBlock: "request", ApprovalBlock: "approval"}


def _rejects_false(result) -> bool:
    return result is False


def _rejects_report(result) -> bool:
    return not result.all_ok


# (owner, attribute, instrument name, kind, rejection test)
# kind: "span", "counter", "property" (span around a property getter) or
# "verify_block" (span named by block kind).
INSTRUMENTS = (
    (GroupParams, "exp", "group.exp", "counter", None),
    (GroupParams, "is_element", "group.is_element", "counter", None),
    (crypto, "key_list_digest", "crypto.key_list_digest", "counter", None),
    (registry, "key_list_digest", "crypto.key_list_digest", "counter", None),
    (ledger, "credential_prove", "crypto.credential_prove", "span", None),
    (consensus, "credential_verify", "crypto.credential_verify", "span", _rejects_false),
    (ledger, "sign", "crypto.sign", "span", None),
    (access, "sign", "crypto.sign", "span", None),
    (consensus, "verify_signature", "crypto.verify_signature", "span", _rejects_false),
    (ledger, "sym_encrypt", "crypto.sym_encrypt", "span", None),
    (access, "sym_decrypt", "crypto.sym_decrypt", "span", None),
    (Registry, "enroll", "registry.enroll", "span", None),
    (Registry, "keys", "registry.keys", "property", None),
    (Registry, "__contains__", "registry.contains", "span", None),
    (ledger, "create_patient_block", "ledger.create_patient_block", "span", None),
    (PatientBlock, "canonical_bytes", "ledger.canonical_bytes", "span", None),
    (RequestBlock, "canonical_bytes", "ledger.canonical_bytes", "span", None),
    (ApprovalBlock, "canonical_bytes", "ledger.canonical_bytes", "span", None),
    (ledger, "decode_block", "ledger.decode_block", "span", None),
    (Chain, "append", "ledger.chain.append", "span", None),
    (Chain, "get", "ledger.chain.get", "span", None),
    (ledger, "chain_state", "ledger.chain_state", "counter", None),
    (access, "chain_state", "ledger.chain_state", "counter", None),
    (PatientSecrets, "find", "ledger.secrets.find", "span", None),
    (PatientSecrets, "index_of", "ledger.secrets.index_of", "span", None),
    (consensus, "verify_block", "consensus.verify_block", "verify_block", _rejects_false),
    (consensus, "run_consensus", "consensus.run_consensus", "span", None),
    (access, "scan_blocks", "access.scan_blocks", "span", None),
    (access, "pending_requests", "access.pending_requests", "span", None),
    (access, "create_request_block", "access.create_request_block", "span", None),
    (access, "create_approval_block", "access.create_approval_block", "span", None),
    (access, "build_disclosure_package", "access.build_disclosure_package", "span", None),
    (access, "verify_disclosure", "access.verify_disclosure", "span", _rejects_report),
)


class Tracer:
    """In-memory span and counter recorder; a context manager installs it."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple] = []
        self.counters: dict[tuple[str, int], list] = defaultdict(lambda: [0, 0.0])
        self.op = SETUP_OP
        # Open spans: [index into self.spans, counted seconds inside it].
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _span(self, name, fn, rejects=None, name_of=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            label = name_of(args) if name_of else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else None
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            rejected = None
            try:
                result = fn(*args, **kwargs)
                if rejects is not None:
                    rejected = rejects(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent, self.op, frame[1], rejected)

        return wrapper

    def _counter(self, name, fn):
        counters, stack, clock = self.counters, self._stack, self.clock

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                slot = counters[(name, self.op)]
                slot[0] += 1
                slot[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def run_op(self, op: int, fn):
        """Run one benchmark operation as the root span ``bench.op``."""
        self.op = op
        try:
            return self._span("bench.op", fn)()
        finally:
            self.op = SETUP_OP

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        for owner, attr, name, kind, rejects in INSTRUMENTS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if kind == "counter":
                replacement = self._counter(name, original)
            elif kind == "property":
                replacement = property(self._span(name, original.fget))
            elif kind == "verify_block":
                replacement = self._span(
                    name, original, rejects,
                    lambda args, name=name: f"{name}.{_BLOCK_KIND.get(type(args[0]), 'other')}",
                )
            else:
                replacement = self._span(name, original, rejects)
            setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus child-span coverage minus counted time."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        result = []
        for index, (name, start, end, parent, op, counted, _) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(index, ())):
                lo, hi = max(child_start, cursor), min(child_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result.append((end - start) - covered - counted)
        return result

    def summary(self, ops: set[int], per: int) -> dict:
        """Totals per instrument name over the operations ``ops``, divided by ``per``.

        Keys per name: ``calls``, ``s`` (inclusive), ``self_s``; verifiers
        also get ``rejects`` and ``reject_s`` (seconds per rejecting call).
        Module totals appear as ``<module>.self_s``.
        """
        wanted = ops
        n = max(per, 1)
        table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, start, end, parent, op, counted, rejected), own in zip(self.spans, self.self_times()):
            if op not in wanted:
                continue
            row = table[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += own
            if rejected is not None:
                row["rejects"] += rejected
                row["reject_total_s"] += (end - start) if rejected else 0.0
        for (name, op), (calls, seconds) in self.counters.items():
            if op in wanted:
                row = table[name]
                row["calls"] += calls
                row["s"] += seconds
                row["self_s"] += seconds
        out: dict[str, float] = {}
        modules: dict[str, float] = defaultdict(float)
        for name, row in table.items():
            for key in ("calls", "s", "self_s"):
                out[f"{name}.{key}"] = row[key] / n
            modules[name.split(".")[0]] += row["self_s"] / n
            if "rejects" in row:
                out[f"{name}.rejects"] = row["rejects"] / n
                out[f"{name}.reject_s"] = row["reject_total_s"] / row["rejects"] if row["rejects"] else 0.0
        for module, seconds in modules.items():
            out[f"{module}.self_s"] = seconds
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span, then one per (counter, operation)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, op, counted, rejected in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "op": op,
                     "counted_s": counted, "rejected": rejected}) + "\n")
            for (name, op), (calls, seconds) in sorted(self.counters.items()):
                handle.write(json.dumps({"counter": name, "op": op, "calls": calls, "s": seconds}) + "\n")
