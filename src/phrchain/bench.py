"""Desk-scale benchmark harness emitting CSV.

Three experiments: block creation cost and proof transcript size against
registry sizes, simulated consensus time against pool size and malicious
fraction, and the four researcher-access phases against the malicious
fraction. Full-deployment absolute runtimes are out of reach on a desk,
so the harness is built to expose asymptotic shape: transcript sizes are
exact, consensus time comes from the deterministic virtual clock, and
wall-clock columns are averaged over folds.

Every run re-verifies what it builds and raises BenchError on any
failure, so the benchmarks double as integration tests.
"""

from __future__ import annotations

import csv
import gc
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from statistics import mean
from typing import Callable

from .access import (
    build_disclosure_package,
    create_approval_block,
    create_request_block,
    verify_disclosure,
)
from .consensus import MinerPool, run_consensus, verify_block
from .crypto import keygen
from .group import GroupParams
from .ledger import (
    Chain,
    HospitalContext,
    OffChainStore,
    PatientContext,
    PatientSecrets,
    TimeRange,
    create_patient_block,
)
from .registry import ConditionCodebook, Directories, Registry


class BenchError(RuntimeError):
    """An internal verification failed while benchmarking."""


@dataclass(frozen=True)
class BenchConfig:
    """Grid and timing parameters shared by the benchmark commands."""

    patients: tuple[int, ...] = (500, 1000, 2000)
    hospitals: tuple[int, ...] = (500, 1000, 2000)
    miners: tuple[int, ...] = (100, 200, 400, 800)
    malicious: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4)
    folds: int = 4
    seed: int = 0
    verify_seconds: float = 1e-3
    verify_jitter: float = 0.0
    pair_seconds: float = 1e-6
    timing_reps: int = 8

    def __post_init__(self) -> None:
        if self.folds < 1:
            raise ValueError(f"folds must be >= 1, got {self.folds}")
        for fraction in self.malicious:
            if not 0.0 <= fraction <= 0.5:
                raise ValueError(f"malicious fraction {fraction:g} is outside [0, 0.5]")
        for name in ("patients", "hospitals", "miners"):
            if any(n < 1 for n in getattr(self, name)):
                raise ValueError(f"{name} must all be positive, got {min(getattr(self, name))}")
        if self.timing_reps < 1:
            raise ValueError(f"timing_reps must be >= 1, got {self.timing_reps}")
        self.pool(1, 0.0)  # MinerPool rejects negative timing constants

    def pool(self, n_miners: int, malicious_fraction: float) -> MinerPool:
        """A miner pool under this configuration's virtual timing model."""
        return MinerPool(n_miners, malicious_fraction, self.verify_seconds, self.verify_jitter, self.pair_seconds)


@contextmanager
def _gc_paused():
    """Keep the collector out of sub-millisecond timing windows."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Experiment 1: block creation time and transcript size
# ---------------------------------------------------------------------------


def bench_block_creation(config: BenchConfig) -> list[dict]:
    """Time create_patient_block over the registry-size grid.

    transcript_bytes is the serialized size of the two credential proofs in
    the block header; it is exact and identical across folds.
    """
    group = GroupParams.default()
    rng = random.Random(config.seed)
    codebook = ConditionCodebook.default()
    bits = codebook.encode([codebook.lifetime_codes[0]], [codebook.visit_codes[0]])

    max_p, max_h = max(config.patients), max(config.hospitals)
    patient_kps = [keygen(group, rng) for _ in range(max_p)]
    hospital_kps = [keygen(group, rng) for _ in range(max_h)]

    rows = []
    for n_patients in config.patients:
        for n_hospitals in config.hospitals:
            directories = Directories(
                patients=Registry(group, "patient", [kp.public for kp in patient_kps[:n_patients]]),
                hospitals=Registry(group, "hospital", [kp.public for kp in hospital_kps[:n_hospitals]]),
                researchers=Registry(group, "researcher"),
            )
            hospital = HospitalContext(identity=hospital_kps[0], index=0)
            timings = []
            block = None
            for _ in range(config.folds):
                patient = PatientContext(
                    identity=patient_kps[0], index=0, secrets=PatientSecrets()
                )
                store = OffChainStore()
                started = time.perf_counter()
                block, _ = create_patient_block(
                    patient, hospital, b"record payload", bits, directories, store, visit_time=1, rng=rng
                )
                timings.append(time.perf_counter() - started)
            if block is None or not verify_block(block, directories):
                raise BenchError(
                    f"created block failed verification at p={n_patients} h={n_hospitals}"
                )
            transcript_bytes = len(block.patient_credential.to_bytes(group)) + len(
                block.hospital_credential.to_bytes(group)
            )
            rows.append(
                {
                    "patients": n_patients,
                    "hospitals": n_hospitals,
                    "creation_seconds": f"{mean(timings):.6f}",
                    "transcript_bytes": transcript_bytes,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Experiment 2: consensus scaling
# ---------------------------------------------------------------------------


def _small_valid_block(group: GroupParams, rng: random.Random):
    """A verifiable patient block over small registries, for consensus runs:
    the block, the patient's secrets, the directories and the data store."""
    patient_kps = [keygen(group, rng) for _ in range(4)]
    hospital_kps = [keygen(group, rng) for _ in range(4)]
    directories = Directories(
        patients=Registry(group, "patient", [kp.public for kp in patient_kps]),
        hospitals=Registry(group, "hospital", [kp.public for kp in hospital_kps]),
        researchers=Registry(group, "researcher"),
    )
    codebook = ConditionCodebook.default()
    bits = codebook.encode([], [])
    patient = PatientContext(identity=patient_kps[0], index=0, secrets=PatientSecrets())
    hospital = HospitalContext(identity=hospital_kps[0], index=0)
    store = OffChainStore()
    block, secrets = create_patient_block(
        patient, hospital, b"consensus probe", bits, directories, store, visit_time=1, rng=rng
    )
    return block, secrets, directories, store


def bench_consensus(config: BenchConfig) -> list[dict]:
    """Simulated consensus time across the (miners, malicious fraction) grid."""
    group = GroupParams.default()
    rng = random.Random(config.seed)
    block, _, directories, _ = _small_valid_block(group, rng)

    rows = []
    for n_miners in config.miners:
        for fraction in config.malicious:
            pool = config.pool(n_miners, fraction)
            simulated = []
            for fold in range(config.folds):
                result = run_consensus(block, pool, directories, seed=config.seed + fold)
                if not result.approved:
                    raise BenchError(
                        f"valid block rejected at n={n_miners} malicious={fraction:.0%}"
                    )
                simulated.append(result.simulated_time)
            rows.append(
                {
                    "miners": n_miners,
                    "malicious_pct": round(fraction * 100),
                    "simulated_seconds": f"{mean(simulated):.9f}",
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Experiment 3: researcher access phases
# ---------------------------------------------------------------------------

_RESEARCHER_PHASES = ("request_create", "request_verify", "approval_create", "approval_verify")


def bench_researcher_access(config: BenchConfig) -> list[dict]:
    """Wall-clock the four researcher-access phases against malicious fraction.

    The pool size is fixed at the largest configured miner count; creation
    phases do not touch the pool at all, and verification is dominated by a
    single block check, so totals should stay flat across fractions.
    """
    group = GroupParams.default()
    rng = random.Random(config.seed)
    block, secrets, directories, store = _small_valid_block(group, rng)
    researcher_kp = keygen(group, rng)
    directories.researchers.enroll(researcher_kp.public)

    chain = Chain(group)
    n_miners = max(config.miners)
    chain.append(block, run_consensus(block, config.pool(n_miners, 0.0), directories, seed=config.seed))

    window = TimeRange(1, 1)
    reps = config.timing_reps
    rows = []
    for fraction in config.malicious:
        pool = config.pool(n_miners, fraction)
        samples: dict[str, list[float]] = {phase: [] for phase in _RESEARCHER_PHASES}
        for fold in range(config.folds):
            seed = config.seed + fold
            with _gc_paused():
                started = time.perf_counter()
                for _ in range(reps):
                    request = create_request_block(group, researcher_kp, block, window, rng)
                samples["request_create"].append((time.perf_counter() - started) / reps)

                started = time.perf_counter()
                for _ in range(reps):
                    request_result = run_consensus(request, pool, directories, seed, chain=chain)
                samples["request_verify"].append((time.perf_counter() - started) / reps)
                if not request_result.approved:
                    raise BenchError(f"request rejected at malicious={fraction:.0%}")

                started = time.perf_counter()
                for _ in range(reps):
                    approval = create_approval_block(group, secrets, request, window, rng)
                samples["approval_create"].append((time.perf_counter() - started) / reps)

                request_chain = Chain(group)
                request_chain.append(block, chain.entries()[0].record)
                request_chain.append(request, request_result)
                started = time.perf_counter()
                for _ in range(reps):
                    approval_result = run_consensus(approval, pool, directories, seed, chain=request_chain)
                samples["approval_verify"].append((time.perf_counter() - started) / reps)
                if not approval_result.approved:
                    raise BenchError(f"approval rejected at malicious={fraction:.0%}")

        for phase in _RESEARCHER_PHASES:
            rows.append(
                {
                    "malicious_pct": round(fraction * 100),
                    "phase": phase,
                    "seconds": f"{mean(samples[phase]):.9f}",
                }
            )

    # Close the loop once: the granted range must actually verify end to end.
    package = build_disclosure_package(secrets, [block.block_id])
    report = verify_disclosure(package, chain, store)
    if not report.all_ok:
        raise BenchError("disclosure package failed verification")
    return rows


# ---------------------------------------------------------------------------
# The experiment table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One paper experiment: its run function, CSV layout and default grid."""

    run: Callable[[BenchConfig], list[dict]]
    columns: tuple[str, ...]
    label: str
    defaults: BenchConfig


# One row per measured claim of the paper. The block-creation and consensus
# grids are BenchConfig's own field defaults.
EXPERIMENTS: dict[str, Experiment] = {
    "block_creation": Experiment(
        bench_block_creation,
        ("patients", "hospitals", "creation_seconds", "transcript_bytes"),
        "block creation",
        BenchConfig(),
    ),
    "consensus": Experiment(
        bench_consensus,
        ("miners", "malicious_pct", "simulated_seconds"),
        "consensus; virtual clock",
        BenchConfig(),
    ),
    "researcher_access": Experiment(
        bench_researcher_access,
        ("malicious_pct", "phase", "seconds"),
        "researcher access; wall clock",
        BenchConfig(miners=(800,), malicious=(0.1, 0.2, 0.3, 0.4, 0.5)),
    ),
}


def run_experiment(name: str, config: BenchConfig, out: Path | None) -> None:
    """Run one experiment and write its CSV after one '#' comment line; None means stdout."""
    experiment = EXPERIMENTS[name]
    rows = experiment.run(config)
    handle = sys.stdout if out is None else open(out, "w", newline="")
    try:
        handle.write(
            f"# {experiment.label}; aggregation: mean over {config.folds} folds; seed={config.seed}\n"
        )
        writer = csv.DictWriter(handle, fieldnames=experiment.columns)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out is not None:
            handle.close()
