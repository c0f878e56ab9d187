"""Command-line harness: benchmarks, an end-to-end demo, and chain inspection."""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from pathlib import Path

import click

from .access import (
    build_disclosure_package,
    create_approval_block,
    create_request_block,
    pending_requests,
    scan_blocks,
    verify_disclosure,
)
from .bench import EXPERIMENTS, BenchConfig, BenchError, run_experiment
from .consensus import MinerPool, run_consensus
from .crypto import keygen
from .group import GroupParams
from .ledger import (
    ApprovalBlock,
    Chain,
    HospitalContext,
    OffChainStore,
    PatientBlock,
    PatientContext,
    PatientSecrets,
    RequestBlock,
    TimeRange,
    create_patient_block,
)
from .registry import ConditionCodebook, new_directories


def _grid_option(name: str, row: str, percent: bool = False, **kwargs):
    """A comma-separated grid of integers, or of percentages, defaulting to the table row's grid."""
    kind = "percentages" if percent else "integers"

    def parse(_ctx, _param, text: str) -> tuple:
        try:
            return tuple(int(part) / 100 if percent else int(part) for part in text.split(","))
        except ValueError as exc:
            raise click.BadParameter(f"expected comma-separated {kind}") from exc

    values = getattr(EXPERIMENTS[row].defaults, name.removeprefix("--"))
    default = ",".join(str(round(v * 100)) if percent else str(v) for v in values)
    return click.option(name, callback=parse, default=default, show_default=True, **kwargs)


_DEFAULTS = BenchConfig()  # run and timing defaults, shared by every table row
_out_option = click.option(
    "--out", type=click.Path(dir_okay=False, path_type=Path), default=None,
    help="CSV output path (default: stdout).",
)
_folds_option = click.option("--folds", type=int, default=_DEFAULTS.folds, show_default=True)
_seed_option = click.option("--seed", type=int, default=_DEFAULTS.seed, show_default=True)
_timing_options = [
    click.option("--verify-seconds", type=float, default=_DEFAULTS.verify_seconds, show_default=True,
                 help="Virtual per-miner verification cost."),
    click.option("--verify-jitter", type=float, default=_DEFAULTS.verify_jitter, show_default=True,
                 help="Uniform per-miner jitter added to the verification cost."),
    click.option("--pair-seconds", type=float, default=_DEFAULTS.pair_seconds, show_default=True,
                 help="Virtual propagation cost per ordered miner pair."),
]


def _apply(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn

    return wrap


@click.group()
def main() -> None:
    """Permissioned health-record ledger sandbox."""


@main.group()
def bench() -> None:
    """Scaling benchmarks; output is CSV."""


@bench.command("block-creation")
@_grid_option("--patients", "block_creation")
@_grid_option("--hospitals", "block_creation")
@_folds_option
@_seed_option
@_out_option
def bench_block_creation_cmd(out, **options) -> None:
    """Block creation time and proof transcript size vs registry sizes."""
    _run_experiment("block_creation", options, out)


@bench.command("consensus")
@_grid_option("--miners", "consensus")
@_grid_option("--malicious", "consensus", percent=True, help="Malicious miner percentages.")
@_folds_option
@_seed_option
@_apply(_timing_options)
@_out_option
def bench_consensus_cmd(out, **options) -> None:
    """Simulated consensus time vs pool size and malicious fraction."""
    _run_experiment("consensus", options, out)


@bench.command("researcher")
@_grid_option("--miners", "researcher_access", help="Pool size; the largest value is used.")
@_grid_option("--malicious", "researcher_access", percent=True)
@click.option("--timing-reps", type=int, default=EXPERIMENTS["researcher_access"].defaults.timing_reps, show_default=True,
              help="Inner repetitions per timed phase.")
@_folds_option
@_seed_option
@_apply(_timing_options)
@_out_option
def bench_researcher_cmd(out, **options) -> None:
    """Researcher request/approval phase timings vs malicious fraction."""
    _run_experiment("researcher_access", options, out)


@bench.command("all")
@click.option("--out-dir", type=click.Path(file_okay=False, path_type=Path), default=Path("results"),
              show_default=True)
@_folds_option
@_seed_option
def bench_all_cmd(out_dir, folds, seed) -> None:
    """Every experiment at its default grid, one CSV per experiment in OUT_DIR."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in EXPERIMENTS:
        out = out_dir / f"{name}.csv"
        _run_experiment(name, {"folds": folds, "seed": seed}, out)
        click.echo(f"wrote {out}")


def _run_experiment(name: str, options: dict, out: Path | None) -> None:
    """Overlay the command-line options on the row's defaults and run it."""
    try:
        config = replace(EXPERIMENTS[name].defaults, **options)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    try:
        run_experiment(name, config, out)
    except BenchError as exc:
        click.echo(f"benchmark verification failure: {exc}", err=True)
        sys.exit(1)


@main.group()
def demo() -> None:
    """End-to-end walkthroughs."""


@demo.command("round-trip")
@click.option("--patients", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--hospitals", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--blocks", type=click.IntRange(min=1), default=5, show_default=True, help="Visits for the demo patient.")
@click.option("--miners", type=click.IntRange(min=1), default=None,
              help="Pool size; defaults to the hospital count (every hospital mines).")
@click.option("--malicious", type=click.IntRange(0, 100), default=25, show_default=True,
              help="Malicious miner percentage.")
@_seed_option
@click.option("--save-chain", type=click.Path(dir_okay=False, path_type=Path), default=None)
@click.option("--save-store", type=click.Path(dir_okay=False, path_type=Path), default=None)
@click.option("--show-registries", is_flag=True, help="Print the enrollment listings.")
def demo_round_trip(
    patients, hospitals, blocks, miners, malicious, seed, save_chain, save_store, show_registries
) -> None:
    """Submit blocks, request access, approve, disclose, verify."""
    rng = random.Random(seed)
    group = GroupParams.default()
    directories = new_directories(group)
    codebook = ConditionCodebook.default()
    if miners is None:
        miners = hospitals

    patient_kps = [keygen(group, rng) for _ in range(patients)]
    hospital_kps = [keygen(group, rng) for _ in range(hospitals)]
    researcher_kp = keygen(group, rng)
    for kp in patient_kps:
        directories.patients.enroll(kp.public)
    for kp in hospital_kps:
        directories.hospitals.enroll(kp.public)
    directories.researchers.enroll(researcher_kp.public)
    click.echo(f"enrolled {patients} patients, {hospitals} hospitals, 1 researcher")
    if show_registries:
        for registry in (directories.patients, directories.hospitals, directories.researchers):
            click.echo(registry.describe())

    pool = MinerPool(n_miners=miners, malicious_fraction=malicious / 100)
    chain = Chain(group)
    store = OffChainStore()
    bits = codebook.encode([codebook.lifetime_codes[3]], [codebook.visit_codes[7]])

    patient = PatientContext(identity=patient_kps[0], index=0, secrets=PatientSecrets())
    hospital = HospitalContext(identity=hospital_kps[0], index=0)
    for visit in range(1, blocks + 1):
        data = f"visit {visit} record for the demo patient".encode()
        block, secrets = create_patient_block(
            patient, hospital, data, bits, directories, store, visit_time=visit, rng=rng
        )
        result = run_consensus(block, pool, directories, seed=seed + visit)
        _require(result.approved, f"visit {visit} block rejected by consensus")
        chain.append(block, result)
        patient = PatientContext(identity=patient.identity, index=patient.index, secrets=secrets)
        click.echo(
            f"visit {visit}: block {block.block_id.hex()[:12]} approved "
            f"{result.approvals}/{pool.n_miners}, simulated {result.simulated_time:.4f}s"
        )

    mask = codebook.encode([codebook.lifetime_codes[3]], [])
    matches = scan_blocks(chain, mask)
    click.echo(f"researcher scan matched {len(matches)} blocks")
    _require(bool(matches), "scan found no blocks to fork")

    parent = chain.get(matches[0])
    window = TimeRange(1, blocks)
    request = create_request_block(group, researcher_kp, parent, window, rng)
    result = run_consensus(request, pool, directories, seed=seed + 101, chain=chain)
    _require(result.approved, "request block rejected")
    chain.append(request, result)
    click.echo(f"request {request.block_id.hex()[:12]} approved for visits [{window.start}, {window.end}]")

    pending = pending_requests(chain, patient.secrets)
    _require(len(pending) == 1, "patient did not find the pending request")
    granted = TimeRange(max(1, blocks - 2), blocks)  # narrow to the most recent visits
    approval = create_approval_block(group, patient.secrets, pending[0], granted, rng)
    result = run_consensus(approval, pool, directories, seed=seed + 102, chain=chain)
    _require(result.approved, "approval block rejected")
    chain.append(approval, result)
    click.echo(f"approval {approval.block_id.hex()[:12]} grants visits [{granted.start}, {granted.end}]")

    granted_records = patient.secrets.in_window(granted)
    package = build_disclosure_package(patient.secrets, [r.block_id for r in granted_records])
    click.echo(package.describe())

    report = verify_disclosure(package, chain, store)
    _require(report.chain_ok, "disclosure chain verification failed")
    _require(all(report.data_ok), "disclosure data verification failed")
    click.echo(f"researcher verified {package.k} blocks: chain ok, data ok")

    if save_chain is not None:
        chain.save(save_chain)
        click.echo(f"chain saved to {save_chain}")
    if save_store is not None:
        store.save(save_store)
        click.echo(f"store saved to {save_store}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        click.echo(f"demo failure: {message}", err=True)
        sys.exit(1)


@main.group("chain")
def chain_group() -> None:
    """Operations on persisted chain files."""


@chain_group.command("inspect")
@click.argument("path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
def chain_inspect(path: Path) -> None:
    """Print a human-readable summary of a saved chain."""
    chain = Chain.load(path)
    click.echo(f"chain: {len(chain)} blocks, group {chain.group.group_id}")
    for height, entry in enumerate(chain.entries()):
        block, record = entry.block, entry.record
        prefix = (
            f"[{height:4d}] {block.block_id.hex()[:16]} "
            f"approvals {record.approvals}/{record.approvals + record.rejections} "
            f"simulated {record.simulated_time:.4f}s"
        )
        if isinstance(block, PatientBlock):
            click.echo(
                f"{prefix} patient-record bits={block.condition_bits.hex()} "
                f"commitment={block.commitment.hex()[:16]}"
            )
        elif isinstance(block, RequestBlock):
            click.echo(
                f"{prefix} access-request parent={block.parent_ptr.hex()[:16]} "
                f"range=[{block.requested_range.start}, {block.requested_range.end}]"
            )
        elif isinstance(block, ApprovalBlock):
            click.echo(
                f"{prefix} access-approval parent={block.parent_ptr.hex()[:16]} "
                f"range=[{block.granted_range.start}, {block.granted_range.end}]"
            )


if __name__ == "__main__":
    main()
