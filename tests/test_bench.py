import pytest

from phrchain.bench import (
    BenchConfig,
    BenchError,
    bench_block_creation,
    bench_consensus,
    bench_researcher_access,
)


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(folds=0)
    with pytest.raises(ValueError):
        BenchConfig(malicious=(0.6,))
    with pytest.raises(ValueError):
        BenchConfig(miners=(0,))
    with pytest.raises(ValueError):
        BenchConfig(patients=(4, 0))
    with pytest.raises(ValueError):
        BenchConfig(hospitals=(-1,))
    with pytest.raises(ValueError):
        BenchConfig(timing_reps=0)
    with pytest.raises(ValueError):
        BenchConfig(pair_seconds=-1.0)


class TestBlockCreationBench:
    def test_transcript_size_affine_in_registry_sizes(self):
        config = BenchConfig(patients=(8, 16, 32), hospitals=(8,), folds=1, seed=1)
        rows = bench_block_creation(config)
        sizes = {int(r["patients"]): int(r["transcript_bytes"]) for r in rows}
        per_key = (sizes[16] - sizes[8]) / 8
        assert sizes[32] == sizes[16] + per_key * 16  # exact affine fit on the third point

    def test_doubling_both_registries_doubles_transcript(self):
        config = BenchConfig(patients=(64, 128), hospitals=(64, 128), folds=1, seed=2)
        rows = bench_block_creation(config)
        by_point = {(int(r["patients"]), int(r["hospitals"])): int(r["transcript_bytes"]) for r in rows}
        ratio = by_point[(128, 128)] / by_point[(64, 64)]
        assert abs(ratio - 2.0) < 0.05 * 2.0

    def test_creation_time_nondecreasing_in_total_size(self):
        config = BenchConfig(patients=(200, 400, 800), hospitals=(200,), folds=2, seed=3)
        rows = bench_block_creation(config)
        times = [float(r["creation_seconds"]) for r in rows]
        assert times == sorted(times)


class TestConsensusBench:
    def test_quadrupling_miners_scales_sixteenfold(self):
        # Propagation-only clock isolates the pairwise-message term.
        config = BenchConfig(
            miners=(100, 400), malicious=(0.1,), folds=1, seed=4, verify_seconds=0.0
        )
        rows = bench_consensus(config)
        times = {int(r["miners"]): float(r["simulated_seconds"]) for r in rows}
        assert times[400] / times[100] == pytest.approx(16.0, rel=0.05)

    def test_malicious_fraction_barely_moves_simulated_time(self):
        config = BenchConfig(miners=(200,), malicious=(0.1, 0.2, 0.3, 0.4), folds=2, seed=5)
        rows = bench_consensus(config)
        times = [float(r["simulated_seconds"]) for r in rows]
        assert max(times) <= min(times) * 1.2

    def test_rejection_raises_bench_error(self, monkeypatch):
        import phrchain.bench as bench_module

        monkeypatch.setattr(bench_module, "run_consensus", _rejecting_consensus)
        with pytest.raises(BenchError):
            bench_consensus(BenchConfig(miners=(4,), malicious=(0.1,), folds=1))


def _rejecting_consensus(block, pool, directories, seed, chain=None):
    from phrchain.consensus import ConsensusResult

    return ConsensusResult(False, 0, pool.n_miners, 0.0, b"")


class TestResearcherBench:
    def test_creation_phases_independent_of_pool(self):
        config = BenchConfig(
            miners=(64,), malicious=(0.0, 0.1), folds=4, seed=6, timing_reps=16
        )
        rows = bench_researcher_access(config)
        creation = {
            (r["malicious_pct"], r["phase"]): float(r["seconds"])
            for r in rows
            if r["phase"].endswith("_create")
        }
        assert all(v < 0.01 for v in creation.values())
        for phase in ("request_create", "approval_create"):
            a, b = creation[(0, phase)], creation[(10, phase)]
            assert max(a, b) < 5 * min(a, b)  # equal up to scheduler noise

    def test_phase_rows_cover_grid(self):
        config = BenchConfig(miners=(16,), malicious=(0.1, 0.3), folds=1, seed=7)
        rows = bench_researcher_access(config)
        assert len(rows) == 8
        assert {r["malicious_pct"] for r in rows} == {10, 30}
