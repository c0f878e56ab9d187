import csv
import io
from dataclasses import replace

import click
import pytest
from click.testing import CliRunner

from phrchain.bench import EXPERIMENTS, BenchConfig
from phrchain.cli import bench, main

# Table row name -> the `phrchain bench` command that runs that row alone.
COMMANDS = {"block_creation": "block-creation", "consensus": "consensus", "researcher_access": "researcher"}


@pytest.fixture()
def runner():
    return CliRunner()


def parse_csv(output: str):
    lines = output.strip().splitlines()
    assert lines[0].startswith("# ")
    return lines[0], list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


class TestBenchCommands:
    def test_block_creation_schema_and_linearity(self, runner):
        result = runner.invoke(
            main,
            ["bench", "block-creation", "--patients", "4,8", "--hospitals", "4", "--folds", "1"],
        )
        assert result.exit_code == 0, result.output
        comment, rows = parse_csv(result.output)
        assert "mean over 1 folds" in comment
        assert set(rows[0]) == {"patients", "hospitals", "creation_seconds", "transcript_bytes"}
        assert len(rows) == 2
        small = int(rows[0]["transcript_bytes"])
        large = int(rows[1]["transcript_bytes"])
        assert large - small == 4 * 96  # four extra ring branches

    def test_consensus_simulated_column_reproducible(self, runner):
        args = ["bench", "consensus", "--miners", "20,40", "--malicious", "10,40", "--folds", "2", "--seed", "5"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0, first.output
        _, rows_a = parse_csv(first.output)
        _, rows_b = parse_csv(second.output)
        assert [r["simulated_seconds"] for r in rows_a] == [r["simulated_seconds"] for r in rows_b]
        assert len(rows_a) == 4

    def test_researcher_phases(self, runner, tmp_path):
        out = tmp_path / "researcher.csv"
        result = runner.invoke(
            main,
            ["bench", "researcher", "--miners", "16", "--malicious", "10,50", "--folds", "1", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        comment, rows = parse_csv(out.read_text())
        phases = {r["phase"] for r in rows}
        assert phases == {"request_create", "request_verify", "approval_create", "approval_verify"}
        assert len(rows) == 8

    def test_rejects_fraction_above_half(self, runner):
        result = runner.invoke(main, ["bench", "consensus", "--malicious", "60"])
        assert result.exit_code == 2
        assert "malicious fraction 0.6 is outside [0, 0.5]" in result.output

    def test_rejects_negative_verify_seconds(self, runner):
        args = ["bench", "consensus", "--verify-seconds", "-1", "--miners", "4", "--malicious", "0", "--folds", "1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "timing constants must be nonnegative" in result.output

    def test_rejects_infinite_verify_jitter(self, runner):
        args = ["bench", "consensus", "--verify-jitter", "inf", "--miners", "4", "--malicious", "0", "--folds", "1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "timing constants must be nonnegative and finite" in result.output

    def test_exits_nonzero_on_internal_verification_failure(self, runner, monkeypatch):
        monkeypatch.setattr("phrchain.bench.verify_block", lambda *a, **k: False)
        result = runner.invoke(
            main, ["bench", "block-creation", "--patients", "4", "--hospitals", "4", "--folds", "1"]
        )
        assert result.exit_code == 1
        assert "verification failure" in result.output


class TestExperimentTable:
    def test_all_matches_the_single_commands(self, runner, tmp_path, monkeypatch):
        tiny = {
            "block_creation": (BenchConfig(patients=(4,), hospitals=(4, 6)),
                               ["--patients", "4", "--hospitals", "4,6"]),
            "consensus": (BenchConfig(miners=(8, 12), malicious=(0.1, 0.4)),
                          ["--miners", "8,12", "--malicious", "10,40"]),
            "researcher_access": (BenchConfig(miners=(8,), malicious=(0.0, 0.5), timing_reps=1),
                                  ["--miners", "8", "--malicious", "0,50", "--timing-reps", "1"]),
        }
        for name, (defaults, _) in tiny.items():
            monkeypatch.setitem(EXPERIMENTS, name, replace(EXPERIMENTS[name], defaults=defaults))
        out_dir = tmp_path / "results"
        result = runner.invoke(main, ["bench", "all", "--out-dir", str(out_dir), "--folds", "1", "--seed", "5"])
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in out_dir.iterdir()) == [f"{name}.csv" for name in sorted(tiny)]

        for name, (_, args) in tiny.items():
            single = runner.invoke(main, ["bench", COMMANDS[name], *args, "--folds", "1", "--seed", "5"])
            assert single.exit_code == 0, single.output
            written = (out_dir / f"{name}.csv").read_bytes()
            assert written.splitlines()[:2] == single.stdout_bytes.splitlines()[:2]
            if name == "consensus":
                assert written == single.stdout_bytes

    def test_option_defaults_are_the_table_defaults(self):
        for name, command_name in COMMANDS.items():
            command = bench.commands[command_name]
            ctx = click.Context(command)
            for param in command.params:
                if param.name == "out":
                    continue
                assert param.show_default
                value = param.process_value(ctx, param.get_default(ctx))
                assert value == getattr(EXPERIMENTS[name].defaults, param.name), (command_name, param.name)


class TestDemoAndInspect:
    def test_round_trip_and_inspect(self, runner, tmp_path):
        chain_path = tmp_path / "demo.chain"
        store_path = tmp_path / "demo.store"
        result = runner.invoke(
            main,
            [
                "demo", "round-trip",
                "--patients", "4", "--hospitals", "4", "--blocks", "3",
                "--miners", "8", "--malicious", "25", "--seed", "3",
                "--save-chain", str(chain_path), "--save-store", str(store_path),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "researcher verified" in result.output
        assert chain_path.exists() and store_path.exists()

        inspect = runner.invoke(main, ["chain", "inspect", str(chain_path)])
        assert inspect.exit_code == 0, inspect.output
        assert "chain: 5 blocks" in inspect.output
        assert inspect.output.count("patient-record") == 3
        assert inspect.output.count("access-request") == 1
        assert inspect.output.count("access-approval") == 1

    def test_demo_narrows_range(self, runner):
        result = runner.invoke(
            main,
            ["demo", "round-trip", "--patients", "3", "--hospitals", "3", "--blocks", "5",
             "--miners", "4", "--malicious", "0", "--seed", "1"],
        )
        assert result.exit_code == 0, result.output
        assert "grants visits [3, 5]" in result.output

    def test_demo_registry_listing(self, runner):
        result = runner.invoke(
            main,
            ["demo", "round-trip", "--patients", "2", "--hospitals", "2", "--blocks", "1",
             "--miners", "2", "--malicious", "0", "--show-registries"],
        )
        assert result.exit_code == 0, result.output
        assert "patient registry: 2 keys" in result.output
        assert "researcher registry: 1 keys" in result.output

    @pytest.mark.parametrize(
        ("option", "value"),
        [("--patients", "0"), ("--hospitals", "0"), ("--blocks", "0"), ("--miners", "0"),
         ("--malicious", "-1"), ("--malicious", "150")],
    )
    def test_demo_rejects_out_of_range_options_as_usage_errors(self, runner, option, value):
        result = runner.invoke(main, ["demo", "round-trip", option, value])
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{option}'" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
