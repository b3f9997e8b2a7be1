"""Tests for the ``python -m repro.experiments`` CLI."""

import json

import pytest

from repro.experiments.cli import main
from repro.fl import CheckpointConfig


@pytest.fixture(autouse=True)
def _ci_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "ci")


class TestEquilibriumCommand:
    def test_prints_summary(self, capsys):
        code = main(["--setup", "setup1", "equilibrium"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lambda_star" in out
        assert "Per-client equilibrium" in out

    def test_writes_artifact(self, tmp_path, capsys):
        code = main(
            ["--setup", "setup1", "--out", str(tmp_path), "equilibrium"]
        )
        assert code == 0
        payload = json.loads(
            (tmp_path / "equilibrium_setup1.json").read_text()
        )
        from repro.schemas import check_envelope

        check_envelope(payload, "equilibrium-response")
        assert payload["population_fingerprint"]
        assert payload["trace"] is None  # file artifacts are deterministic
        result = payload["result"]
        assert "summary" in result
        equilibrium = result["equilibrium"]
        assert len(equilibrium["q"]) == len(equilibrium["prices"])


class TestTableCommand:
    def test_table5_fast_path(self, capsys, tmp_path):
        code = main(
            ["--out", str(tmp_path), "table", "--id", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Negative-payment clients" in out
        payload = json.loads((tmp_path / "table5.json").read_text())
        assert payload["schema_version"] == "table-rows/v1"
        assert payload["population_fingerprint"]
        rows = payload["result"]["rows"]
        assert len(rows) == 3

    def test_table2_with_training(self, capsys):
        code = main(["table", "--id", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "target loss" in out
        assert "savings" in out

    def test_table4(self, capsys):
        code = main(["table", "--id", "4"])
        assert code == 0
        assert "client-utility gain" in capsys.readouterr().out


class TestFigCommand:
    def test_fig4(self, capsys, tmp_path):
        code = main(
            ["--out", str(tmp_path), "fig", "--id", "4", "--repeats", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final loss" in out
        assert (tmp_path / "fig4_setup1_summary.json").exists()

    def test_fig7_budget_sweep(self, capsys, tmp_path):
        code = main(
            ["--out", str(tmp_path), "fig", "--id", "7", "--repeats", "1"]
        )
        assert code == 0
        assert "Fig. 7 sweep" in capsys.readouterr().out
        assert (tmp_path / "fig7_setup1.csv").exists()


class TestArgumentValidation:
    def test_unknown_setup_rejected(self):
        with pytest.raises(SystemExit):
            main(["--setup", "setup9", "equilibrium"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_table_id_rejected(self):
        with pytest.raises(SystemExit):
            main(["table", "--id", "1"])


class TestBackendFlags:
    def test_backend_flag_parses_on_either_side_of_verb(self):
        from repro.experiments.cli import _build_parser

        parser = _build_parser()
        args = parser.parse_args(["--backend", "loop", "fig", "--id", "4"])
        assert args.backend == "loop"
        args = parser.parse_args(["fig", "--id", "4", "--backend", "loop"])
        assert args.backend == "loop"
        args = parser.parse_args(["equilibrium"])
        assert args.backend == "vectorized"

    def test_bench_targets_parse(self):
        from repro.experiments.cli import _build_parser

        parser = _build_parser()
        assert parser.parse_args(["bench"]).target == "orchestrator"
        assert parser.parse_args(["bench", "trainer"]).target == "trainer"

    def test_bench_orchestrators_get_the_execution_flags(
        self, monkeypatch, capsys
    ):
        """``bench`` times the training the flags ask for: its serial,
        cold and warm orchestrators all carry the flags' spec and
        algorithm."""
        from repro.experiments import cli
        from repro.fl import ExecutionSpec

        built = []

        class Recording(cli.ExperimentOrchestrator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(cli, "ExperimentOrchestrator", Recording)
        code = main(
            ["--jobs", "2", "--chunk-size", "4", "--precision", "float32",
             "--fast", "--algorithm", "fedprox:mu=0.5", "bench",
             "--repeats", "1"]
        )
        assert code == 0
        assert "(bit-identical): True" in capsys.readouterr().out
        assert [orchestrator.jobs for orchestrator in built] == [1, 2, 2]
        for orchestrator in built:
            assert orchestrator.execution == ExecutionSpec(
                chunk_size=4, precision="float32", fast=True
            )
            assert orchestrator.algorithm.canonical() == "fedprox:mu=0.5"

    def test_bench_trainer_smoke(self, tmp_path, capsys):
        code = main(
            ["--scale", "ci", "--out", str(tmp_path), "bench", "trainer"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bit-identical histories): True" in out
        payload = json.loads((tmp_path / "bench_trainer.json").read_text())
        assert payload["identical"] is True
        assert payload["scale"] == "ci"
        assert set(payload) >= {
            "loop_s", "vectorized_s", "speedup", "mean_participants"
        }


class TestBrokenPipeHandling:
    """The PR-1 quiet-exit contract, extended to the scenario verbs: a verb
    whose stdout consumer disappears (``scenarios list --json | head``)
    must exit quietly — no traceback on stderr, conventional code 1."""

    @staticmethod
    def _run_with_closed_stdout(*argv):
        import os
        import subprocess
        import sys

        env = dict(os.environ, REPRO_SCALE="ci")
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        # Close the read end before the CLI writes: every flush from then
        # on raises EPIPE inside the verb handler.
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        code = proc.wait()
        return code, stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("scenarios", "list"),
            ("scenarios", "list", "--json"),
        ],
    )
    def test_scenarios_list_exits_quietly(self, argv):
        code, stderr = self._run_with_closed_stdout(*argv)
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr
        # 1 when the pipe loss was seen (the overwhelmingly common race
        # outcome), 0 only if the whole write beat the close.
        assert code in (0, 1)

    def test_scenarios_run_exits_quietly(self):
        code, stderr = self._run_with_closed_stdout(
            "scenarios", "run", "--name", "megafleet"
        )
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr
        assert code in (0, 1)

    def test_programmatic_main_survives_pipe_loss(self, capsys, monkeypatch):
        """main() callers (tests, scripts) get the code-1 contract too."""
        import repro.experiments.cli as cli

        def broken(*args, **kwargs):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_cmd_scenarios", broken)
        assert cli.main(["scenarios", "list"]) == 1


class TestFaultToleranceFlags:
    def test_flags_parse_on_either_side_of_verb(self, tmp_path):
        from repro.experiments.cli import _build_parser

        parser = _build_parser()
        args = parser.parse_args(
            ["--checkpoint-dir", str(tmp_path), "--checkpoint-every", "5",
             "--resume", "fig", "--id", "4"]
        )
        assert str(args.checkpoint_dir) == str(tmp_path)
        assert args.checkpoint_every == 5
        assert args.resume
        args = parser.parse_args(
            ["table", "--id", "2", "--job-timeout", "30", "--max-retries",
             "4"]
        )
        assert args.job_timeout == 30.0
        assert args.max_retries == 4

    def test_defaults_build_no_orchestrator(self):
        from repro.experiments.cli import _orchestrator, _parse_args

        args = _parse_args(["equilibrium"])
        assert _orchestrator(args) is None

    def test_checkpoint_dir_builds_checkpointing_orchestrator(
        self, tmp_path
    ):
        from repro.experiments.cli import _orchestrator, _parse_args

        args = _parse_args(
            ["--checkpoint-dir", str(tmp_path), "--checkpoint-every", "3",
             "--resume", "--job-timeout", "60", "--max-retries", "5",
             "equilibrium"]
        )
        orchestrator = _orchestrator(args)
        assert orchestrator is not None
        assert orchestrator.checkpoint == CheckpointConfig(
            tmp_path, every=3, resume=True
        )
        assert orchestrator.job_timeout == 60.0
        assert orchestrator.max_retries == 5

    @pytest.mark.parametrize(
        "argv",
        [
            ["--resume", "equilibrium"],
            ["--checkpoint-dir", "/tmp/x", "--checkpoint-every", "0",
             "equilibrium"],
            ["--job-timeout", "0", "equilibrium"],
            ["--max-retries", "-1", "equilibrium"],
        ],
        ids=["resume-without-dir", "bad-every", "bad-timeout",
             "bad-retries"],
    )
    def test_invalid_fault_flags_rejected(self, argv):
        with pytest.raises(SystemExit):
            main(argv)

    def test_fig4_with_checkpointing_writes_checkpoints(
        self, tmp_path, capsys
    ):
        code = main(
            ["--setup", "setup1", "--out", str(tmp_path / "out"),
             "--checkpoint-dir", str(tmp_path / "ckpt"),
             "--checkpoint-every", "7", "fig", "--id", "4"]
        )
        assert code == 0
        assert list((tmp_path / "ckpt").glob("*/round-*.json"))
