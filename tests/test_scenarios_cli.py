"""Tests for the ``scenarios`` CLI verb."""

import dataclasses
import json
import math

import pytest

from repro.experiments.cli import main


@pytest.fixture(autouse=True)
def _ci_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "ci")


class TestList:
    def test_table_lists_every_registered_scenario(self, capsys):
        from repro.scenarios import list_scenarios

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for spec in list_scenarios():
            assert spec.name in out

    def test_json_drives_the_ci_matrix(self, capsys):
        from repro.schemas import check_envelope

        assert main(["scenarios", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        check_envelope(payload, "scenario-list")
        result = payload["result"]
        assert len(result["scenarios"]) >= 6
        assert "paper-default" in result["scenarios"]
        assert "proposed" in result["mechanisms"]
        # The embedded specs round-trip, so consumers can rebuild them.
        from repro.scenarios import ScenarioSpec

        rebuilt = [ScenarioSpec.from_doc(doc) for doc in result["specs"]]
        assert [spec.name for spec in rebuilt] == result["scenarios"]


class TestRun:
    def test_run_one_scenario_writes_artifacts(self, capsys, tmp_path):
        code = main(
            [
                "--out",
                str(tmp_path),
                "scenarios",
                "run",
                "--name",
                "paper-default",
                "--mechanisms",
                "proposed,random",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Scenario: paper-default" in out
        assert "estimator_bias" in out
        payload = json.loads(
            (tmp_path / "scenario_paper-default.json").read_text()
        )
        from repro.schemas import check_envelope

        check_envelope(payload, "scenario-run")
        cells = payload["result"]["cells"]
        assert {cell["mechanism"] for cell in cells} == {
            "proposed",
            "random",
        }
        assert (tmp_path / "scenario_paper-default.csv").exists()

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["scenarios", "run", "--name", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_requires_name_or_all(self, capsys):
        assert main(["scenarios", "run"]) == 2
        assert "--name SCENARIO" in capsys.readouterr().err

    def test_json_is_list_only(self, capsys):
        assert main(["scenarios", "run", "--all", "--json"]) == 2
        assert "--json only applies" in capsys.readouterr().err

    def test_unknown_mechanism_fails_cleanly(self, capsys):
        assert (
            main(
                [
                    "scenarios",
                    "run",
                    "--name",
                    "paper-default",
                    "--mechanisms",
                    "bribe",
                ]
            )
            == 2
        )
        assert "unknown mechanism" in capsys.readouterr().err

    def test_a_non_finite_metric_fails_the_run(self, capsys, monkeypatch):
        """The gate the CI scenario matrix relies on: exit 1, and name
        the offending scenario/mechanism/metric."""
        from repro import api

        run_scenario = api.run_scenario

        def poisoned(*args, **kwargs):
            response = run_scenario(*args, **kwargs)
            first = response.cells[0]
            metrics = dict(first.metrics, estimator_bias=math.nan)
            cells = [dataclasses.replace(first, metrics=metrics)]
            return dataclasses.replace(
                response, cells=cells + response.cells[1:]
            )

        monkeypatch.setattr(api, "run_scenario", poisoned)
        code = main(
            [
                "scenarios",
                "run",
                "--name",
                "paper-default",
                "--mechanisms",
                "proposed,random",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "non-finite metrics in" in err
        assert "paper-default/proposed/estimator_bias" in err


class TestCompare:
    def test_compare_renders_matrix_and_exports(self, capsys, tmp_path):
        code = main(
            [
                "--out",
                str(tmp_path),
                "scenarios",
                "compare",
                "--name",
                "paper-default",
                "--name",
                "budget-crunch",
                "--mechanisms",
                "proposed,fixed-subset",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "paper-default" in out
        assert "budget-crunch" in out
        payload = json.loads(
            (tmp_path / "scenario_comparison.json").read_text()
        )
        assert len(payload["result"]["cells"]) == 4
        # Artifacts round-trip through the versioned codec.
        from repro.schemas import scenario_cells_from_doc

        rebuilt = scenario_cells_from_doc(payload)
        assert [(cell.scenario, cell.mechanism) for cell in rebuilt] == [
            ("paper-default", "proposed"),
            ("paper-default", "fixed-subset"),
            ("budget-crunch", "proposed"),
            ("budget-crunch", "fixed-subset"),
        ]
