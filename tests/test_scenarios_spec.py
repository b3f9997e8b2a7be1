"""Tests for scenario specs: round-trips, fingerprints, and the registry."""

import dataclasses
import json
import subprocess
import sys

import pytest

from repro.fl import ParticipationSpec
from repro.scenarios import (
    PopulationSpec,
    ScenarioRunner,
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    register_scenario,
    unregister_scenario,
)

FULLY_CUSTOM = ScenarioSpec(
    name="custom",
    description="everything non-default",
    setup="setup2",
    population=PopulationSpec(
        num_clients=123,
        cost_factor=0.5,
        value_factor=3.0,
        budget_factor=2.0,
        heterogeneity=1.5,
        q_max=0.8,
    ),
    participation=ParticipationSpec(kind="correlated", correlation=0.7),
    train=False,
    tags=("a", "b"),
)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            ScenarioSpec(name="plain"),
            FULLY_CUSTOM,
            ScenarioSpec(
                name="intermittent",
                participation=ParticipationSpec(
                    kind="intermittent", on_to_off=0.15, off_to_on=0.45
                ),
            ),
        ],
        ids=lambda spec: spec.name,
    )
    def test_spec_json_spec_is_lossless(self, spec):
        through_json = json.loads(json.dumps(spec.to_doc()))
        assert ScenarioSpec.from_doc(through_json) == spec

    def test_from_doc_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="not a scenario document"):
            ScenarioSpec.from_doc({"format": "outcome/v1"})

    def test_participation_spec_round_trip(self):
        spec = ParticipationSpec(kind="intermittent", on_to_off=0.2)
        assert ParticipationSpec.from_doc(spec.to_doc()) == spec

    def test_participation_doc_only_carries_relevant_fields(self):
        # Irrelevant knobs must not leak into cache-key documents.
        assert ParticipationSpec().to_doc() == {"kind": "bernoulli"}
        assert set(
            ParticipationSpec(kind="correlated").to_doc()
        ) == {"kind", "correlation"}

    def test_specs_are_hashable(self):
        assert len({ScenarioSpec(name="plain"), FULLY_CUSTOM}) == 2


class TestFingerprints:
    def test_fingerprint_changes_with_any_field(self):
        base = ScenarioSpec(name="x")
        assert base.fingerprint() != FULLY_CUSTOM.fingerprint()
        assert (
            base.fingerprint()
            != ScenarioSpec(
                name="x", population=PopulationSpec(cost_factor=2.0)
            ).fingerprint()
        )

    def test_population_fingerprint_ignores_labels_and_participation(self):
        a = ScenarioSpec(name="a", description="one")
        b = ScenarioSpec(
            name="b",
            description="two",
            participation=ParticipationSpec(kind="correlated"),
            tags=("t",),
        )
        assert a.population_fingerprint() == b.population_fingerprint()
        assert a.fingerprint() != b.fingerprint()

    def test_population_fingerprint_tracks_the_economy(self):
        a = ScenarioSpec(name="a")
        b = ScenarioSpec(
            name="a", population=PopulationSpec(budget_factor=0.5)
        )
        assert a.population_fingerprint() != b.population_fingerprint()

    def test_fingerprint_is_stable_across_processes(self):
        """The cache-key property: the same spec hashes identically in a
        fresh interpreter."""
        code = (
            "from repro.scenarios import ScenarioSpec, PopulationSpec\n"
            "from repro.fl import ParticipationSpec\n"
            "spec = ScenarioSpec(name='custom', description='everything "
            "non-default', setup='setup2', population=PopulationSpec("
            "num_clients=123, cost_factor=0.5, value_factor=3.0, "
            "budget_factor=2.0, heterogeneity=1.5, q_max=0.8), "
            "participation=ParticipationSpec(kind='correlated', "
            "correlation=0.7), train=False, tags=('a', 'b'))\n"
            "print(spec.fingerprint())\n"
            "print(spec.population_fingerprint())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        remote_full, remote_population = result.stdout.split()
        assert remote_full == FULLY_CUSTOM.fingerprint()
        assert remote_population == FULLY_CUSTOM.population_fingerprint()


#: One non-default value per PopulationSpec field, for the generated audit.
POPULATION_AUDIT_VALUES = {
    "num_clients": 12,
    "cost_factor": 2.0,
    "value_factor": 3.0,
    "budget_factor": 0.5,
    "heterogeneity": 1.5,
    "q_max": 0.8,
}

#: One non-default value per other ScenarioSpec field.
SCENARIO_AUDIT_VALUES = {
    "name": "renamed",
    "description": "another description",
    "setup": "setup2",
    "participation": ParticipationSpec(kind="correlated", correlation=0.7),
    "train": False,
    "streaming": True,
    "fast": True,
    "algorithm": "fedprox",
    "tags": ("audited",),
}

#: The three preparation paths ``ScenarioRunner.prepare`` takes.
AUDIT_BASES = {
    "game-only": ScenarioSpec(name="audit", train=False),
    "training": ScenarioSpec(name="audit"),
    "streaming": ScenarioSpec(name="audit", streaming=True),
}


def _economy_bytes(spec: ScenarioSpec) -> bytes:
    """Everything the runner memoizes for ``spec``, as bytes.

    A fresh runner per call: a shared one would hand back its memo.
    """
    prepared = ScenarioRunner(scale="ci", seed=0).prepare(spec)
    problem = prepared.problem
    population = problem.population
    parts = [
        getattr(population, name).tobytes()
        for name in ("weights", "gradient_bounds", "costs", "values", "q_max")
    ]
    parts += [
        float(x).hex().encode()
        for x in (problem.alpha, problem.budget, problem.beta, problem.f_star)
    ]
    parts.append(str(problem.num_rounds).encode())
    if problem.local_gaps is not None:
        parts.append(problem.local_gaps.tobytes())
    parts.append(repr(prepared.config).encode())
    if prepared.prepared is not None:
        parts.append(float(prepared.prepared.value_scale).hex().encode())
        parts.append(prepared.prepared.raw_values.tobytes())
        parts.append(prepared.prepared.federated.weights.tobytes())
    return b"|".join(parts)


def _audit_cases():
    """``(label, base path, changed spec)`` per audited field and path."""
    for path, base in AUDIT_BASES.items():
        for field in dataclasses.fields(PopulationSpec):
            population = dataclasses.replace(
                base.population,
                **{field.name: POPULATION_AUDIT_VALUES[field.name]},
            )
            yield (
                f"population.{field.name}",
                path,
                dataclasses.replace(base, population=population),
            )
        for field in dataclasses.fields(ScenarioSpec):
            if field.name == "population":
                continue
            value = SCENARIO_AUDIT_VALUES[field.name]
            try:
                changed = dataclasses.replace(base, **{field.name: value})
            except ValueError:
                continue  # not a valid spec on this path
            yield field.name, path, changed


class TestPopulationFingerprintAudit:
    """``ScenarioRunner`` memoizes preparation under
    ``population_fingerprint``: a field change that changes the prepared
    economy must change the key, or the memo serves a stale economy."""

    def test_every_field_has_an_audit_value(self):
        assert {
            field.name for field in dataclasses.fields(PopulationSpec)
        } == set(POPULATION_AUDIT_VALUES)
        assert {
            field.name for field in dataclasses.fields(ScenarioSpec)
        } - {"population"} == set(SCENARIO_AUDIT_VALUES)

    @pytest.mark.parametrize(
        "label, path, changed",
        list(_audit_cases()),
        ids=[f"{case[1]}-{case[0]}" for case in _audit_cases()],
    )
    def test_changed_economy_implies_changed_key(self, label, path, changed):
        base = AUDIT_BASES[path]
        if _economy_bytes(changed) != _economy_bytes(base):
            assert (
                changed.population_fingerprint()
                != base.population_fingerprint()
            ), f"{label} changes the {path} economy but not its key"

    def test_the_audit_is_not_vacuous(self):
        """Every population field moves the economy on the game-only path,
        so each key entry is load-bearing."""
        reference = _economy_bytes(AUDIT_BASES["game-only"])
        for label, path, changed in _audit_cases():
            if path == "game-only" and label.startswith("population."):
                assert _economy_bytes(changed) != reference, label


#: One non-default value per ParticipationSpec field, for the fingerprint
#: audit.
PARTICIPATION_AUDIT_VALUES = {
    "kind": "dropout",
    "correlation": 0.9,
    "on_to_off": 0.5,
    "off_to_on": 0.8,
    "dropout": 0.4,
}


def _fingerprint_cases():
    """``(label, base path, changed spec)``: every population audit case
    that changes its base spec, plus one per ``ParticipationSpec`` field
    on each path."""
    for label, path, changed in _audit_cases():
        if changed != AUDIT_BASES[path]:
            yield label, path, changed
    for path, base in AUDIT_BASES.items():
        for field in dataclasses.fields(ParticipationSpec):
            participation = dataclasses.replace(
                base.participation,
                **{field.name: PARTICIPATION_AUDIT_VALUES[field.name]},
            )
            yield (
                f"participation.{field.name}",
                path,
                dataclasses.replace(base, participation=participation),
            )


class TestScenarioFingerprintAudit:
    """``fingerprint()`` keys the API's scenario runs. It addresses the
    whole spec document, labels included (a run's cells carry the
    scenario's name), so a change to any field, nested ones included,
    must change it."""

    def test_every_participation_field_has_an_audit_value(self):
        assert {
            field.name for field in dataclasses.fields(ParticipationSpec)
        } == set(PARTICIPATION_AUDIT_VALUES)

    @pytest.mark.parametrize(
        "label, path, changed",
        list(_fingerprint_cases()),
        ids=[f"{case[1]}-{case[0]}" for case in _fingerprint_cases()],
    )
    def test_changed_field_changes_the_fingerprint(self, label, path, changed):
        assert changed.fingerprint() != AUDIT_BASES[path].fingerprint(), (
            f"{label} does not enter the {path} scenario fingerprint"
        )

    def test_every_field_is_audited_on_some_path(self):
        labels = {case[0] for case in _fingerprint_cases()}
        expected = (
            {f"population.{f.name}" for f in dataclasses.fields(PopulationSpec)}
            | {
                f"participation.{f.name}"
                for f in dataclasses.fields(ParticipationSpec)
            }
            | {
                f.name
                for f in dataclasses.fields(ScenarioSpec)
                if f.name not in ("population", "participation")
            }
        )
        assert labels >= expected


class TestValidation:
    def test_bad_setup_rejected(self):
        with pytest.raises(ValueError, match="unknown setup"):
            ScenarioSpec(name="x", setup="setup9")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ScenarioSpec(name="")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_clients": 0},
            {"cost_factor": 0.0},
            {"value_factor": -1.0},
            {"budget_factor": -2.0},
            {"heterogeneity": -0.1},
            {"q_max": 1.5},
        ],
    )
    def test_bad_population_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PopulationSpec(**kwargs)

    def test_bad_participation_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown participation kind"):
            ParticipationSpec(kind="psychic")


class TestRegistry:
    def test_builtin_suite_is_complete(self):
        names = [spec.name for spec in list_scenarios()]
        assert len(names) >= 6
        assert names == sorted(names)
        assert "paper-default" in names
        assert "megafleet" in names
        kinds = {spec.participation.kind for spec in list_scenarios()}
        assert {"bernoulli", "correlated", "intermittent"} <= kinds

    def test_paper_default_is_flagged(self):
        assert get_scenario("paper-default").is_paper_default
        assert not get_scenario("megafleet").is_paper_default
        assert not get_scenario("flash-crowd").is_paper_default

    def test_duplicate_registration_rejected(self):
        spec = ScenarioSpec(name="dup-test")
        register_scenario(spec)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scenario(spec)
            register_scenario(
                ScenarioSpec(name="dup-test", description="v2"), replace=True
            )
            assert get_scenario("dup-test").description == "v2"
        finally:
            unregister_scenario("dup-test")
        with pytest.raises(KeyError):
            get_scenario("dup-test")
