"""Tests for the pluggable algorithm layer (:mod:`repro.algorithms`).

The PR-10 contract: every local-update rule (FedProx, FedDyn, server
momentum, and their beta compositions) trains **bit-identically** across
the loop, vectorized, and chunked engines and across eager/streaming
storage; stateful rules round-trip their state through checkpoints (a
kill-and-resume run equals an uninterrupted one, including a real
``SIGKILL``); and the algorithm — unlike the performance knobs — forks
orchestrator cache keys, scenario fingerprints, and checkpoint
compatibility at non-default values while the FedAvg default stays
byte-for-byte on every pre-existing key.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import (
    ALGORITHM_KINDS,
    DEFAULT_ALGORITHM,
    AlgorithmSpec,
    build_algorithm,
    coerce_algorithm,
    parse_algorithm,
)
from repro.datasets import streaming_synthetic_federated
from repro.fl import BernoulliParticipation, CheckpointConfig, FederatedTrainer
from repro.models import MultinomialLogisticRegression
from repro.utils.rng import RngFactory

NUM_ROUNDS = 8

#: The non-default rules the whole matrix runs over (beta composition
#: included — FedProx locally plus momentum on the server).
VARIANTS = [
    AlgorithmSpec(kind="fedprox", mu=0.05),
    AlgorithmSpec(kind="feddyn", alpha=0.02),
    AlgorithmSpec(kind="server_momentum", beta=0.9),
    AlgorithmSpec(kind="fedprox", mu=0.05, beta=0.9),
]

#: Stack widths of the one local-update engine (``None`` = default).
ENGINES = [None, 2, 1]


def make_federated(streaming: bool = False):
    federated = streaming_synthetic_federated(
        5,
        total_samples=200,
        dim=12,
        num_classes=4,
        seed=11,
        test_clients=8,
        max_size=80,
    )
    return federated if streaming else federated.materialize()


def run_training(
    *,
    algorithm=None,
    chunk_size=None,
    streaming=False,
    precision="float64",
    checkpoint=None,
    interrupt_at=None,
    rounds=NUM_ROUNDS,
    seed=5,
):
    """One deterministic tiny run; variants must be bit-identical."""
    federated = make_federated(streaming)
    model = MultinomialLogisticRegression(
        num_features=federated.num_features,
        num_classes=federated.num_classes,
        l2=1e-2,
    )
    factory = RngFactory(seed)
    q = np.linspace(0.5, 0.9, federated.num_clients)
    trainer = FederatedTrainer(
        model,
        federated,
        BernoulliParticipation(q, rng=factory.make("participation")),
        local_steps=2,
        batch_size=8,
        eval_every=3,
        rng_factory=factory,
        chunk_size=chunk_size,
        precision=precision,
        algorithm=algorithm,
    )
    if interrupt_at is not None:
        base = trainer.round_timer

        def timer(mask, round_index):
            if round_index == interrupt_at:
                raise _Killed()
            return base(mask, round_index)

        trainer.round_timer = timer
    return trainer.run(rounds, checkpoint=checkpoint)


class _Killed(BaseException):
    """Simulated abrupt kill (BaseException escapes except Exception)."""


class TestAlgorithmSpec:
    def test_parse_canonical_roundtrip(self):
        for text in (
            "fedavg",
            "fedprox:mu=0.05",
            "feddyn:alpha=0.02",
            "server_momentum:beta=0.9",
            "fedprox:mu=0.05,beta=0.9",
            "feddyn:alpha=0.02,beta=0.5",
        ):
            spec = parse_algorithm(text)
            assert spec.canonical() == text
            assert parse_algorithm(spec.canonical()) == spec

    def test_bare_kinds_take_conventional_defaults(self):
        assert parse_algorithm("fedprox").mu == 0.01
        assert parse_algorithm("feddyn").alpha == 0.01
        assert parse_algorithm("server_momentum").beta == 0.9

    def test_doc_roundtrip_and_sparsity(self):
        for spec in [DEFAULT_ALGORITHM, *VARIANTS]:
            assert AlgorithmSpec.from_doc(spec.to_doc()) == spec
        assert DEFAULT_ALGORITHM.to_doc() == {"kind": "fedavg"}
        assert "beta" not in VARIANTS[0].to_doc()

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown algorithm kind"):
            AlgorithmSpec(kind="fedsgd")
        with pytest.raises(ValueError, match="fedprox requires mu > 0"):
            AlgorithmSpec(kind="fedprox")
        with pytest.raises(ValueError, match="feddyn requires alpha > 0"):
            AlgorithmSpec(kind="feddyn")
        with pytest.raises(ValueError, match="spelled 'server_momentum'"):
            AlgorithmSpec(kind="fedavg", beta=0.5)
        with pytest.raises(ValueError, match="beta must be in"):
            AlgorithmSpec(kind="server_momentum", beta=1.0)
        with pytest.raises(ValueError, match="feddyn parameter"):
            AlgorithmSpec(kind="fedprox", mu=0.1, alpha=0.1)
        with pytest.raises(ValueError, match="needs a number"):
            parse_algorithm("fedprox:mu=lots")
        with pytest.raises(ValueError, match="bad algorithm parameter"):
            parse_algorithm("fedprox:gamma=1")

    def test_coerce_normalizes_every_form(self):
        assert coerce_algorithm(None) == DEFAULT_ALGORITHM
        assert coerce_algorithm("fedprox:mu=0.05") == VARIANTS[0]
        assert coerce_algorithm({"kind": "feddyn", "alpha": 0.02}) == (
            VARIANTS[1]
        )
        assert coerce_algorithm(VARIANTS[2]) is VARIANTS[2]
        with pytest.raises(TypeError):
            coerce_algorithm(42)

    def test_every_kind_builds(self):
        for kind in ALGORITHM_KINDS:
            strategy = build_algorithm(parse_algorithm(kind))
            strategy.bind(4, 7)
            assert strategy.spec.kind == kind


class TestBitIdentityMatrix:
    @pytest.mark.parametrize(
        "algorithm", VARIANTS, ids=lambda spec: spec.canonical()
    )
    def test_engines_and_storage_bit_identical(self, algorithm):
        """4 algorithms x chunk widths {default, 2, 1} x {eager,
        streaming}: one history per algorithm, bitwise."""
        reference = run_training(algorithm=algorithm)
        for chunk_size in ENGINES:
            for streaming in (False, True):
                history = run_training(
                    algorithm=algorithm,
                    chunk_size=chunk_size,
                    streaming=streaming,
                )
                assert history.records == reference.records, (
                    f"{algorithm.canonical()} diverged on "
                    f"chunk={chunk_size}/streaming={streaming}"
                )

    def test_each_algorithm_changes_the_history(self):
        fedavg = run_training()
        seen = {fedavg.digest()}
        for algorithm in VARIANTS:
            digest = run_training(algorithm=algorithm).digest()
            assert digest not in seen, (
                f"{algorithm.canonical()} reproduced another rule's history"
            )
            seen.add(digest)

    def test_fedavg_default_spelling_equivalence(self):
        """None, the default spec, and the string all run the same bytes."""
        reference = run_training()
        for spelling in (DEFAULT_ALGORITHM, "fedavg"):
            assert (
                run_training(algorithm=spelling).records
                == reference.records
            )

    @pytest.mark.parametrize(
        "algorithm", VARIANTS[:2], ids=lambda spec: spec.canonical()
    )
    def test_float32_stacked_identity_and_tolerance(self, algorithm):
        """float32: vectorized == chunked bitwise, and close to float64.

        The loop path always accumulates in float64, so float32
        loop-vs-stacked identity is out of contract by design (as for
        FedAvg since the fast tier landed).
        """
        vectorized = run_training(algorithm=algorithm, precision="float32")
        chunked = run_training(
            algorithm=algorithm, precision="float32", chunk_size=2
        )
        assert vectorized.records == chunked.records
        exact = run_training(algorithm=algorithm)
        assert np.isclose(
            vectorized.final_global_loss(),
            exact.final_global_loss(),
            rtol=1e-3,
        )


class TestCheckpointState:
    @pytest.mark.parametrize(
        "algorithm",
        [VARIANTS[1], VARIANTS[2], VARIANTS[3]],
        ids=lambda spec: spec.canonical(),
    )
    def test_kill_and_resume_bit_identical(self, algorithm, tmp_path):
        """Stateful rules (FedDyn h, momentum buffer) survive a kill."""
        reference = run_training(algorithm=algorithm)
        config = CheckpointConfig(
            directory=tmp_path, every=2, resume=True
        )
        with pytest.raises(_Killed):
            run_training(
                algorithm=algorithm, checkpoint=config, interrupt_at=5
            )
        resumed = run_training(algorithm=algorithm, checkpoint=config)
        assert resumed.records == reference.records

    def test_default_checkpoint_doc_carries_no_algorithm_block(
        self, tmp_path
    ):
        """A FedAvg v2 document records exactly the v1 fields."""
        import json

        config = CheckpointConfig(directory=tmp_path, every=2, resume=False)
        run_training(checkpoint=config)
        path = sorted(tmp_path.glob("round-*.json"))[-1]
        doc = json.loads(path.read_text())
        assert doc["format"] == "trainer-checkpoint/v2"
        assert "algorithm" not in doc

    def test_nondefault_checkpoint_doc_records_spec_and_state(
        self, tmp_path
    ):
        import json

        config = CheckpointConfig(directory=tmp_path, every=2, resume=False)
        run_training(algorithm=VARIANTS[1], checkpoint=config)
        path = sorted(tmp_path.glob("round-*.json"))[-1]
        doc = json.loads(path.read_text())
        entry = doc["algorithm"]
        assert AlgorithmSpec.from_doc(entry["spec"]) == VARIANTS[1]
        num_params = len(doc["params"])
        assert np.asarray(entry["state"]["h"]).shape == (5, num_params)

    def test_mismatched_algorithm_resume_names_both(self, tmp_path):
        config = CheckpointConfig(directory=tmp_path, every=2, resume=True)
        with pytest.raises(_Killed):
            run_training(
                algorithm=VARIANTS[0], checkpoint=config, interrupt_at=5
            )
        with pytest.raises(ValueError) as excinfo:
            run_training(algorithm=VARIANTS[1], checkpoint=config)
        message = str(excinfo.value)
        assert "fedprox:mu=0.05" in message
        assert "feddyn:alpha=0.02" in message
        assert "--algorithm" in message

    def test_fedavg_trainer_rejects_algorithm_checkpoint(self, tmp_path):
        config = CheckpointConfig(directory=tmp_path, every=2, resume=True)
        with pytest.raises(_Killed):
            run_training(
                algorithm=VARIANTS[2], checkpoint=config, interrupt_at=5
            )
        with pytest.raises(ValueError, match="fedavg"):
            run_training(checkpoint=config)

    def test_v1_document_implies_fedavg(self, tmp_path):
        """Pre-algorithm checkpoints resume forever under the default."""
        import json

        config = CheckpointConfig(directory=tmp_path, every=2, resume=True)
        with pytest.raises(_Killed):
            run_training(checkpoint=config, interrupt_at=5)
        for path in tmp_path.glob("round-*.json"):
            doc = json.loads(path.read_text())
            doc["format"] = "trainer-checkpoint/v1"
            path.write_text(json.dumps(doc, sort_keys=True) + "\n")
        reference = run_training()
        resumed = run_training(checkpoint=config)
        assert resumed.records == reference.records
        with pytest.raises(ValueError, match="fedavg"):
            run_training(algorithm=VARIANTS[0], checkpoint=config)


KILL_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from feddyn_common import run

    checkpoint_dir, kill_round = sys.argv[1], int(sys.argv[2])
    history = run(checkpoint_dir, kill_round)
    print("DIGEST", history.digest(), flush=True)
    """
)

KILL_COMMON = textwrap.dedent(
    """
    import os
    import signal

    import numpy as np

    from repro.algorithms import AlgorithmSpec
    from repro.datasets import synthetic_federated
    from repro.fl import (
        BernoulliParticipation,
        CheckpointConfig,
        FederatedTrainer,
    )
    from repro.models import MultinomialLogisticRegression
    from repro.utils.rng import RngFactory

    def run(checkpoint_dir, kill_round):
        federated = synthetic_federated(
            num_clients=6, total_samples=900, dim=12, num_classes=4, rng=7
        )
        model = MultinomialLogisticRegression(
            num_features=federated.num_features,
            num_classes=federated.num_classes,
            l2=1e-2,
        )
        factory = RngFactory(5)
        q = np.linspace(0.4, 0.9, federated.num_clients)
        trainer = FederatedTrainer(
            model,
            federated,
            BernoulliParticipation(q, rng=factory.make("participation")),
            local_steps=2,
            batch_size=8,
            eval_every=3,
            rng_factory=factory,
            algorithm=AlgorithmSpec(kind="feddyn", alpha=0.02, beta=0.5),
        )
        base = trainer.round_timer

        def timer(mask, round_index):
            if round_index == kill_round:
                os.kill(os.getpid(), signal.SIGKILL)
            return base(mask, round_index)

        trainer.round_timer = timer
        return trainer.run(
            12,
            checkpoint=CheckpointConfig(
                directory=checkpoint_dir, every=4, resume=True
            ),
        )
    """
)


class TestFedDynSigkillResume:
    def test_sigkilled_feddyn_resumes_bit_identically(self, tmp_path):
        """A real SIGKILL mid-round: the per-client h state and the
        momentum buffer restore bit-for-bit in a fresh process."""
        script_dir = tmp_path / "scripts"
        script_dir.mkdir()
        (script_dir / "feddyn_common.py").write_text(KILL_COMMON)
        (script_dir / "kill_run.py").write_text(KILL_SCRIPT)
        checkpoint_dir = tmp_path / "ckpt"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        killed = subprocess.run(
            [sys.executable, str(script_dir / "kill_run.py"),
             str(checkpoint_dir), "9"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert "DIGEST" not in killed.stdout
        assert list(checkpoint_dir.glob("round-*.json"))

        resumed = subprocess.run(
            [sys.executable, str(script_dir / "kill_run.py"),
             str(checkpoint_dir), "-1"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        digest = resumed.stdout.split("DIGEST", 1)[1].strip()

        uninterrupted = subprocess.run(
            [sys.executable, str(script_dir / "kill_run.py"),
             str(tmp_path / "reference-ckpt"), "-1"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert uninterrupted.returncode == 0, uninterrupted.stderr
        reference = uninterrupted.stdout.split("DIGEST", 1)[1].strip()
        assert digest == reference


class TestCacheKeys:
    def test_default_key_fields_unchanged(self):
        from repro.experiments.orchestrator import TrainJob

        job = TrainJob(q=(0.5, 0.25), seed=3)
        assert job.key_fields() == {"q": [0.5, 0.25], "seed": 3}
        explicit = TrainJob(
            q=(0.5, 0.25), seed=3, algorithm=DEFAULT_ALGORITHM
        )
        assert explicit.key_fields() == job.key_fields()

    def test_algorithm_forks_the_key(self):
        from repro.experiments.orchestrator import TrainJob

        base = TrainJob(q=(0.5, 0.25), seed=3).key_fields()
        forked = TrainJob(
            q=(0.5, 0.25), seed=3, algorithm=VARIANTS[0]
        ).key_fields()
        assert forked != base
        assert forked["algorithm"] == {"kind": "fedprox", "mu": 0.05}

    def test_fedprox_never_served_from_fedavg_store(self, tmp_path):
        """Two orchestrators sharing one cache_dir: the FedAvg-warmed
        store must not satisfy a FedProx run."""
        from repro.experiments import SCALES, SETUP1, apply_scale
        from repro.experiments.orchestrator import ExperimentOrchestrator
        from repro.experiments.runner import run_pricing_comparison
        from repro.experiments.setup import prepare_setup

        config = apply_scale(SETUP1, SCALES["ci"])
        prepared = prepare_setup(config, scale=SCALES["ci"], seed=0)
        fedavg = run_pricing_comparison(
            prepared,
            repeats=1,
            orchestrator=ExperimentOrchestrator(cache_dir=tmp_path),
        )
        fedprox = run_pricing_comparison(
            prepared,
            repeats=1,
            orchestrator=ExperimentOrchestrator(
                cache_dir=tmp_path, algorithm="fedprox:mu=0.05"
            ),
        )
        for name in fedavg:
            assert (
                fedavg[name].histories[0].records
                != fedprox[name].histories[0].records
            )
        # And the warmed store serves a second FedProx run bit-exactly.
        again = run_pricing_comparison(
            prepared,
            repeats=1,
            orchestrator=ExperimentOrchestrator(
                cache_dir=tmp_path, algorithm=VARIANTS[0]
            ),
        )
        for name in fedprox:
            assert (
                again[name].histories[0].records
                == fedprox[name].histories[0].records
            )


class TestScenarioIntegration:
    def test_fingerprint_emits_algorithm_only_at_nondefault(self):
        from repro.scenarios.spec import ScenarioSpec

        plain = ScenarioSpec(name="t")
        assert "algorithm" not in plain.to_doc()
        spelled = ScenarioSpec(name="t", algorithm="fedavg")
        assert spelled.algorithm is None
        assert spelled.fingerprint() == plain.fingerprint()
        prox = ScenarioSpec(name="t", algorithm="fedprox:mu=0.05")
        assert prox.to_doc()["algorithm"] == {"kind": "fedprox", "mu": 0.05}
        assert prox.fingerprint() != plain.fingerprint()
        assert (
            prox.population_fingerprint() == plain.population_fingerprint()
        )
        assert ScenarioSpec.from_doc(prox.to_doc()) == prox

    def test_game_only_scenarios_reject_the_knob(self):
        from repro.scenarios.spec import ScenarioSpec

        with pytest.raises(ValueError, match="game-only"):
            ScenarioSpec(name="t", train=False, algorithm="fedprox")

    def test_registered_algorithm_scenarios(self):
        from repro.scenarios import get_scenario, list_scenarios

        names = {spec.name for spec in list_scenarios()}
        assert {
            "paper-default-fedprox",
            "flaky-fleet-feddyn",
            "paper-default-momentum",
        } <= names
        prox = get_scenario("paper-default-fedprox")
        assert prox.algorithm == VARIANTS[0]
        assert not prox.is_paper_default
