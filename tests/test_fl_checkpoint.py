"""Tests for deterministic trainer checkpoint/resume.

The ISSUE-6 contract: a run killed mid-training and resumed from its
newest checkpoint produces a history **bit-identical** to an
uninterrupted run — across chunk widths, lockstep groups, and participation
regimes (whose RNG positions and extra state are part of the snapshot).
Includes a real ``SIGKILL`` of a training subprocess.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import SCALES, SETUP1, apply_scale, prepare_setup
from repro.experiments.runner import run_history
from repro.fl import (
    BernoulliParticipation,
    CheckpointConfig,
    CheckpointManager,
    FederatedTrainer,
    ParticipationSpec,
)
from repro.fl.checkpoint import CHECKPOINT_FORMAT
from repro.utils.rng import RngFactory

NUM_ROUNDS = 12

#: Stack widths pinned by the determinism contract (``None`` = default).
ENGINES = [None, 2, 1]

#: Participation regimes whose state must survive a checkpoint.
REGIMES = {
    "bernoulli": None,
    "intermittent": ParticipationSpec(
        kind="intermittent", on_to_off=0.3, off_to_on=0.5
    ),
    "dropout": ParticipationSpec(kind="dropout", dropout=0.25),
}


class _KilledRun(BaseException):
    """Stand-in for an abrupt interruption mid-run."""


def make_trainer(
    model,
    federated,
    *,
    regime=None,
    chunk_size=None,
    seed=5,
):
    factory = RngFactory(seed)
    q = np.linspace(0.4, 0.9, federated.num_clients)
    if regime is None:
        participation = BernoulliParticipation(
            q, rng=factory.make("participation")
        )
    else:
        participation = regime.build(q, rng=factory.make("participation"))
    return FederatedTrainer(
        model,
        federated,
        participation,
        local_steps=2,
        batch_size=8,
        eval_every=3,
        rng_factory=factory,
        chunk_size=chunk_size,
    )


def interrupt_at(trainer, kill_round: int) -> None:
    """Make the trainer's round timer abort at ``kill_round``."""
    base = trainer.round_timer

    def timer(mask, round_index):
        if round_index == kill_round:
            raise _KilledRun()
        return base(mask, round_index)

    trainer.round_timer = timer


class TestCheckpointConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="every"):
            CheckpointConfig(directory="x", every=0)
        with pytest.raises(ValueError, match="keep"):
            CheckpointConfig(directory="x", keep=0)


class TestCheckpointManager:
    def test_due_schedule_excludes_final_round(self, tmp_path):
        manager = CheckpointManager(
            CheckpointConfig(directory=tmp_path, every=4)
        )
        due = [r for r in range(12) if manager.due(r, 12)]
        assert due == [3, 7]  # rounds 4 and 8 complete; round 12 is final

    def _doc(self, next_round):
        return {"format": CHECKPOINT_FORMAT, "next_round": next_round}

    def test_save_is_atomic_and_prunes(self, tmp_path):
        manager = CheckpointManager(
            CheckpointConfig(directory=tmp_path, every=1, keep=2)
        )
        for next_round in (2, 4, 6, 8):
            manager.save(self._doc(next_round))
        names = [path.name for path in manager.checkpoints()]
        assert names == ["round-00000006.json", "round-00000008.json"]
        assert not list(tmp_path.glob(".tmp-*"))

    def test_save_rejects_foreign_documents(self, tmp_path):
        manager = CheckpointManager(CheckpointConfig(directory=tmp_path))
        with pytest.raises(ValueError, match="not a checkpoint"):
            manager.save({"format": "something-else", "next_round": 1})

    def test_latest_doc_skips_corrupt_files(self, tmp_path):
        manager = CheckpointManager(
            CheckpointConfig(directory=tmp_path, every=1, keep=5)
        )
        manager.save(self._doc(2))
        manager.save(self._doc(4))
        manager.path_for(4).write_text("{ torn mid-write")
        doc = manager.latest_doc()
        assert doc is not None and doc["next_round"] == 2

    def test_latest_doc_empty_directory(self, tmp_path):
        manager = CheckpointManager(
            CheckpointConfig(directory=tmp_path / "nowhere")
        )
        assert manager.latest_doc() is None


class TestResumeBitIdentity:
    @pytest.mark.parametrize("chunk_size", ENGINES,
                             ids=["vectorized", "chunked", "chunk1"])
    @pytest.mark.parametrize("regime", sorted(REGIMES), ids=str)
    def test_killed_run_resumes_bit_identically(
        self, small_model, small_federated, tmp_path, regime, chunk_size,
    ):
        spec = REGIMES[regime]
        build = lambda: make_trainer(
            small_model, small_federated, regime=spec,
            chunk_size=chunk_size,
        )
        reference = build().run(NUM_ROUNDS)

        config = CheckpointConfig(directory=tmp_path, every=4, resume=True)
        interrupted = build()
        interrupt_at(interrupted, kill_round=9)
        with pytest.raises(_KilledRun):
            interrupted.run(NUM_ROUNDS, checkpoint=config)
        assert CheckpointManager(config).checkpoints()  # state survived

        resumed = build().run(NUM_ROUNDS, checkpoint=config)
        assert resumed.records == reference.records
        assert resumed.digest() == reference.digest()

    def test_resume_crosses_chunk_widths(
        self, small_model, small_federated, tmp_path
    ):
        """A checkpoint taken at one stack width resumes at another —
        chunking is absent from the fingerprint by design."""
        reference = make_trainer(
            small_model, small_federated, chunk_size=1
        ).run(NUM_ROUNDS)
        config = CheckpointConfig(directory=tmp_path, every=4, resume=True)
        interrupted = make_trainer(small_model, small_federated)
        interrupt_at(interrupted, kill_round=9)
        with pytest.raises(_KilledRun):
            interrupted.run(NUM_ROUNDS, checkpoint=config)
        resumed = make_trainer(
            small_model, small_federated, chunk_size=1
        ).run(NUM_ROUNDS, checkpoint=config)
        assert resumed.records == reference.records

    def test_resume_with_no_checkpoint_is_a_cold_start(
        self, small_model, small_federated, tmp_path
    ):
        reference = make_trainer(small_model, small_federated).run(NUM_ROUNDS)
        config = CheckpointConfig(
            directory=tmp_path / "empty", every=4, resume=True
        )
        fresh = make_trainer(small_model, small_federated).run(
            NUM_ROUNDS, checkpoint=config
        )
        assert fresh.records == reference.records

    def test_resume_degrades_to_an_earlier_checkpoint(
        self, small_model, small_federated, tmp_path
    ):
        """A torn newest checkpoint falls back to the previous one and
        still reproduces the reference bit-for-bit."""
        reference = make_trainer(small_model, small_federated).run(NUM_ROUNDS)
        config = CheckpointConfig(directory=tmp_path, every=4, resume=True)
        interrupted = make_trainer(small_model, small_federated)
        interrupt_at(interrupted, kill_round=9)
        with pytest.raises(_KilledRun):
            interrupted.run(NUM_ROUNDS, checkpoint=config)
        manager = CheckpointManager(config)
        newest = manager.checkpoints()[-1]
        newest.write_text(newest.read_text()[:40])  # torn by the crash
        resumed = make_trainer(small_model, small_federated).run(
            NUM_ROUNDS, checkpoint=config
        )
        assert resumed.records == reference.records

    def test_fingerprint_mismatch_rejected(
        self, small_model, small_federated, tmp_path
    ):
        config = CheckpointConfig(directory=tmp_path, every=4, resume=True)
        interrupted = make_trainer(small_model, small_federated)
        interrupt_at(interrupted, kill_round=9)
        with pytest.raises(_KilledRun):
            interrupted.run(NUM_ROUNDS, checkpoint=config)
        mismatched = make_trainer(small_model, small_federated)
        mismatched.local_steps = 3
        with pytest.raises(ValueError, match="differently-configured"):
            mismatched.run(NUM_ROUNDS, checkpoint=config)

    def test_checkpoint_beyond_run_length_rejected(
        self, small_model, small_federated, tmp_path
    ):
        config = CheckpointConfig(directory=tmp_path, every=4, resume=True)
        interrupted = make_trainer(small_model, small_federated)
        interrupt_at(interrupted, kill_round=9)
        with pytest.raises(_KilledRun):
            interrupted.run(NUM_ROUNDS, checkpoint=config)
        with pytest.raises(ValueError, match="nothing to resume"):
            make_trainer(small_model, small_federated).run(
                8, checkpoint=config
            )

    def test_checkpoint_documents_are_json(
        self, small_model, small_federated, tmp_path
    ):
        config = CheckpointConfig(directory=tmp_path, every=4)
        trainer = make_trainer(small_model, small_federated)
        trainer.run(NUM_ROUNDS, checkpoint=config)
        paths = CheckpointManager(config).checkpoints()
        assert paths
        doc = json.loads(paths[-1].read_text())
        assert doc["format"] == CHECKPOINT_FORMAT
        assert doc["trainer"]["num_clients"] == small_federated.num_clients
        assert len(doc["clients"]) == small_federated.num_clients
        assert "chunk_size" not in doc["trainer"]  # resume crosses widths


class TestRunHistoryCheckpointing:
    @pytest.fixture(scope="class")
    def prepared(self):
        scale = SCALES["ci"]
        return prepare_setup(
            apply_scale(SETUP1, scale), scale=scale, seed=11
        )

    def test_resume_matches_plain_run(self, prepared, tmp_path):
        q = np.full(prepared.config.num_clients, 0.5)
        reference = run_history(prepared, q, seed=0)
        # A completed checkpointed run leaves mid-run checkpoints behind;
        # resuming replays only the tail rounds, bit-identically.
        checkpointed = run_history(
            prepared, q, seed=0,
            checkpoint=CheckpointConfig(tmp_path, every=7),
        )
        assert checkpointed.records == reference.records
        assert list(Path(tmp_path).glob("round-*.json"))
        resumed = run_history(
            prepared, q, seed=0,
            checkpoint=CheckpointConfig(tmp_path, every=7, resume=True),
        )
        assert resumed.records == reference.records

    def test_resume_across_chunk_sizes(self, prepared, tmp_path):
        q = np.full(prepared.config.num_clients, 0.5)
        reference = run_history(prepared, q, seed=0)
        run_history(
            prepared, q, seed=0, chunk_size=3,
            checkpoint=CheckpointConfig(tmp_path, every=7),
        )
        resumed = run_history(
            prepared, q, seed=0, chunk_size=1,
            checkpoint=CheckpointConfig(tmp_path, every=7, resume=True),
        )
        assert resumed.records == reference.records


KILL_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys

    import numpy as np

    from repro.datasets import synthetic_federated
    from repro.fl import CheckpointConfig
    from repro.models import MultinomialLogisticRegression

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from kill_common import make_trainer

    checkpoint_dir, kill_round = sys.argv[1], int(sys.argv[2])
    trainer = make_trainer()
    base = trainer.round_timer

    def timer(mask, round_index):
        if round_index == kill_round:
            os.kill(os.getpid(), signal.SIGKILL)
        return base(mask, round_index)

    trainer.round_timer = timer
    history = trainer.run(
        12,
        checkpoint=CheckpointConfig(
            directory=checkpoint_dir, every=4, resume=True
        ),
    )
    print("DIGEST", history.digest(), flush=True)
    """
)

KILL_COMMON = textwrap.dedent(
    """
    import numpy as np

    from repro.datasets import synthetic_federated
    from repro.fl import BernoulliParticipation, FederatedTrainer
    from repro.models import MultinomialLogisticRegression
    from repro.utils.rng import RngFactory

    def make_trainer():
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
        participation = BernoulliParticipation(
            q, rng=factory.make("participation")
        )
        return FederatedTrainer(
            model,
            federated,
            participation,
            local_steps=2,
            batch_size=8,
            eval_every=3,
            rng_factory=factory,
        )
    """
)


class TestSigkillResume:
    def test_sigkilled_subprocess_resumes_bit_identically(
        self, small_model, small_federated, tmp_path
    ):
        """The real thing: SIGKILL a training process mid-round, then
        resume in a fresh process and match the uninterrupted history."""
        script_dir = tmp_path / "scripts"
        script_dir.mkdir()
        (script_dir / "kill_common.py").write_text(KILL_COMMON)
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

        # The subprocess trainer is built from the same recipe as the
        # conftest fixtures, so the in-process reference digest applies.
        reference = make_trainer(small_model, small_federated).run(NUM_ROUNDS)
        assert digest == reference.digest()
