"""Lockstep trainings: several runs advanced by one trainer.

:meth:`FederatedTrainer.run_group` stacks every run's participants into
the same kernel calls each round. The contract pinned here: each member's
history is bit-identical to its solo run, for every chunking x storage x
algorithm cell, with mixed ``q`` and mixed seeds; a killed group resumes
bit-identically even when its members' newest checkpoints are at
different rounds (in process and across a real SIGKILL); and the
theory layer's pilot group reproduces one trainer per pilot.
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

from repro.algorithms import AlgorithmSpec
from repro.datasets import streaming_synthetic_federated
from repro.fl import (
    BernoulliParticipation,
    CheckpointConfig,
    CheckpointManager,
    FederatedTrainer,
)
from repro.models import MultinomialLogisticRegression
from repro.theory.bound import heterogeneity_term
from repro.theory.estimation import fit_bound_scale
from repro.utils.rng import RngFactory

NUM_ROUNDS = 9

#: (q level, seed) of each group member: mixed q, mixed and shared seeds.
MEMBERS = [(0.6, 5), (0.35, 6), (0.9, 5)]

ALGORITHMS = [
    None,
    AlgorithmSpec(kind="fedprox", mu=0.05),
    AlgorithmSpec(kind="feddyn", alpha=0.02),
    AlgorithmSpec(kind="server_momentum", beta=0.9),
]


class _Killed(BaseException):
    """Stand-in for an abrupt interruption mid-run."""


def _federation(streaming: bool):
    federated = streaming_synthetic_federated(
        8, total_samples=320, dim=10, num_classes=3, seed=21, test_clients=4
    )
    return federated if streaming else federated.materialize()


def _model(federated):
    return MultinomialLogisticRegression(
        num_features=federated.num_features,
        num_classes=federated.num_classes,
        l2=1e-2,
    )


def _member(federated, level, seed):
    factory = RngFactory(seed)
    q = np.full(federated.num_clients, level)
    q[::3] = min(1.0, level + 0.3)
    return BernoulliParticipation(q, rng=factory.make("participation")), factory


def _trainer(federated, level, seed, **kwargs):
    participation, factory = _member(federated, level, seed)
    return FederatedTrainer(
        _model(federated),
        federated,
        participation,
        local_steps=3,
        batch_size=8,
        eval_every=2,
        rng_factory=factory,
        **kwargs,
    )


def _group(federated, members=MEMBERS, **kwargs):
    trainer = _trainer(federated, *members[0], **kwargs)
    states = [trainer.state] + [
        trainer.make_state(*_member(federated, level, seed))
        for level, seed in members[1:]
    ]
    return trainer, states


@pytest.mark.parametrize(
    "algorithm", ALGORITHMS, ids=lambda spec: "fedavg" if spec is None
    else spec.canonical()
)
@pytest.mark.parametrize("streaming", [False, True], ids=["eager", "streaming"])
@pytest.mark.parametrize("chunk_size", [None, 2, 1])
def test_group_members_equal_solo_runs(algorithm, streaming, chunk_size):
    federated = _federation(streaming)
    trainer, states = _group(
        federated, algorithm=algorithm, chunk_size=chunk_size
    )
    histories = trainer.run_group(states, NUM_ROUNDS)
    for (level, seed), history, state in zip(MEMBERS, histories, states):
        solo = _trainer(federated, level, seed, algorithm=algorithm)
        assert history.records == solo.run(NUM_ROUNDS).records
        assert np.array_equal(state.server.params, solo.state.server.params)


def test_fast_tier_group_members_equal_solo_runs():
    federated = _federation(True)
    fast = {"precision": "float32", "fast": True}
    trainer, states = _group(federated, **fast)
    for (level, seed), history in zip(
        MEMBERS, trainer.run_group(states, NUM_ROUNDS)
    ):
        solo = _trainer(federated, level, seed, **fast).run(NUM_ROUNDS)
        assert history.records == solo.records


def test_group_shares_kernel_calls(monkeypatch):
    """The point of lockstep: one round of a group of G runs makes the
    kernel calls of one run, not G times as many."""
    federated = _federation(False)
    calls = []
    model_type = MultinomialLogisticRegression
    kernel = model_type.batched_sgd_steps

    def counted(self, params_stack, *args, **kwargs):
        calls.append(len(params_stack))
        return kernel(self, params_stack, *args, **kwargs)

    monkeypatch.setattr(model_type, "batched_sgd_steps", counted)
    trainer, states = _group(federated)
    histories = trainer.run_group(states, NUM_ROUNDS)
    participants = sum(
        record.num_participants
        for history in histories
        for record in history.records
    )
    assert sum(calls) == participants
    assert len(calls) <= 2 * NUM_ROUNDS  # at most two batch widths a round


def test_make_state_checks_the_fleet():
    federated = _federation(False)
    trainer = _trainer(federated, 0.5, 1)
    with pytest.raises(ValueError, match="participation model covers"):
        trainer.make_state(BernoulliParticipation(np.full(3, 0.5), rng=0))
    with pytest.raises(ValueError, match="checkpoint configs"):
        trainer.run_group([trainer.state], 3, checkpoints=[None, None])


@pytest.mark.parametrize("streaming", [False, True], ids=["eager", "streaming"])
def test_killed_group_resumes_from_different_rounds(tmp_path, streaming):
    """Members checkpoint every 2, 3 and 4 rounds; a kill at round 7 leaves
    their newest checkpoints at rounds 6, 6 and 4. The resumed group plays
    the lagging member alone until the others' round, then in lockstep,
    and every history equals the uninterrupted solo run."""
    federated = _federation(streaming)
    configs = [
        CheckpointConfig(directory=tmp_path / f"m{index}", every=every,
                         resume=True)
        for index, every in enumerate((2, 3, 4))
    ]
    trainer, states = _group(federated)
    base = trainer.round_timer

    def timer(mask, round_index):
        if round_index == 7:
            raise _Killed()
        return base(mask, round_index)

    trainer.round_timer = timer
    with pytest.raises(_Killed):
        trainer.run_group(states, NUM_ROUNDS, checkpoints=configs)
    newest = [
        CheckpointManager(config).checkpoints()[-1].name for config in configs
    ]
    assert newest == [
        "round-00000006.json", "round-00000006.json", "round-00000004.json"
    ]
    trainer, states = _group(federated)
    resumed = trainer.run_group(states, NUM_ROUNDS, checkpoints=configs)
    for (level, seed), history in zip(MEMBERS, resumed):
        solo = _trainer(federated, level, seed).run(NUM_ROUNDS)
        assert history.records == solo.records


KILL_GROUP_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys

    import numpy as np

    from repro.datasets import synthetic_federated
    from repro.fl import BernoulliParticipation, CheckpointConfig
    from repro.fl import FederatedTrainer
    from repro.models import MultinomialLogisticRegression
    from repro.utils.rng import RngFactory

    root, kill_round = sys.argv[1], int(sys.argv[2])
    federated = synthetic_federated(
        num_clients=6, total_samples=900, dim=12, num_classes=4, rng=7
    )
    model = MultinomialLogisticRegression(
        num_features=federated.num_features,
        num_classes=federated.num_classes,
        l2=1e-2,
    )

    def member(level, seed):
        factory = RngFactory(seed)
        q = np.full(federated.num_clients, level)
        return (
            BernoulliParticipation(q, rng=factory.make("participation")),
            factory,
        )

    members = [member(0.6, 5), member(0.4, 6)]
    trainer = FederatedTrainer(
        model, federated, members[0][0], local_steps=2, batch_size=8,
        eval_every=3, rng_factory=members[0][1],
    )
    states = [trainer.state, trainer.make_state(*members[1])]
    base = trainer.round_timer

    def timer(mask, round_index):
        if round_index == kill_round:
            os.kill(os.getpid(), signal.SIGKILL)
        return base(mask, round_index)

    trainer.round_timer = timer
    histories = trainer.run_group(
        states,
        12,
        checkpoints=[
            CheckpointConfig(directory=os.path.join(root, "a"), every=4,
                             resume=True),
            CheckpointConfig(directory=os.path.join(root, "b"), every=3,
                             resume=True),
        ],
    )
    for history in histories:
        print("DIGEST", history.digest(), flush=True)
    """
)


def test_sigkilled_group_resumes_bit_identically(
    small_model, small_federated, tmp_path
):
    """The real thing: SIGKILL a lockstep group at round 10, when its
    members' newest checkpoints sit at rounds 8 and 9, then resume the
    group in a fresh process and match each uninterrupted solo run."""
    script = tmp_path / "kill_group.py"
    script.write_text(KILL_GROUP_SCRIPT)
    root = tmp_path / "ckpt"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    killed = subprocess.run(
        [sys.executable, str(script), str(root), "10"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    assert "DIGEST" not in killed.stdout
    assert sorted(path.name for path in (root / "a").glob("round-*"))[-1] == (
        "round-00000008.json"
    )
    assert sorted(path.name for path in (root / "b").glob("round-*"))[-1] == (
        "round-00000009.json"
    )
    resumed = subprocess.run(
        [sys.executable, str(script), str(root), "-1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert resumed.returncode == 0, resumed.stderr
    digests = [
        line.split()[1]
        for line in resumed.stdout.splitlines()
        if line.startswith("DIGEST")
    ]
    expected = []
    for level, seed in ((0.6, 5), (0.4, 6)):
        factory = RngFactory(seed)
        solo = FederatedTrainer(
            small_model,
            small_federated,
            BernoulliParticipation(
                np.full(small_federated.num_clients, level),
                rng=factory.make("participation"),
            ),
            local_steps=2,
            batch_size=8,
            eval_every=3,
            rng_factory=factory,
        )
        expected.append(solo.run(12).digest())
    assert digests == expected


def _pilot_gaps_one_trainer_each(model, federated, constants, f_star, **kw):
    """``fit_bound_scale``'s pilots as they ran before lockstep: one
    trainer per (level, seed) pilot."""
    factory = RngFactory(4)
    gaps, penalties = [], []
    for level in kw["q_levels"]:
        q = np.full(federated.num_clients, float(level))
        penalty = heterogeneity_term(
            constants.weights, constants.gradient_bounds, q
        )
        for seed in range(kw["seeds_per_level"]):
            child = factory.child("fit", f"{level:.3f}", str(seed))
            trainer = FederatedTrainer(
                model,
                federated,
                BernoulliParticipation(q, rng=child.make("participation")),
                local_steps=kw["local_steps"],
                batch_size=kw["batch_size"],
                eval_every=kw["pilot_rounds"],
                rng_factory=child,
            )
            history = trainer.run(kw["pilot_rounds"])
            gaps.append(max(history.final_global_loss() - f_star, 1e-9))
            penalties.append(penalty)
    return penalties, gaps


def test_fit_bound_scale_pilots_equal_one_trainer_each(
    small_model, small_federated, monkeypatch
):
    from repro.theory import estimation

    constants, optima = estimation.estimate_problem_constants(
        small_model, small_federated, local_steps=3, pilot_rounds=4
    )
    settings = dict(
        local_steps=3, batch_size=8, pilot_rounds=6,
        q_levels=(0.25, 0.5, 1.0), seeds_per_level=2,
    )
    seen = {}

    def capture(design, target):
        seen["design"], seen["target"] = design, target
        return nnls(design, target)

    nnls = estimation.nnls
    monkeypatch.setattr(estimation, "nnls", capture)
    fit_bound_scale(
        small_model, small_federated, constants, f_star=optima.f_star,
        **settings,
    )
    penalties, gaps = _pilot_gaps_one_trainer_each(
        small_model, small_federated, constants, optima.f_star, **settings
    )
    assert np.array_equal(seen["design"][:, 0], penalties)
    assert np.array_equal(
        seen["target"], np.asarray(gaps) * settings["pilot_rounds"]
    )
