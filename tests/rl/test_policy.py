"""Tests for the actor-critic policy wrapper."""

import numpy as np
import pytest

from repro.rl.policy import ActorCriticPolicy


class TestActorCriticPolicy:
    def test_spaces(self):
        policy = ActorCriticPolicy(6, 4, hidden=(8, 8), rng=0)
        assert policy.actor.in_dim == 6
        assert policy.actor.out_dim == 4
        assert policy.critic.out_dim == 1

    def test_act_shapes(self):
        policy = ActorCriticPolicy(6, 4, hidden=(8,), rng=0)
        rng = np.random.default_rng(0)
        obs = rng.normal(size=(5, 6))
        actions, values, log_probs = policy.act(obs, rng)
        assert actions.shape == (5,)
        assert values.shape == (5,)
        assert log_probs.shape == (5,)
        assert np.all((actions >= 0) & (actions < 4))
        assert np.all(log_probs <= 0)

    def test_deterministic_act_is_mode(self):
        policy = ActorCriticPolicy(3, 3, hidden=(8,), rng=0)
        rng = np.random.default_rng(0)
        obs = np.eye(3)
        a1, _, _ = policy.act(obs, rng, deterministic=True)
        a2, _, _ = policy.act(obs, rng, deterministic=True)
        assert np.array_equal(a1, a2)

    def test_act_single(self):
        policy = ActorCriticPolicy(3, 4, hidden=(8,), rng=0)
        action = policy.act_single(np.zeros(3))
        assert 0 <= action < 4
        with pytest.raises(ValueError, match="rng"):
            policy.act_single(np.zeros(3), deterministic=False)

    def test_clone_independence(self):
        policy = ActorCriticPolicy(3, 2, hidden=(4,), rng=0)
        twin = policy.clone()
        obs = np.ones((1, 3))
        assert np.allclose(policy.actor.forward(obs), twin.actor.forward(obs))
        policy.actor.parameters[0][0, 0] += 5.0
        assert not np.allclose(policy.actor.forward(obs), twin.actor.forward(obs))

    def test_clone_copies_arrays_without_initialising(self, monkeypatch):
        import repro.nn.layers as layers

        policy = ActorCriticPolicy(5, 3, hidden=(8, 6), activation="relu", rng=0)

        def no_init(*args, **kwargs):
            raise AssertionError("clone ran a weight initialiser")

        monkeypatch.setattr(layers, "orthogonal", no_init)
        twin = policy.clone()
        assert (twin.obs_dim, twin.num_actions) == (5, 3)
        for original, copy in (
            (policy.actor, twin.actor), (policy.critic, twin.critic)
        ):
            assert copy.hidden == original.hidden
            assert copy.activation == original.activation == "relu"
            for mine, theirs in zip(original.parameters, copy.parameters):
                assert mine.tobytes() == theirs.tobytes()
                assert not np.shares_memory(mine, theirs)
        obs = np.random.default_rng(2).normal(size=(4, 5))
        assert policy.actor.forward(obs).tobytes() == twin.actor.forward(obs).tobytes()
        assert policy.values(obs).tobytes() == twin.values(obs).tobytes()

    def test_save_load_roundtrip(self, tmp_path):
        policy = ActorCriticPolicy(5, 3, hidden=(8, 8), rng=0)
        path = tmp_path / "policy.npz"
        policy.save(path)
        loaded = ActorCriticPolicy.load(path)
        assert loaded.obs_dim == 5
        assert loaded.num_actions == 3
        obs = np.random.default_rng(1).normal(size=(4, 5))
        assert np.allclose(policy.actor.forward(obs), loaded.actor.forward(obs))
        assert np.allclose(policy.values(obs), loaded.values(obs))

    @pytest.mark.parametrize("hidden", [(16,), (16, 8), (4, 4, 4)])
    def test_load_infers_architecture(self, tmp_path, hidden):
        """Checkpoints of any architecture load without the caller passing
        layer sizes — the widths are read from the saved array shapes."""
        policy = ActorCriticPolicy(6, 4, hidden=hidden, rng=3)
        path = tmp_path / "policy.npz"
        policy.save(path)
        loaded = ActorCriticPolicy.load(path)
        assert [d.weight.shape for d in loaded.actor.dense_layers] == [
            d.weight.shape for d in policy.actor.dense_layers
        ]
        obs = np.random.default_rng(1).normal(size=(4, 6))
        assert np.array_equal(policy.actor.forward(obs), loaded.actor.forward(obs))
        assert np.array_equal(policy.values(obs), loaded.values(obs))

    def test_invalid_action_count(self):
        with pytest.raises(ValueError):
            ActorCriticPolicy(3, 0)


class TestActSingleEquivalence:
    """`act` on a one-row batch and `act_single` must agree exactly — the
    contract that lets the batched evaluation engine swap one for the
    other without changing any episode."""

    def _policy(self):
        return ActorCriticPolicy(6, 5, hidden=(16, 16), rng=7)

    def test_deterministic_action_matches(self):
        policy = self._policy()
        rng = np.random.default_rng(0)
        for obs in np.random.default_rng(1).normal(size=(20, 6)):
            batched, _, _ = policy.act(obs[None, :], rng, deterministic=True)
            assert int(batched[0]) == policy.act_single(obs, deterministic=True)

    def test_stochastic_action_matches_with_same_rng_state(self):
        policy = self._policy()
        for obs in np.random.default_rng(2).normal(size=(20, 6)):
            # Identical generator state on both paths: same draws.
            rng_a = np.random.default_rng(123)
            rng_b = np.random.default_rng(123)
            batched, _, _ = policy.act(obs[None, :], rng_a, deterministic=False)
            single = policy.act_single(obs, rng=rng_b, deterministic=False)
            assert int(batched[0]) == single

    def test_value_matches_single_row(self):
        policy = self._policy()
        obs = np.random.default_rng(3).normal(size=(1, 6))
        rng = np.random.default_rng(0)
        _, values, _ = policy.act(obs, rng, deterministic=True)
        assert values[0] == policy.values(obs)[0]

    def test_logits_single_matches_batch_forward(self):
        policy = self._policy()
        obs = np.random.default_rng(4).normal(size=6)
        assert np.array_equal(
            policy.logits_single(obs), policy.actor.forward(obs[None, :])[0]
        )
