"""Tests for the decision kernel (logits → actions).

The reference for every entry point is ``policy.act_single`` called row
by row: ``select`` must reproduce it for any batch width in float64,
consuming each row's generator exactly as the serial loop would, and
``select_one`` must score through the policy's own actor forward so a
wrapper installed on it after construction sees every decision.
"""

import numpy as np
import pytest

from repro.core.agent import NodeAgent
from repro.core.observations import ObservationAdapter
from repro.rl.decision import DecisionKernel
from repro.rl.policy import ActorCriticPolicy
from repro.topology import line_network

from tests.conftest import make_flow_specs, make_simple_catalog, make_simulator

OBS_DIM = 12
NUM_ACTIONS = 5


def make_policy(zeroed=False):
    policy = ActorCriticPolicy(OBS_DIM, NUM_ACTIONS, hidden=(32, 32), rng=3)
    if zeroed:
        for w in policy.actor.parameters:
            w[:] = 0.0
    return policy


def serial_actions(policy, rows, rngs, deterministic):
    return [
        policy.act_single(row, rng=rng, deterministic=deterministic)
        for row, rng in zip(rows, rngs)
    ]


def generators(n, seed=5):
    return [np.random.default_rng(seed + j) for j in range(n)]


@pytest.mark.parametrize("rows", [1, 2, 7])
@pytest.mark.parametrize("deterministic", [True, False])
@pytest.mark.parametrize("zeroed", [False, True])
class TestSelectMatchesActSingle:
    def test_float64_equals_serial_loop(self, rows, deterministic, zeroed):
        policy = make_policy(zeroed)
        x = np.random.default_rng(11).normal(size=(rows, OBS_DIM))
        serial_rngs, kernel_rngs = generators(rows), generators(rows)
        expected = serial_actions(policy, x, serial_rngs, deterministic)
        kernel = DecisionKernel(policy, "f64", deterministic)
        actions, fallbacks, _ = kernel.select(x, kernel_rngs)
        assert actions.tolist() == expected
        if zeroed and deterministic:
            # Every row is an exact K-way tie (Gumbel noise breaks them
            # in stochastic mode): all rescored through the exact forward.
            assert fallbacks == rows
        if not deterministic:
            for a, b in zip(serial_rngs, kernel_rngs):
                assert a.bit_generator.state == b.bit_generator.state

    def test_float32_skips_fallback_and_draws_the_same(
        self, rows, deterministic, zeroed
    ):
        policy = make_policy(zeroed)
        x = np.random.default_rng(11).normal(size=(rows, OBS_DIM))
        serial_rngs, kernel_rngs = generators(rows), generators(rows)
        serial_actions(policy, x, serial_rngs, deterministic)
        kernel = DecisionKernel(policy, "f32", deterministic)
        actions, fallbacks, _ = kernel.select(x, kernel_rngs)
        assert fallbacks == 0
        assert actions.shape == (rows,)
        assert all(0 <= a < NUM_ACTIONS for a in actions)
        for a, b in zip(serial_rngs, kernel_rngs):
            assert a.bit_generator.state == b.bit_generator.state


class TestSelectOne:
    @pytest.mark.parametrize("deterministic", [True, False])
    def test_equals_act_single(self, deterministic):
        policy = make_policy()
        x = np.random.default_rng(2).normal(size=(20, OBS_DIM))
        serial_rng, kernel_rng = np.random.default_rng(9), np.random.default_rng(9)
        kernel = DecisionKernel(policy, "f64", deterministic)
        for row in x:
            assert kernel.select_one(row, kernel_rng) == policy.act_single(
                row, rng=serial_rng, deterministic=deterministic
            )
        assert serial_rng.bit_generator.state == kernel_rng.bit_generator.state

    def test_stochastic_needs_rng(self):
        kernel = DecisionKernel(make_policy(), "f64", deterministic=False)
        with pytest.raises(ValueError, match="rng"):
            kernel.select_one(np.zeros(OBS_DIM))

    def test_float64_builds_no_workspace_forward(self):
        kernel = DecisionKernel(make_policy(), "f64")
        kernel.select_one(np.zeros(OBS_DIM))
        assert kernel._inference is None

    def test_node_agent_decision_calls_wrapped_actor_forward_once(self):
        """Tracers wrap ``policy.actor.forward`` after an agent is built;
        one float64 decision must go through the wrapper exactly once."""
        net = line_network(3, node_capacity=10.0, link_capacity=10.0)
        catalog = make_simple_catalog()
        adapter = ObservationAdapter(net, catalog)
        policy = ActorCriticPolicy(adapter.size, net.degree + 1, hidden=(8,), rng=0)
        agent = NodeAgent("v1", policy, adapter)
        calls = []
        inner = agent.policy.actor.forward

        def traced(x):
            calls.append(x.shape)
            return inner(x)

        agent.policy.actor.forward = traced
        sim = make_simulator(net, catalog, make_flow_specs([1.0]))
        agent.act(sim.next_decision(), sim)
        assert calls == [(1, adapter.size)]

