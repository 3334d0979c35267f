"""Distributed inference: one DRL agent per node (Fig. 4b).

After centralized training, the trained actor network is *copied to every
node*.  Each :class:`NodeAgent` then makes decisions for flows arriving at
its node using only local observations — its own and its direct neighbors'
state — in O(Δ_G) time, independent of network size.  The
:class:`DistributedCoordinator` is the collection of these agents and
doubles as a simulator policy callable.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.core.observations import ObservationAdapter
from repro.rl.decision import DecisionKernel, resolve_eval_dtype
from repro.rl.policy import ActorCriticPolicy
from repro.services.service import ServiceCatalog
from repro.sim.simulator import DecisionPoint, Simulator
from repro.topology.network import Network

__all__ = ["NodeAgent", "DistributedCoordinator"]


class NodeAgent:
    """The DRL agent deployed at one network node.

    Holds its own *copy* of the trained policy network (the paper copies
    the selected best network π_θ to each node, Alg. 1 line 14) and an
    observation adapter.  All information it uses is local: the incoming
    flow's attributes and the state of the node and its direct neighbors.

    Args:
        node: The node this agent controls.
        policy: Trained actor-critic whose actor makes the decisions.
        adapter: Observation builder (shared, stateless).
        deterministic: Greedy (argmax) actions when True — the default for
            online inference; sampling is used during training only.
        rng: Generator for stochastic action selection.
        dtype: Inference dtype.  Decisions go through
            :meth:`DecisionKernel.select_one`: float64 (default) equals
            ``policy.act_single``; float32 is the fast mode (last ulps
            may differ).
    """

    def __init__(
        self,
        node: str,
        policy: ActorCriticPolicy,
        adapter: ObservationAdapter,
        deterministic: bool = True,
        rng: Optional[np.random.Generator] = None,
        dtype: Any = np.float64,
    ) -> None:
        self.node = node
        self.policy = policy
        self.adapter = adapter
        self.deterministic = deterministic
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._kernel = DecisionKernel(policy, dtype, deterministic)
        self.dtype = self._kernel.dtype
        #: Decisions taken by this agent (per-node load statistics).
        self.decisions_taken = 0

    def act(self, decision: DecisionPoint, sim: Simulator) -> int:
        """Select the action for a flow at this agent's node."""
        if decision.node != self.node:
            raise ValueError(
                f"agent at {self.node!r} asked to act for node {decision.node!r}"
            )
        observation = self.adapter.build(decision, sim)
        self.decisions_taken += 1
        return self._kernel.select_one(observation, self.rng)


class DistributedCoordinator:
    """All per-node agents of a network; usable as a simulator policy.

    Every node gets an agent holding a *clone* of the trained policy, so
    inference at different nodes is fully independent (no shared mutable
    state beyond the frozen weights) — mirroring the paper's deployment
    where each node runs its own copy of the neural network.

    Args:
        network: Substrate network (one agent per node).
        catalog: Services (needed by the observation adapter).
        policy: The trained policy selected by multi-seed training.
        deterministic: Greedy decisions (default for inference).
        seed: Base seed for per-agent stochastic sampling.
        dtype: Per-agent inference dtype (``"f64"``/``"f32"`` or a numpy
            dtype) — see :class:`NodeAgent`.
    """

    def __init__(
        self,
        network: Network,
        catalog: ServiceCatalog,
        policy: ActorCriticPolicy,
        deterministic: bool = True,
        seed: int = 0,
        dtype: Any = np.float64,
    ) -> None:
        self.network = network
        self.seed = seed
        self.dtype = resolve_eval_dtype(dtype)
        self.adapter = ObservationAdapter(network, catalog)
        if policy.obs_dim != self.adapter.size:
            raise ValueError(
                f"policy expects observations of size {policy.obs_dim}, but this "
                f"network's degree gives size {self.adapter.size}; train on a "
                "network with the same degree or retrain"
            )
        seeds = np.random.SeedSequence(seed).spawn(network.num_nodes)
        self.agents: Dict[str, NodeAgent] = {
            node: NodeAgent(
                node,
                policy.clone(),
                self.adapter,
                deterministic=deterministic,
                rng=np.random.default_rng(child),
                dtype=self.dtype,
            )
            for node, child in zip(network.node_names, seeds)
        }

    def __call__(self, decision: DecisionPoint, sim: Simulator) -> int:
        """Route the decision to the agent at the decision's node."""
        return self.agents[decision.node].act(decision, sim)

    def fresh(self) -> "DistributedCoordinator":
        """A new coordinator sharing the trained weights with reset
        per-agent runtime state (rng streams, decision counters)."""
        any_agent = next(iter(self.agents.values()))
        return DistributedCoordinator(
            self.network,
            self.adapter.catalog,
            any_agent.policy,
            deterministic=any_agent.deterministic,
            seed=self.seed,
            dtype=self.dtype,
        )

    def decision_counts(self) -> Dict[str, int]:
        """Per-node decision counts (how evenly load spreads over agents)."""
        return {node: agent.decisions_taken for node, agent in self.agents.items()}
