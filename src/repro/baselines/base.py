"""Shared infrastructure for coordination policies.

A *coordination policy* is anything callable as ``policy(decision, sim) ->
action`` — the interface :meth:`repro.sim.simulator.Simulator.run` drives.
Both the trained :class:`~repro.core.agent.DistributedCoordinator` and the
hand-written baselines below implement it, so every algorithm in the
evaluation runs through the identical simulator.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol

from repro.services.service import ServiceCatalog
from repro.sim.simulator import DecisionPoint, Simulator
from repro.topology.network import Network

__all__ = ["CoordinationPolicy", "BasePolicy"]


class CoordinationPolicy(Protocol):
    """Protocol every coordination algorithm satisfies."""

    def __call__(self, decision: DecisionPoint, sim: Simulator) -> int:
        """Action in ``{0, ..., Δ_G}`` for the pending decision."""
        ...


class BasePolicy:
    """Common helpers for hand-written policies over one network.

    Routing is table-driven: ``network.toward_actions`` gives, per node,
    the action that moves a flow one hop along the delay-shortest path
    toward each target, so following a path costs two dict lookups.
    """

    def __init__(self, network: Network, catalog: ServiceCatalog) -> None:
        self.network = network
        self.catalog = catalog
        self._toward: Dict[str, Dict[str, int]] = {
            name: network.toward_actions(name) for name in network.node_names
        }

    # ------------------------------------------------------------------

    def component_demand(self, decision: DecisionPoint) -> Optional[float]:
        """Resource demand of the flow's requested component (None when the
        flow is fully processed)."""
        flow = decision.flow
        index = flow.component_index
        if index is None:
            return None
        if flow.demands is not None:
            return flow.demands[index]
        service = self.catalog.service(flow.service)
        return service.component_at(index).resources(flow.data_rate)

    def can_process_here(self, decision: DecisionPoint, sim: Simulator) -> bool:
        """True when the node has the free compute to process the flow."""
        demand = self.component_demand(decision)
        if demand is None:
            return False
        return sim.state.node_free(decision.node) + 1e-12 >= demand

    def shortest_path_action(self, decision: DecisionPoint) -> int:
        """Action following the delay-shortest path toward the flow's egress.

        Returns 0 (process/keep locally) when already at the egress, or
        when the egress is unreachable (the flow will expire).
        """
        return self._toward[decision.node][decision.flow.egress]
