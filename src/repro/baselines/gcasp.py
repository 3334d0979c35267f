"""GCASP: the fully distributed hand-written heuristic [11] (Sec. V-A3).

Schneider et al., "Every node for itself: fully distributed service
coordination" propose greedy per-node heuristics with purely local
observations and control.  The ICDCS paper characterises GCASP as:
"favors processing flows along the shortest paths but dynamically reroutes
flows when necessary, avoiding bottlenecks and searching for compute
resources."

This implementation captures exactly that behaviour, per node and per
flow, using only local state (own/neighbor utilisation, outgoing link
load, precomputed shortest-path delays — the same information the DRL
agents observe):

1. If the flow needs a component and this node can process it → process
   locally (placing/scaling the instance implicitly).
2. Otherwise rank the *feasible* neighbors — outgoing link has room for
   the flow's rate and the remaining deadline still covers the
   shortest-path delay to the egress via that neighbor — preferring
   (a) neighbors with free compute for the requested component (searching
   for resources), then (b) smaller delay-to-egress (favouring shortest
   paths), avoiding the neighbor the flow just came from (loop avoidance).
3. If no neighbor is feasible, fall back to the shortest-path next hop —
   the flow likely drops, as a hand-written greedy must when the local
   view offers nothing better.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.baselines.base import BasePolicy
from repro.services.service import ServiceCatalog
from repro.sim.simulator import ACTION_PROCESS_LOCALLY, DecisionPoint, Simulator
from repro.topology.network import Network

__all__ = ["GCASPPolicy"]


class GCASPPolicy(BasePolicy):
    """Greedy Closest Available resource / Shortest Path heuristic.

    Stateful per run: remembers each flow's previous node to avoid
    immediate ping-pong loops (a node-local mechanism — each node can
    read the flow's arrival interface in practice).
    """

    def __init__(self, network: Network, catalog: ServiceCatalog) -> None:
        super().__init__(network, catalog)
        self._previous_node: Dict[int, str] = {}

    def __call__(self, decision: DecisionPoint, sim: Simulator) -> int:
        flow, node = decision.flow, decision.node
        previous = self._previous_node.get(flow.flow_id)
        action = self._decide(decision, sim, previous)
        if action != ACTION_PROCESS_LOCALLY:
            self._previous_node[flow.flow_id] = node
        return action

    # ------------------------------------------------------------------

    def _decide(
        self, decision: DecisionPoint, sim: Simulator, previous: Optional[str]
    ) -> int:
        flow, node = decision.flow, decision.node

        # 1) Process locally whenever possible (greedy resource use).
        if not flow.fully_processed and self.can_process_here(decision, sim):
            return ACTION_PROCESS_LOCALLY
        if flow.fully_processed and node == flow.egress:
            return ACTION_PROCESS_LOCALLY  # departs (handled by simulator)

        best = self._best_neighbor_action(decision, sim, previous)
        if best is not None:
            return best

        # 3) Nothing feasible locally: stay on the shortest path and hope.
        return self.shortest_path_action(decision)

    def _best_neighbor_action(
        self, decision: DecisionPoint, sim: Simulator, previous: Optional[str]
    ) -> Optional[int]:
        """Action toward the best feasible neighbor (None if none is)."""
        flow, node, now = decision.flow, decision.node, decision.time
        remaining = flow.remaining_time(now)
        demand = self.component_demand(decision)
        network, state = self.network, sim.state

        candidates: List[Tuple[int, int, float, str, int]] = []
        for action, (neighbor, link_delay, _) in enumerate(
            network.neighbor_hops(node), start=1
        ):
            # Feasibility: link must carry the flow's rate...
            if state.link_free(node, neighbor) + 1e-12 < flow.data_rate:
                continue
            # ... and the deadline must still be reachable via this neighbor.
            via_delay = link_delay + network.shortest_path_delay(neighbor, flow.egress)
            if via_delay > remaining:
                continue
            has_compute = (
                demand is not None
                and state.node_free(neighbor) + 1e-12 >= demand
            )
            is_backtrack = neighbor == previous
            # Rank: forward progress first, compute-feasible neighbors
            # next, then smaller delay-to-egress; name as a deterministic
            # final tiebreak (names are unique, so the action never ranks).
            candidates.append(
                (int(is_backtrack), 0 if has_compute or demand is None else 1,
                 via_delay, neighbor, action)
            )
        if not candidates:
            return None
        return min(candidates)[-1]
