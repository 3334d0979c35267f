"""Workload ``eval-deploy``: the online deployment path, run serially.

Set-up trains one distributed DRL policy (ACKTR, training seed 0) on the
``fig6-cell`` scenario.  The timed part deploys it, GCASP and SP on a
scenario it never saw -- Abilene with bursty MMPP arrivals at 4 ingress
nodes and a longer horizon (a Fig. 8-style generalisation) -- once
fault-free and once under the ``churn`` fault preset, on held-out
traffic seeds drawn from the benchmark's case.  Each traffic seed also
seeds its own fault schedule, so a round's work averages over as many
schedules as traffic seeds instead of hanging on one.

Every distributed-agent call is timed (Fig. 9b).  Rounds repeat until
the run's time is spent; every round must reproduce the first round and
the committed reference, and every set-up must give the same policy.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from common import (
    Outcome, calibrate, deploy, finite_or_none, median, percentile, reference_scale, timed,
)
from spans import Tracer


@dataclass(frozen=True)
class Budget:
    policy_updates: int
    n_steps: int
    n_envs: int
    train_horizon: float
    eval_horizon: float
    eval_seeds: int
    setup_repeats: int


BUDGETS = {
    "full": Budget(policy_updates=150, n_steps=32, n_envs=4, train_horizon=600.0,
                   eval_horizon=500.0, eval_seeds=4, setup_repeats=3),
    "tiny": Budget(policy_updates=3, n_steps=8, n_envs=2, train_horizon=150.0,
                   eval_horizon=150.0, eval_seeds=1, setup_repeats=2),
}


def train_policy(budget: Budget):
    from repro.core.trainer import TrainingConfig, train_coordinator
    from repro.eval.scenarios import base_scenario

    scenario = base_scenario(pattern="poisson", num_ingress=2, horizon=budget.train_horizon,
                             capacity_seed=0)
    training = train_coordinator(scenario, TrainingConfig(
        seeds=(0,), updates_per_seed=budget.policy_updates, n_envs=budget.n_envs,
        n_steps=budget.n_steps, workers=1))
    return next(iter(training.coordinator.agents.values())).policy


def policy_digest(policy) -> str:
    digest = hashlib.sha256()
    for weights in (*policy.actor.parameters, *policy.critic.parameters):
        digest.update(weights.tobytes())
    return digest.hexdigest()


def _deployments(budget: Budget):
    """The deployment scenario and, per fault setting, the simulator
    configuration for a traffic seed."""
    from repro.eval.scenarios import base_scenario, fault_preset

    scenario = base_scenario(pattern="mmpp", num_ingress=4, horizon=budget.eval_horizon,
                             capacity_seed=0)

    def churn(eval_seed: int):
        return dataclasses.replace(scenario.sim_config,
                                   faults=fault_preset("churn", seed=eval_seed))

    return scenario, (("fault-free", lambda _: scenario.sim_config), ("churn", churn))


def run_round(policy_agents, deployments_of, budget: Budget, case: int,
              tracer: Tracer) -> Dict[str, Any]:
    """Deploy DRL, GCASP and SP under both fault settings once.  Each
    deployment's seconds, decisions and (for DRL) per-call seconds are
    listed in ``deployments``, in the same order every round.

    ``deployments_of`` (what ``_deployments`` returns) and
    ``policy_agents``, the deployed distributed coordinator, are built
    once for the run.  The coordinator's agents act greedily and keep no
    state that changes a decision, and building it clones the policy for
    every node, which costs more than a deployment.  GCASP remembers each
    flow's previous node, so the heuristics are built fresh for every
    deployment."""
    eval_seeds = [10**6 + budget.eval_seeds * case + i for i in range(budget.eval_seeds)]
    results: Dict[str, Dict[str, Any]] = {}
    counts = {"decisions": 0, "flows": 0, "network_failure_drops": 0}
    deployments: List[Dict[str, Any]] = []
    scenario, settings = deployments_of
    for setting, sim_config in settings:
        results[setting] = {}
        span = "sim.run" if setting == "fault-free" else "sim.run.churn"
        for name in ("Distributed DRL", "GCASP", "SP"):
            success, delay = [], []
            for eval_seed in eval_seeds:
                coordinator = (policy_agents if name == "Distributed DRL"
                               else _coordinator(name, scenario, None, tracer))
                samples: Optional[List[float]] = [] if name == "Distributed DRL" else None
                with tracer.span(span):
                    metrics, seconds = timed(lambda: deploy(
                        scenario, sim_config(eval_seed), eval_seed, coordinator, samples))
                success.append(float(metrics.success_ratio))
                delay.append(finite_or_none(
                    metrics.avg_end_to_end_delay
                    if metrics.avg_end_to_end_delay is not None else float("nan")))
                counts["decisions"] += metrics.decisions
                counts["flows"] += metrics.flows_generated
                counts["network_failure_drops"] += metrics.drop_reasons.get(
                    "network_failure", 0)
                deployments.append({"seconds": seconds, "decisions": metrics.decisions,
                                    "samples": samples or [], "calibration": calibrate()})
            results[setting][name] = {"success": success, "delay": delay}
    return {"results": results, "deployments": deployments, **counts}


def best_round(rounds: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The composite best round: every deployment taken from the round in
    which it ran fastest (see ``common.best``).  One deployment lasts a
    fraction of a second, so each can find a fast stretch of host even
    when no whole round does."""
    return [min(runs, key=lambda run: run["seconds"])
            for runs in zip(*(r["deployments"] for r in rounds))]


def _coordinator(name: str, scenario, policy, tracer: Tracer) -> Callable:
    """A fresh coordinator; under tracing every layer call records a span."""
    from repro.baselines.gcasp import GCASPPolicy
    from repro.baselines.shortest_path import ShortestPathPolicy
    from repro.core.agent import DistributedCoordinator

    network, catalog = scenario.network, scenario.catalog
    if name == "GCASP":
        return tracer.wrap(GCASPPolicy(network, catalog), "baselines.gcasp_decide")
    if name == "SP":
        return tracer.wrap(ShortestPathPolicy(network, catalog), "baselines.sp_decide")
    agents = DistributedCoordinator(network, catalog, policy)
    if tracer.enabled:
        agents.adapter.build = tracer.wrap(agents.adapter.build, "core.obs_build")
        for agent in agents.agents.values():
            agent.policy.actor.forward = tracer.wrap(agent.policy.actor.forward, "nn.forward")
    return tracer.wrap(agents, "core.agent_act")


def _layers(tracer: Tracer, rounds: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-round means of span self times, and per-call percentiles."""
    layers: Dict[str, float] = {}
    for span, name in (("core.agent_act", "core.agent_act_us"),
                       ("core.obs_build", "core.obs_build_us"),
                       ("nn.forward", "nn.forward_us")):
        calls = tracer.durations(span)
        layers[f"{name}_p50"] = percentile(calls, 50) * 1e6
        layers[f"{name}_p99"] = percentile(calls, 99) * 1e6
        layers[f"{name}_calls"] = len(calls) / len(rounds)
    for span, name in (("baselines.gcasp_decide", "baselines.gcasp_decide_us"),
                       ("baselines.sp_decide", "baselines.sp_decide_us")):
        calls = tracer.durations(span)
        layers[f"{name}_p50"] = percentile(calls, 50) * 1e6
        layers[f"{name}_p99"] = percentile(calls, 99) * 1e6
    self_seconds = tracer.self_seconds()
    layers["faults.sim_self_s"] = self_seconds.get("sim.run.churn", 0.0) / len(rounds)
    layers["sim.self_s"] = (self_seconds.get("sim.run", 0.0) / len(rounds)
                            + layers["faults.sim_self_s"])
    for key, name in (("decisions", "sim.decisions"), ("flows", "sim.flows"),
                      ("network_failure_drops", "faults.network_failure_drops")):
        layers[name] = median([r[key] for r in rounds])
    return layers


def run(case: int, seconds: float, tracer: Tracer, budget_name: str,
        expected: Optional[Dict[str, Any]], out_dir: Path, src: Path) -> Outcome:
    budget = BUDGETS[budget_name]
    policy, elapsed = timed(lambda: train_policy(budget))
    digest = policy_digest(policy)
    outcome = Outcome(setup_seconds=[elapsed], metrics={})
    reference = expected["policy_sha256"] if expected else digest
    outcome.check("set-up 0 policy digest", digest, reference)

    deployments_of = _deployments(budget)
    untraced_tracer = Tracer(False)
    agents = {False: _coordinator("Distributed DRL", deployments_of[0], policy, untraced_tracer)}
    if tracer.enabled:
        agents[True] = _coordinator("Distributed DRL", deployments_of[0], policy, tracer)

    def one_round(index: int) -> Dict[str, Any]:
        # The traced run keeps round 0 untraced as the overhead baseline.
        traced = tracer.enabled and index > 0
        round_tracer = tracer if traced else untraced_tracer
        # Every round starts from the same collector state, so a
        # collection of the previous round's garbage lands in no round.
        gc.collect()
        result, wall = timed(lambda: run_round(agents[traced], deployments_of, budget, case,
                                               round_tracer))
        result["wall"] = wall
        return result

    # The other set-up samples run between the first rounds, outside the
    # rounds' time, so that the rounds sample the host over a longer
    # stretch and the set-up samples over more than one.
    rounds: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < (2 if tracer.enabled else 1) or time.perf_counter() < deadline:
        rounds.append(one_round(len(rounds)))
        if len(outcome.setup_seconds) < budget.setup_repeats:
            again, elapsed = timed(lambda: train_policy(budget))
            outcome.setup_seconds.append(elapsed)
            deadline += elapsed
            outcome.check(f"set-up {len(outcome.setup_seconds) - 1} policy digest",
                          policy_digest(again), reference)
    first = rounds[0]["results"]
    outcome.produced = {"policy_sha256": digest, "results": first}
    for index, result in enumerate(rounds):
        outcome.check_all(f"round {index}", result["results"],
                          expected["results"] if expected else first)

    untraced = rounds[:1] if tracer.enabled else rounds
    # Throughput over every untraced deployment, in seconds of the
    # reference host (see ``common.reference_scale``).
    pieces = [d for r in untraced for d in r["deployments"]]
    outcome.calibrations = [d["calibration"] for d in pieces]
    simulated = sum(d["seconds"] for d in pieces) * outcome.scale()
    # Per-call latency over the composite best round, scaled by the
    # calibration passes run beside the deployments it took: a run's
    # pooled tail is set by its slowest stretches, the fastest pass of
    # each deployment is not.
    composite = best_round(untraced)
    samples = [x for d in composite for x in d["samples"]]
    scale = reference_scale([d["calibration"] for d in composite])
    outcome.metrics = {
        "wall_s": simulated / len(untraced),
        "decisions_per_s": sum(d["decisions"] for d in pieces) / simulated,
        "decision_p50_ms": percentile(samples, 50) * 1e3 * scale,
        "decision_p99_ms": percentile(samples, 99) * 1e3 * scale,
    }
    outcome.report += [
        f"policy {digest[:16]}, {len(rounds)} deployment rounds, round wall median "
        f"{median([r['wall'] for r in untraced]):.3f} s; simulation per round "
        f"{outcome.metrics['wall_s']:.3f} reference-host s at scale {outcome.scale():.4f}",
        "success ratios: " + "; ".join(
            f"{setting}: " + ", ".join(
                f"{name}={sum(v['success']) / len(v['success']):.4f}"
                for name, v in algorithms.items())
            for setting, algorithms in first.items()),
        f"distributed-agent decisions timed: {len(samples)} in the best composite round "
        f"(scale {scale:.4f})",
    ]
    if tracer.enabled:
        traced = rounds[1:]
        outcome.layers = _layers(tracer, traced)
        outcome.layers["trace.overhead_ratio"] = (
            median([r["wall"] for r in traced]) / rounds[0]["wall"])
    return outcome
