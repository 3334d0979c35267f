"""Golden-snapshot determinism tests beyond the shortest-path baseline.

:mod:`tests.integration.test_sim_golden` pins the simulator under SP.
This module pins the other drivers of the simulator bit-exactly:

- GCASP (rerouting, backtrack memory, link/deadline feasibility checks)
  on bursty 4-ingress traffic,
- the central DRL baseline's training environment
  (:class:`CentralizedCoordinationEnv`) under a seeded action sequence:
  per-interval rewards, the delayed-utilisation observations and the
  terminal ``info``, over two episodes,
- the central DRL inference policy (rule executor) with argmax rules and
  with sampled scheduling weights,
- the distributed per-node DRL coordinator with a seeded untrained
  policy sampling its actions (invalid actions included).

Floats are pinned as ``repr`` strings, so any change to event order,
reward summation order, rng consumption or float arithmetic shows up as a
diff.  The snapshots were captured before the simulator's decision fast
path landed; it must reproduce them.  If an *intentional* semantic change
lands, regenerate with::

    PYTHONPATH=src python tests/integration/test_policy_golden.py
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

import numpy as np
import pytest

from repro.baselines.central_drl import (
    CentralDRLConfig,
    CentralDRLPolicy,
    CentralizedCoordinationEnv,
)
from repro.baselines.gcasp import GCASPPolicy
from repro.core.agent import DistributedCoordinator
from repro.core.observations import ObservationAdapter
from repro.eval.scenarios import base_scenario
from repro.rl.policy import ActorCriticPolicy
from repro.sim.simulator import Simulator
from repro.telemetry.recorder import Recorder

HORIZON = 500.0


#: Captured goldens, per driver then per seed.  Floats are ``repr``
#: strings, so the comparison is bit-exact, not approximate.
GOLDEN: Dict[str, Dict[int, Dict[str, Any]]] = {
    "gcasp": {
        0: {
            "flows_generated": 162,
            "flows_succeeded": 105,
            "flows_dropped": 50,
            "drop_reasons": {
                "link_capacity": 48,
                "node_capacity": 2
            },
            "success_ratio": "0.6774193548387096",
            "avg_end_to_end_delay": "28.080968283133075",
            "avg_hops": "9.923809523809524",
            "decisions": 1754,
            "series_digest": "14a22af07486258cd4318eb58cfbc1953b712199c3db204a0ce5f37e61bb6065",
            "telemetry_digest": "1c8d8fefa1c6abce8415394cd0247c37c33589701d0b9b7c54f2d2cccbba2f7d"
        },
        1: {
            "flows_generated": 154,
            "flows_succeeded": 106,
            "flows_dropped": 38,
            "drop_reasons": {
                "link_capacity": 36,
                "node_capacity": 2
            },
            "success_ratio": "0.7361111111111112",
            "avg_end_to_end_delay": "28.054931744437408",
            "avg_hops": "9.80188679245283",
            "decisions": 1788,
            "series_digest": "9e192bf60f8f3b393fc1e59443d19105ea8a1abbc0d35e4f7cb87229b97392ae",
            "telemetry_digest": "4f45d351cbb08988e6e9272afb672b9d904d0aa4c697155e36dcb267dd2a18cc"
        }
    },
    "central_env": {
        0: {
            "episodes": [
                {
                    "steps": 30,
                    "rewards": [
                        "-34.054460490299604",
                        "-128.16311654118377",
                        "-43.126873824402786",
                        "-56.10127869340481",
                        "-33.82456001612059",
                        "-72.63933644959823",
                        "-93.38896775934975",
                        "-153.7337236496504",
                        "-102.68170802096003",
                        "-119.43504668502828"
                    ],
                    "observation_digest": "625c992a70929aec7342e339ac5eb6c7e8c58eb7458d67d870d6cc7269813bef",
                    "info": {
                        "avg_end_to_end_delay": "27.928986229290906",
                        "flows_dropped": "93",
                        "flows_generated": "108",
                        "flows_succeeded": "14",
                        "success_ratio": "0.1308411214953271"
                    }
                },
                {
                    "steps": 30,
                    "rewards": [
                        "-62.06259065125189",
                        "-62.981225189586226",
                        "-32.513711694041035",
                        "-35.76763586105661",
                        "-83.99753616138226",
                        "-32.5541356926198",
                        "-7.440675543538055",
                        "-5.893231310862526",
                        "-106.56502012895476",
                        "-79.91654457105228"
                    ],
                    "observation_digest": "f56397ca480faf7aad7b2cc99cf6e24192a91457eeab87aef350917e9b67a0d1",
                    "info": {
                        "avg_end_to_end_delay": "28.725410664411303",
                        "flows_dropped": "67",
                        "flows_generated": "90",
                        "flows_succeeded": "21",
                        "success_ratio": "0.23863636363636365"
                    }
                }
            ]
        },
        1: {
            "episodes": [
                {
                    "steps": 30,
                    "rewards": [
                        "-140.37406076800943",
                        "-25.099921350048227",
                        "-23.557188431127997",
                        "-78.92927994811345",
                        "-35.81084332312493",
                        "-112.8826421471546",
                        "-51.52028009759825",
                        "-61.60744400249862",
                        "12.46869760628617",
                        "-23.949292854899298"
                    ],
                    "observation_digest": "fc4b2c5230ffcca6fa0113ee7d9f379d18ffa25954e81bb58dc51b62017ea548",
                    "info": {
                        "avg_end_to_end_delay": "30.51772876260668",
                        "flows_dropped": "73",
                        "flows_generated": "100",
                        "flows_succeeded": "24",
                        "success_ratio": "0.24742268041237114"
                    }
                },
                {
                    "steps": 30,
                    "rewards": [
                        "-59.041122501338286",
                        "-37.96030883587186",
                        "2.86065136460789",
                        "-92.70386522242761",
                        "-139.70138829547676",
                        "-104.2002606992394",
                        "-127.8635207683523",
                        "-8.296841422625352",
                        "3.0548114143581886",
                        "-31.19508577459532"
                    ],
                    "observation_digest": "889a148e983758df085a5243a02aa3ed5198b565c481e677a3bdd13fb0ce1041",
                    "info": {
                        "avg_end_to_end_delay": "32.15535213367886",
                        "flows_dropped": "71",
                        "flows_generated": "96",
                        "flows_succeeded": "19",
                        "success_ratio": "0.2111111111111111"
                    }
                }
            ]
        }
    },
    "central_rules": {
        0: {
            "flows_generated": 102,
            "flows_succeeded": 27,
            "flows_dropped": 70,
            "drop_reasons": {
                "link_capacity": 37,
                "node_capacity": 33
            },
            "success_ratio": "0.27835051546391754",
            "avg_end_to_end_delay": "25.786471136629903",
            "avg_hops": "7.185185185185185",
            "decisions": 629,
            "series_digest": "184b856a7eb9d65186615692d6b364a33a1e25171f786b3cd0745673e8e53480",
            "telemetry_digest": "407b40a09b8c0e9a47dd2c436323c033cc4817062b14a48cb7a054e1cac65a09"
        }
    },
    "central_weights": {
        0: {
            "flows_generated": 102,
            "flows_succeeded": 32,
            "flows_dropped": 63,
            "drop_reasons": {
                "link_capacity": 39,
                "node_capacity": 24
            },
            "success_ratio": "0.3368421052631579",
            "avg_end_to_end_delay": "28.03296040621018",
            "avg_hops": "9.34375",
            "decisions": 790,
            "series_digest": "723b2c3303a781fd7a82653a14e68d31ea531421520b211c9c739c158cee6c1f",
            "telemetry_digest": "b9a77361eeddaab08f483427cbbcc9ac91ac2b4da186feabeb243b47999a8ab0"
        }
    },
    "distributed": {
        0: {
            "flows_generated": 102,
            "flows_succeeded": 0,
            "flows_dropped": 101,
            "drop_reasons": {
                "invalid_action": 36,
                "link_capacity": 20,
                "node_capacity": 45
            },
            "success_ratio": "0.0",
            "avg_end_to_end_delay": "None",
            "avg_hops": "None",
            "decisions": 351,
            "series_digest": "a79e5cb7e1c747bd273f427dc1964cbe330f15a290698d01a61adca4c7a6d0fb",
            "telemetry_digest": "3abe9c17c9da3aa7f4910e081d985e3bfa7bb679b6c4931f5f7f6072ecde1c23"
        }
    }
}


def _digest(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


class _CaptureRecorder(Recorder):
    """In-memory recorder so the snapshot can digest the ``sim_run`` record."""

    enabled = True

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def emit(self, kind: str, **fields: Any) -> None:
        self.records.append({"kind": kind, **fields})


def _run_snapshot(scenario, policy, seed: int) -> Dict[str, Any]:
    """Drive one seeded episode with ``policy`` and summarise it (flow ids
    and wall-clock fields excluded, as in the SP golden)."""
    sim = Simulator(
        scenario.network,
        scenario.catalog,
        scenario.traffic_factory(np.random.default_rng(seed)),
        scenario.sim_config,
    )
    recorder = _CaptureRecorder()
    metrics = sim.run(policy, recorder=recorder)
    [record] = [r for r in recorder.records if r["kind"] == "sim_run"]
    record = {k: v for k, v in record.items() if k != "wall_seconds"}
    return {
        "flows_generated": metrics.flows_generated,
        "flows_succeeded": metrics.flows_succeeded,
        "flows_dropped": metrics.flows_dropped,
        "drop_reasons": dict(sorted(metrics.drop_reasons.items())),
        "success_ratio": repr(metrics.success_ratio),
        "avg_end_to_end_delay": repr(metrics.avg_end_to_end_delay),
        "avg_hops": repr(metrics.avg_hops),
        "decisions": metrics.decisions,
        "series_digest": _digest(
            [[repr(t), repr(v)] for t, v in sim.metrics.success_series]
        ),
        "telemetry_digest": _digest(record),
    }


def gcasp_snapshot(seed: int) -> Dict[str, Any]:
    scenario = base_scenario(pattern="mmpp", num_ingress=4, horizon=HORIZON)
    return _run_snapshot(
        scenario, GCASPPolicy(scenario.network, scenario.catalog), seed
    )


def central_env_snapshot(seed: int) -> Dict[str, Any]:
    """Two episodes of the central training env under a seeded action
    sequence: every interval's reward, a digest of every observation,
    and each episode's terminal ``info``."""
    scenario = base_scenario(pattern="poisson", num_ingress=2, horizon=HORIZON)
    env = CentralizedCoordinationEnv(scenario, CentralDRLConfig(), seed=seed)
    actions = np.random.default_rng(1000 + seed)
    episodes = []
    for _ in range(2):
        observations = [env.reset().tolist()]
        rewards: List[str] = []
        while True:
            obs, reward, done, info = env.step(int(actions.integers(env.num_actions)))
            observations.append(obs.tolist())
            if reward != 0.0 or done:
                rewards.append(repr(reward))
            if done:
                break
        episodes.append({
            "steps": len(observations) - 1,
            "rewards": rewards,
            "observation_digest": _digest([[repr(x) for x in o] for o in observations]),
            "info": {k: repr(v) for k, v in sorted(info.items())},
        })
    return {"episodes": episodes}


def central_policy_snapshot(seed: int, stochastic_rules: bool) -> Dict[str, Any]:
    scenario = base_scenario(pattern="poisson", num_ingress=2, horizon=HORIZON)
    env = CentralizedCoordinationEnv(scenario)
    network = ActorCriticPolicy(
        env.observation_size, env.num_actions, hidden=(16, 16), rng=seed
    )
    policy = CentralDRLPolicy(
        scenario.network, scenario.catalog, network,
        CentralDRLConfig(stochastic_rules=stochastic_rules), horizon=HORIZON,
    )
    return _run_snapshot(scenario, policy, seed)


def distributed_snapshot(seed: int) -> Dict[str, Any]:
    scenario = base_scenario(pattern="poisson", num_ingress=2, horizon=HORIZON)
    adapter = ObservationAdapter(scenario.network, scenario.catalog)
    network = ActorCriticPolicy(
        adapter.size, scenario.network.degree + 1, hidden=(16, 16), rng=seed
    )
    coordinator = DistributedCoordinator(
        scenario.network, scenario.catalog, network, deterministic=False, seed=seed
    )
    return _run_snapshot(scenario, coordinator, seed)


def all_snapshots() -> Dict[str, Dict[int, Dict[str, Any]]]:
    return {
        "gcasp": {seed: gcasp_snapshot(seed) for seed in (0, 1)},
        "central_env": {seed: central_env_snapshot(seed) for seed in (0, 1)},
        "central_rules": {seed: central_policy_snapshot(seed, False) for seed in (0,)},
        "central_weights": {seed: central_policy_snapshot(seed, True) for seed in (0,)},
        "distributed": {seed: distributed_snapshot(seed) for seed in (0,)},
    }


@pytest.mark.parametrize("seed", sorted(GOLDEN["gcasp"]))
def test_gcasp_golden_snapshot(seed: int) -> None:
    assert gcasp_snapshot(seed) == GOLDEN["gcasp"][seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN["central_env"]))
def test_central_env_golden_snapshot(seed: int) -> None:
    assert central_env_snapshot(seed) == GOLDEN["central_env"][seed]


@pytest.mark.parametrize("stochastic_rules", [False, True])
def test_central_policy_golden_snapshot(stochastic_rules: bool) -> None:
    key = "central_weights" if stochastic_rules else "central_rules"
    assert central_policy_snapshot(0, stochastic_rules) == GOLDEN[key][0]


def test_distributed_golden_snapshot() -> None:
    assert distributed_snapshot(0) == GOLDEN["distributed"][0]


if __name__ == "__main__":
    # Regeneration helper for intentional semantic changes.
    print(json.dumps(all_snapshots(), indent=4))
