"""Workload ``fig6-cell``: time to reproduce one Fig. 6 cell.

One cell of the paper's headline comparison (Abilene, Poisson arrivals,
2 ingress nodes, capacity seed 0): train the distributed DRL (ACKTR) and
the central DRL over k=2 seeds with one pool worker per CPU, then
compare the four coordinators on held-out evaluation seeds.  It is a
closed batch job.  The training budget is the bench ``smoke`` scale's
(250 distributed and 100 central updates of 64 steps) cut by ten for
both trainings alike, so that several cells fit in one run while the
stages keep the smoke cell's shares of its time.

The cell repeats until the run's time is spent.  Each repetition must
give the same per-algorithm, per-seed success ratios and mean delays as
the first one and as the committed reference for the case.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from common import (
    Outcome, calibrate, deploy, finite_or_none, median, peak_rss_mb, percentile,
    reference_scale, repeat_for, timed,
)
from spans import Tracer


@dataclass(frozen=True)
class Budget:
    train_updates: int
    central_updates: int
    n_steps: int
    n_envs: int
    horizon: float
    train_seeds: int
    eval_seeds: int


BUDGETS = {
    "full": Budget(train_updates=25, central_updates=10, n_steps=64, n_envs=4,
                   horizon=600.0, train_seeds=2, eval_seeds=2),
    "tiny": Budget(train_updates=2, central_updates=1, n_steps=8, n_envs=2,
                   horizon=150.0, train_seeds=2, eval_seeds=1),
}

_COLD_START = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.eval.runner import AlgorithmSuite
from repro.eval.scenarios import base_scenario
base_scenario(pattern="poisson", num_ingress=2, horizon=float(sys.argv[2]), capacity_seed=0)
"""

#: The smaller cell the traced run repeats in fresh interpreters with one
#: BLAS thread per process and at the bundled OpenBLAS's default.
BLAS_PROBE = {
    "full": Budget(train_updates=10, central_updates=4, n_steps=64, n_envs=4,
                   horizon=600.0, train_seeds=2, eval_seeds=1),
    "tiny": BUDGETS["tiny"],
}

_BLAS_CELL = """
import json, os, sys
sys.path[:0] = sys.argv[1:3]
import fig6_cell
from spans import Tracer
budget = fig6_cell.BLAS_PROBE[sys.argv[3]]
cell = fig6_cell.run_cell(fig6_cell.scenario(budget), budget, int(sys.argv[4]),
                          os.cpu_count() or 1, Tracer(False))
print(json.dumps({"wall": cell["wall"], "results": cell["results"]}))
"""


#: The timed stages of a cell, in order.
STAGES = ("train_distributed", "train_central", "compare")
#: Calibration passes (``common.calibrate``) in every pause of a run.
CALIBRATIONS_PER_PAUSE = 10


def scenario(budget: Budget):
    from repro.eval.scenarios import base_scenario

    return base_scenario(pattern="poisson", num_ingress=2, horizon=budget.horizon,
                         capacity_seed=0)


def cold_start(src: Path, budget: Budget) -> float:
    """Seconds for a fresh interpreter to import the stack and build the
    cell's scenario: what a user pays before the cell starts."""
    # No timeout: waiting with one polls the child every 50 ms, which
    # would round every sample up to the next poll.
    _, seconds = timed(lambda: subprocess.run(
        [sys.executable, "-c", _COLD_START, str(src), str(budget.horizon)], check=True,
    ))
    return seconds


def blas_cell(src: Path, budget_name: str, case: int, pinned: bool) -> Dict[str, Any]:
    """Wall and results of one ``BLAS_PROBE`` cell in a fresh interpreter,
    with one BLAS thread per process (``pinned``) or with the bundled
    OpenBLAS's default of a thread per CPU in the parent and every pool
    worker: the setting a user of the program gets."""
    env = dict(os.environ)
    if pinned:
        env["OPENBLAS_NUM_THREADS"] = "1"
    else:
        env.pop("OPENBLAS_NUM_THREADS", None)
    done = subprocess.run(
        [sys.executable, "-c", _BLAS_CELL, str(Path(__file__).resolve().parent), str(src),
         budget_name, str(case)],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _recorders(telemetry: Optional[Path]) -> Dict[str, Any]:
    """One telemetry stream per stage (the null recorder when untraced)."""
    from repro.telemetry import NULL_RECORDER, JsonlRecorder

    return {
        name: NULL_RECORDER if telemetry is None else JsonlRecorder(telemetry / f"{name}.jsonl")
        for name in ("distributed", "central", "compare")
    }


def _seeds(budget: Budget, case: int):
    """Training seeds and held-out evaluation seeds of the cell."""
    return (tuple(budget.train_seeds * case + i for i in range(budget.train_seeds)),
            [10**6 + budget.eval_seeds * case + i for i in range(budget.eval_seeds)])


def run_cell(env_config, budget: Budget, case: int, workers: int, tracer: Tracer,
             telemetry: Optional[Path] = None,
             pause: Callable[[], None] = lambda: None) -> Dict[str, Any]:
    """Train and compare once; returns per-algorithm results, the trained
    distributed coordinator, the cell's wall time and its stages' times.
    ``pause`` runs between stages, outside the timed cell."""
    from repro.baselines.central_drl import (
        CentralDRLConfig,
        CentralDRLPolicy,
        CentralizedEnvBuilder,
    )
    from repro.baselines.gcasp import GCASPPolicy
    from repro.baselines.shortest_path import ShortestPathPolicy
    from repro.core.trainer import TrainingConfig, train_coordinator
    from repro.eval.runner import (
        CENTRAL_DRL, DISTRIBUTED_DRL, GCASP, SP, AlgorithmSuite,
    )
    from repro.rl.acktr import ACKTRConfig
    from repro.rl.training import train_multi_seed

    train_seeds, eval_seeds = _seeds(budget, case)
    network, catalog = env_config.network, env_config.catalog
    stages: Dict[str, float] = {}
    recorders = _recorders(telemetry)
    start = time.perf_counter()
    with tracer.span("fig6.cell"):
        with tracer.span("rl.train_distributed"):
            training, stages["train_distributed"] = timed(lambda: train_coordinator(
                env_config,
                TrainingConfig(seeds=train_seeds, updates_per_seed=budget.train_updates,
                               n_envs=budget.n_envs, n_steps=budget.n_steps, workers=workers),
                recorder=recorders["distributed"],
            ))
        _, paused = timed(pause)
        with tracer.span("baselines.train_central"):
            central_config = CentralDRLConfig()
            multi, stages["train_central"] = timed(lambda: train_multi_seed(
                CentralizedEnvBuilder(env_config, central_config),
                config=ACKTRConfig(n_envs=budget.n_envs, n_steps=budget.n_steps),
                seeds=train_seeds,
                updates_per_seed=budget.central_updates,
                workers=workers,
                recorder=recorders["central"],
            ))
            central = CentralDRLPolicy(network, catalog, multi.best_policy, central_config,
                                       horizon=env_config.sim_config.horizon)
        paused += timed(pause)[1]
        suite = AlgorithmSuite(
            env_config=env_config,
            factories={
                DISTRIBUTED_DRL: training.coordinator.fresh,
                CENTRAL_DRL: central.fresh,
                GCASP: partial(GCASPPolicy, network, catalog),
                SP: partial(ShortestPathPolicy, network, catalog),
            },
            coordinator=training.coordinator,
            central=central,
        )
        with tracer.span("eval.compare"):
            results, stages["compare"] = timed(lambda: suite.compare(
                eval_seeds=eval_seeds, workers=workers,
                recorder=recorders["compare"],
            ))
    wall = time.perf_counter() - start - paused
    for recorder in recorders.values():
        recorder.close()
    return {
        "results": {
            name: {"success": [float(x) for x in r.success_ratios],
                   "delay": [finite_or_none(x) for x in r.avg_delays]}
            for name, r in results.items()
        },
        "coordinator": training.coordinator,
        "wall": wall,
        "stages": stages,
        "decisions": len(train_seeds) * budget.n_envs * budget.n_steps
        * (budget.train_updates + budget.central_updates),
    }


def decision_probe(env_config, coordinator, eval_seeds: List[int]):
    """Per-call latency (seconds) of a cell's trained distributed agents
    deployed serially on the evaluation seeds (Fig. 9b): one pass.  A
    calibration pass (``common.calibrate``) follows every deployment;
    their seconds are returned beside the calls'."""
    samples: List[float] = []
    beside: List[float] = []
    # The pass starts from the same collector state wherever it runs, so
    # a collection of the cell's garbage lands in no timed call.
    gc.collect()
    for seed in eval_seeds:
        deploy(env_config, env_config.sim_config, seed, coordinator.fresh(), samples)
        beside.append(calibrate())
    return samples, beside


def _telemetry_layers(telemetry_dirs: List[Path], budget: Budget) -> Dict[str, float]:
    """Per-cell means of the program's train_phases / task_timing /
    batch_timing records."""
    sums: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        sums[name] = sums.get(name, 0.0) + value

    busy = capacity = 0.0
    for directory in telemetry_dirs:
        for stream in ("distributed", "central", "compare"):
            path = directory / f"{stream}.jsonl"
            tasks: Dict[str, List[float]] = {}
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                kind = record["kind"]
                if kind == "train_phases":
                    phases = {p: record[p] for p in ("sim_advance", "obs_build",
                                                    "policy_forward", "optimizer_update")}
                    if not phases["sim_advance"]:
                        # The program's profiler does not hook the
                        # centralized env, so its env steps (simulator
                        # plus rule application) are the trainer's
                        # unattributed wall.
                        phases["sim_advance"] = record["wall_seconds"] - sum(phases.values())
                    for phase, seconds in phases.items():
                        add(f"rl.{stream}.{phase}_s", seconds)
                    add(f"rl.{stream}.updates", record["updates"])
                    add(f"rl.{stream}.decisions",
                        record["updates"] * budget.n_envs * budget.n_steps)
                    for sub in ("fisher_stats", "grad_pass", "inversion", "precondition"):
                        add(f"nn.kfac.{sub}_s", record.get(sub, 0.0))
                elif kind == "task_timing":
                    tasks.setdefault(record["batch"], []).append(record["seconds"])
                elif kind == "batch_timing":
                    seconds = tasks.get(record["name"], [])
                    busy += sum(seconds)
                    capacity += record["total_seconds"] * record["workers"]
                    add("parallel.task_busy_s", sum(seconds))
                    add("parallel.dispatch_overhead_s",
                        record["total_seconds"] - max(seconds, default=0.0))
    layers = {name: value / len(telemetry_dirs) for name, value in sums.items()}
    layers["parallel.utilization"] = busy / capacity if capacity else 0.0
    central_total = sum(layers.get(f"rl.central.{p}_s", 0.0) for p in (
        "sim_advance", "obs_build", "policy_forward", "optimizer_update"))
    layers["rl.central.sim_advance_share"] = (
        layers.get("rl.central.sim_advance_s", 0.0) / central_total if central_total else 0.0)
    return layers


def run(case: int, seconds: float, tracer: Tracer, budget_name: str,
        expected: Optional[Dict[str, Any]], out_dir: Path, src: Path) -> Outcome:
    budget = BUDGETS[budget_name]
    workers = os.cpu_count() or 1
    setup = [cold_start(src, budget) for _ in range(3)]
    env_config = scenario(budget)
    eval_seeds = _seeds(budget, case)[1]
    # Probe passes: (per-call seconds, calibration passes run beside them).
    probe: List[Any] = []
    agents: List[Any] = []  # the first cell's trained distributed agents
    calibrations: List[float] = []

    def probe_pass() -> None:
        # Probe and calibration passes run between the stages of every
        # cell and after it, and a set-up sample after every cell, so
        # that they sample the host over the whole run, not one stretch.
        calibrations.extend(calibrate() for _ in range(CALIBRATIONS_PER_PAUSE))
        if agents and not tracer.enabled:
            probe.append(decision_probe(env_config, agents[0], eval_seeds))

    def rep(index: int) -> Dict[str, Any]:
        # The traced run keeps its first repetition untraced, as the
        # baseline the tracing overhead is measured against.
        traced = tracer.enabled and index > 0
        telemetry = out_dir / "telemetry" / f"rep{index}" if traced else None
        if traced:
            os.environ["REPRO_PROFILE_PHASES"] = "1"
        try:
            cell = run_cell(env_config, budget, case, workers,
                            tracer if traced else Tracer(False), telemetry, probe_pass)
        finally:
            os.environ.pop("REPRO_PROFILE_PHASES", None)
        cell["telemetry"] = telemetry
        if index == 0:
            # Memory of a fixed amount of work: set-up and one cell.  Later
            # cells reuse it, but fragmentation would make a peak over a
            # varying number of cells vary with it.
            cell["peak_rss_mb"] = peak_rss_mb()
        # Only the first cell's agents are probed; dropping the others
        # keeps the parent, and so each forked worker, the same size.
        coordinator = cell.pop("coordinator")
        if not agents:
            agents.append(coordinator)
        setup.append(cold_start(src, budget))
        probe_pass()
        return cell

    reps = repeat_for(seconds, rep, min_reps=2 if tracer.enabled else 1)
    first = reps[0]
    outcome = Outcome(setup_seconds=setup, metrics={}, produced=first["results"],
                      calibrations=calibrations)
    for index, cell in enumerate(reps):
        outcome.check_all(f"rep {index}", cell["results"], expected or first["results"])

    walls = [cell["wall"] for cell in reps]
    # Each stage's mean over the cells, in seconds of the reference host
    # (``Outcome.scale``).  The stages are all of a cell's wall but a
    # millisecond of glue.
    scale = outcome.scale()
    stages = {stage: sum(cell["stages"][stage] for cell in reps) / len(reps) * scale
              for stage in STAGES}
    # Per-call latency: each probe pass's percentile, scaled by the
    # calibration passes run beside its deployments, and the median of
    # those over the passes, so that neither a slow stretch nor a lucky
    # one sets the figure.
    def latency_ms(q: float) -> float:
        if not probe:
            return 0.0
        return median([percentile(calls, q) * reference_scale(beside)
                       for calls, beside in probe]) * 1e3

    outcome.metrics = {
        "peak_rss_mb": first["peak_rss_mb"],
        "wall_s": sum(stages.values()),
        "decisions_per_s": first["decisions"] / (stages["train_distributed"]
                                                 + stages["train_central"]),
        "decision_p50_ms": latency_ms(50),
        "decision_p99_ms": latency_ms(99),
    }
    outcome.report += [
        f"cell: {len(reps)} repetitions, workers={workers}, wall median {median(walls):.3f} s "
        f"(min {min(walls):.3f}, max {max(walls):.3f})",
        "stages (median s): " + ", ".join(
            f"{stage}={median([c['stages'][stage] for c in reps]):.3f}" for stage in STAGES),
        f"stages (mean, reference-host s at scale {scale:.4f}): " + ", ".join(
            f"{stage}={t:.3f}" for stage, t in stages.items()),
        "success ratios: " + ", ".join(
            f"{name}={sum(r['success']) / len(r['success']):.4f}"
            for name, r in first["results"].items()),
        f"decision probe: {sum(len(calls) for calls, _ in probe)} deployed "
        f"distributed-agent decisions "
        f"in {len(probe)} passes",
    ]

    if tracer.enabled:
        traced = reps[1:]
        layers = _telemetry_layers([cell["telemetry"] for cell in traced], budget)
        # Means over the traced cells, so the stages and the rest add up
        # to the traced wall exactly.
        for stage, name in (("train_distributed", "rl.train_distributed_s"),
                            ("train_central", "baselines.train_central_s"),
                            ("compare", "eval.compare_s")):
            layers[name] = sum(cell["stages"][stage] for cell in traced) / len(traced)
        traced_wall = sum(cell["wall"] for cell in traced) / len(traced)
        layers["fig6.unattributed_s"] = traced_wall - sum(
            layers[name] for name in ("rl.train_distributed_s", "baselines.train_central_s",
                                      "eval.compare_s"))
        layers["trace.overhead_ratio"] = traced_wall / reps[0]["wall"]
        shares = {name: layers[name] / traced_wall for name in (
            "rl.train_distributed_s", "baselines.train_central_s", "eval.compare_s",
            "fig6.unattributed_s")}
        # The end-to-end cells run with one BLAS thread per process (see
        # run.py); this pair keeps the cost of the default in view.
        pinned = blas_cell(src, budget_name, case, pinned=True)
        default = blas_cell(src, budget_name, case, pinned=False)
        outcome.check_all("default BLAS threads", default["results"], pinned["results"])
        layers["parallel.blas_default_slowdown"] = default["wall"] / pinned["wall"]
        outcome.layers = layers
        outcome.report += [
            f"BLAS threads: a smaller cell took {default['wall']:.3f} s at the bundled "
            f"OpenBLAS's default and {pinned['wall']:.3f} s with one thread per process "
            f"(parallel.blas_default_slowdown {layers['parallel.blas_default_slowdown']:.2f}x)",
            f"traced cell wall {traced_wall:.3f} s = " + " + ".join(
                f"{name} {layers[name]:.3f} ({share:.1%})" for name, share in shares.items()),
            f"central DRL sim_advance share of its training phases "
            f"{layers['rl.central.sim_advance_share']:.1%}; pool utilization "
            f"{layers['parallel.utilization']:.1%} at workers={workers}",
        ]
    return outcome
