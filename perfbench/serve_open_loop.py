"""Workload ``serve-open-loop``: the serving engine under an open loop.

``ServingEngine`` at its defaults (batch 32, deadline 2 ms, float64)
serves a seeded Abilene policy on 512 real observations harvested with
``collect_observation_pool``.  The benchmark's own single-threaded
generator sends requests on a seeded Poisson schedule, independent of
service progress; every request is timed from the moment it was due, a
shed request counts as missing the SLO, and the generator's own lateness is
reported.  A hot swap every 1,000 submissions puts writes beside the
reads: it installs one of two clones of the policy made during set-up
(``clone`` itself takes about 20 ms, which belongs to whoever trains the
new weights, not to the serving loop).

Phases: ``lo`` (1,000 req/s, deadline-triggered flushes), ``knee``
(10,000 req/s, near the shedding point), closed batches at saturation
(the engine's capacity), and a bisection for the highest rate at which
most of its open-loop trials' p99 meet the SLO (5 ms from the due
time).  Every served action must equal
``policy.act_single(obs, deterministic=True)``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from common import Outcome, best, calibrate, median, percentile, timed
from spans import Tracer

SLO_S = 0.005
LO_RATE = 1_000.0
KNEE_RATE = 10_000.0
SWAP_EVERY = 1_000
#: Requests per window of the ``lo`` p99 (ten beyond each window's p99).
LO_WINDOW = 1_000
#: Open-loop trials per rate probed by the SLO bisection.
TRIALS = 3
#: Set-up samples and closed batches run between two phases.
CLOSED_BATCHES = 4
#: Calibration passes (``common.calibrate``) after every closed batch.
CALIBRATIONS_PER_BATCH = 5
_IDLE_SLEEP_S = 0.005


@dataclass(frozen=True)
class Budget:
    pool: int
    saturation_requests: int
    search_probes: int
    horizon: float


BUDGETS = {
    "full": Budget(pool=512, saturation_requests=10_000, search_probes=6, horizon=400.0),
    "tiny": Budget(pool=64, saturation_requests=500, search_probes=2, horizon=150.0),
}


@dataclass
class Phase:
    """What one drive of the engine measured.  ``latency`` and
    ``lateness`` are indexed by request (in due order); a shed request's
    latency stays infinite."""

    latency: np.ndarray
    lateness: np.ndarray
    submitted: int = 0
    shed: int = 0
    served: int = 0
    mismatches: int = 0
    wall: float = 0.0
    queue_waits: List[float] = field(default_factory=list)
    flushes: List[float] = field(default_factory=list)
    forwards: List[float] = field(default_factory=list)
    swap_flushes: List[float] = field(default_factory=list)
    deadline_flushes: int = 0
    tie_fallbacks: int = 0

    def attainment(self) -> float:
        """Share of submitted requests served within the SLO."""
        return float(np.mean(self.latency <= SLO_S))

    def p(self, q: float, latency: Optional[np.ndarray] = None) -> float:
        """Nearest-rank latency percentile (seconds); a shed request
        counts as infinitely late."""
        ranked = np.sort(self.latency if latency is None else latency)
        return float(ranked[max(math.ceil(q / 100.0 * ranked.size) - 1, 0)])

    def p99_of_windows(self, size: int) -> float:
        """Median over consecutive windows of ``size`` requests of each
        window's p99, so one host stall moves one window only."""
        windows = [self.latency[i:i + size] for i in range(0, self.latency.size, size)]
        return median([self.p(99, w) for w in windows if w.size == size] or [self.p(99)])


def setup(budget: Budget, seed: int):
    """The served policy, two clones to hot-swap in, the request payloads
    and their expected actions."""
    from repro.core.env import ServiceCoordinationEnv
    from repro.eval.scenarios import base_scenario
    from repro.rl.policy import ActorCriticPolicy
    from repro.serving import collect_observation_pool

    scenario = base_scenario(pattern="poisson", num_ingress=2, horizon=budget.horizon,
                             capacity_seed=0)
    probe = ServiceCoordinationEnv(scenario, seed=seed)
    policy = ActorCriticPolicy(probe.observation_size, probe.num_actions, rng=seed)
    observations = collect_observation_pool(scenario, policy, budget.pool, seed=seed)
    expected = np.array([policy.act_single(row, deterministic=True) for row in observations])
    return policy, (policy.clone(), policy.clone()), observations, expected


def drive(policy, replicas, observations: np.ndarray, expected: np.ndarray,
          arrivals: Optional[np.ndarray], requests: int, tracer: Tracer) -> Phase:
    """Serve ``requests`` requests: on the ``arrivals`` schedule (offsets
    in seconds) when given, else as a closed batch that keeps the queue
    full.  Single-threaded; no request is dropped silently."""
    from repro.serving import ServingEngine

    clock = time.perf_counter
    engine = ServingEngine(policy, clock=clock)
    stats = engine.stats
    phase = Phase(latency=np.full(requests, math.inf), lateness=np.zeros(requests))
    pool = observations.shape[0]
    due = np.empty(requests, dtype=np.float64)
    index_of: Dict[int, int] = {}
    start = clock()

    def submit(i: int, now: float) -> None:
        due[i] = start + arrivals[i] if arrivals is not None else now
        phase.lateness[i] = now - due[i]
        request_id = engine.submit(observations[i % pool], now=float(due[i]))
        if request_id is None:
            phase.shed += 1
        else:
            index_of[request_id] = i
        if (i + 1) % SWAP_EVERY == 0:
            engine.install(replicas[(i + 1) // SWAP_EVERY % 2])

    def collect(decisions, flush_start: float, flush_end: float,
                forward: float, swapped: bool) -> None:
        phase.flushes.append(flush_end - flush_start)
        phase.forwards.append(forward)
        if swapped:
            phase.swap_flushes.append(flush_end - flush_start)
        for decision in decisions:
            i = index_of.pop(decision.request_id)
            phase.latency[i] = decision.completion_time - due[i]
            phase.queue_waits.append(flush_start - due[i])
            tracer.add("loadgen.request", float(due[i]), decision.completion_time, i)
            if decision.action != expected[i % pool]:
                phase.mismatches += 1
        phase.served += len(decisions)

    def flush(force: bool) -> bool:
        forward, swaps = stats.forward_seconds, stats.swaps
        flush_start = clock()
        decisions = engine.flush() if force else engine.poll(now=flush_start)
        if not decisions:
            return False
        flush_end = clock()
        tracer.add("serving.flush", flush_start, flush_end)
        collect(decisions, flush_start, flush_end, stats.forward_seconds - forward,
                stats.swaps > swaps)
        return True

    i = 0
    if arrivals is None:
        while phase.served + phase.shed < requests:
            while i < requests and not engine.queue_full:
                submit(i, clock())
                i += 1
            if not flush(force=False) and engine.pending:
                flush(force=True)
    else:
        while i < requests:
            now = clock()
            while i < requests and start + arrivals[i] <= now:
                submit(i, now)
                i += 1
            flush(force=False)
            if i < requests and engine.pending == 0:
                gap = start + arrivals[i] - clock()
                if gap > _IDLE_SLEEP_S:
                    time.sleep(gap / 2.0)
        while engine.pending:
            flush(force=False)
    phase.wall = clock() - start
    phase.submitted = i
    phase.deadline_flushes = stats.deadline_flushes
    phase.tie_fallbacks = stats.tie_fallbacks
    # Every accepted request must have been answered exactly once.
    phase.mismatches += len(index_of)
    return phase


def _arrivals(rate: float, requests: int, seed: int) -> np.ndarray:
    from repro.serving import poisson_arrivals

    return poisson_arrivals(rate, requests, np.random.default_rng(seed))


def run(case: int, seconds: float, tracer: Tracer, budget_name: str,
        expected: Optional[Dict[str, Any]], out_dir: Path, src: Path) -> Outcome:
    # The reference is the policy itself (act_single), not a stored table.
    budget = BUDGETS[budget_name]
    (policy, replicas, observations, actions), first = timed(lambda: setup(budget, case))
    outcome = Outcome(setup_seconds=[first], metrics={})
    untraced = Tracer(False)
    rng = np.random.SeedSequence(case).spawn(2 + TRIALS * budget.search_probes)

    def phase(rate: Optional[float], requests: int, stream: int,
              traced: bool = False) -> Phase:
        arrivals = _arrivals(rate, requests, rng[stream]) if rate else None
        result = drive(policy, replicas, observations, actions, arrivals, requests,
                       tracer if traced else untraced)
        outcome.attempted += result.submitted
        outcome.failed += result.mismatches
        return result

    # Of the run's time, ``lo`` takes two fifths, ``knee`` one and the
    # bisection two.  A set-up sample and a closed batch, a fixed amount
    # of work each, run between the other phases, so that they sample
    # the host over the whole run.  Only the first set-up is kept
    # (memory holds one of them), and only summaries of the bisection
    # probes, so memory does not depend on how far the search goes.
    saturation: List[float] = []

    def between() -> None:
        for _ in range(CLOSED_BATCHES):
            outcome.setup_seconds.append(timed(lambda: setup(budget, case))[1])
            saturation.append(phase(None, budget.saturation_requests, 0).wall)
            outcome.calibrations.extend(calibrate() for _ in range(CALIBRATIONS_PER_BATCH))

    between()
    lo = phase(LO_RATE, max(int(LO_RATE * seconds * 2 / 5), 200), 0, traced=tracer.enabled)
    between()
    # At least two swaps, so that ``serving.swap_flush_ms`` is measured.
    knee = phase(KNEE_RATE, max(int(KNEE_RATE * seconds / 5), 2 * SWAP_EVERY), 1,
                 traced=tracer.enabled)
    between()
    # The search starts from ``lo`` only if ``lo`` itself meets the SLO
    # (most of its windows do); otherwise it looks below it.
    lo_p99 = lo.p99_of_windows(LO_WINDOW)
    lo_met = lo_p99 <= SLO_S
    capacity = budget.saturation_requests / best(saturation)
    low, high = (LO_RATE, capacity) if lo_met else (0.0, LO_RATE)
    trial_seconds = max(2 * seconds / 5 / budget.search_probes / TRIALS, 0.05)
    for k in range(budget.search_probes):
        rate = (low + high) / 2.0
        # A rate meets the SLO when most of its trials do, so one host
        # stall cannot halve the answer.
        met = sum(
            phase(rate, max(int(rate * trial_seconds), 200), 2 + TRIALS * k + t).p(99) <= SLO_S
            for t in range(TRIALS))
        if 2 * met > TRIALS:
            low = rate
        else:
            high = rate
        between()
    lateness = np.concatenate([lo.lateness, knee.lateness])
    # ``max_rate_at_slo`` is reported, not bounded: near saturation a
    # trial's p99 turns on how fast the host runs for that half second,
    # and on a shared 2-CPU host the answer spread by 0.1-0.4 of its
    # median across runs of the same code.  The engine's closed-loop
    # capacity stands in for it.
    # The closed batches' mean in seconds of the reference host
    # (``Outcome.scale``).  The latencies at ``lo`` are not scaled: the
    # 2 ms flush deadline, a wall-clock time, sets most of them.
    closed = sum(saturation) / len(saturation) * outcome.scale()
    outcome.metrics = {
        "wall_s": closed,
        "decisions_per_s": budget.saturation_requests / closed,
        "decision_p50_ms": lo.p(50) * 1e3,
        "decision_p99_ms": lo_p99 * 1e3,
    }
    outcome.report += [
        f"latency_p50_ms = {outcome.metrics['decision_p50_ms']:.4f} ms, latency_p99_ms = "
        f"{outcome.metrics['decision_p99_ms']:.4f} ms (median of per-{LO_WINDOW} p99s; "
        f"over all: {lo.p(99) * 1e3:.4f} ms) at lo {LO_RATE:.0f} req/s "
        f"({lo.submitted} requests)",
        f"knee_latency_p50_ms = {knee.p(50) * 1e3:.4f} ms, knee_latency_p99_ms = "
        f"{knee.p(99) * 1e3:.4f} ms at knee {KNEE_RATE:.0f} req/s ({knee.submitted} requests, "
        f"{knee.shed} shed)",
        f"max_rate_at_slo = {low:.1f} req/s (p99 <= {SLO_S * 1e3:.0f} ms, "
        f"{budget.search_probes} rates x {TRIALS} trials from "
        f"{'lo, which meets the SLO' if lo_met else '0: lo MISSES the SLO'})",
        f"slo_attainment = {knee.attainment():.6f} at knee",
        f"loadgen lateness p99 = {percentile(lateness, 99) * 1e3:.4f} ms (lo and knee)",
    ]
    if tracer.enabled:
        traced = phase(None, budget.saturation_requests, 0, traced=True)
        outcome.layers = {
            "serving.queue_wait_ms_p50": percentile(lo.queue_waits, 50) * 1e3,
            "serving.queue_wait_ms_p99": percentile(lo.queue_waits, 99) * 1e3,
            "serving.mean_batch": lo.served / len(lo.flushes),
            "serving.deadline_flush_ratio": lo.deadline_flushes / len(lo.flushes),
            "serving.flush_ms_p50": percentile(knee.flushes, 50) * 1e3,
            "serving.flush_ms_p99": percentile(knee.flushes, 99) * 1e3,
            "serving.forward_ms_p50": percentile(knee.forwards, 50) * 1e3,
            "serving.forward_ms_p99": percentile(knee.forwards, 99) * 1e3,
            "serving.swap_flush_ms_p50": percentile(knee.swap_flushes, 50) * 1e3,
            "serving.tie_fallbacks": float(knee.tie_fallbacks),
            "serving.shed": float(knee.shed),
            "loadgen.lateness_ms_p50": percentile(lateness, 50) * 1e3,
            "loadgen.lateness_ms_p99": percentile(lateness, 99) * 1e3,
            "trace.overhead_ratio": traced.wall / (sum(saturation) / len(saturation)),
        }
    return outcome
