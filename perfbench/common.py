"""Helpers shared by the workloads: timing summaries, the host-speed
calibration that turns measured seconds into seconds of a reference
host, memory, the repeat-until-deadline loop, the timed deployment of a
coordinator, and the outcome every workload returns."""

from __future__ import annotations

import heapq
import json
import math
import re
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0 when there are no samples."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def best(values: Sequence[float]) -> float:
    """The lowest of repeated measurements of the same work.  The host's
    speed swings by tens of percent for seconds at a time; the passes of
    a run are spread over it, and the fastest one is the figure that
    repeats from run to run.  A slower program is slower in every pass,
    so a regression still shows."""
    return float(min(values))


#: Seconds one ``calibrate()`` pass takes on the reference host; timed
#: figures are reported in that host's seconds.
CALIBRATION_REFERENCE_S = 0.009


class _Node:
    __slots__ = ("load", "links")

    def __init__(self, links: "tuple[int, ...]") -> None:
        self.load = 0.0
        self.links = links


def _build_calibration():
    rng = np.random.default_rng(0)
    nodes = [_Node(tuple(int(x) for x in rng.integers(0, 20_000, 4))) for _ in range(20_000)]
    return {
        "nodes": nodes,
        "names": {f"n{i}": node for i, node in enumerate(nodes)},
        "visits": [f"n{int(i)}" for i in rng.integers(0, 20_000, 4096)],
        "keys": rng.integers(0, 100_000, 4000).tolist(),
        "table": {i: (i * 2_654_435_761) % 1_000_003 for i in range(100_000)},
        "x": rng.standard_normal(24),
        "w1": rng.standard_normal((24, 64)) * 0.2,
        "w2": rng.standard_normal((64, 5)) * 0.2,
        "m": rng.standard_normal((24, 24)),
        "source": "\n".join(
            f"def f{i}(a, b=3):\n    x = [a * k for k in range(b)]\n"
            f"    return {{'k': x, 's': sum(x) + {i}}}\n" for i in range(8)),
        "document": {"nodes": [{"id": i, "name": f"n{i}", "links": list(range(i % 5)),
                                "w": i * 0.5} for i in range(60)]},
        "pattern": re.compile(r"n(\d+)"),
    }


_CALIBRATION = _build_calibration()


def calibrate() -> float:
    """Seconds of one fixed piece of the benchmark's own work in the
    program's mix, three parts of about equal time:

    * an event loop over a graph of 20,000 small objects with a one-row
      MLP forward per event, then random lookups in a 100,000-entry
      dict: a working set larger than a core's caches, like the
      simulator's;
    * many numpy calls on 24-element vectors, like building an
      observation and acting on it;
    * compiling a small module, a JSON round trip and a regex scan: a
      wide spread of interpreter code.

    Over 59 ``eval-deploy`` rounds on a 2-CPU shared host whose speed
    swung twofold, a round's seconds rose with the seconds of such
    passes run beside it at a slope of 1.04 on a log scale (correlation
    0.97); each part alone gave a slope between 0.9 and 1.5.  The pass
    touches no program code, so a change to the program leaves it
    unchanged."""
    data = _CALIBRATION
    nodes, names, visits = data["nodes"], data["names"], data["visits"]
    x, w1, w2, table, m = data["x"], data["w1"], data["w2"], data["table"], data["m"]
    start = time.perf_counter()
    heap = [(0.0, 0)]
    for i in range(150):
        clock, _ = heapq.heappop(heap)
        node = names[visits[(7 * i) % 4096]]
        for link in node.links:
            other = nodes[link]
            other.load = (other.load + 0.5 * node.load + 1.0) % 97.0
        action = int(np.argmax(np.tanh(x @ w1) @ w2))
        node.load = node.load * 0.5 + action
        heapq.heappush(heap, (clock + 1.0 + i % 7, node.links[action % 4]))
        heapq.heappush(heap, (clock + 2.0, i))
    total = 0
    for key in data["keys"]:
        total += table[key]
    out = np.empty(24)
    for _ in range(150):
        z = np.zeros(24)
        z[:12] = x[12:]
        z[12:] = np.clip(x[:12], -1.0, 1.0)
        np.dot(m, z, out=out)
        total += int(np.argmax(out)) + float(out.max()) + float(np.tanh(out).sum())
    for _ in range(2):
        exec(compile(data["source"], "<calibrate>", "exec"), {})
        text = json.dumps(data["document"])
        json.loads(text)
        total += sum(int(match.group(1)) for match in data["pattern"].finditer(text))
    return time.perf_counter() - start


def reference_scale(calibrations: Sequence[float]) -> float:
    """The factor that turns seconds measured beside ``calibrations``
    (seconds of ``calibrate()`` passes) into seconds of the reference
    host: the reference pass time over their mean.  The passes run
    between pieces of the timed work, so both see the same stretches of
    host speed, which on a shared machine drifts by half for minutes at
    a time.  Without passes the factor is 1."""
    if len(calibrations) == 0:
        return 1.0
    return CALIBRATION_REFERENCE_S * len(calibrations) / float(sum(calibrations))


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed(fn: Callable[[], T]) -> "tuple[T, float]":
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def repeat_for(seconds: float, fn: Callable[[int], T], min_reps: int = 1) -> List[T]:
    """Call ``fn(rep)`` until ``seconds`` have passed (at least
    ``min_reps`` times); a rep is started only inside the budget."""
    deadline = time.perf_counter() + seconds
    results: List[T] = []
    while len(results) < min_reps or time.perf_counter() < deadline:
        results.append(fn(len(results)))
    return results


def deploy(scenario, sim_config, traffic_seed: int, coordinator: Callable,
           samples: Optional[List[float]] = None):
    """Run ``scenario``'s traffic for ``traffic_seed`` through one
    simulator under ``coordinator`` and return its metrics.  With
    ``samples``, the seconds of every coordinator call are appended to
    it: the per-flow decision time of Fig. 9b."""
    from repro.sim.simulator import Simulator

    if samples is not None:
        clock = time.perf_counter
        inner = coordinator

        def coordinator(decision, sim):
            start = clock()
            action = inner(decision, sim)
            samples.append(clock() - start)
            return action

    traffic = scenario.traffic_factory(np.random.default_rng(traffic_seed))
    return Simulator(scenario.network, scenario.catalog, traffic, sim_config).run(coordinator)


def same(a: Any, b: Any, rel: float = 1e-9) -> bool:
    """Numbers equal to ``rel`` (NaN/None equal each other); containers
    compared element-wise."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k], rel) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y, rel) for x, y in zip(a, b))
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def finite_or_none(value: float) -> Any:
    """JSON-safe float: NaN becomes None."""
    return None if math.isnan(value) else float(value)


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``attempted``/``failed`` count checked operations: each one is
    compared against the committed reference (or the run's own first
    repetition) and counts as failed when it differs.
    """

    setup_seconds: List[float]
    metrics: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    report: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    #: This seed's checked results, in the reference file's format.
    produced: Any = None
    #: Seconds of ``calibrate()`` passes interleaved with the timed work.
    calibrations: List[float] = field(default_factory=list)

    def scale(self) -> float:
        """``reference_scale`` of all the run's calibration passes."""
        return reference_scale(self.calibrations)

    def check_all(self, label: str, observed: Any, expected: Any) -> None:
        """Check every number in nested dicts/lists, each as one
        operation; a value missing from ``expected`` is a mismatch."""
        if isinstance(observed, dict):
            for key, value in observed.items():
                self.check_all(f"{label} {key}", value,
                               expected.get(key) if isinstance(expected, dict) else None)
        elif isinstance(observed, list):
            for j, value in enumerate(observed):
                self.check_all(f"{label}[{j}]", value,
                               expected[j] if isinstance(expected, list) and j < len(expected)
                               else None)
        else:
            self.check(label, observed, expected)

    def check(self, label: str, observed: Any, expected: Any) -> None:
        """Count one checked operation; record a mismatch."""
        self.attempted += 1
        if not same(observed, expected):
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(f"{label}: got {observed!r}, expected {expected!r}")
