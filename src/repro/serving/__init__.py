"""Online decision serving with dynamic micro-batching.

The serving layer turns the trained actor into an online decision
service: per-node coordination requests (observation vectors) coalesce
in a preallocated ring-buffer queue and are served in micro-batches
under a dual trigger (batch size B / latency deadline D) through the
shared :class:`~repro.rl.decision.DecisionKernel` — float64 mode
bit-identical to serial ``policy.act``, float32 fast mode for
throughput.  Weight hot-swaps apply atomically at flush boundaries and
backpressure sheds load at a queue-depth cap.  See
:class:`~repro.serving.engine.ServingEngine` and DESIGN.md §13.
"""

from repro.serving.engine import ServingConfig, ServingEngine
from repro.serving.loadgen import (
    collect_observation_pool,
    poisson_arrivals,
    serve_workload,
)
from repro.serving.queue import RingBufferQueue
from repro.serving.records import Decision, ServingStats

__all__ = [
    "Decision",
    "RingBufferQueue",
    "ServingConfig",
    "ServingEngine",
    "ServingStats",
    "collect_observation_pool",
    "poisson_arrivals",
    "serve_workload",
]
