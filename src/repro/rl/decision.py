"""The decision kernel: one path from actor logits to actions.

Every deployed decision — a node agent's per-flow action (Fig. 4b,
Alg. 1 line 14), a lockstep round of batched evaluation, a serving
flush — goes through :class:`DecisionKernel`.  It owns the inference
dtype, the actor's workspace forward, the action/noise/margin
workspaces, the Gumbel rng contract and the near-tie serial fallback, so
the bit-identity argument below lives in one place.  Training rollouts
keep ``Categorical.sample``: they draw one ``(N, K)`` block per step,
and that stream is part of every trained weight.

Bit-identity (float64)
----------------------

The reference is ``policy.act_single``: a batch-1 actor forward, then the
argmax of the logits (deterministic) or of logits plus Gumbel noise made
from one ``(1, K)`` ``uniform(1e-12, 1)`` block (stochastic).

- :meth:`DecisionKernel.select_one` scores one observation through that
  exact forward (``policy.logits_single``, which looks up
  ``policy.actor.forward`` at call time), so it equals ``act_single`` by
  construction and needs no margin test.
- :meth:`DecisionKernel.select` runs one batched workspace forward.  A
  batched GEMM sums in a different order than a batch-1 GEMV, so its
  logits may differ in the last ulps (~1e-13 relative).  Argmax is
  insensitive to that except near ties, so every row whose top-two
  margin is within :data:`ARGMAX_TIE_TOLERANCE` of the top score is
  rescored through the exact forward.  The tolerance sits orders of
  magnitude above the ulp-level discrepancy, so a row that skips the
  fallback provably agrees with the serial argmax.

Rng contract (stochastic mode): row j draws one ``(1, K)``
``uniform(1e-12, 1)`` block from its own generator, in row order — the
draw ``act_single`` makes for the same decision.  A caller reproduces a
serial loop by passing the generator that loop would use for each row:
the serving engine passes its single generator for every row in FIFO
order, batched evaluation passes each row's episode generator.  The
kernel draws from no generator of its own.

Float32 trades the guarantee for speed: both entry points score through
a single-precision workspace forward and the fallback is off.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Optional, Sequence, Tuple

import numpy as np

from repro.nn.mlp import MLPInference
from repro.rl.policy import ActorCriticPolicy

__all__ = ["ARGMAX_TIE_TOLERANCE", "DecisionKernel", "resolve_eval_dtype"]

#: Minimum top-two score margin (relative to the top score's magnitude)
#: below which :meth:`DecisionKernel.select` rescores a row through the
#: exact forward.  Batched vs batch-1 GEMM discrepancies are ~1e-13
#: relative; meaningful action gaps are orders above 1e-6 — the band
#: between is where the fallback lives.
ARGMAX_TIE_TOLERANCE = 1e-6

#: CLI spellings of the supported inference dtypes.
_EVAL_DTYPES = {"f64": np.float64, "f32": np.float32}


def resolve_eval_dtype(value: Optional[Any] = None) -> np.dtype:
    """Effective inference dtype: explicit ``value`` (``"f64"``/``"f32"``
    or a numpy dtype), else the ``REPRO_EVAL_DTYPE`` environment
    variable, else float64 (the bit-exact default)."""
    if value is None:
        raw = os.environ.get("REPRO_EVAL_DTYPE", "").strip().lower()
        if not raw:
            return np.dtype(np.float64)
        value = raw
    if isinstance(value, str):
        key = value.strip().lower()
        if key not in _EVAL_DTYPES:
            raise ValueError(
                f"unknown eval dtype {value!r}; choose from {sorted(_EVAL_DTYPES)}"
            )
        return np.dtype(_EVAL_DTYPES[key])
    dtype = np.dtype(value)
    if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ValueError(f"eval dtype must be float64/float32, got {dtype}")
    return dtype


class DecisionKernel:
    """Turns observations into actions through one policy's actor.

    Args:
        policy: The actor-critic whose actor scores observations; a hot
            swap rebinds it with :meth:`bind`.
        dtype: Inference dtype, resolved by :func:`resolve_eval_dtype`.
        deterministic: Greedy argmax actions when True; Gumbel-max
            sampling under the rng contract when False.
        clock: Time source for the forward time :meth:`select` reports.
    """

    def __init__(
        self,
        policy: ActorCriticPolicy,
        dtype: Any = np.float64,
        deterministic: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.dtype = resolve_eval_dtype(dtype)
        self.exact = self.dtype == np.dtype(np.float64)
        self.deterministic = deterministic
        self.clock = clock
        k = policy.num_actions
        # select() workspaces, grown to the widest batch seen.
        self._actions = np.empty(0, dtype=np.intp)
        self._noise = np.empty((0, k), dtype=np.float64)
        self._work = np.empty((0, k), dtype=np.float64)
        self.bind(policy)

    def bind(self, policy: ActorCriticPolicy) -> None:
        """Score with ``policy`` from the next decision on."""
        self.policy = policy
        # Float32 snapshots (casts) the weights now.  Float64 reads the
        # live weights, so its workspace forward waits for the first
        # select(): a kernel that only serves select_one never builds one.
        self._inference: Optional[MLPInference] = (
            None if self.exact else policy.actor_inference(dtype=self.dtype)
        )

    def _forward(self, x: np.ndarray) -> np.ndarray:
        inference = self._inference
        if inference is None:
            inference = self._inference = self.policy.actor_inference()
        return inference.forward(x)

    def _gumbel(self, rng: Optional[np.random.Generator]) -> np.ndarray:
        """One row of Gumbel noise: the ``(1, K)`` block ``act_single``
        draws for one decision."""
        if rng is None:
            raise ValueError("stochastic action selection needs an rng")
        u = rng.uniform(1e-12, 1.0, size=(1, self.policy.num_actions))
        return -np.log(-np.log(u[0]))

    def select_one(
        self, obs: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> int:
        """The action for one observation vector (stochastic mode draws
        from ``rng``)."""
        if self.exact:
            logits = self.policy.logits_single(obs)
        else:
            logits = self._forward(np.asarray(obs, dtype=np.float64)[None, :])[0]
        if self.deterministic:
            return int(np.argmax(logits))
        return int(np.argmax(logits + self._gumbel(rng)))

    def select(
        self,
        x: np.ndarray,
        rngs: Sequence[np.random.Generator] = (),
    ) -> Tuple[np.ndarray, int, float]:
        """Actions for the rows of ``x`` (``(n, obs_dim)``).

        Stochastic mode draws row j's noise from ``rngs[j]``.  Returns
        ``(actions, tie_fallbacks, forward_seconds)``: ``actions`` is a
        view of an internal ``(n,)`` buffer, valid until the next call;
        ``tie_fallbacks`` counts the rows rescored through the exact
        forward (0 in float32); ``forward_seconds`` is the batched
        forward's time on the kernel's clock.
        """
        n = x.shape[0]
        if n > self._actions.shape[0]:
            k = self.policy.num_actions
            self._actions = np.empty(n, dtype=np.intp)
            self._noise = np.empty((n, k), dtype=np.float64)
            self._work = np.empty((n, k), dtype=np.float64)
        t0 = self.clock()
        logits = self._forward(x)
        forward_seconds = self.clock() - t0
        actions = self._actions[:n]
        work = self._work[:n]
        noise = self._noise
        if self.deterministic:
            scores = logits
        else:
            for j in range(n):
                noise[j] = self._gumbel(rngs[j])
            scores = np.add(logits, noise[:n], out=work)
        np.argmax(scores, axis=1, out=actions)
        if not self.exact or n == 0 or scores.shape[1] == 1:
            return actions, 0, forward_seconds
        # Margin test: top score minus runner-up, per row.
        rows = np.arange(n)
        top = scores[rows, actions]  # a copy: fancy indexing
        if scores is not work:
            np.copyto(work, scores)
        work[rows, actions] = -np.inf
        margin = top - work.max(axis=1)
        tol = ARGMAX_TIE_TOLERANCE * (1.0 + np.abs(top))
        ties = np.nonzero(margin <= tol)[0]
        for j in ties:
            exact = self.policy.logits_single(x[j])
            if not self.deterministic:
                exact = exact + noise[j]
            actions[j] = int(np.argmax(exact))
        return actions, len(ties), forward_seconds
