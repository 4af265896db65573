"""Deterministic pseudo-random number generation for workload synthesis.

The synthetic SPECINT workload generator (see :mod:`repro.workloads`)
must be *bit-for-bit reproducible across platforms and Python versions*:
the benchmark tables in EXPERIMENTS.md are regenerated from seeds, so a
drifting PRNG would silently change every number.  We therefore ship a
small xorshift64* generator instead of relying on :mod:`random`
(whose Mersenne Twister is stable, but whose convenience-method call
sequences have changed across CPython releases).

Only the handful of distributions the generator needs are provided,
plus the integer-threshold forms of their tests (:func:`below`,
:func:`geometric_thresholds`, :func:`cumulative_thresholds`,
:func:`randint_limit`) for samplers that inline the xorshift64* step.
"""

from __future__ import annotations

import math

#: The xorshift64* state mask and output multiplier: a sampler that
#: inlines the step draws ``(state * MULTIPLIER) & MASK64``.
MASK64 = (1 << 64) - 1
MULTIPLIER = 0x2545F4914F6CDD1D

_TWO_64 = 1 << 64
_TWO_53 = float(1 << 53)

#: ``(total weight, ((running total, key), ...))``, see
#: :func:`cumulative_weights`.
WeightTable = tuple[float, tuple[tuple[float, str], ...]]


def cumulative_weights(weights: dict[str, float]) -> WeightTable:
    """Fold a weights dict into the running totals
    :meth:`XorShiftRNG.choose_cumulative` scans, summed in the dict's
    order (the summation order fixes the floats, hence the picks)."""
    total = sum(weights.values())
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    steps = []
    acc = 0.0
    for key, weight in weights.items():
        acc += weight
        steps.append((acc, key))
    return total, tuple(steps)


# Integer thresholds.  :meth:`XorShiftRNG.random` is ``(y >> 11) / 2**53``
# for the raw draw ``y``; both sides of ``random() < p`` scale by 2**53
# exactly, so the test is ``y >> 11 < ceil(p * 2**53)``, which is
# ``y < ceil(p * 2**53) << 11``: one integer comparison, no float.


def below(probability: float) -> int:
    """The threshold ``T`` with ``random() < probability`` exactly
    when the draw's raw output is below ``T`` (0: never, ``2**64``:
    always).  :meth:`XorShiftRNG.chance` draws only for a
    ``probability`` strictly between 0 and 1."""
    return math.ceil(min(max(probability, 0.0), 1.0) * _TWO_53) << 11


def geometric_thresholds(mean: float) -> tuple[int, int] | None:
    """:meth:`XorShiftRNG.geometric` as integers: ``(T, tail)``, where a
    draw below ``T`` ends the count and the count stops growing at
    ``tail``; None when ``mean <= 1``, where it draws nothing and
    returns 1."""
    if mean <= 1.0:
        return None
    return below(1.0 / mean), math.ceil(64 * mean)


def cumulative_thresholds(table: WeightTable) -> tuple[int, ...]:
    """:meth:`XorShiftRNG.choose_cumulative` as integers: one threshold
    per step, such that the pick is the first step whose threshold the
    raw draw is below (the last step when there is none).

    ``(k / 2**53) * total < bound`` is monotone in ``k`` (the float
    product rounds monotonically), so each threshold is the first
    ``k`` failing the test, found by binary search over ``[0, 2**53]``.
    """
    total, steps = table
    thresholds = []
    for bound, _ in steps:
        low, high = 0, 1 << 53
        while low < high:
            middle = (low + high) // 2
            if middle / _TWO_53 * total < bound:
                low = middle + 1
            else:
                high = middle
        thresholds.append(low << 11)
    return tuple(thresholds)


def randint_limit(span: int) -> int:
    """:meth:`XorShiftRNG.randint` over ``span`` values accepts a raw
    draw below this limit (0 for an empty range, which no draw meets)
    and returns ``low + draw % span``."""
    return _TWO_64 - (_TWO_64 % span) if span >= 1 else 0


class XorShiftRNG:
    """xorshift64* PRNG (Vigna 2016 variant) with convenience samplers.

    Parameters
    ----------
    seed:
        Any integer; mapped to a non-zero 64-bit internal state via
        SplitMix64 so that nearby seeds give uncorrelated streams.
    """

    def __init__(self, seed: int = 1) -> None:
        # SplitMix64 scramble of the seed gives a well-mixed non-zero state.
        state = (seed + 0x9E3779B97F4A7C15) & MASK64
        state = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        state = ((state ^ (state >> 27)) * 0x94D049BB133111EB) & MASK64
        state ^= state >> 31
        self._state = state if state != 0 else 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        """Return the next raw 64-bit output."""
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & MASK64

    # The samplers below repeat next_u64's xorshift64* step inline (a
    # method call per draw is a large share of trace generation's
    # cost); they draw exactly the words next_u64 would.

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & MASK64
        x ^= x >> 27
        self._state = x
        return (((x * 0x2545F4914F6CDD1D) & MASK64) >> 11) / _TWO_53

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        # Rejection sampling to avoid modulo bias.
        limit = _TWO_64 - (_TWO_64 % span)
        x = self._state
        while True:
            x ^= x >> 12
            x ^= (x << 25) & MASK64
            x ^= x >> 27
            draw = (x * 0x2545F4914F6CDD1D) & MASK64
            if draw < limit:
                self._state = x
                return low + (draw % span)

    def chance(self, probability: float) -> bool:
        """Bernoulli trial: True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self.random() < probability

    def geometric(self, mean: float) -> int:
        """Geometric sample with the given mean, support {1, 2, ...}.

        Used for dependency distances and basic-block lengths: a
        geometric distribution matches the empirically short-tailed
        distances seen in integer codes.
        """
        if mean <= 1.0:
            return 1
        success = 1.0 / mean
        tail = 64 * mean  # guard against pathological tails
        count = 1
        x = self._state
        while True:
            x ^= x >> 12
            x ^= (x << 25) & MASK64
            x ^= x >> 27
            if (((x * 0x2545F4914F6CDD1D) & MASK64) >> 11) / _TWO_53 \
                    < success:
                break
            count += 1
            if count >= tail:
                break
        self._state = x
        return count

    def choose_weighted(self, weights: dict[str, float]) -> str:
        """Pick a key with probability proportional to its weight."""
        return self.choose_cumulative(cumulative_weights(weights))

    def choose_cumulative(self, table: WeightTable) -> str:
        """:meth:`choose_weighted` over a table folded once by
        :func:`cumulative_weights` — the same draw, the same pick."""
        total, steps = table
        draw = self.random() * total
        for bound, key in steps:
            if draw < bound:
                return key
        return steps[-1][1]  # floating point edge: return last

    def fork(self, stream_id: int) -> XorShiftRNG:
        """Derive an independent generator for a sub-stream.

        The workload generator forks one stream per concern (mix,
        branch outcomes, addresses) so that adding instructions of one
        kind does not perturb the sequence of another.
        """
        return XorShiftRNG(self.next_u64() ^ (stream_id * 0xA0761D6478BD642F))


def redraw(state: int, span: int) -> tuple[int, int]:
    """The rare path of an inlined randint over ``span`` values whose
    draw missed :func:`randint_limit`: ``randint(0, span - 1)`` from
    ``state`` on, as the new state and the value.  Raises ValueError
    for an empty range, as ``randint`` does."""
    rng = XorShiftRNG()
    rng._state = state
    value = rng.randint(0, span - 1)
    return rng._state, value
