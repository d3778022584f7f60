"""Flow-size distributions.

The evaluation's request sizes come from a CDF measured on an Internet core
router (CAIDA 2016).  That trace is not redistributable, so
:func:`internet_core_cdf` builds a synthetic empirical CDF matching the
summary statistics the paper reports (§7.1): 97.6% of requests are 10 KB or
smaller, and the largest 0.002% are between 5 MB and 100 MB.  The shape in
between follows the usual heavy-tailed web-transfer pattern (most requests a
few hundred bytes to a few kilobytes, a thin tail of multi-megabyte
transfers that carries much of the volume).

:class:`EmpiricalSizeDistribution` performs inverse-CDF sampling with
log-linear interpolation between the anchor points, which gives a continuous
distribution rather than a handful of discrete sizes.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from typing import List, Sequence, Tuple


class EmpiricalSizeDistribution:
    """Empirical CDF over flow sizes with log-linear interpolation."""

    def __init__(self, points: Sequence[Tuple[float, float]]) -> None:
        """``points`` is a sequence of (size_bytes, cumulative_probability)."""
        if len(points) < 2:
            raise ValueError("need at least two CDF points")
        sizes = [p[0] for p in points]
        probs = [p[1] for p in points]
        if any(s <= 0 for s in sizes):
            raise ValueError("sizes must be positive")
        if sorted(sizes) != list(sizes) or sorted(probs) != list(probs):
            raise ValueError("CDF points must be sorted by size and probability")
        if not math.isclose(probs[-1], 1.0, abs_tol=1e-9):
            raise ValueError("last cumulative probability must be 1.0")
        self._sizes = list(sizes)
        self._probs = list(probs)

    @property
    def points(self) -> List[Tuple[float, float]]:
        return list(zip(self._sizes, self._probs, strict=True))

    def quantile(self, p: float) -> float:
        """Inverse CDF: the size at cumulative probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if p <= self._probs[0]:
            return self._sizes[0]
        idx = bisect.bisect_left(self._probs, p)
        idx = min(idx, len(self._probs) - 1)
        p_lo, p_hi = self._probs[idx - 1], self._probs[idx]
        s_lo, s_hi = self._sizes[idx - 1], self._sizes[idx]
        if p_hi <= p_lo:
            return s_hi
        frac = (p - p_lo) / (p_hi - p_lo)
        # Interpolate in log-size space: sizes span five orders of magnitude.
        log_size = math.log(s_lo) + frac * (math.log(s_hi) - math.log(s_lo))
        # Clamp to the segment: exp(log(x)) round-off must never push the
        # result outside the distribution's support.
        return min(max(math.exp(log_size), s_lo), s_hi)

    def sample(self, rng: random.Random) -> int:
        """Draw one flow size in bytes."""
        return max(int(round(self.quantile(rng.random()))), 1)

    def mean(self, samples: int = 20001) -> float:
        """Numerical mean of the distribution (trapezoidal over quantiles)."""
        return _quantile_mean(tuple(self._sizes), tuple(self._probs), samples)

@functools.lru_cache(maxsize=32)
def _quantile_mean(
    sizes: Tuple[float, ...], probs: Tuple[float, ...], samples: int
) -> float:
    # Every cell of a sweep builds its own (equal) distribution and asks for
    # the same mean; the memo hands back the very float the sum produced.
    dist = EmpiricalSizeDistribution(tuple(zip(sizes, probs, strict=True)))
    total = 0.0
    for i in range(samples):
        total += dist.quantile((i + 0.5) / samples)
    return total / samples


#: Anchor points for the synthetic Internet-core request-size CDF.
#: Chosen to satisfy the constraints the paper states: 97.6% of requests are
#: <= 10 KB and the top 0.002% lie between 5 MB and 100 MB, with a smooth
#: heavy tail in between.
_INTERNET_CORE_POINTS: Tuple[Tuple[float, float], ...] = (
    (100.0, 0.12),
    (200.0, 0.25),
    (400.0, 0.42),
    (800.0, 0.58),
    (1_500.0, 0.70),
    (3_000.0, 0.84),
    (6_000.0, 0.93),
    (10_000.0, 0.976),
    (30_000.0, 0.991),
    (100_000.0, 0.9975),
    (400_000.0, 0.99945),
    (1_000_000.0, 0.99985),
    (5_000_000.0, 0.99998),
    (20_000_000.0, 0.999995),
    (100_000_000.0, 1.0),
)


def internet_core_cdf() -> EmpiricalSizeDistribution:
    """The synthetic stand-in for the paper's Internet-core request-size CDF."""
    return EmpiricalSizeDistribution(_INTERNET_CORE_POINTS)
