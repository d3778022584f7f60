"""Mergeable streaming accumulator: the quantile sketch.

The million-flow ROADMAP item needs per-flow statistics without per-flow
lists: a sharded sweep computes p50/p99 on each worker and the scheduler
folds the shards.  That requires accumulators that (a) use bounded memory
however many samples they absorb and (b) *merge* — ``merge(a, b)`` must
equal the sketch built from the concatenated streams, so the fold order
cannot matter.

:class:`QuantileSketch` is a DDSketch-style log-binned sketch: a value
``v > 0`` lands in bin ``ceil(log(v) / log(gamma))`` with
``gamma = (1 + alpha) / (1 - alpha)``, which guarantees every quantile
estimate is within relative error ``alpha`` of the true value.  Bins are a
sparse dict, capped at ``max_bins`` by collapsing the *lowest* bins
together (the same choice DDSketch makes: tail quantiles — the ones worth
reading — keep full accuracy; the collapsed low end degrades first).

Everything here is deliberately exact about determinism: only integer
counts and exact min/max are stored (no running float sum), so ``merge``
is associative and commutative *byte-for-byte* after
:meth:`QuantileSketch.to_json` canonical serialization — pinned by
``tests/test_sketch.py``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Default relative-accuracy target: quantile estimates within 5% of the
#: true value.  ``alpha=0.05`` needs ~`log(max/min)/log(1.105)` bins — a
#: 1-byte-to-1-GiB range fits in ~210, under the default cap.
DEFAULT_ALPHA = 0.05

#: Default cap on live bins before the low end collapses.
DEFAULT_MAX_BINS = 256

#: Layout version of the serialized sketch.
SKETCH_FORMAT = 1


class QuantileSketch:
    """DDSketch-style mergeable quantile sketch.

    Guarantee: for any quantile ``q``, :meth:`quantile` returns a value
    within relative error ``alpha`` of the exact ``q``-quantile of the
    inserted values — except for values that fell into collapsed low bins,
    whose estimates degrade toward the collapse boundary (tail quantiles
    are unaffected; the cap only ever merges the *smallest* bins).

    Zero and negative values are supported: zeros in a dedicated counter,
    negatives in a mirrored bin table keyed by magnitude.
    """

    __slots__ = ("alpha", "max_bins", "gamma", "_log_gamma", "count",
                 "zero_count", "bins", "neg_bins", "min", "max")

    def __init__(self, alpha: float = DEFAULT_ALPHA, max_bins: int = DEFAULT_MAX_BINS) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if max_bins < 2:
            raise ValueError("max_bins must be at least 2")
        self.alpha = alpha
        self.max_bins = max_bins
        self.gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self.gamma)
        self.count = 0
        self.zero_count = 0
        self.bins: Dict[int, int] = {}
        self.neg_bins: Dict[int, int] = {}
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # -- insertion ---------------------------------------------------------

    def _key(self, magnitude: float) -> int:
        return int(math.ceil(math.log(magnitude) / self._log_gamma))

    def add(self, value: float, count: int = 1) -> None:
        """Insert ``value`` (``count`` times)."""
        if count <= 0:
            raise ValueError("count must be positive")
        value = float(value)
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"cannot sketch non-finite value {value!r}")
        self.count += count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value == 0.0:
            self.zero_count += count
            return
        table = self.bins if value > 0.0 else self.neg_bins
        key = self._key(abs(value))
        table[key] = table.get(key, 0) + count
        if len(table) > self.max_bins:
            self._collapse(table)

    def _collapse(self, table: Dict[int, int]) -> None:
        """Fold the lowest bins together until the cap holds.

        Collapsing into the lowest *surviving* bin keeps every key a valid
        log-bin index, so serialization and merging never need a special
        overflow bucket.
        """
        keys = sorted(table)
        while len(keys) > self.max_bins:
            lowest = keys.pop(0)
            table[keys[0]] = table.get(keys[0], 0) + table.pop(lowest)

    # -- queries -----------------------------------------------------------

    def _value_of_bin(self, key: int, sign: float) -> float:
        # Geometric midpoint of (gamma^(k-1), gamma^k]: the point whose
        # worst-case relative error over the bin is exactly alpha.
        return sign * 2.0 * self.gamma ** key / (self.gamma + 1.0)

    def _ordered_bins(self) -> List[Tuple[float, int]]:
        """(representative value, count) in ascending value order."""
        ordered: List[Tuple[float, int]] = []
        for key in sorted(self.neg_bins, reverse=True):
            ordered.append((self._value_of_bin(key, -1.0), self.neg_bins[key]))
        if self.zero_count:
            ordered.append((0.0, self.zero_count))
        for key in sorted(self.bins):
            ordered.append((self._value_of_bin(key, 1.0), self.bins[key]))
        return ordered

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (``0 <= q <= 1``); None when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return None
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = q * (self.count - 1)
        seen = 0
        for value, count in self._ordered_bins():
            seen += count
            if seen > rank:
                # Clamp to the exact extrema: the edge bins' midpoints can
                # otherwise stray (slightly) outside the observed range.
                return min(max(value, self.min), self.max)
        return self.max

    def quantiles(self, qs: Sequence[float] = (0.5, 0.9, 0.99)) -> Dict[str, Optional[float]]:
        """Common-percentile summary: ``{"p50": ..., "p90": ..., ...}``."""
        out: Dict[str, Optional[float]] = {}
        for q in qs:
            label = f"p{q * 100:g}".replace(".", "_")
            out[label] = self.quantile(q)
        return out

    # -- merging -----------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into ``self`` (in place); returns ``self``.

        Requires identical ``(alpha, max_bins)`` — sketches with different
        resolutions do not merge losslessly, so this refuses instead of
        silently degrading.
        """
        if (other.alpha, other.max_bins) != (self.alpha, self.max_bins):
            raise ValueError(
                f"cannot merge sketches with different parameters: "
                f"(alpha={self.alpha}, max_bins={self.max_bins}) vs "
                f"(alpha={other.alpha}, max_bins={other.max_bins})"
            )
        self.count += other.count
        self.zero_count += other.zero_count
        for table, theirs in ((self.bins, other.bins), (self.neg_bins, other.neg_bins)):
            for key, count in theirs.items():
                table[key] = table.get(key, 0) + count
            if len(table) > self.max_bins:
                self._collapse(table)
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready form (bins as sorted ``[key, count]`` pairs)."""
        return {
            "format": SKETCH_FORMAT,
            "alpha": self.alpha,
            "max_bins": self.max_bins,
            "count": self.count,
            "zero_count": self.zero_count,
            "min": self.min,
            "max": self.max,
            "bins": [[k, self.bins[k]] for k in sorted(self.bins)],
            "neg_bins": [[k, self.neg_bins[k]] for k in sorted(self.neg_bins)],
        }

    def to_json(self) -> str:
        """Canonical serialization: byte-identical for equal sketch state."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QuantileSketch":
        if data.get("format") != SKETCH_FORMAT:
            raise ValueError(f"unsupported sketch format {data.get('format')!r}")
        sketch = cls(alpha=data["alpha"], max_bins=data["max_bins"])
        sketch.count = int(data["count"])
        sketch.zero_count = int(data["zero_count"])
        sketch.min = data["min"]
        sketch.max = data["max"]
        sketch.bins = {int(k): int(c) for k, c in data["bins"]}
        sketch.neg_bins = {int(k): int(c) for k, c in data["neg_bins"]}
        return sketch

