"""Named measure families used by the experiment presets.

Three constructions:

* digit-constraint products: binary digits are free except on sparse blocks
  where the all-zeros pattern is forbidden, with block positions l_k growing
  fast enough that the removed mass is summable;
* lacunary trigonometric densities 1 + sum_k sign * 2^-k cos-type terms at
  frequencies 2^(k^2), whose transforms carry explicit spikes on the
  lacunary sequence;
* the classical middle-thirds digit measure (ternary digits 0 and 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .measures import (
    DigitBlock,
    DigitProduct,
    MAX_ABS_FREQUENCY,
    MeasureError,
    SelfSimilarDigit,
    TrigDensity,
    _finite,
    _integer,
    _require_spans,
)

__all__ = [
    "DigitScheduleSpec",
    "digit_constraint_measure",
    "lacunary_trig_measure",
    "cantor_measure",
    "tail_terms",
    "tail_report",
]

_SQRT3_M1 = math.sqrt(3.0) - 1.0

# The deepest lacunary density, 64: the largest depth D whose top frequency
# 2^(D^2) is within the cap measures.MAX_ABS_FREQUENCY = 2^4096.
LACUNARY_MAX_DEPTH = math.isqrt(MAX_ABS_FREQUENCY.bit_length() - 1)


@dataclass(frozen=True)
class DigitScheduleSpec:
    """Block schedule for a digit-constraint product.

    Block k (k = n .. K) starts after digit position l_k and spans
    ``lengths[k - n]`` digits.  Blocks must be disjoint in order:
    l_{k+1} >= l_k + length_k.  The optional (s, b) pair records the
    dimension target and block-proportion parameter of a proportional
    schedule and is carried along for tail-sum reporting.
    """

    n: int
    K: int
    exponents: tuple
    lengths: tuple
    s: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        n, K = _integer(self.n, "n"), _integer(self.K, "K")
        if not (1 <= n <= K):
            raise MeasureError(f"need 1 <= n <= K, got n={n}, K={K}")
        count = K - n + 1
        exps = tuple(_integer(e, "block position") for e in self.exponents)
        lens = tuple(_integer(t, "block length") for t in self.lengths)
        if len(exps) != count or len(lens) != count:
            raise MeasureError(
                f"schedule needs {count} exponents and lengths, got "
                f"{len(exps)} and {len(lens)}")
        if any(e < 1 for e in exps):
            raise MeasureError("block positions must be positive")
        _require_spans([(e, e + t) for e, t in zip(exps, lens)], "block")
        for name, value in zip(("n", "K", "exponents", "lengths", "s", "b"),
                               (n, K, exps, lens, _finite(self.s, "s"), _finite(self.b, "b"))):
            object.__setattr__(self, name, value)

    @classmethod
    def index_blocks(cls, n: int = 1, K: int = 5) -> "DigitScheduleSpec":
        """Positions l_k = k^2 with block length k."""
        ks = range(_integer(n, "n"), _integer(K, "K") + 1)
        return cls(n, K, tuple(k * k for k in ks), tuple(ks))

    @classmethod
    def proportional_blocks(cls, n: int, K: int, s: float,
                            b: float = 0.0) -> "DigitScheduleSpec":
        """Positions l_k = k^3 with block length ceil(b * l_k).

        Needs sqrt(3) - 1 < s < 1 so that the admissible proportion window
        ((1-s)/s, s/2) is nonempty; b defaults to the window midpoint.
        """
        s, b = _finite(s, "s"), _finite(b, "b")
        if not _SQRT3_M1 < s < 1.0:
            raise MeasureError(
                f"need sqrt(3) - 1 < s < 1 for a nonempty proportion window, got {s}")
        lo, hi = (1.0 - s) / s, s / 2.0
        if b == 0.0:
            b = 0.5 * (lo + hi)
        if not lo < b < hi:
            raise MeasureError(
                f"need proportion b in ({lo:.6f}, {hi:.6f}), got {b}")
        ks = range(_integer(n, "n"), _integer(K, "K") + 1)
        exps = tuple(k ** 3 for k in ks)
        lens = tuple(math.ceil(b * e) for e in exps)
        return cls(n, K, exps, lens, s, b)

    @property
    def depth(self) -> int:
        return self.exponents[-1] + self.lengths[-1]


def digit_constraint_measure(spec: DigitScheduleSpec) -> DigitProduct:
    """Uniform measure on binary strings avoiding all-zero runs on the blocks.

    The pre-normalisation mass is prod_k (1 - 2^-length_k), so with
    length_k = k it stays above 1 - sum 2^-k > 0.
    """
    blocks = tuple(DigitBlock(e, t, "0" * t)
                   for e, t in zip(spec.exponents, spec.lengths))
    return DigitProduct(spec.depth, blocks)


def lacunary_trig_measure(sign: int, depth: int = 6) -> TrigDensity:
    """Density 1 + sign * sum_{k<=depth} 2^-k sin(2 pi 2^(k^2) x) on [0, 1].

    sign is +1 or -1; the two signs average to Lebesgue measure, and the
    transform of either has modulus exactly 2^-(k+1) at xi = 2^(k^2).  The
    depth runs from 1 to LACUNARY_MAX_DEPTH, refused before any term is
    built: the terms up to depth D hold about D^3 / 3 bits.
    """
    sign, depth = _integer(sign, "sign"), _integer(depth, "depth")
    if sign not in (1, -1):
        raise MeasureError(f"sign must be +1 or -1, got {sign}")
    if depth < 1:
        raise MeasureError("depth must be at least 1")
    if depth > LACUNARY_MAX_DEPTH:
        raise MeasureError(f"depth {depth} above {LACUNARY_MAX_DEPTH} puts the "
                           "frequency 2^(depth^2) past the cap 2^4096")
    terms = tuple((sign * 2.0 ** (-k), 2 ** (k * k)) for k in range(1, depth + 1))
    return TrigDensity(terms)


def cantor_measure() -> SelfSimilarDigit:
    """Ternary digit measure on {0, 2} digits (middle thirds removed)."""
    return SelfSimilarDigit(3, (0, 2))


def tail_terms(spec: DigitScheduleSpec) -> tuple:
    """Terms 2^((1-s) l_k - s length_k) controlling the removed-mass tail.

    Defined for proportional schedules (s > 0); summability of these terms
    is what pins the dimension of the constraint measure at s.
    """
    if spec.s <= 0.0:
        raise MeasureError("tail terms need a proportional schedule with s set")
    s = spec.s
    return tuple(2.0 ** ((1.0 - s) * e - s * t)
                 for e, t in zip(spec.exponents, spec.lengths))


def tail_report(spec: DigitScheduleSpec) -> dict:
    """Partial sums and ratios of the tail terms, with a convergence verdict.

    The verdict requires every consecutive ratio to stay below 1 and the
    final term to undercut the first by 1e6, i.e. clear geometric decay over
    the truncated range.
    """
    terms = tail_terms(spec)
    partial = []
    acc = 0.0
    for t in terms:
        acc += t
        partial.append(acc)
    ratios = tuple(b / a for a, b in zip(terms, terms[1:])) if len(terms) > 1 else ()
    converges = all(r < 1.0 for r in ratios) and (
        len(terms) < 2 or terms[-1] <= 1e-6 * terms[0])
    return {
        "terms": list(terms),
        "partial_sums": partial,
        "ratios": list(ratios),
        "converges": bool(converges),
    }
