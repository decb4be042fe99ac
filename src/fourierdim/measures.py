"""Symbolic measures on the line with a closed transform algebra.

A :class:`Measure` is an immutable description of a finite positive Borel
measure on the line.  The primitive variants (point masses, uniform densities
on interval unions, trigonometric densities, digit-restricted Lebesgue
measures, self-similar digit measures) all admit exact closed forms for the
transform

    m_hat(xi) = integral exp(-2 pi i xi x) dm(x),

and the algebra is closed under mixtures, affine images (optionally mod 1),
convolutions and polynomial window cutoffs.

Each variant is a frozen dataclass that owns every rule about it: validation,
mass and support, the exact scalar transform and its float grid counterpart,
the grid accuracy guard, atoms, density pieces, the quadrature split and the
window cutoff.  The public functions (:func:`mass`, :func:`support_interval`
here; ``ft``, ``ft_grid``, ``atom_weights`` and ``ft_quadrature`` in
:mod:`fourierdim.transform`; ``decompose_density`` in
:mod:`fourierdim.density`; ``smooth_cut`` in :mod:`fourierdim.dimension`)
dispatch to those methods.  :func:`measure_to_dict` /
:func:`measure_from_dict` serialise any variant from its dataclass fields.

All variants are built from scalars and tuples: hashable, comparable and
safe to share across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import astuple, dataclass, fields, is_dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .density import DensityPiece, cut_mass, piece_transform, window_poly, window_value
from .errors import MeasureError, ScheduleError
from .phase import (_eplus_frac, _eplus_turned, _eplus_vec, _half_turn, _phase_frac,
                    _ratio, phase_unit)

__all__ = [
    "MeasureError",
    "ScheduleError",
    "Measure",
    "Atomic",
    "UniformOnIntervals",
    "TrigDensity",
    "SelfSimilarDigit",
    "DigitBlock",
    "DigitProduct",
    "Mixture",
    "AffineImage",
    "Convolution",
    "SmoothCutDensity",
    "mass",
    "support_interval",
    "mixture",
    "affine_image",
    "convolve",
    "measure_to_dict",
    "measure_from_dict",
    "FrequencySchedule",
    "IntegerRange",
    "DyadicWindows",
    "Lacunary",
    "ExplicitFrequencies",
    "merge_schedules",
    "schedule_to_dict",
    "schedule_from_dict",
]

# Tolerance used when checking analytic side conditions on float data.
_EPS = 1e-12

# Truncation rule for self-similar products: stop once |xi| / base**n < this.
SELF_SIMILAR_TRUNCATION = 1e-8

# Digit products with more admissible cylinders have no density pieces.
_ENUM_LIMIT = 1 << 16


def _finite(value, what: str) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise MeasureError(f"{what} must be a real number, got {value!r}") from None
    if not math.isfinite(v):
        raise MeasureError(f"{what} must be finite, got {value!r}")
    return v


def _is_integer_valued(x) -> bool:
    if isinstance(x, int):
        return True
    return isinstance(x, float) and x.is_integer()


def _require_measures(items, what: str) -> tuple:
    out = tuple(items)
    if not all(isinstance(m, Measure) for m in out):
        raise MeasureError(f"{what} must be measures")
    return out


def _canonical_scalar(xi):
    """A real frequency as an int when it is integer-valued, else a float."""
    if isinstance(xi, (bool, np.bool_)):
        raise MeasureError("frequency must be a number")
    if isinstance(xi, (int, np.integer)):
        return int(xi)
    x = float(xi)
    if not math.isfinite(x):
        raise MeasureError(f"frequency must be finite, got {xi!r}")
    if x.is_integer() and abs(x) < 2 ** 53:
        return int(x)
    return x


def _self_similar_depth(base: int, abs_xi) -> int:
    # math.log2 is exact enough for ints of any size, so huge frequencies
    # keep every level whose factor differs from 1.
    if abs_xi <= SELF_SIMILAR_TRUNCATION:
        return 1
    return max(1, math.ceil(
        (math.log2(abs_xi) - math.log2(SELF_SIMILAR_TRUNCATION)) / math.log2(base)))


class Measure:
    """Abstract base for all measure variants.  Instances are immutable.

    Every variant implements ``_mass``, ``_support``, ``_ft`` (exact
    transform at a positive int or positive non-integer float) and ``_grid``
    (float transform over an array).  The other rules default to a measure
    with no atoms, no explicit density and the widest grid guard.
    """

    __slots__ = ()

    ambient_dim = 1  # every measure here lives on the line

    @property
    def variant(self) -> str:
        return type(self).__name__

    def _ft_signed(self, xi) -> complex:
        """Transform at a canonical scalar (see _canonical_scalar) of any sign."""
        if xi == 0:
            return complex(self._mass())
        if xi < 0:
            return self._ft(-xi).conjugate()
        return self._ft(xi)

    def _grid_guard(self) -> float:
        """Largest |xi| for which the float grid path keeps phases accurate."""
        return 2.0 ** 40

    def _factorized(self) -> bool:
        """True when the transform is evaluated as a product over digits."""
        return False

    def _atoms(self) -> dict:
        """Map position -> total point mass."""
        return {}

    def _density(self) -> tuple:
        """Density pieces; raises when there is no tractable explicit density."""
        raise MeasureError(f"{type(self).__name__} has no explicit density")

    def _quad_parts(self, weight: float):
        """(atom list, density piece list) of weight * self, for quadrature."""
        pieces = self._density()
        if weight != 1.0:
            pieces = [p.scaled(weight) for p in pieces]
        return [], list(pieces)

    def _wrapped_support(self, scale: int) -> tuple:
        """Support interval of the image under x -> scale x mod 1."""
        return 0.0, 1.0

    def _cut(self, center: float, radius: float, order: int) -> "Measure":
        """Product with the window; the window must meet the support."""
        lo, hi = self._support()
        if center - radius >= hi or center + radius <= lo:
            raise MeasureError("window is disjoint from the support (zero measure)")
        return self._windowed(center, radius, order)

    def _windowed(self, center: float, radius: float, order: int) -> "Measure":
        self._density()  # raises for variants without an explicit density
        return SmoothCutDensity(self, center, radius, order)


@dataclass(frozen=True)
class Atomic(Measure):
    """Finite sum of point masses: pairs (position, weight), weight > 0.

    An empty atom list is allowed as the zero measure; it only arises as the
    degenerate output of a support decomposition.
    """

    atoms: tuple = ()

    def __post_init__(self):
        canon = []
        for pos, weight in self.atoms:
            w = _finite(weight, "atom weight")
            if w <= 0:
                raise MeasureError(f"atom weight must be positive, got {weight!r}")
            canon.append((_finite(pos, "atom position"), w))
        object.__setattr__(self, "atoms", tuple(canon))

    def _mass(self) -> float:
        return math.fsum(w for _, w in self.atoms)

    def _support(self) -> tuple:
        if not self.atoms:
            raise MeasureError("the zero measure has no support")
        xs = [p for p, _ in self.atoms]
        return min(xs), max(xs)

    def _ft(self, xi) -> complex:
        return sum((w * phase_unit(xi, pos) for pos, w in self.atoms), 0.0 + 0.0j)

    def _grid(self, xs: np.ndarray) -> np.ndarray:
        out = np.zeros(xs.shape, dtype=complex)
        for pos, w in self.atoms:
            out += w * np.exp(-2j * math.pi * np.mod(xs * pos, 1.0))
        return out

    def _atoms(self) -> dict:
        out = {}
        for pos, w in self.atoms:
            out[pos] = out.get(pos, 0.0) + w
        return out

    def _quad_parts(self, weight: float):
        return [(pos, weight * w) for pos, w in self.atoms], []

    def _windowed(self, center: float, radius: float, order: int) -> "Atomic":
        kept = []
        for pos, w in self.atoms:
            f = float(window_value(center, radius, order, pos))
            if f > 0.0:
                kept.append((pos, w * f))
        if not kept:
            raise MeasureError("window vanishes at every atom (zero measure)")
        return Atomic(tuple(kept))


@dataclass(frozen=True)
class UniformOnIntervals(Measure):
    """Probability measure with constant density on a disjoint union of intervals."""

    intervals: tuple

    def __post_init__(self):
        canon = sorted(
            (_finite(a, "interval endpoint"), _finite(b, "interval endpoint"))
            for a, b in self.intervals
        )
        if not canon:
            raise MeasureError("UniformOnIntervals needs at least one interval")
        for a, b in canon:
            if not b > a:
                raise MeasureError(f"interval ({a}, {b}) is empty or reversed")
        for (_, b0), (a1, _) in zip(canon, canon[1:]):
            if a1 < b0:
                raise MeasureError("intervals overlap")
        object.__setattr__(self, "intervals", tuple(canon))

    @property
    def total_length(self) -> float:
        return math.fsum(b - a for a, b in self.intervals)

    def _mass(self) -> float:
        return 1.0

    def _support(self) -> tuple:
        return self.intervals[0][0], self.intervals[-1][1]

    def _ft(self, xi) -> complex:
        p, q = _ratio(xi)
        total = self.total_length
        out = 0.0 + 0.0j
        for a, b in self.intervals:
            pl, ql = _ratio(b - a)
            cell = _eplus_frac(-(p * pl), q * ql)
            out += ((b - a) / total) * phase_unit(xi, a) * cell
        return out

    def _grid(self, xs: np.ndarray) -> np.ndarray:
        total = self.total_length
        out = np.zeros(xs.shape, dtype=complex)
        for a, b in self.intervals:
            out += ((b - a) / total) * np.exp(-2j * math.pi * xs * a) \
                * _eplus_vec(-xs * (b - a))
        return out

    def _density(self) -> tuple:
        total = self.total_length
        return tuple(
            DensityPiece(a, b, 0.5 * (a + b), (1.0 / total,), 1.0 + 0.0j, 0.0)
            for a, b in self.intervals
        )


@dataclass(frozen=True)
class TrigDensity(Measure):
    """Density 1 + sum_k c_k sin(2 pi f_k x) on [0, 1].

    Terms are (amplitude, frequency) pairs with positive integer frequencies.
    Nonnegativity of the density is guaranteed by requiring sum |c_k| <= 1.
    Frequencies may be arbitrarily large Python integers; the transform
    treats integer frequencies exactly.
    """

    terms: tuple = ()

    def __post_init__(self):
        canon = []
        for amplitude, frequency in self.terms:
            c = _finite(amplitude, "trig amplitude")
            if not _is_integer_valued(frequency) or int(frequency) <= 0:
                raise MeasureError(f"trig frequency must be a positive integer, got {frequency!r}")
            canon.append((c, int(frequency)))
        if math.fsum(abs(c) for c, _ in canon) > 1.0 + _EPS:
            raise MeasureError("sum of |amplitudes| exceeds 1; density could go negative")
        object.__setattr__(self, "terms", tuple(canon))

    def _mass(self) -> float:
        return 1.0

    def _support(self) -> tuple:
        return 0.0, 1.0

    def _ft(self, xi) -> complex:
        # Term f needs E(f - xi) and E(-f - xi), E = _eplus_frac.  At
        # xi = p/q both numerators, f q - p and -(f q + p), are congruent to
        # (f mod 2) q - p mod 2q, so one half turn per parity of f serves
        # every term.  At an integer xi, E is 1 where its argument is 0 and
        # 0 at every other integer.
        p, q = _ratio(xi)
        out = _eplus_frac(-p, q)
        whole = p % q == 0
        turns = {}
        for c, f in self.terms:
            fq = f * q
            if whole:
                plus = 1.0 + 0.0j if fq == p else 0.0j
                minus = 1.0 + 0.0j if fq == -p else 0.0j
            else:
                turn = turns.get(f & 1)
                if turn is None:
                    turn = turns[f & 1] = _half_turn((f & 1) * q - p, q)
                plus = _eplus_turned(fq - p, q, turn)
                minus = _eplus_turned(-(fq + p), q, turn)
            out += c * (plus - minus) / 2j
        return out

    def _grid(self, xs: np.ndarray) -> np.ndarray:
        out = _eplus_vec(-xs)
        for c, f in self.terms:
            if f >= 2 ** 53:
                continue  # |term| <= 1/(pi(2^53 - 2^40)) under the guard
            ff = float(f)
            out += c * (_eplus_vec(ff - xs) - _eplus_vec(-ff - xs)) / 2j
        return out

    def _density(self) -> tuple:
        pieces = [DensityPiece(0.0, 1.0, 0.0, (1.0,), 1.0 + 0.0j, 0.0)]
        for c, f in self.terms:
            if abs(f) >= 2 ** 53:
                raise MeasureError(
                    "trig frequency too large for a float-valued density")
            pieces.append(DensityPiece(0.0, 1.0, 0.0, (1.0,), c / 2j, float(f)))
            pieces.append(DensityPiece(0.0, 1.0, 0.0, (1.0,), -c / 2j, -float(f)))
        return tuple(pieces)


@dataclass(frozen=True)
class SelfSimilarDigit(Measure):
    """Stationary measure of the digit IFS x -> (x + d)/base, d drawn uniformly
    from ``allowed_digits``.  Equivalently: base-``base`` digits are i.i.d.
    uniform on the allowed set.  Satisfies

        m_hat(xi) = (1/|D|) sum_{d in D} exp(-2 pi i xi d / base) * m_hat(xi / base).
    """

    base: int
    allowed_digits: tuple

    def __post_init__(self):
        if self.base < 2:
            raise MeasureError("base must be at least 2")
        digits = tuple(sorted(set(int(d) for d in self.allowed_digits)))
        if not digits:
            raise MeasureError("allowed_digits is empty")
        if digits[0] < 0 or digits[-1] >= self.base:
            raise MeasureError(f"digits {digits} out of range for base {self.base}")
        object.__setattr__(self, "allowed_digits", digits)

    def _mass(self) -> float:
        return 1.0

    def _support(self) -> tuple:
        return 0.0, 1.0

    def _ft(self, xi) -> complex:
        # Level n sums exp(-2 pi i p d / den) over the digits, den = q base^n:
        # p is reduced mod den once per level and each digit's residue comes
        # from that.  Digit 0 contributes exactly 1.
        p, q = _ratio(xi)
        depth = _self_similar_depth(self.base, xi)
        digits = self.allowed_digits
        start = 0.0 + 0.0j
        if digits[0] == 0:
            start, digits = 1.0 + 0.0j, digits[1:]
        out = 1.0 + 0.0j
        den = q
        inv = 1.0 / len(self.allowed_digits)
        for _ in range(depth):
            den *= self.base
            r = p % den
            s = start
            for d in digits:
                s += _phase_frac(r * d, den)
            out *= s * inv
        return out

    def _grid(self, xs: np.ndarray) -> np.ndarray:
        depth = _self_similar_depth(self.base, float(np.max(np.abs(xs))))
        out = np.ones(xs.shape, dtype=complex)
        inv = 1.0 / len(self.allowed_digits)
        scale = 1.0
        for _ in range(depth):
            scale /= self.base
            s = np.zeros(xs.shape, dtype=complex)
            for d in self.allowed_digits:
                s += np.exp(-2j * math.pi * np.mod(xs * (d * scale), 1.0))
            out *= s * inv
        return out

    def _grid_guard(self) -> float:
        return 2.0 ** 24

    def _factorized(self) -> bool:
        return True

    def _atoms(self) -> dict:
        # a single digit leaves the point mass at digit/(base-1)
        if len(self.allowed_digits) == 1:
            return {self.allowed_digits[0] / (self.base - 1): 1.0}
        return {}


@dataclass(frozen=True)
class DigitBlock:
    """One forbidden binary pattern on digits offset+1 .. offset+length."""

    offset: int
    length: int
    forbidden_pattern: str

    def __post_init__(self):
        if self.offset < 0:
            raise MeasureError("block offset must be nonnegative")
        if self.length < 1:
            raise MeasureError("block length must be positive")
        if len(self.forbidden_pattern) != self.length:
            raise MeasureError("forbidden_pattern length differs from block length")
        if set(self.forbidden_pattern) - {"0", "1"}:
            raise MeasureError("forbidden_pattern must be a binary string")


@dataclass(frozen=True)
class DigitProduct(Measure):
    """Normalised Lebesgue measure on the depth-L dyadic cylinders whose binary
    digit string avoids, for every block, that block's forbidden pattern.

    Blocks act on pairwise disjoint digit ranges, so the set of admissible
    strings is a product over positions; the transform factorises into one
    character sum per free digit and per block.
    """

    depth: int
    blocks: tuple = ()
    base: int = 2

    def __post_init__(self):
        if self.base != 2:
            raise MeasureError("only base 2 digit products are supported")
        if self.depth < 1:
            raise MeasureError("depth must be positive")
        canon = tuple(
            b if isinstance(b, DigitBlock) else DigitBlock(*b) for b in self.blocks
        )
        spans = sorted((b.offset, b.offset + b.length) for b in canon)
        for lo, hi in spans:
            if hi > self.depth:
                raise MeasureError("block exceeds depth")
        for (_, hi0), (lo1, _) in zip(spans, spans[1:]):
            if lo1 < hi0:
                raise MeasureError("blocks overlap")
        object.__setattr__(self, "blocks", canon)

    def cylinder_count(self) -> int:
        """Number of admissible depth-L cylinders."""
        free = self.depth - sum(b.length for b in self.blocks)
        count = 1 << free
        for b in self.blocks:
            count *= (1 << b.length) - 1
        return count

    def pre_normalization_mass(self) -> float:
        """Lebesgue measure of the admissible cylinder union."""
        return self.cylinder_count() / (1 << self.depth)

    def _mass(self) -> float:
        return 1.0

    def _support(self) -> tuple:
        lo = 0.0
        hi = 0.0
        blocked = {}
        for b in self.blocks:
            blocked[b.offset] = b
        pos = 1
        while pos <= self.depth:
            b = blocked.get(pos - 1)
            if b is None:
                hi += 2.0 ** -pos
                pos += 1
                continue
            top = (1 << b.length) - 1
            if b.forbidden_pattern == "0" * b.length:
                lo += 2.0 ** -(b.offset + b.length)
            max_val = top - 1 if b.forbidden_pattern == "1" * b.length else top
            hi += max_val * 2.0 ** -(b.offset + b.length)
            pos = b.offset + b.length + 1
        return lo, min(1.0, hi + 2.0 ** -self.depth)

    def _wrapped_support(self, scale: int) -> tuple:
        # A block-aligned dilation by 2^l shifts the digits left by l places;
        # blocks entirely inside the first l digits only rescale cylinder
        # multiplicities uniformly (block constraints are independent across
        # disjoint ranges), so they drop out.
        if scale <= 0 or scale & (scale - 1):
            return 0.0, 1.0
        l = scale.bit_length() - 1
        if l == 0:
            return self._support()
        if l >= self.depth:
            return 0.0, 1.0
        kept = []
        for b in self.blocks:
            if b.offset >= l:
                kept.append(DigitBlock(b.offset - l, b.length, b.forbidden_pattern))
            elif b.offset + b.length > l:
                return 0.0, 1.0
        return DigitProduct(self.depth - l, tuple(kept))._support()

    @cached_property
    def _factor_plan(self) -> tuple:
        """(factors, cylinder count); factors lists a free digit at position
        pos as ((pos,), None) and a block as (its digit positions, the
        forbidden pattern as an int)."""
        blocked = {b.offset: b for b in self.blocks}
        factors = []
        pos = 1
        while pos <= self.depth:
            b = blocked.get(pos - 1)
            if b is None:
                factors.append(((pos,), None))
                pos += 1
                continue
            factors.append((tuple(range(pos, pos + b.length)), int(b.forbidden_pattern, 2)))
            pos += b.length
        return tuple(factors), self.cylinder_count()

    def _ft(self, xi) -> complex:
        p, q = _ratio(xi)
        pre = _eplus_frac(-p, q << self.depth)
        p %= q << self.depth  # every phase below has a modulus dividing this one
        plan, count = self._factor_plan
        factors = 1.0 + 0.0j
        for positions, v in plan:
            if v is None:
                factors *= 1.0 + _phase_frac(p, q << positions[0])
                continue
            block_prod = 1.0 + 0.0j
            for pos in positions:
                block_prod *= 1.0 + _phase_frac(p, q << pos)
            block_prod -= _phase_frac(p * v, q << positions[-1])
            factors *= block_prod
        return pre * factors / count

    def _grid(self, xs: np.ndarray) -> np.ndarray:
        # xi * 2^-i is an exact float scaling, so np.mod gives exact phases.
        pre = _eplus_vec(-xs * 2.0 ** -self.depth)
        plan, count = self._factor_plan
        factors = np.ones(xs.shape, dtype=complex)
        for positions, v in plan:
            if v is None:
                factors *= 1.0 + np.exp(-2j * math.pi * np.mod(xs * 2.0 ** -positions[0], 1.0))
                continue
            # phases[i] is the character of digit positions[i]; the block
            # product and the forbidden pattern's character share them.
            phases = [np.exp(-2j * math.pi * np.mod(xs * 2.0 ** -pos, 1.0))
                      for pos in positions]
            block = np.ones(xs.shape, dtype=complex)
            for ph in phases:
                block *= 1.0 + ph
            forb = np.ones(xs.shape, dtype=complex)
            for j in range(len(positions)):
                if v >> j & 1:
                    forb *= phases[-1 - j]
            factors *= block - forb
        return pre * factors / count

    def _factorized(self) -> bool:
        return True

    def _density(self) -> tuple:
        count = self.cylinder_count()
        if count > _ENUM_LIMIT:
            raise MeasureError(
                f"digit product has {count} cylinders; too many to enumerate")
        values = self._admissible_values()
        width = 2.0 ** -self.depth
        height = (1 << self.depth) / count
        # Merge runs of adjacent cylinders into single flat pieces.
        pieces = []
        run_start = None
        prev = None
        for v in values:
            if run_start is None:
                run_start = prev = v
                continue
            if v == prev + 1:
                prev = v
                continue
            pieces.append(_flat_piece(run_start, prev, width, height))
            run_start = prev = v
        pieces.append(_flat_piece(run_start, prev, width, height))
        return tuple(pieces)

    def _admissible_values(self) -> list:
        """Sorted integers v < 2**depth whose digit strings avoid every block."""
        segments = []  # (shift, choices) with v built as sum(choice << shift)
        covered = sorted((b.offset, b.offset + b.length, b) for b in self.blocks)
        pos = 0
        for lo, hi, b in covered:
            if lo > pos:
                segments.append((self.depth - lo, range(1 << (lo - pos))))
            forbidden = int(b.forbidden_pattern, 2)
            segments.append((self.depth - hi,
                             [v for v in range(1 << b.length) if v != forbidden]))
            pos = hi
        if pos < self.depth:
            segments.append((0, range(1 << (self.depth - pos))))
        values = [0]
        for shift, choices in segments:
            values = [v + (c << shift) for v in values for c in choices]
        return sorted(values)


def _flat_piece(v0: int, v1: int, width: float, height: float) -> DensityPiece:
    a = v0 * width
    b = (v1 + 1) * width
    return DensityPiece(a, b, 0.5 * (a + b), (height,), 1.0 + 0.0j, 0.0)


@dataclass(frozen=True)
class Mixture(Measure):
    """Weighted sum: mass is sum_i w_i mass(component_i), weights positive."""

    components: tuple
    weights: tuple

    def __post_init__(self):
        comps = _require_measures(self.components, "mixture components")
        ws = tuple(_finite(w, "mixture weight") for w in self.weights)
        if len(comps) != len(ws) or not comps:
            raise MeasureError("components and weights must be nonempty and equally long")
        if any(w <= 0 for w in ws):
            raise MeasureError("mixture weights must be positive")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", ws)

    def _mass(self) -> float:
        return math.fsum(w * c._mass() for c, w in zip(self.components, self.weights))

    def _support(self) -> tuple:
        spans = [c._support() for c in self.components]
        return min(a for a, _ in spans), max(b for _, b in spans)

    def _ft(self, xi) -> complex:
        return self._combine(c._ft(xi) for c in self.components)

    def _combine(self, parts) -> complex:
        """The transform from the components' transforms at one positive
        frequency; _ft and _combine_signed both sum through here."""
        return sum((w * v for v, w in zip(parts, self.weights)), 0.0 + 0.0j)

    def _combine_signed(self, xi, parts) -> complex:
        """ft(self, xi) from ft(c, xi) of each component, bit for bit, at a
        nonzero frequency xi: a negative xi conjugates the sum at -xi."""
        if xi < 0:
            return self._combine(v.conjugate() for v in parts).conjugate()
        return self._combine(parts)

    def _grid(self, xs: np.ndarray) -> np.ndarray:
        out = np.zeros(xs.shape, dtype=complex)
        for c, w in zip(self.components, self.weights):
            out += w * c._grid(xs)
        return out

    def _grid_guard(self) -> float:
        return min(c._grid_guard() for c in self.components)

    def _factorized(self) -> bool:
        return any(c._factorized() for c in self.components)

    def _atoms(self) -> dict:
        out = {}
        for c, w in zip(self.components, self.weights):
            for pos, v in c._atoms().items():
                out[pos] = out.get(pos, 0.0) + w * v
        return out

    def _density(self) -> tuple:
        return tuple(p.scaled(w) for c, w in zip(self.components, self.weights)
                     for p in c._density())

    def _quad_parts(self, weight: float):
        atoms, pieces = [], []
        for c, w in zip(self.components, self.weights):
            a, p = c._quad_parts(weight * w)
            atoms.extend(a)
            pieces.extend(p)
        return atoms, pieces

    def _windowed(self, center: float, radius: float, order: int) -> "Mixture":
        comps = []
        weights = []
        for comp, w in zip(self.components, self.weights):
            try:
                comps.append(comp._cut(center, radius, order))
                weights.append(w)
            except MeasureError:
                continue  # component support misses the window: cut to zero
        if not comps:
            raise MeasureError("window is disjoint from every component")
        return Mixture(tuple(comps), tuple(weights))


@dataclass(frozen=True)
class AffineImage(Measure):
    """Pushforward of ``inner`` under x -> scale * x + offset, optionally mod 1.

    The scale is a nonzero real number.  With ``mod1`` set, the scale must be
    a nonzero integer and the inner measure must live on [0, 1]; the
    transform of the image is then defined at integer frequencies only, where
    exp(-2 pi i j (a x + b mod 1)) equals exp(-2 pi i j (a x + b)).
    """

    inner: Measure
    scale: float
    offset: float = 0.0
    mod1: bool = False

    def __post_init__(self):
        _require_measures((self.inner,), "the inner measure")
        s = self.scale
        if not isinstance(s, (int, float)):
            raise MeasureError(f"affine scale must be a real number, got {s!r}")
        if not isinstance(s, int):
            s = _finite(s, "affine scale")
        if s == 0:
            raise MeasureError("affine scale must be nonzero")
        off = _finite(self.offset, "affine offset")
        if self.mod1:
            if not _is_integer_valued(s):
                raise MeasureError("mod-1 images need an integer scalar scale")
            s = int(s)
            lo, hi = self.inner._support()
            if lo < -_EPS or hi > 1.0 + _EPS:
                raise MeasureError("mod-1 images need inner support inside [0, 1]")
        object.__setattr__(self, "scale", s)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "mod1", bool(self.mod1))

    def _mass(self) -> float:
        return self.inner._mass()

    def _support(self) -> tuple:
        if self.mod1:
            if self.offset == 0:
                return self.inner._wrapped_support(self.scale)
            return 0.0, 1.0
        a, b = self.inner._support()
        lo = self.scale * a + self.offset
        hi = self.scale * b + self.offset
        return (hi, lo) if self.scale < 0 else (lo, hi)

    def _ft(self, xi) -> complex:
        if self.mod1:
            if not isinstance(xi, int):
                raise MeasureError(
                    "transform of a wrapped (mod 1) image is defined at integer "
                    f"frequencies only, got {xi!r}")
            inner_xi = self.scale * xi
        else:
            try:
                inner_xi = self.scale * xi
                if isinstance(inner_xi, float) and not math.isfinite(inner_xi):
                    raise OverflowError
            except OverflowError:
                raise MeasureError(
                    "scaled frequency exceeds float range; use an integer scale")
        offset_phase = phase_unit(xi, self.offset) if self.offset != 0 else 1.0 + 0.0j
        return offset_phase * self.inner._ft_signed(_canonical_scalar(inner_xi))

    def _grid(self, xs: np.ndarray) -> np.ndarray:
        if self.mod1 and not np.all(xs == np.round(xs)):
            raise MeasureError(
                "transform of a wrapped (mod 1) image is defined at integer "
                "frequencies only")
        inner = self.inner._grid(xs * self.scale)
        if self.offset != 0:
            inner = inner * np.exp(-2j * math.pi * np.mod(xs * self.offset, 1.0))
        return inner

    def _grid_guard(self) -> float:
        return self.inner._grid_guard() / max(abs(self.scale), 1.0)

    def _factorized(self) -> bool:
        return self.inner._factorized()

    def _atoms(self) -> dict:
        out = {}
        for pos, v in self.inner._atoms().items():
            key = self.scale * pos + self.offset
            if self.mod1:
                key = key - math.floor(key)
            out[key] = out.get(key, 0.0) + v
        return out

    def _density(self) -> tuple:
        if self.mod1:
            raise MeasureError("wrapped images have no piecewise density here")
        return tuple(p.map_affine(float(self.scale), float(self.offset))
                     for p in self.inner._density())

    def _quad_parts(self, weight: float):
        if self.mod1:
            return super()._quad_parts(weight)
        atoms, pieces = self.inner._quad_parts(weight)
        s, o = float(self.scale), float(self.offset)
        return ([(s * pos + o, w) for pos, w in atoms],
                [p.map_affine(s, o) for p in pieces])


@dataclass(frozen=True)
class Convolution(Measure):
    """Convolution of the factor measures; transform is the product of factors."""

    factors: tuple

    def __post_init__(self):
        facs = _require_measures(self.factors, "convolution factors")
        if len(facs) < 2:
            raise MeasureError("convolution needs at least two factors")
        object.__setattr__(self, "factors", facs)

    def _mass(self) -> float:
        out = 1.0
        for f in self.factors:
            out *= f._mass()
        return out

    def _support(self) -> tuple:
        lo = hi = 0.0
        for f in self.factors:
            a, b = f._support()
            lo += a
            hi += b
        return lo, hi

    def _ft(self, xi) -> complex:
        out = 1.0 + 0.0j
        for f in self.factors:
            out *= f._ft(xi)
        return out

    def _grid(self, xs: np.ndarray) -> np.ndarray:
        out = np.ones(xs.shape, dtype=complex)
        for f in self.factors:
            out *= f._grid(xs)
        return out

    def _grid_guard(self) -> float:
        return min(f._grid_guard() for f in self.factors)

    def _factorized(self) -> bool:
        return any(f._factorized() for f in self.factors)

    def _atoms(self) -> dict:
        # atomic only when every factor is
        maps = [f._atoms() for f in self.factors]
        if any(not d for d in maps):
            return {}
        out = {0.0: 1.0}
        for d in maps:
            nxt = {}
            for pos, w in out.items():
                for p2, w2 in d.items():
                    key = pos + p2
                    nxt[key] = nxt.get(key, 0.0) + w * w2
            out = nxt
        return out


@dataclass(frozen=True)
class SmoothCutDensity(Measure):
    """Inner measure multiplied by the polynomial window
    ((radius^2 - (x - center)^2)_+ / radius^2) ** order.

    The window peaks at 1, so the cut never increases mass, and the measure is
    deliberately not renormalised.  Construction happens through
    :func:`fourierdim.dimension.smooth_cut`, which also checks that the inner
    measure has an explicit atomic or density form.
    """

    inner: Measure
    center: float
    radius: float
    order: int

    def __post_init__(self):
        _require_measures((self.inner,), "the inner measure")
        object.__setattr__(self, "center", _finite(self.center, "window center"))
        r = _finite(self.radius, "window radius")
        if r <= 0:
            raise MeasureError("window radius must be positive")
        object.__setattr__(self, "radius", r)
        if self.order < 1:
            raise MeasureError("window order must be a positive integer")

    def _mass(self) -> float:
        return cut_mass(self)

    def _support(self) -> tuple:
        a, b = self.inner._support()
        lo = max(a, self.center - self.radius)
        hi = min(b, self.center + self.radius)
        if not lo < hi:
            raise MeasureError("window does not meet the support of the inner measure")
        return lo, hi

    def _ft(self, xi) -> complex:
        if isinstance(xi, int) and xi.bit_length() > 1020:
            return 0.0j  # piece transforms decay like 1/xi; below underflow
        x = float(xi)
        return complex(sum(piece_transform(p, x) for p in self._density()))

    def _grid(self, xs: np.ndarray) -> np.ndarray:
        out = np.zeros(xs.shape, dtype=complex)
        for p in self._density():
            out += piece_transform(p, xs)
        return out

    def _factorized(self) -> bool:
        return self.inner._factorized()

    def _density(self) -> tuple:
        return self._pieces

    @cached_property
    def _pieces(self) -> tuple:
        """The product pieces, built on first use and kept; a build that
        raises stores nothing, so every later call raises the same way."""
        wpiece = DensityPiece(self.center - self.radius, self.center + self.radius,
                              self.center, window_poly(self.radius, self.order),
                              1.0 + 0.0j, 0.0)
        out = []
        for p in self.inner._density():
            q = p.multiply(wpiece)
            if q is not None:
                out.append(q)
        if not out:
            raise MeasureError("window does not meet the support of the inner measure")
        return tuple(out)


# ---------------------------------------------------------------------------
# mass, support and combinators


def mass(m: Measure) -> float:
    """Total mass m(R).  Exactly ft(m, 0)."""
    return m._mass()


def support_interval(m: Measure) -> tuple:
    """Smallest closed interval containing the support."""
    return m._support()


def mixture(components: Iterable[Measure], weights: Iterable[float]) -> Mixture:
    return Mixture(tuple(components), tuple(weights))


def affine_image(m: Measure, scale, offset=0.0, mod1: bool = False) -> AffineImage:
    return AffineImage(m, scale, offset, mod1)


def convolve(m1: Measure, m2: Measure) -> Convolution:
    return Convolution((m1, m2))


# ---------------------------------------------------------------------------
# JSON descriptions
#
# A description is {"variant": name, <field>: value, ...} over the dataclass
# fields.  Tuples become lists and nested measures nested descriptions; each
# row of a field in _ROW_KEYS becomes an object with those keys (a bare list
# is accepted on read).  Fields with a default may be left out.

_ROW_KEYS = {
    "atoms": ("position", "weight"),
    "intervals": ("a", "b"),
    "terms": ("amplitude", "frequency"),
    "blocks": tuple(f.name for f in fields(DigitBlock)),
}

# JSON key of a dataclass field, where the two differ
_JSON_KEYS = {"frequencies_list": "frequencies"}

_VARIANTS = {cls.__name__: cls for cls in (
    Atomic, UniformOnIntervals, TrigDensity, SelfSimilarDigit, DigitProduct,
    Mixture, AffineImage, Convolution, SmoothCutDensity)}


def _to_json(name: str, value):
    keys = _ROW_KEYS.get(name)
    if keys is not None:
        return [dict(zip(keys, astuple(row) if is_dataclass(row) else row))
                for row in value]
    if isinstance(value, Measure):
        return measure_to_dict(value)
    if isinstance(value, tuple):
        return [_to_json("", v) for v in value]
    return value


def _from_json(name: str, value):
    keys = _ROW_KEYS.get(name)
    if keys is not None:
        return tuple(tuple(row[k] for k in keys) if isinstance(row, dict)
                     else tuple(row) for row in value)
    if isinstance(value, dict):
        return measure_from_dict(value)
    if isinstance(value, list):
        return tuple(_from_json("", v) for v in value)
    return value


def _describe(obj, **head) -> dict:
    for f in fields(obj):
        head[_JSON_KEYS.get(f.name, f.name)] = _to_json(f.name, getattr(obj, f.name))
    return head


def _build(cls, d: dict):
    kwargs = {}
    for f in fields(cls):
        key = _JSON_KEYS.get(f.name, f.name)
        if key in d:
            kwargs[f.name] = _from_json(f.name, d[key])
    return cls(**kwargs)


def measure_to_dict(m: Measure) -> dict:
    """Plain-dict description with the variant name and per-variant fields."""
    return _describe(m, variant=m.variant, ambient_dim=m.ambient_dim)


def measure_from_dict(d: dict) -> Measure:
    """Measure from a description; anything malformed raises MeasureError."""
    try:
        cls = _VARIANTS[d["variant"]]
    except (KeyError, TypeError) as exc:
        raise MeasureError(f"unknown or missing measure variant: {exc}") from None
    try:
        return _build(cls, d)
    except MeasureError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MeasureError(f"bad {cls.__name__} description: {exc!r}") from None


# ---------------------------------------------------------------------------
# frequency schedules


class FrequencySchedule:
    """Deterministic generator of nonzero probe frequencies, sorted by modulus.

    Frequencies are Python ints or floats.  Integer entries may be arbitrarily
    large: the transform evaluates them through exact rational phase
    reduction, so lacunary schedules can probe far beyond 2**53.
    """

    __slots__ = ()

    def frequencies(self) -> tuple:
        raise NotImplementedError

    def window_count(self) -> int:
        """Number of distinct dyadic windows [2^e, 2^(e+1)) hit by the schedule."""
        return _window_count(self.frequencies())


def _window_count(freqs) -> int:
    return len({_floor_log2(x) for x in freqs})


def _floor_log2(x) -> int:
    """floor(log2 |x|) for a nonzero int of any size or a nonzero float."""
    if not x:
        raise ScheduleError("frequencies must be nonzero")
    if isinstance(x, int):
        return abs(x).bit_length() - 1
    return math.frexp(abs(x))[1] - 1


def _require_ints(schedule, *names) -> None:
    for name in names:
        try:
            operator.index(getattr(schedule, name))
        except TypeError:
            raise ScheduleError(
                f"{name} must be an integer, got {getattr(schedule, name)!r}") from None


def _sorted_by_modulus(freqs) -> tuple:
    out = sorted(freqs, key=abs)
    for x in out:
        if x == 0:
            raise ScheduleError("schedules must not contain zero")
    return tuple(out)


@dataclass(frozen=True)
class IntegerRange(FrequencySchedule):
    j_max: int
    j_min: int = 1

    def __post_init__(self):
        _require_ints(self, "j_max", "j_min")
        if self.j_min < 1 or self.j_max < self.j_min:
            raise ScheduleError("need 1 <= j_min <= j_max")

    def frequencies(self) -> tuple:
        return tuple(range(self.j_min, self.j_max + 1))


@dataclass(frozen=True)
class DyadicWindows(FrequencySchedule):
    """samples_per_window geometric samples in [2^e, 2^(e+1)) for each exponent
    e = min_exp .. max_exp inclusive."""

    min_exp: int
    max_exp: int
    samples_per_window: int = 16

    def __post_init__(self):
        _require_ints(self, "min_exp", "max_exp", "samples_per_window")
        if self.max_exp < self.min_exp:
            raise ScheduleError("max_exp below min_exp")
        if self.max_exp > 1020:
            raise ScheduleError("dyadic window exponents above 1020 overflow floats; "
                                "use a Lacunary schedule with integer frequencies")
        if self.samples_per_window < 1:
            raise ScheduleError("need at least one sample per window")

    def frequencies(self) -> tuple:
        spw = self.samples_per_window
        out = []
        for e in range(self.min_exp, self.max_exp + 1):
            for i in range(spw):
                out.append(2.0 ** (e + i / spw))
        return tuple(out)


@dataclass(frozen=True)
class Lacunary(FrequencySchedule):
    """Frequencies 2^(e_k) * j for each listed exponent and j = 1 .. multipliers."""

    exponents: tuple
    multipliers: int = 1

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if not exps or any(e < 0 for e in exps):
            raise ScheduleError("exponents must be nonnegative integers")
        if not isinstance(self.multipliers, int) or self.multipliers < 1:
            raise ScheduleError("multipliers is a count and must be an int >= 1")
        object.__setattr__(self, "exponents", exps)

    def frequencies(self) -> tuple:
        out = []
        for e in self.exponents:
            base = 1 << e
            out.extend(base * j for j in range(1, self.multipliers + 1))
        return _sorted_by_modulus(set(out))


@dataclass(frozen=True)
class ExplicitFrequencies(FrequencySchedule):
    frequencies_list: tuple

    def __post_init__(self):
        object.__setattr__(self, "frequencies_list", _sorted_by_modulus(self.frequencies_list))

    def frequencies(self) -> tuple:
        return self.frequencies_list


def merge_schedules(*schedules: FrequencySchedule) -> ExplicitFrequencies:
    """Union of the given schedules as one explicit schedule (duplicates dropped)."""
    seen = []
    for s in schedules:
        seen.extend(s.frequencies())
    seen.sort(key=abs)
    out = []
    for x in seen:
        if not out or x != out[-1]:
            out.append(x)
    return ExplicitFrequencies(tuple(out))


_SCHEDULES = {
    "IntegerRange": IntegerRange,
    "DyadicWindows": DyadicWindows,
    "Lacunary": Lacunary,
    "Explicit": ExplicitFrequencies,
}
_SCHEDULE_NAMES = {cls: name for name, cls in _SCHEDULES.items()}


def schedule_to_dict(s: FrequencySchedule) -> dict:
    try:
        variant = _SCHEDULE_NAMES[type(s)]
    except KeyError:
        raise ScheduleError(f"unknown schedule {type(s).__name__}") from None
    return _describe(s, variant=variant)


def schedule_from_dict(d: dict) -> FrequencySchedule:
    """Schedule from a description; anything malformed raises ScheduleError."""
    try:
        cls = _SCHEDULES[d["variant"]]
    except (KeyError, TypeError) as exc:
        raise ScheduleError(f"unknown or missing schedule variant: {exc}") from None
    try:
        return _build(cls, d)
    except ScheduleError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScheduleError(f"bad {cls.__name__} description: {exc!r}") from None
