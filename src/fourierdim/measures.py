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
the grid band, its atoms (``_atoms``), the density pieces of the
part without atoms (``_density``) and the window cutoff.  The public
functions (:func:`mass`, :func:`support_interval`
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
from functools import cache, cached_property, lru_cache

import numpy as np

from .density import (DensityPiece, decompose_density, piece_ft, piece_transform,
                      window_piece, window_value)
from .errors import MeasureError, ScheduleError
from .phase import (GRID_CHUNK, _eplus_frac, _eplus_vec, _finite, _half_turn, _phase_at,
                    _phase_frac, _phase_vec, _product_turns, _ratio, _split, _two_product,
                    _two_sum, _unit_turns)

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

# Self-similar products keep level n while |xi| / base**(n - 1) >= 2**-27,
# and level 1 always.  The levels past the last kept one, N, enter as their
# mean phase e(-xi mu / base**N), mu = (mean digit) / (base - 1); what that
# leaves out, 2 pi^2 t^2 var (t < 2^-27 / base, digit variance var), is at
# most 2.5 u.
_SELF_SIMILAR_CUTOFF_BITS = 27

# Digit products with more admissible cylinders have no density pieces.
_ENUM_LIMIT = 1 << 16

# The ends of a primitive variant's grid band (Measure._grid_guard).  The
# ceiling is the largest |xi| at which the float grid rules are pinned
# against the mpmath oracle (tests/test_oracle.py); every float past 2^52 is
# an integer, which the batch route sends to the exact rule anyway.  The
# floor keeps their products and quotients of xi out of the subnormal range,
# where gradual underflow loses relative accuracy: without it the rules
# first break between 2^-1023 and 2^-1026.
GRID_FLOOR = 2.0 ** -960
GRID_GUARD = 2.0 ** 60


def _position_guard(reach: float) -> tuple:
    """The grid band of a primitive rule whose positions lie within reach of
    0 (see Measure._grid_guard)."""
    if reach > 2.0 ** 995:
        return GRID_FLOOR, 0.0
    return GRID_FLOOR, min(GRID_GUARD, 2.0 ** 1000 / max(1.0, reach))


def _meet(bands) -> tuple:
    """The band inside every band of bands: the largest floor and the
    smallest ceiling."""
    floors, ceilings = zip(*bands)
    return max(floors), min(ceilings)


# The largest |xi| a schedule or a trig density may hold, checked from their
# fields before anything is built: the largest frequency the mpmath oracle
# pins (tests/test_oracle.py).  One Cantor transform there takes about 25 ms
# on 2 vCPUs, and its 1234 decimal digits stay under Python's 4300-digit
# limit for writing an int.  ft itself takes any frequency.
MAX_ABS_FREQUENCY = 2 ** 4096


def _total_mass(terms) -> float:
    """math.fsum of a measure's mass terms; a MeasureError where the total
    is past the float range (fsum raises OverflowError, or a term is inf)."""
    try:
        total = math.fsum(terms)
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise MeasureError("the total mass is past the float range")
    return total


def _integer(value, what: str, error=MeasureError) -> int:
    """value as an int; bools, floats and strings are not integers here."""
    try:
        if type(value) is not int and isinstance(value, (bool, np.bool_)):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def _require_measures(items, what: str) -> tuple:
    out = tuple(items)
    if not all(isinstance(m, Measure) for m in out):
        raise MeasureError(f"{what} must be measures")
    return out


def _require_spans(spans, what: str) -> None:
    """A MeasureError unless each span (lo, hi) is nonempty and starts no
    earlier than the one before it ends."""
    for lo, hi in spans:
        if not hi > lo:
            raise MeasureError(f"{what} ({lo}, {hi}) is empty or reversed")
    for (_, hi0), (lo1, hi1) in zip(spans, spans[1:]):
        if lo1 < hi0:
            raise MeasureError(f"{what}s overlap: ({lo1}, {hi1}) starts before {hi0}")


def _merge_atoms(pairs) -> dict:
    """Map position -> total point mass over (position, mass) pairs: the
    masses of coincident atoms add up in the order given."""
    out = {}
    for pos, w in pairs:
        out[pos] = out.get(pos, 0.0) + w
    return out


# The highest window order.  The window's monomial coefficients cancel in
# the Gauss-Legendre piece integrals (low frequencies, mass too).  Relative to
# its mass, a cut of a uniform, a trigonometric or a digit-product density is
# within 9.5e4 u of a 40-digit integral at order 20 (pinned at 2^19 u in
# tests/test_oracle.py) and up to 1.0e6 u off at order 24; at order 100 the
# cut (0.5, 0.1) of the uniform density reads mass 5.7e10 for 0.018.  The
# integration-by-parts branch takes the window's jets from its factored
# form; the cap stays until the Gauss-Legendre branch does too (ROADMAP
# item 3).
WINDOW_MAX_ORDER = 20


def _window(center, radius, order) -> tuple:
    """(center, radius, order) of a polynomial window: finite reals, a
    positive radius and an integer order from 2 to WINDOW_MAX_ORDER; else
    MeasureError."""
    center = _finite(center, "window center")
    radius = _finite(radius, "window radius")
    order = _integer(order, "window order")
    if radius <= 0:
        raise MeasureError("window radius must be positive")
    if order < 2:  # ceil(3 d / 2) with d = 1
        raise MeasureError(f"window order {order} below required 2")
    if order > WINDOW_MAX_ORDER:
        raise MeasureError(f"window order {order} above the cap of {WINDOW_MAX_ORDER}")
    return center, radius, order


@cache
def _level_powers(base: int) -> np.ndarray:
    """base^m rounded up to a float, for every m >= 1 with base^m <= 2^88: at
    a float x below 2^88 (x = |xi| 2^27 with |xi| <= GRID_GUARD), right-side
    searchsorted counts the m >= 1 with base^m <= x exactly."""
    out = []
    power = base
    while power <= 1 << 88:
        f = float(power)
        out.append(f if f >= power else math.nextafter(f, math.inf))
        power *= base
    out = np.array(out)
    out.flags.writeable = False  # one array shared by every call
    return out


@lru_cache(maxsize=64)
def _level_table(base: int, digits: tuple) -> tuple:
    """(hi, lo, steps) for the self-similar measure on the sorted digits:
    hi[n - 1, j] + lo[n - 1, j] is the double-double -d / base^n of the
    j-th nonzero digit d at every level n a grid point can reach (n up to
    1 + len(_level_powers(base))), and steps[n] the float mu / base^n, mu =
    sum(digits) / (len(digits) (base - 1)).  Every entry is one correctly
    rounded int division, as float(Fraction) rounds."""
    nonzero = [d for d in digits if d]
    levels = 1 + len(_level_powers(base))
    hi = np.empty((levels, len(nonzero)))
    lo = np.empty((levels, len(nonzero)))
    den = 1
    for n in range(levels):
        den *= base
        for j, d in enumerate(nonzero):
            h = d / den
            a, b = h.as_integer_ratio()
            hi[n, j] = -h
            lo[n, j] = -((d * b - a * den) / (den * b))
    mu_den = len(digits) * (base - 1)
    steps = np.array([sum(nonzero) / (mu_den * base ** n) for n in range(levels + 1)])
    for a in (hi, lo, steps):
        a.flags.writeable = False  # one table shared by every call
    return hi, lo, steps


class Measure:
    """Abstract base for all measure variants.  Instances are immutable.

    Every variant implements ``_mass``, ``_support``, ``_ft(p, q)`` (exact
    transform at the frequency p / q, for ints p > 0 and q > 0; the pair
    need not be reduced) and ``_grid`` (float transform over an array).
    ``_atoms`` maps position to point mass and ``_density`` lists the pieces
    of the part without atoms.  The other rules default to no atoms, no
    explicit density and the grid band of the support.
    """

    __slots__ = ()

    @property
    def variant(self) -> str:
        return type(self).__name__

    def _ft_signed(self, p: int, q: int) -> complex:
        """Transform at p / q, for ints p of any sign and q > 0 (see phase._ratio)."""
        if p == 0:
            return complex(self._mass())
        if p < 0:
            return self._ft(-p, q).conjugate()
        return self._ft(p, q)

    def _grid_guard(self) -> tuple:
        """The grid band (floor, ceiling): ft_grid takes the float rule at
        xi = 0 and wherever floor <= |xi| <= ceiling, and the scalar rule at
        every other point (transform._in_band is the one test of it).

        A primitive rule's floor is GRID_FLOOR, below which gradual
        underflow costs its products and quotients of xi their relative
        accuracy.  Its ceiling is the least of GRID_GUARD, the largest |xi|
        at which the rule is pinned against the mpmath oracle, and 2^1000
        over its farthest position from 0 (its support, or its farthest
        atom), so that no product of xi and a position overflows.  A rule
        with a position past 2^995, where Dekker's split of a position or of
        a difference of two can overflow, has ceiling 0 and takes ft at
        every nonzero xi.  A mixture or
        convolution takes the largest floor and the smallest ceiling of its
        parts.  An affine image runs its inner rule at xi * scale: it takes
        the inner floor over |scale|, and the least of the inner ceiling
        over max(|scale|, 1) and its offset's ceiling as a position.

        A window cut's scalar and grid rules take the same piece sums, the
        scalar one with exact phases and the grid one with float phases: at
        sampled points with |xi| up to 2^60 they differ by at most 4e-14
        relative."""
        lo, hi = self._support()
        return _position_guard(max(-lo, hi))

    def _atoms(self) -> dict:
        """Map position -> total point mass."""
        return {}

    def _density(self) -> tuple:
        """Pieces of the part without atoms; raises if it has no explicit density."""
        raise MeasureError(f"{type(self).__name__} has no explicit density")

    def _wrapped_support(self, scale: int) -> tuple:
        """Support interval of the image under x -> scale x mod 1."""
        return 0.0, 1.0

    def _windowed(self, center: float, radius: float, order: int):
        """Product with the window, or None when that is the zero measure."""
        lo, hi = self._support()
        if center - radius >= hi or center + radius <= lo:
            return None
        # building the pieces raises for parts with atoms or without a density
        cut = SmoothCutDensity(self, center, radius, order)
        return cut if cut._pieces else None


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
        return _total_mass(w for _, w in self.atoms)

    def _support(self) -> tuple:
        if not self.atoms:
            raise MeasureError("the zero measure has no support")
        xs = [p for p, _ in self.atoms]
        return min(xs), max(xs)

    def _ft(self, p, q) -> complex:
        return sum((w * _phase_at(p, q, pos) for pos, w in self.atoms), 0.0 + 0.0j)

    def _grid_guard(self) -> tuple:
        # the zero measure has no support, and its grid rule no position
        return _position_guard(max((abs(pos) for pos, _ in self.atoms), default=0.0))

    def _grid(self, xs: np.ndarray) -> np.ndarray:
        # xs is split once for every atom's exact product, and the weighted
        # phases accumulate in place.  The sum starts at +0.0, so the sign
        # of a zero part of a term never shows in it.
        parts = _split(xs)
        out = np.zeros(xs.shape, dtype=complex)
        for pos, w in self.atoms:
            term = _phase_vec(xs, pos, parts)
            term *= w
            out += term
        return out

    def _atoms(self) -> dict:
        return _merge_atoms(self.atoms)

    def _density(self) -> tuple:
        return ()

    def _windowed(self, center: float, radius: float, order: int):
        kept = []
        for pos, w in self.atoms:
            f = float(window_value(center, radius, order, pos))
            if f > 0.0:
                kept.append((pos, w * f))
        return Atomic(tuple(kept)) if kept else None


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
        _require_spans(canon, "interval")
        object.__setattr__(self, "intervals", tuple(canon))
        if not math.isfinite(1.0 / self.total_length):
            raise MeasureError(f"total length {self.total_length} is too small: "
                               "the density 1 / length overflows")

    @property
    def total_length(self) -> float:
        return math.fsum(b - a for a, b in self.intervals)

    def _mass(self) -> float:
        return 1.0

    def _support(self) -> tuple:
        return self.intervals[0][0], self.intervals[-1][1]

    def _ft(self, p, q) -> complex:
        # The cell's length b - a is taken exactly from the ratios of a and
        # b; only the weight uses the rounded float length.
        total = self.total_length
        out = 0.0 + 0.0j
        for a, b in self.intervals:
            pa, qa = _ratio(a)
            pb, qb = _ratio(b)
            cell = _eplus_frac(-p * (pb * qa - pa * qb), q * qa * qb)
            out += ((b - a) / total) * _phase_frac(p * pa, q * qa) * cell
        return out

    def _grid(self, xs: np.ndarray) -> np.ndarray:
        # xi (b - a) = t + e exactly, from the exact length (TwoSum) and
        # the exact product with its high part (TwoProduct).
        total = self.total_length
        parts = _split(xs)
        out = np.zeros(xs.shape, dtype=complex)
        for a, b in self.intervals:
            length, length_lo = _two_sum(b, -a)
            t, e = _two_product(xs, length, parts)
            e += xs * length_lo
            out += (length / total) * _phase_vec(xs, a, parts) * _eplus_vec(-t, -e)
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
            if isinstance(frequency, float) and frequency.is_integer():
                frequency = int(frequency)
            f = _integer(frequency, "trig frequency")
            if f <= 0:
                raise MeasureError(f"trig frequency must be a positive integer, got {frequency!r}")
            if f > MAX_ABS_FREQUENCY:
                raise MeasureError("trig frequency past the cap 2^4096")
            canon.append((c, f))
        if math.fsum(abs(c) for c, _ in canon) > 1.0 + _EPS:
            raise MeasureError("sum of |amplitudes| exceeds 1; density could go negative")
        object.__setattr__(self, "terms", tuple(canon))

    def _mass(self) -> float:
        return 1.0

    def _support(self) -> tuple:
        return 0.0, 1.0

    def _ft(self, p, q) -> complex:
        # Term f needs E(f - xi) and E(-f - xi), E = _eplus_frac.  At
        # xi = p/q both numerators, f q - p and -(f q + p), are congruent to
        # (f mod 2) q - p mod 2q, so one half turn per parity of f serves
        # every term.  At an integer xi, E is 1 where its argument is 0 and
        # 0 at every other integer.
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
                plus = _eplus_frac(fq - p, q, turn)
                minus = _eplus_frac(-(fq + p), q, turn)
            out += c * (plus - minus) / 2j
        return out

    def _grid(self, xs: np.ndarray) -> np.ndarray:
        # For every integer k, E(k - xi) = h / (pi (k - xi)) with the one
        # half turn h = exp(-i pi xi) sin(-pi xi), so
        #   ft = (h / pi) (-1/xi - (i/2) sum_k c_k (1/(f_k - xi) + 1/(f_k + xi))).
        # h comes from -xi/2 turns, reduced exactly; f_k - xi only enters a
        # denominator.  Terms past 2^1000 change the bracket by a relative
        # 2^-900 or less and are left out.  At integer xi, h is 0 and each
        # E is 1 or 0 (as in _ft).  -1 / xi overflows only at |xi| below
        # 2^-1024, which the grid band's floor sends to _ft, and at xi = 0,
        # an integer.
        unit = _unit_turns(-0.5 * xs)  # exp(-i pi xi)
        c, s = unit.real, unit.imag
        terms = [(amp, float(f)) for amp, f in self.terms if f.bit_length() <= 1000]
        with np.errstate(divide="ignore", invalid="ignore"):
            b_re = -1.0 / xs
            b_im = np.zeros(xs.shape)
            for amp, f in terms:
                b_im -= (0.5 * amp) * (1.0 / (f - xs) + 1.0 / (f + xs))
            # Kept in real parts: numpy fuses the multiply-adds of a complex
            # array product, which would move these values in their last bits.
            w = s / math.pi
            out = np.empty(xs.shape, dtype=complex)
            out.real = w * (c * b_re - s * b_im)
            out.imag = w * (c * b_im + s * b_re)
        whole = xs == np.rint(xs)
        if whole.any():
            at = xs[whole]
            vals = np.where(at == 0.0, 1.0 + 0.0j, 0.0j)
            for amp, f in terms:
                vals += (amp / 2j) * ((at == f) - 1.0 * (at == -f))
            out[whole] = vals
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
        if _integer(self.base, "base") < 2:
            raise MeasureError("base must be at least 2")
        digits = tuple(sorted(set(_integer(d, "digit") for d in self.allowed_digits)))
        if not digits:
            raise MeasureError("allowed_digits is empty")
        if digits[0] < 0 or digits[-1] >= self.base:
            raise MeasureError(f"digits {digits} out of range for base {self.base}")
        object.__setattr__(self, "allowed_digits", digits)

    def _mass(self) -> float:
        return 1.0

    def _support(self) -> tuple:
        return 0.0, 1.0

    def _ft(self, p, q) -> complex:
        # Level n sums exp(-2 pi i p d / den) over the digits, den = q base^n.
        # The residues of p are taken top-down: p is reduced once mod the
        # deepest modulus, and each shallower residue from the one below it,
        # which its modulus divides.  Digit 0 contributes exactly 1.  Every
        # residue shallower than a 0 is 0 too, and where |D| (1/|D|) rounds
        # to 1 each such level is exactly 1 + 0j: the loop stops at the 0.
        digits = self.allowed_digits
        start = 0.0 + 0.0j
        if digits[0] == 0:
            start, digits = 1.0 + 0.0j, digits[1:]
        inv = 1.0 / len(self.allowed_digits)
        whole = len(self.allowed_digits) * inv == 1.0
        den = q * self.base
        dens = [den]
        stop = p << _SELF_SIMILAR_CUTOFF_BITS
        while den <= stop:
            den *= self.base
            dens.append(den)
        residues = []
        r = p
        for modulus in reversed(dens):
            r %= modulus
            if not r and whole:
                break
            residues.append(r)
        residues.reverse()
        out = 1.0 + 0.0j
        for den, r in zip(dens[len(dens) - len(residues):], residues):
            s = start
            for d in digits:
                s += _phase_frac(r * d, den)
            out *= s * inv
        return out * _phase_frac(p * sum(digits),
                                 dens[-1] * len(self.allowed_digits) * (self.base - 1))

    def _grid(self, xs: np.ndarray) -> np.ndarray:
        # Each point keeps the scalar rule's levels, so its value does not
        # depend on the rest of the array.  The position -d / base^n is the
        # double-double hi + lo of _level_table, and the phase of xi * hi is
        # reduced from the exact product.  A block of (level, digit) rows
        # takes its phases in one 2-d product and one _unit_turns call, with
        # no temporary past max(N, GRID_CHUNK) cells for N points.  Level
        # sums keep digit order, and the product over the levels takes one
        # out-of-place multiply per level (as in DigitProduct._grid).  Digit
        # 0 contributes exactly 1.  The tail turns by less than 2^-27, so
        # its phase is xi times mu / base^n (steps[n]) in floats.
        depths = 1 + np.searchsorted(_level_powers(self.base),
                                     np.abs(xs) * 2.0 ** _SELF_SIMILAR_CUTOFF_BITS, side="right")
        deepest = int(depths.max())
        hi, lo, steps = _level_table(self.base, self.allowed_digits)
        parts = _split(xs)
        start = complex(self.allowed_digits[0] == 0)
        inv = 1.0 / len(self.allowed_digits)
        rows = max(xs.size, GRID_CHUNK) // xs.size
        width = max(1, min(hi.shape[1], rows))  # digits per block
        height = rows // width  # levels per block
        out = np.ones(xs.shape, dtype=complex)
        for n0 in range(0, deepest, height):
            n1 = min(deepest, n0 + height)
            level = np.full((n1 - n0, xs.size), start)
            for j0 in range(0, hi.shape[1], width):
                y, y_lo = hi[n0:n1, j0:j0 + width], lo[n0:n1, j0:j0 + width]
                turns = _unit_turns(*_product_turns(xs, y.reshape(-1, 1), parts,
                                                    y_lo.reshape(-1, 1)))
                turns = turns.reshape(*y.shape, xs.size)
                for j in range(y.shape[1]):
                    level += turns[:, j]
            level.real *= inv
            level.imag *= inv
            kept = np.where(depths >= np.arange(n0 + 1, n1 + 1)[:, None], level, 1.0)
            for row in kept:
                out = out * row
        return out * _unit_turns(-xs * np.take(steps, depths))

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
        if _integer(self.offset, "block offset") < 0:
            raise MeasureError("block offset must be nonnegative")
        if _integer(self.length, "block length") < 1:
            raise MeasureError("block length must be positive")
        pattern = self.forbidden_pattern
        if not isinstance(pattern, str) or set(pattern) - {"0", "1"}:
            raise MeasureError("forbidden_pattern must be a binary string")
        if len(pattern) != self.length:
            raise MeasureError("forbidden_pattern length differs from block length")


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
        if _integer(self.base, "base") != 2:
            raise MeasureError("only base 2 digit products are supported")
        if _integer(self.depth, "depth") < 1:
            raise MeasureError("depth must be positive")
        canon = tuple(
            b if isinstance(b, DigitBlock) else DigitBlock(*b) for b in self.blocks
        )
        spans = sorted((b.offset, b.offset + b.length) for b in canon)
        _require_spans(spans, "block")
        if spans and spans[-1][1] > self.depth:  # the last block ends last
            raise MeasureError("block exceeds depth")
        object.__setattr__(self, "blocks", canon)
        # 2^free alone passes the cap when free > 1023; past that the count
        # is not built, so a depth near 2^33 makes no 1 GB int
        if (self.depth - sum(b.length for b in canon) > 1023
                or self.cylinder_count() > 1 << 1023):
            raise MeasureError("more than 2^1023 cylinders: the float weights overflow")

    def cylinder_count(self) -> int:
        """Number of admissible depth-L cylinders."""
        free = self.depth - sum(b.length for b in self.blocks)
        count = 1 << free
        for b in self.blocks:
            count *= (1 << b.length) - 1
        return count

    def _mass(self) -> float:
        return 1.0

    def _support(self) -> tuple:
        return self._wrapped_support(1)

    def _wrapped_support(self, scale: int) -> tuple:
        # A block-aligned dilation by 2^l shifts the digits left by l places:
        # the image is the digit product of the digits past l.  Blocks
        # entirely inside the first l digits only rescale cylinder
        # multiplicities uniformly (block constraints are independent across
        # disjoint ranges), so they drop out.
        if scale <= 0 or scale & (scale - 1):
            return 0.0, 1.0
        l = scale.bit_length() - 1
        if l >= self.depth or any(b.offset < l < b.offset + b.length for b in self.blocks):
            return 0.0, 1.0
        lo = hi = 0.0
        for positions, forbidden in self._factor_plan:
            if positions[0] > l:
                unit = 2.0 ** (l - positions[-1])
                top = (1 << len(positions)) - 1
                lo += (0 in forbidden) * unit
                hi += (top - (top in forbidden)) * unit
        return lo, min(1.0, hi + 2.0 ** (l - self.depth))

    @cached_property
    def _factor_plan(self) -> tuple:
        """The factors in digit order, each as (its digit positions, the
        patterns it forbids as ints): a block forbids its one pattern, and a
        free digit at position pos is the block ((pos,), ()) that forbids
        none."""
        blocked = {b.offset: b for b in self.blocks}
        factors = []
        pos = 1
        while pos <= self.depth:
            b = blocked.get(pos - 1)
            length, forbidden = (1, ()) if b is None else (b.length, (int(b.forbidden_pattern, 2),))
            factors.append((tuple(range(pos, pos + length)), forbidden))
            pos += length
        return tuple(factors)

    def _ft(self, p, q) -> complex:
        pre = _eplus_frac(-p, q << self.depth)
        p %= q << self.depth  # every phase below has a modulus dividing this one
        factors = 1.0 + 0.0j
        for positions, forbidden in self._factor_plan:
            block_prod = math.prod((1.0 + _phase_frac(p, q << pos) for pos in positions),
                                   start=1.0 + 0.0j)
            for v in forbidden:
                block_prod -= _phase_frac(p * v, q << positions[-1])
            factors *= block_prod
        return pre * factors / self.cylinder_count()

    def _grid(self, xs: np.ndarray) -> np.ndarray:
        # xi * 2^-i is an exact float scaling, so _phase_vec reduces it
        # exactly.  Complex products are formed out of place: numpy rounds an
        # in-place product of one-element arrays differently, which would
        # make a value depend on the size of its batch.
        pre = _eplus_vec(-xs * 2.0 ** -self.depth)
        factors = np.ones(xs.shape, dtype=complex)
        for positions, forbidden in self._factor_plan:
            # phases[i] is the character of digit positions[i]; the block
            # product and the forbidden pattern's character share them.
            phases = [_phase_vec(xs, 2.0 ** -pos) for pos in positions]
            block = math.prod((1.0 + ph for ph in phases[1:]), start=1.0 + phases[0])
            for v in forbidden:
                forb = np.ones(xs.shape, dtype=complex)
                for j in range(len(positions)):
                    if v >> j & 1:
                        forb = forb * phases[-1 - j]
                block = block - forb
            factors = factors * block
        return pre * factors / self.cylinder_count()

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
        """Sorted integers v < 2**depth whose digit strings avoid every block.

        The plan runs from the leading digit down and each factor's offsets
        ascend, so the values come out in order."""
        values = [0]
        for positions, forbidden in self._factor_plan:
            shift = self.depth - positions[-1]
            offsets = [c << shift for c in range(1 << len(positions)) if c not in forbidden]
            values = [x + o for x in values for o in offsets]
        return values


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
        return _total_mass(w * c._mass() for c, w in zip(self.components, self.weights))

    def _support(self) -> tuple:
        spans = [c._support() for c in self.components]
        return min(a for a, _ in spans), max(b for _, b in spans)

    def _ft(self, p, q) -> complex:
        return self._combine(c._ft(p, q) for c in self.components)

    def _combine(self, parts) -> complex:
        """The transform from the components' transforms (scalars at one
        frequency, or grids); _ft and _grid both sum through here."""
        return sum((w * v for v, w in zip(parts, self.weights)), 0.0 + 0.0j)

    def _grid(self, xs: np.ndarray) -> np.ndarray:
        return self._combine(c._grid(xs) for c in self.components)

    def _grid_guard(self) -> tuple:
        return _meet(c._grid_guard() for c in self.components)

    def _atoms(self) -> dict:
        return _merge_atoms((pos, w * v) for c, w in zip(self.components, self.weights)
                            for pos, v in c._atoms().items())

    def _density(self) -> tuple:
        return tuple(p.scaled(w) for c, w in zip(self.components, self.weights)
                     for p in c._density())

    def _windowed(self, center: float, radius: float, order: int):
        cuts = [(c._windowed(center, radius, order), w)
                for c, w in zip(self.components, self.weights)]
        kept = [(c, w) for c, w in cuts if c is not None]
        return Mixture(*zip(*kept)) if kept else None


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
        if isinstance(s, bool) or not isinstance(s, int):
            s = _finite(s, "affine scale")
        else:
            # the support, atoms, density and grid rules take the scale as a float
            try:
                float(s)
            except OverflowError:
                raise MeasureError("affine scale must lie in the float range, below "
                                   f"about 2^1024, got an int of {s.bit_length()} bits") from None
        if s == 0:
            raise MeasureError("affine scale must be nonzero")
        off = _finite(self.offset, "affine offset")
        if not isinstance(self.mod1, bool):
            raise MeasureError(f"mod1 must be true or false, got {self.mod1!r}")
        if self.mod1:
            if _ratio(s)[1] != 1:
                raise MeasureError("mod-1 images need an integer scalar scale")
            s = int(s)
            lo, hi = self.inner._support()
            if lo < -_EPS or hi > 1.0 + _EPS:
                raise MeasureError("mod-1 images need inner support inside [0, 1]")
        object.__setattr__(self, "scale", s)
        object.__setattr__(self, "offset", off)

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

    def _ft(self, p, q) -> complex:
        if self.mod1 and p % q:
            raise MeasureError(
                "transform of a wrapped (mod 1) image is defined at integer "
                "frequencies only")
        ps, qs = _ratio(self.scale)
        offset_phase = _phase_at(p, q, self.offset) if self.offset != 0 else 1.0 + 0.0j
        return offset_phase * self.inner._ft_signed(p * ps, q * qs)

    def _grid(self, xs: np.ndarray) -> np.ndarray:
        if self.mod1 and not np.all(xs == np.round(xs)):
            raise MeasureError(
                "transform of a wrapped (mod 1) image is defined at integer "
                "frequencies only")
        inner = self.inner._grid(xs * self.scale)
        if self.offset != 0:
            inner = inner * _phase_vec(xs, self.offset)
        return inner

    def _grid_guard(self) -> tuple:
        # the inner rule runs at xi * scale, and the offset is a position
        floor, ceiling = self.inner._grid_guard()
        return floor / abs(self.scale), min(ceiling / max(abs(self.scale), 1.0),
                                            _position_guard(abs(self.offset))[1])

    def _atoms(self) -> dict:
        images = ((self.scale * pos + self.offset, v) for pos, v in self.inner._atoms().items())
        if self.mod1:
            images = ((key - math.floor(key), v) for key, v in images)
        return _merge_atoms(images)

    def _density(self) -> tuple:
        if self.mod1:
            raise MeasureError("wrapped images have no piecewise density here")
        return tuple(p.map_affine(float(self.scale), float(self.offset))
                     for p in self.inner._density())


@dataclass(frozen=True)
class Convolution(Measure):
    """Convolution of the factor measures; transform is the product of factors.

    It has atoms when every factor has some, not only when every factor is
    atomic: they are the atoms of the convolution of the factors' atomic
    parts, since an atom convolved with a part without atoms has none.
    """

    factors: tuple

    def __post_init__(self):
        facs = _require_measures(self.factors, "convolution factors")
        if len(facs) < 2:
            raise MeasureError("convolution needs at least two factors")
        object.__setattr__(self, "factors", facs)

    def _mass(self) -> float:
        return _total_mass((math.prod(f._mass() for f in self.factors),))

    def _support(self) -> tuple:
        lo = hi = 0.0
        for f in self.factors:
            a, b = f._support()
            lo += a
            hi += b
        return lo, hi

    def _ft(self, p, q) -> complex:
        return math.prod((f._ft(p, q) for f in self.factors), start=1.0 + 0.0j)

    def _grid(self, xs: np.ndarray) -> np.ndarray:
        return math.prod((f._grid(xs) for f in self.factors), start=1.0 + 0.0j)

    def _grid_guard(self) -> tuple:
        return _meet(f._grid_guard() for f in self.factors)

    def _atoms(self) -> dict:
        maps = [f._atoms() for f in self.factors]
        if any(not d for d in maps):
            return {}
        out = {0.0: 1.0}
        for d in maps:
            out = _merge_atoms((pos + p2, w * w2) for pos, w in out.items()
                               for p2, w2 in d.items())
        return out


@dataclass(frozen=True)
class SmoothCutDensity(Measure):
    """Inner measure multiplied by the polynomial window
    ((radius^2 - (x - center)^2)_+ / radius^2) ** order.

    The window peaks at 1, so the cut never increases mass, and the measure is
    deliberately not renormalised.  Construction happens through
    :func:`fourierdim.dimension.smooth_cut`, which reweights atoms in place.
    The pieces come from ``decompose_density(inner)``, so an inner measure
    with atoms or without an explicit density raises on first use.
    """

    inner: Measure
    center: float
    radius: float
    order: int

    def __post_init__(self):
        _require_measures((self.inner,), "the inner measure")
        window = _window(self.center, self.radius, self.order)
        for name, value in zip(("center", "radius", "order"), window):
            object.__setattr__(self, name, value)

    def _mass(self) -> float:
        return float(self._grid(np.zeros(())).real)

    def _support(self) -> tuple:
        a, b = self.inner._support()
        lo = max(a, self.center - self.radius)
        hi = min(b, self.center + self.radius)
        if not lo < hi:
            raise MeasureError("window does not meet the support of the inner measure")
        return lo, hi

    def _ft(self, p, q) -> complex:
        out = 0.0j
        for piece in self._density():
            out += piece_ft(piece, p, q)
        return out

    def _grid(self, xs: np.ndarray) -> np.ndarray:
        out = np.zeros(xs.shape, dtype=complex)
        for p in self._density():
            out += piece_transform(p, xs)
        return out

    def _density(self) -> tuple:
        if not self._pieces:
            raise MeasureError("window does not meet the support of the inner measure")
        return self._pieces

    @cached_property
    def _pieces(self) -> tuple:
        """The product pieces, empty where the window misses the inner
        density, built on first use and kept; a build that raises stores
        nothing, so every later call raises the same way."""
        wpiece = window_piece(self.center, self.radius, self.order)
        products = (wpiece.multiply(p) for p in decompose_density(self.inner))
        return tuple(q for q in products if q is not None)


# ---------------------------------------------------------------------------
# mass, support and combinators


def mass(m: Measure) -> float:
    """Total mass m(R).  Exactly ft(m, 0)."""
    return m._mass()


def support_interval(m: Measure) -> tuple:
    """Smallest closed interval containing the support."""
    return m._support()


# ---------------------------------------------------------------------------
# JSON descriptions
#
# A description is {"variant": name, <field>: value, ...} over the dataclass
# fields.  Tuples become lists and nested measures nested descriptions; each
# row of a field in _ROW_KEYS becomes an object with those keys (a bare list
# is accepted on read).  Fields with a default may be left out; any key that
# is not a field, "variant" or "ambient_dim" is rejected.  "ambient_dim" is
# read and ignored: older descriptions carry it, and every measure here lives
# on the line.

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
    names = {_JSON_KEYS.get(f.name, f.name): f.name for f in fields(cls)}
    unknown = set(d) - set(names) - {"variant", "ambient_dim"}
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(map(str, unknown))}")
    return cls(**{name: _from_json(name, d[key])
                  for key, name in names.items() if key in d})


def _decode(table: dict, d: dict, error: type):
    """The class that table names by d["variant"], built from d; anything
    malformed raises error."""
    try:
        cls = table[d["variant"]]
    except (KeyError, TypeError) as exc:
        raise error(f"unknown or missing variant: {exc}") from None
    try:
        return _build(cls, d)
    except error:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise error(f"bad {cls.__name__} description: {exc!r}") from None


def measure_to_dict(m: Measure) -> dict:
    """Plain-dict description with the variant name and per-variant fields."""
    return _describe(m, variant=m.variant)


def measure_from_dict(d: dict) -> Measure:
    """Measure from a description; anything malformed raises MeasureError."""
    return _decode(_VARIANTS, d, MeasureError)


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


def _floor_log2(x) -> int:
    """floor(log2 |x|) for a nonzero int of any size or a nonzero float."""
    if not x:
        raise ScheduleError("frequencies must be nonzero")
    if isinstance(x, int):
        return abs(x).bit_length() - 1
    return math.frexp(abs(x))[1] - 1


def _require_ints(schedule, *names) -> None:
    for name in names:
        _integer(getattr(schedule, name), name, ScheduleError)


# Most frequencies a generated schedule may hold, counted from its fields
# before any is built: about 190 times the largest preset schedule (336).
# A transform run takes about 0.5 KB and 65 us per frequency on 2 vCPUs.
MAX_FREQUENCIES = 2 ** 16


def _require_count(count: int) -> None:
    if count > MAX_FREQUENCIES:
        raise ScheduleError(f"a schedule of {count} frequencies exceeds the cap "
                            f"of {MAX_FREQUENCIES}")


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
        _require_count(self.j_max - self.j_min + 1)

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
        _require_count((self.max_exp - self.min_exp + 1) * self.samples_per_window)
        if self.min_exp < -1074:
            raise ScheduleError("dyadic window exponents below -1074 round to 0.0")

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
        exps = tuple(_integer(e, "exponent", ScheduleError) for e in self.exponents)
        if not exps or any(e < 0 for e in exps):
            raise ScheduleError("exponents must be nonnegative integers")
        if _integer(self.multipliers, "multipliers", ScheduleError) < 1:
            raise ScheduleError("multipliers is a count and must be an int >= 1")
        _require_count(len(exps) * self.multipliers)
        # 2^top is formed only where top is below the cap's bit length
        top = max(exps)
        if (top >= MAX_ABS_FREQUENCY.bit_length()
                or (self.multipliers << top) > MAX_ABS_FREQUENCY):
            raise ScheduleError("a Lacunary frequency 2^e * j exceeds the cap 2^4096")
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
        freqs = _sorted_by_modulus(self.frequencies_list)
        if freqs and abs(freqs[-1]) > MAX_ABS_FREQUENCY:
            raise ScheduleError("an explicit frequency exceeds the cap 2^4096")
        object.__setattr__(self, "frequencies_list", freqs)

    def frequencies(self) -> tuple:
        return self.frequencies_list


def merge_schedules(*schedules: FrequencySchedule) -> ExplicitFrequencies:
    """Union of the given schedules as one explicit schedule, sorted by
    modulus, with duplicates dropped (the first of equal values kept)."""
    return ExplicitFrequencies(tuple(dict.fromkeys(
        x for s in schedules for x in s.frequencies())))


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
    return _decode(_SCHEDULES, d, ScheduleError)
