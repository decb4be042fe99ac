"""Piecewise polynomial-times-exponential densities.

Every measure in this package with an explicit density decomposes into pieces

    piece(x) = amplitude * P(x - center) * exp(2 pi i frequency (x - center))

supported on an interval [a, b], with P a real polynomial.  The family is
closed under sums, affine substitution and multiplication, which is exactly
what the window cutoff needs.  Each piece also carries its endpoint jets:
its two exact ends and the derivatives P^(k) there.  The window's jets come
from its factored form ((r - t)(r + t) / r^2)^order, so at its edges, the
exact reals center +- radius, the first order of them are exact zeros, and
a product takes the Leibniz product of its factors' jets.

A piece's transform is a Gauss-Legendre sum where the piece oscillates
little over its interval.  Elsewhere it is the finite integration-by-parts
sum (Iserles and Norsett 2005), exact for a polynomial,

    integral_{t1}^{t2} P(t) e^{i theta t} dt
        = [e^{i theta t} sum_k (-1)^k P^(k)(t) / (i theta)^(k+1)]_{t1}^{t2},

taken from the endpoint jets with the phase of each end reduced exactly.
:func:`piece_transform` runs both rules over float arrays, with phases from
:func:`fourierdim.phase._phase_vec`; :func:`piece_ft` runs them at an exact
frequency p/q in Python floats, with phases from exact rationals.
``_parts_sum`` is the one integration-by-parts sum of both, and
``_legendre_rule`` the package's one source of Gauss-Legendre nodes.

The quadrature route in :mod:`fourierdim.transform` deliberately does not use
the piece transforms; it only sees pointwise density values through
:func:`evaluate_density` and shares the node rule, not the integral, so the
two transform routes stay independent.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import MeasureError
from .phase import GRID_CHUNK, _phase_frac, _phase_vec, _ratio, _split, _two_sum

__all__ = [
    "DensityPiece",
    "WindowPiece",
    "decompose_density",
    "evaluate_density",
    "piece_ft",
    "piece_transform",
    "poly_exp_integral",
    "window_piece",
    "window_poly",
    "window_value",
    "cut_mass",
]


@dataclass(frozen=True)
class DensityPiece:
    """One summand of a piecewise density, supported on [a, b].

    ends holds the endpoint jets, for the lower end and then the upper one:
    (hi, lo, jet), with hi + lo the exact end and jet the derivatives
    (P(t), P'(t), ..., P^(deg)(t)) at t = hi + lo - center.  By default the
    ends are a and b, with jets from the coefficients.
    """

    a: float
    b: float
    center: float
    poly: tuple
    amplitude: complex
    frequency: float
    ends: tuple = None

    def __post_init__(self):
        if not self.b > self.a:
            raise MeasureError(f"piece interval ({self.a}, {self.b}) is empty")
        if not self.poly:
            raise MeasureError("piece polynomial is empty")
        if not (cmath.isfinite(self.amplitude) and all(map(math.isfinite, self.poly))):
            raise MeasureError(f"piece on ({self.a}, {self.b}) has an amplitude or "
                               "coefficient past the float range")
        if self.ends is None:
            edges = self._edges()
            object.__setattr__(self, "ends", tuple((hi, lo, self._jet(hi, lo))
                                                   for hi, lo in edges))
        if not all(math.isfinite(v) for *_, jet in self.ends for v in jet):
            raise MeasureError(f"piece on ({self.a}, {self.b}) has an endpoint "
                               "derivative past the float range")

    def _edges(self) -> tuple:
        """The default ends, each as (hi, lo)."""
        return (self.a, 0.0), (self.b, 0.0)

    def _jet(self, hi: float, lo: float) -> tuple:
        """(P(t), P'(t), ..., P^(deg)(t)) at t = hi + lo - center."""
        return _poly_jet(self.poly, (hi - self.center) + lo)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Piece values at the points x (zero outside [a, b]); only the
        points inside are evaluated, and a piece of frequency 0 forms no
        phase."""
        x = np.asarray(x, dtype=float)
        inside = (x >= self.a) & (x <= self.b)
        out = np.zeros(x.shape, dtype=complex)
        t = x[inside] - self.center
        p = np.zeros_like(t)
        for c in reversed(self.poly):
            p = p * t + c
        vals = self.amplitude * p
        if self.frequency:
            vals = vals * _phase_vec(t, -self.frequency)
        out[inside] = vals
        return out

    def map_affine(self, scale: float, offset: float) -> "DensityPiece":
        """Piece of the pushforward density under x -> scale * x + offset.
        The jets scale with the derivatives; each end is its image rounded
        to a float."""
        lo = scale * self.a + offset
        hi = scale * self.b + offset
        ends = [(scale * h + offset, 0.0, tuple(v / scale ** k for k, v in enumerate(jet)))
                for h, _, jet in self.ends]
        if scale < 0:
            lo, hi = hi, lo
            ends.reverse()
        poly = tuple(c / scale ** r for r, c in enumerate(self.poly))
        return DensityPiece(
            lo,
            hi,
            scale * self.center + offset,
            poly,
            self.amplitude / abs(scale),
            self.frequency / scale,
            tuple(ends),
        )

    def scaled(self, weight: float) -> "DensityPiece":
        """The piece times a real weight."""
        return replace(self, amplitude=weight * self.amplitude)

    def multiply(self, other: "DensityPiece"):
        """Pointwise product piece, or None when the supports do not overlap.
        Each end is the nearer-in of the two exact ends, and its jet the
        Leibniz product of both factors' jets there."""
        lo = max(self.a, other.a)
        hi = min(self.b, other.b)
        if not hi > lo:
            return None
        delta = self.center - other.center
        shifted = _taylor_shift(other.poly, delta)
        poly = tuple(np.convolve(np.asarray(self.poly), np.asarray(shifted)))
        amp = self.amplitude * other.amplitude * _phase_vec(delta, -other.frequency)
        ends = []
        for side, (mine, theirs) in enumerate(zip(self.ends, other.ends)):
            if (mine[:2] >= theirs[:2]) == (side == 0):
                x_hi, x_lo, jet = mine
                jets = jet, other._jet(x_hi, x_lo)
            else:
                x_hi, x_lo, jet = theirs
                jets = self._jet(x_hi, x_lo), jet
            ends.append((x_hi, x_lo, _leibniz(*jets)))
        return DensityPiece(lo, hi, self.center, poly, amp,
                            self.frequency + other.frequency, tuple(ends))

    @functools.cached_property
    def _end_terms(self) -> tuple:
        """Per end, what its term of the parts sum needs, built on first use:
        (hi, lo, num, den, weight, even, odd).  num / den = hi + lo is the
        end x, and weight is +-amplitude * exp(2 pi i frequency (x - center))
        (minus at the lower end), both exact before the one rounding.  even
        and odd are the signed jets (-1)^j P^(2j) and (-1)^j P^(2j+1),
        highest first, as _parts_sum takes them."""
        fn, fd = _ratio(self.frequency)
        cn, cd = _ratio(self.center)
        out = []
        for sign, (hi, lo, jet) in zip((-1.0, 1.0), self.ends):
            num, den = (Fraction(hi) + Fraction(lo)).as_integer_ratio()
            turn = _phase_frac(-fn * (num * cd - cn * den), fd * den * cd) if fn else 1.0
            even = tuple(-v if j & 1 else v for j, v in enumerate(jet[0::2]))
            odd = tuple(-v if j & 1 else v for j, v in enumerate(jet[1::2]))
            weight = complex(sign * self.amplitude * turn)
            out.append((hi, lo, num, den, weight, even[::-1], odd[::-1]))
        return tuple(out)


@dataclass(frozen=True, kw_only=True)
class WindowPiece(DensityPiece):
    """The window ((radius^2 - (x - center)^2) / radius^2) ** order on
    [center - radius, center + radius], built by :func:`window_piece`.  Its
    ends are the exact reals center +- radius, and its jets at any point
    come from the factored form, so at its edges the first order of them
    are exact zeros."""

    radius: float
    order: int

    def _edges(self) -> tuple:
        return _two_sum(self.center, -self.radius), _two_sum(self.center, self.radius)

    def _jet(self, hi: float, lo: float) -> tuple:
        # r - t and r + t for t = hi + lo - center, each taken from an exact
        # edge: at that edge it is exactly 0
        (lo_hi, lo_lo), (up_hi, up_lo) = self._edges()
        minus = ((up_hi - hi) + up_lo) - lo
        plus = ((hi - lo_hi) - lo_lo) + lo
        return _window_jet(self.radius, self.order, minus / self.radius, plus / self.radius)


def window_piece(center: float, radius: float, order: int) -> WindowPiece:
    """The window as a density piece of amplitude 1 and frequency 0."""
    return WindowPiece(center - radius, center + radius, center, window_poly(radius, order),
                       1.0 + 0.0j, 0.0, radius=radius, order=order)


def _taylor_shift(poly, delta: float) -> tuple:
    """Coefficients of P(t + delta) given those of P(t)."""
    n = len(poly)
    out = [0.0] * n
    for r, c in enumerate(poly):
        if c == 0.0:
            continue
        for k in range(r + 1):
            out[k] += c * math.comb(r, k) * delta ** (r - k)
    return tuple(out)


def _poly_jet(poly, t: float) -> tuple:
    """(P(t), P'(t), ..., P^(deg)(t)) for the coefficients poly, from the
    Taylor coefficients at t (repeated synthetic division)."""
    c = list(poly)
    n = len(c)
    for k in range(n - 1):
        for r in range(n - 2, k - 1, -1):
            c[r] += t * c[r + 1]
    return tuple(math.factorial(k) * v for k, v in enumerate(c))


def _window_jet(radius: float, order: int, minus: float, plus: float) -> tuple:
    """The 2 order + 1 derivatives of (m(t) p(t)) ** order at the point
    where m = (r - t) / r and p = (r + t) / r equal minus and plus, by
    Leibniz over the two powers: a term with a power of a zero factor is 0."""
    fall = [math.perm(order, i) for i in range(order + 1)]
    powers_m = [minus ** (order - i) for i in range(order + 1)]
    powers_p = [plus ** (order - i) for i in range(order + 1)]
    out = []
    for k in range(2 * order + 1):
        acc = 0.0
        for i in range(max(0, k - order), min(k, order) + 1):
            term = math.comb(k, i) * fall[i] * fall[k - i] * (powers_m[i] * powers_p[k - i])
            acc += -term if i & 1 else term
        out.append(acc / radius ** k)
    return tuple(out)


def _leibniz(u, v) -> tuple:
    """Jet of a product from the jets u and v of its factors at one point."""
    return tuple(sum(math.comb(k, j) * u[j] * v[k - j]
                     for j in range(max(0, k - len(v) + 1), min(k, len(u) - 1) + 1))
                 for k in range(len(u) + len(v) - 1))


def window_poly(radius: float, order: int) -> tuple:
    """Coefficients in t of ((radius^2 - t^2) / radius^2) ** order; raises
    MeasureError when one of them is past the float range."""
    coeffs = [0.0] * (2 * order + 1)
    try:
        for k in range(order + 1):
            coeffs[2 * k] = math.comb(order, k) * (-1.0) ** k / radius ** (2 * k)
        finite = all(map(math.isfinite, coeffs))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise MeasureError(f"window polynomial of radius {radius} and order {order} "
                           "has coefficients past the float range")
    return tuple(coeffs)


def window_value(center: float, radius: float, order: int, x) -> np.ndarray:
    """Window ((radius^2 - (x-center)^2)_+ / radius^2) ** order at the points x."""
    t = np.asarray(x, dtype=float) - center
    base = np.clip(1.0 - (t / radius) ** 2, 0.0, None)
    return base ** order


# ---------------------------------------------------------------------------
# decomposition


def decompose_density(m) -> tuple:
    """Pieces of the density of m, when m has a tractable explicit density.

    Raises MeasureError for measures with atoms, self-similar measures,
    convolutions, wrapped (mod-1) images, digit products with too many
    cylinders to enumerate, and window cuts that miss the support.
    """
    pieces = m._density()
    if m._atoms():
        raise MeasureError(f"{m.variant} has atoms, so it has no density")
    return pieces


# ---------------------------------------------------------------------------
# evaluation and closed-form transforms


def evaluate_density(pieces, x) -> np.ndarray:
    """Real density values at the points x for a sum of pieces."""
    x = np.asarray(x, dtype=float)
    total = np.zeros(x.shape, dtype=complex)
    for p in pieces:
        total += p.evaluate(x)
    return total.real


def poly_exp_integral(poly, gamma, t1: float, t2: float) -> np.ndarray:
    """integral_{t1}^{t2} (sum_r poly[r] t^r) exp(2 pi i gamma t) dt, for
    t1 < t2: the transform of the piece poly on [t1, t2] about 0 at -gamma.

    Vectorised over gamma, with theta = 2 pi gamma.  Where |theta| * max|t|
    is at most 12 + 2 deg, a Gauss-Legendre rule on [t1, t2] integrates the
    piece, with the node count of |theta| = (12 + 2 deg) / max|t| for every
    point, so no value depends on the others.  Elsewhere the finite
    integration-by-parts sum over the jets at t1 and t2 gives it, each
    phase exp(i theta t) reduced from the exact product gamma t.
    """
    piece = DensityPiece(t1, t2, 0.0, tuple(poly), 1.0 + 0.0j, 0.0)
    return piece_transform(piece, -np.asarray(gamma, dtype=float))


@functools.lru_cache(maxsize=128)
def _legendre_rule(n: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1]; the package's only source.
    The arrays are shared by every caller, so they are read-only."""
    u, w = np.polynomial.legendre.leggauss(n)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _oscillatory_rule(deg: int, theta_max: float, half: float) -> tuple:
    """Gauss-Legendre rule for P(t) exp(i theta t) over an interval of
    half-width half, with deg P = deg and |theta| <= theta_max.

    n nodes integrate polynomials of degree 2n - 1 exactly: ceil((deg+1)/2)
    of them cover P, and 1.4 per radian of |theta| * half plus 12 more cover
    the exponential's Taylor tail to rounding.
    """
    return _legendre_rule(-(-(deg + 1) // 2) + math.ceil(1.4 * theta_max * half) + 12)


def _gauss_branch(piece) -> tuple:
    """(t1, t2, tmax, cutoff) of a piece: it takes the Gauss-Legendre rule
    where |theta| * tmax <= cutoff, with tmax = max(|t1|, |t2|) and
    cutoff = 12 + 2 deg."""
    t1 = piece.a - piece.center
    t2 = piece.b - piece.center
    return t1, t2, max(abs(t1), abs(t2)), 12.0 + 2.0 * (len(piece.poly) - 1)


def _gauss_sum(poly, theta, t1, t2, theta_max):
    # Every |theta| <= theta_max takes the same nodes.  The exponentials of
    # a block of nodes are formed at once, in temporaries of at most
    # max(len(theta), GRID_CHUNK) cells, and summed in node order, so no
    # point's sum depends on the block size.
    mid = 0.5 * (t1 + t2)
    half = 0.5 * (t2 - t1)
    u, w = _oscillatory_rule(len(poly) - 1, theta_max, half)
    t = mid + half * u
    p = np.zeros_like(t)
    for c in reversed(poly):
        p = p * t + c
    weights = half * w * p
    out = np.zeros(theta.shape, dtype=complex)
    rows = max(1, GRID_CHUNK // max(theta.size, 1))
    for k in range(0, t.size, rows):
        terms = np.exp(1j * np.multiply.outer(t[k:k + rows], theta))
        terms *= weights[k:k + rows, None]
        terms[0] += out
        out = np.add.accumulate(terms, axis=0)[-1]
    return out


def _parts_sum(even, odd, s):
    """(re, im) of sum_k (-1)^k P^(k)(t) / (i theta)^(k+1) at s = 1 / theta,
    from one end's signed jets (DensityPiece._end_terms).

    With 1 / (i theta) = -i s the sum is s^2 O - i s E, where
    E = sum_j (-1)^j P^(2j) s^(2j) and O = sum_j (-1)^j P^(2j+1) s^(2j):
    two real Horner sums in s^2.  s is a float or an array; where it is
    small the powers underflow on their own.
    """
    z = s * s
    e = 0.0
    for c in even:
        e = e * z + c
    o = 0.0
    for c in odd:
        o = o * z + c
    return z * o, -s * e


def piece_transform(piece: DensityPiece, xi) -> np.ndarray:
    """Transform of one piece over float frequencies:
    integral exp(-2 pi i xi x) piece(x) dx.

    With theta = 2 pi (frequency - xi), the Gauss-Legendre rule takes the
    points on its branch (_gauss_branch) and the parts sum the
    rest, its phase exp(-2 pi i xi x) at each exact end x = hi + lo from
    the exact product xi hi plus xi lo in floats.
    """
    x = np.asarray(xi, dtype=float)
    xs = x.ravel()
    theta = 2.0 * math.pi * (piece.frequency - xs)
    t1, t2, tmax, cutoff = _gauss_branch(piece)
    small = np.abs(theta) * tmax <= cutoff
    out = np.empty(xs.shape, dtype=complex)
    if small.any():
        inner = _gauss_sum(piece.poly, theta[small], t1, t2, cutoff / tmax)
        out[small] = piece.amplitude * _phase_vec(xs[small], piece.center) * inner
    big = ~small
    if big.any():
        xb = xs[big]
        s = 1.0 / theta[big]
        parts = _split(xb)
        total = np.zeros(xb.shape, dtype=complex)
        for hi, lo, _, _, weight, even, odd in piece._end_terms:
            term = np.empty(xb.shape, dtype=complex)
            term.real, term.imag = _parts_sum(even, odd, s)
            # out-of-place products: numpy's in-place complex multiply
            # rounds a one-point array differently from a longer one
            total += weight * (term * _phase_vec(xb, hi, parts, lo))
        out[big] = total
    return out.reshape(x.shape)[()]


def piece_ft(piece: DensityPiece, p: int, q: int) -> complex:
    """Transform of one piece at the exact frequency p / q (ints, q > 0), in
    Python floats: the rules of piece_transform, every phase from an exact
    rational, and theta or 1 / theta from the exact gamma = frequency - p/q."""
    fn, fd = _ratio(piece.frequency)
    num, den = fn * q - p * fd, fd * q  # gamma = num / den
    t1, t2, tmax, cutoff = _gauss_branch(piece)
    if num.bit_length() - den.bit_length() < 1000:  # theta is a float
        theta = 2.0 * math.pi * (num / den)
        if abs(theta) * tmax <= cutoff:
            cn, cd = _ratio(piece.center)
            inner = complex(_gauss_sum(piece.poly, np.array([theta]), t1, t2, cutoff / tmax)[0])
            return complex(piece.amplitude) * _phase_frac(p * cn, q * cd) * inner
    s = (den / num) / (2.0 * math.pi)
    out = 0.0j
    for _, _, x_num, x_den, weight, even, odd in piece._end_terms:
        re, im = _parts_sum(even, odd, s)
        out += weight * _phase_frac(p * x_num, q * x_den) * complex(re, im)
    return out


def cut_mass(m) -> float:
    """Total mass of a window cutoff, integrated in closed form."""
    total = 0.0 + 0.0j
    for p in decompose_density(m):
        total += piece_transform(p, 0.0)
    return float(total.real)
