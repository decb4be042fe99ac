"""Piecewise polynomial-times-exponential densities.

Every measure in this package with an explicit density decomposes into pieces

    piece(x) = amplitude * P(x - center) * exp(2 pi i frequency (x - center))

supported on an interval [a, b], with P a real polynomial.  The family is
closed under sums, affine substitution and multiplication, which is exactly
what the window cutoff needs.  :func:`poly_exp_integral` gives each piece's
transform: a Gauss-Legendre rule where the piece oscillates little over its
interval, and the closed-form moment recurrence elsewhere.  Piece phases come
from :func:`fourierdim.phase._phase_vec`, and ``_legendre_rule`` is the
package's one source of Gauss-Legendre nodes.

The quadrature route in :mod:`fourierdim.transform` deliberately does not use
:func:`poly_exp_integral`; it only sees pointwise density values through
:func:`evaluate_density` and shares the node rule, not the integral, so the
two transform routes stay independent.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import MeasureError
from .phase import _phase_vec

__all__ = [
    "DensityPiece",
    "decompose_density",
    "evaluate_density",
    "piece_transform",
    "poly_exp_integral",
    "window_poly",
    "window_value",
    "cut_mass",
]


@dataclass(frozen=True)
class DensityPiece:
    """One summand of a piecewise density, supported on [a, b]."""

    a: float
    b: float
    center: float
    poly: tuple
    amplitude: complex
    frequency: float

    def __post_init__(self):
        if not self.b > self.a:
            raise MeasureError(f"piece interval ({self.a}, {self.b}) is empty")
        if not self.poly:
            raise MeasureError("piece polynomial is empty")
        if not (cmath.isfinite(self.amplitude) and all(map(math.isfinite, self.poly))):
            raise MeasureError(f"piece on ({self.a}, {self.b}) has an amplitude or "
                               "coefficient past the float range")

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
        """Piece of the pushforward density under x -> scale * x + offset."""
        lo = scale * self.a + offset
        hi = scale * self.b + offset
        if scale < 0:
            lo, hi = hi, lo
        poly = tuple(c / scale ** r for r, c in enumerate(self.poly))
        return DensityPiece(
            lo,
            hi,
            scale * self.center + offset,
            poly,
            self.amplitude / abs(scale),
            self.frequency / scale,
        )

    def scaled(self, weight: float) -> "DensityPiece":
        """The piece times a real weight."""
        return replace(self, amplitude=weight * self.amplitude)

    def multiply(self, other: "DensityPiece"):
        """Pointwise product piece, or None when the supports do not overlap."""
        lo = max(self.a, other.a)
        hi = min(self.b, other.b)
        if not hi > lo:
            return None
        delta = self.center - other.center
        shifted = _taylor_shift(other.poly, delta)
        poly = tuple(np.convolve(np.asarray(self.poly), np.asarray(shifted)))
        amp = self.amplitude * other.amplitude * _phase_vec(delta, -other.frequency)
        return DensityPiece(lo, hi, self.center, poly, amp,
                            self.frequency + other.frequency)


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
    """integral_{t1}^{t2} (sum_r poly[r] t^r) exp(2 pi i gamma t) dt.

    Vectorised over gamma, with theta = 2 pi gamma.  Where |theta| * max|t|
    is at most 12 + 2 deg, a Gauss-Legendre rule on [t1, t2] integrates the
    piece, with the node count of |theta| = (12 + 2 deg) / max|t| for every
    point, so no value depends on the others.  Elsewhere the integrals of
    t^r exp(i theta t) follow the upward recurrence in r, which is stable
    once |theta| * max|t| exceeds the degree.
    """
    g = np.atleast_1d(np.asarray(gamma, dtype=float))
    theta = 2.0 * math.pi * g
    tmax = max(abs(t1), abs(t2))
    r_max = len(poly) - 1
    cutoff = 12.0 + 2.0 * r_max
    out = np.zeros(g.shape, dtype=complex)
    small = np.abs(theta) * tmax <= cutoff
    if small.any():
        out[small] = _gauss_sum(poly, theta[small], t1, t2, cutoff / tmax)
    big = ~small
    if big.any():
        out[big] = _recurrence_sum(poly, theta[big], t1, t2)
    if np.isscalar(gamma) or np.asarray(gamma).ndim == 0:
        return out[0]
    return out


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


def _gauss_sum(poly, theta, t1, t2, theta_max):
    # Every |theta| <= theta_max takes the same nodes.  They are summed one
    # at a time, so memory stays linear in len(theta).
    mid = 0.5 * (t1 + t2)
    half = 0.5 * (t2 - t1)
    u, w = _oscillatory_rule(len(poly) - 1, theta_max, half)
    t = mid + half * u
    p = np.zeros_like(t)
    for c in reversed(poly):
        p = p * t + c
    weights = half * w * p
    out = np.zeros(theta.shape, dtype=complex)
    for tk, wk in zip(t, weights):
        out += wk * np.exp(1j * theta * tk)
    return out


def _recurrence_sum(poly, theta, t1, t2):
    itheta = 1j * theta
    e2 = np.exp(itheta * t2)
    e1 = np.exp(itheta * t1)
    moments = [(e2 - e1) / itheta]
    for r in range(1, len(poly)):
        m_r = (t2 ** r * e2 - t1 ** r * e1) / itheta - (r / itheta) * moments[-1]
        moments.append(m_r)
    out = np.zeros(theta.shape, dtype=complex)
    for c, m_r in zip(poly, moments):
        if c != 0.0:
            out += c * m_r
    return out


def piece_transform(piece: DensityPiece, xi) -> np.ndarray:
    """Transform of one piece: integral exp(-2 pi i xi x) piece(x) dx."""
    x = np.asarray(xi, dtype=float)
    gamma = piece.frequency - x
    inner = poly_exp_integral(piece.poly, gamma,
                              piece.a - piece.center, piece.b - piece.center)
    return piece.amplitude * _phase_vec(x, piece.center) * inner


def cut_mass(m) -> float:
    """Total mass of a window cutoff, integrated in closed form."""
    total = 0.0 + 0.0j
    for p in decompose_density(m):
        total += piece_transform(p, 0.0)
    return float(total.real)
