"""Piecewise polynomial-times-exponential densities.

Every measure in this package with an explicit density decomposes into pieces

    piece(x) = amplitude * P(x - center) * exp(2 pi i frequency (x - center))

supported on an interval [a, b], with P a real polynomial.  The family is
closed under sums, affine substitution and multiplication, which is exactly
what the window cutoff needs, and each piece has a closed-form transform
through :func:`poly_exp_integral`.

The quadrature route in :mod:`fourierdim.transform` deliberately does not use
:func:`poly_exp_integral`; it only sees pointwise density values through
:func:`evaluate_density`, so the two transform routes stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import MeasureError

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

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Piece values at the points x (zero outside [a, b])."""
        x = np.asarray(x, dtype=float)
        t = x - self.center
        p = np.zeros_like(t)
        for c in reversed(self.poly):
            p = p * t + c
        out = self.amplitude * p * np.exp(2j * math.pi * self.frequency * t)
        return np.where((x >= self.a) & (x <= self.b), out, 0.0)

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
        amp = (self.amplitude * other.amplitude
               * np.exp(2j * math.pi * other.frequency * delta))
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
    """Coefficients in t of ((radius^2 - t^2) / radius^2) ** order."""
    coeffs = [0.0] * (2 * order + 1)
    for k in range(order + 1):
        coeffs[2 * k] = math.comb(order, k) * (-1.0) ** k / radius ** (2 * k)
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

    Raises MeasureError for purely atomic measures, self-similar measures,
    convolutions, wrapped (mod-1) images, and digit products with too many
    admissible cylinders to enumerate.
    """
    return m._density()


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

    Vectorised over gamma.  Small |gamma| uses the Taylor series of the
    exponential; elsewhere the integrals of t^r exp(i theta t) follow the
    upward recurrence in r, which is stable once |theta| * max|t| exceeds
    the degree.
    """
    g = np.atleast_1d(np.asarray(gamma, dtype=float))
    theta = 2.0 * math.pi * g
    tmax = max(abs(t1), abs(t2))
    r_max = len(poly) - 1
    cutoff = 12.0 + 2.0 * r_max
    out = np.zeros(g.shape, dtype=complex)
    small = np.abs(theta) * tmax <= cutoff
    if small.any():
        out[small] = _series_sum(poly, theta[small], t1, t2)
    big = ~small
    if big.any():
        out[big] = _recurrence_sum(poly, theta[big], t1, t2)
    if np.isscalar(gamma) or np.asarray(gamma).ndim == 0:
        return out[0]
    return out


def _series_sum(poly, theta, t1, t2):
    out = np.zeros(theta.shape, dtype=complex)
    for r, c in enumerate(poly):
        if c == 0.0:
            continue
        term = np.full(theta.shape, (t2 ** (r + 1) - t1 ** (r + 1)) / (r + 1),
                       dtype=complex)
        acc = term.copy()
        itheta = 1j * theta
        factor = np.ones(theta.shape, dtype=complex)
        quiet = 0
        for j in range(1, 400):
            factor = factor * itheta / j
            term = factor * ((t2 ** (r + j + 1) - t1 ** (r + j + 1)) / (r + j + 1))
            acc += term
            # symmetric intervals zero out every other moment, so one tiny
            # term proves nothing: stop only after two in a row
            if np.max(np.abs(term)) <= 1e-17 * (1.0 + np.max(np.abs(acc))):
                quiet += 1
                if quiet >= 2:
                    break
            else:
                quiet = 0
        out += c * acc
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
    return piece.amplitude * np.exp(-2j * math.pi * x * piece.center) * inner


def cut_mass(m) -> float:
    """Total mass of a window cutoff, integrated in closed form."""
    total = 0.0 + 0.0j
    for p in decompose_density(m):
        total += piece_transform(p, 0.0)
    return float(total.real)
