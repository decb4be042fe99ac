"""Transform evaluation: the public entry points over the per-variant rules,
a Filon quadrature oracle, batch sampling, and the Wiener square average.

The transform convention throughout is

    ft(m, xi) = integral exp(-2 pi i xi x) dm(x).

``ft`` takes a real scalar frequency and evaluates the variant's closed form
with exact rational phase reduction (see :mod:`fourierdim.phase`): Python ints
of any size are exact, so lacunary probes such as xi = 2**2304 keep
correctly rounded phases.  ``ft_grid`` evaluates the variant's float rule
over an array and falls back to ``ft`` beyond the variant's accuracy guard.
The rules themselves live on the measure classes in
:mod:`fourierdim.measures`.

Negative frequencies are evaluated by conjugation, ft(m, -xi) =
conj(ft(m, xi)), which is valid because every representable measure is real
and makes Hermitian symmetry hold bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# decompose_density, piece_transform and mass are unused here but stay
# module globals: perfbench/spans.py wraps these names in this module.
from .density import decompose_density, evaluate_density, piece_transform  # noqa: F401
from .measures import (  # noqa: F401
    FrequencySchedule,
    Measure,
    MeasureError,
    _canonical_scalar,
    mass,
    support_interval,
)
from .phase import oscillatory_integral, phase_unit

__all__ = [
    "ft",
    "ft_grid",
    "ft_batch",
    "ft_quadrature",
    "QuadratureError",
    "QuadratureResult",
    "TransformSample",
    "oscillatory_integral",
    "wiener_average",
    "atom_weights",
    "phase_unit",
]

# numpy < 2.0 has no trapezoid
_trapz = getattr(np, "trapezoid", None) or np.trapz


class QuadratureError(RuntimeError):
    """The quadrature did not reach the requested tolerance."""


# ---------------------------------------------------------------------------
# scalar and grid evaluation


def ft(m: Measure, xi) -> complex:
    """Transform of m at the real scalar frequency xi.

    Python ints of any size are evaluated exactly.  Measures containing a
    wrapped (mod-1) image require integer xi at that node.
    """
    if isinstance(xi, (tuple, list, np.ndarray)):
        raise MeasureError("ft takes a real scalar frequency; use ft_grid for arrays")
    return m._ft_signed(_canonical_scalar(xi))


def ft_grid(m: Measure, xis) -> np.ndarray:
    """Vectorized transform over an array of real frequencies.

    Uses float arithmetic; beyond the variant-dependent accuracy guard it
    falls back to the exact scalar path element by element.
    """
    xs = np.asarray(xis, dtype=float)
    if xs.size == 0:
        return np.zeros(0, dtype=complex)
    if not np.all(np.isfinite(xs)):
        raise MeasureError("grid frequencies must be finite")
    if float(np.max(np.abs(xs))) > m._grid_guard():
        return np.array([ft(m, float(x)) for x in xs.ravel()],
                        dtype=complex).reshape(xs.shape)
    return m._grid(xs)


# ---------------------------------------------------------------------------
# batch sampling


@dataclass(frozen=True)
class TransformSample:
    """One evaluated frequency: xi may be a float or an exact int."""

    xi: object
    value: complex
    method: str


def ft_batch(m: Measure, sched: FrequencySchedule) -> tuple:
    """Transform samples for every schedule frequency, in schedule order.

    Integer frequencies stay exact ints end to end.
    """
    freqs = sched.frequencies()
    if not freqs:
        raise MeasureError("schedule generated no frequencies")
    tag = "factorized" if m._factorized() else "closed_form"
    return tuple(TransformSample(f, ft(m, f), tag) for f in freqs)


# ---------------------------------------------------------------------------
# atoms


def atom_weights(m: Measure) -> dict:
    """Map position -> total point mass, empty when m has no atoms.

    Continuous variants contribute nothing; a single-digit self-similar
    measure is the point mass at digit/(base-1).  Convolutions are atomic
    only when every factor is.
    """
    return m._atoms()


# ---------------------------------------------------------------------------
# Wiener square average


def wiener_average(m: Measure, T: float, step: float = None) -> float:
    """(1/2T) integral_{-T}^{T} |ft(m, xi)|^2 dxi by trapezoid quadrature.

    The integrand is even, so only [0, T] is sampled.  |ft|^2 of an atomic
    measure is almost periodic with phases at the pairwise atom separations,
    so the default step resolves ten points per fastest period.  The value
    tends to the sum of squared atom masses as T grows.
    """
    if T <= 0:
        raise MeasureError("T must be positive")
    if step is None:
        lo, hi = support_interval(m)
        diam = hi - lo
        step = min(0.01, 1.0 / (10.0 * diam)) if diam > 0 else 0.01
    n = max(2, int(math.ceil(T / step)))
    xs = np.linspace(0.0, T, n + 1)
    y = np.abs(ft_grid(m, xs)) ** 2
    # Normalizing by the quadrature of 1 (rather than by T) keeps the
    # average of a constant integrand exact.
    return float(_trapz(y, xs) / _trapz(np.ones_like(y), xs))


# ---------------------------------------------------------------------------
# Filon quadrature oracle

_FILON_NODES = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
_VAND_INV = np.linalg.inv(np.vander(_FILON_NODES, 5, increasing=True))


def _filon_moments(theta: float) -> np.ndarray:
    """m_r(theta) = integral_{-1}^{1} u^r exp(i theta u) du for r = 0..4.

    Series for small |theta|; for large |theta| the upward recurrence
    m_r = (e^{i theta} - (-1)^r e^{-i theta})/(i theta) - (r/(i theta)) m_{r-1}
    is stable because |theta| exceeds the degree.
    """
    out = np.zeros(5, dtype=complex)
    if abs(theta) <= 10.0:
        for r in range(5):
            acc = 0.0 + 0.0j
            term = 1.0 + 0.0j
            for j in range(0, 80):
                if j > 0:
                    term *= 1j * theta / j
                if (r + j) % 2 == 0:
                    acc += term * (2.0 / (r + j + 1))
                if abs(term) < 1e-18 * (1.0 + abs(acc)) and j > abs(theta):
                    break
            out[r] = acc
        return out
    it = 1j * theta
    e_plus = cmath.exp(it)
    e_minus = cmath.exp(-it)
    out[0] = (e_plus - e_minus) / it
    for r in range(1, 5):
        out[r] = (e_plus - (-1) ** r * e_minus) / it - (r / it) * out[r - 1]
    return out


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error: float
    panels: int


def ft_quadrature(m: Measure, xi, tol: float = 1e-9,
                  max_panels: int = 1 << 17) -> QuadratureResult:
    """Independent Filon-type evaluation of ft(m, xi).

    The density is interpolated by degree-4 polynomials on panels and
    integrated against the oscillatory kernel with exact moments, so only
    the density's own oscillation sets the panel count; |xi| can be large at
    no extra cost.  Panels are doubled until two successive refinements agree
    within tol.  Atomic parts are summed exactly.  Raises QuadratureError
    when the panel budget is exhausted before reaching tol.
    """
    x = float(xi)
    if not math.isfinite(x):
        raise MeasureError("frequency must be finite")
    atoms, pieces = m._quad_parts(1.0)
    value = sum((w * phase_unit(x, pos) for pos, w in atoms), 0.0 + 0.0j)
    if not pieces:
        return QuadratureResult(value, 0.0, 0)

    breaks = sorted({p.a for p in pieces} | {p.b for p in pieces})
    f_max = max(abs(p.frequency) for p in pieces)
    total_panels = 0
    err_total = 0.0
    for u, v in zip(breaks, breaks[1:]):
        if not any(p.a < v and u < p.b for p in pieces):
            continue
        n = max(4, min(1 << 12, math.ceil((v - u) * 4.0 * (f_max + 1.0))))
        prev = _filon_segment(pieces, u, v, x, n)
        while True:
            n *= 2
            if n > max_panels:
                raise QuadratureError(
                    f"no convergence to tol={tol} within {max_panels} panels "
                    f"on segment [{u}, {v}]")
            cur = _filon_segment(pieces, u, v, x, n)
            err = abs(cur - prev)
            if err <= tol:
                break
            prev = cur
        value += cur
        err_total += err
        total_panels += n
    return QuadratureResult(value, err_total, total_panels)


def _filon_segment(pieces, u: float, v: float, xi: float, n: int) -> complex:
    h = (v - u) / n
    starts = u + h * np.arange(n)
    offsets = h * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    nodes = starts[:, None] + offsets[None, :]
    # Sample strictly inside the segment so breakpoint values are one-sided.
    tiny = h * 1e-12
    fvals = evaluate_density(pieces, np.clip(nodes, u + tiny, v - tiny))
    coeffs = fvals @ _VAND_INV.T
    theta = -math.pi * xi * h
    moments = _filon_moments(theta)
    centers = starts + 0.5 * h
    panel_vals = (h / 2.0) * np.exp(-2j * math.pi * xi * centers) * (coeffs @ moments)
    return complex(np.sum(panel_vals))
