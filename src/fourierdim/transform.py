"""Transform evaluation: the public entry points over the per-variant rules,
a Filon quadrature oracle, batch sampling, and the Wiener square average.

The transform convention throughout is

    ft(m, xi) = integral exp(-2 pi i xi x) dm(x).

``ft`` turns a real scalar frequency once into its exact ratio p/q with
``phase._ratio`` (ints of any size and Fractions as given, a float as its
binary value) and evaluates the variant's closed form there with exact
rational phase reduction (see :mod:`fourierdim.phase`), so lacunary probes
such as xi = 2**2304 keep correctly rounded phases.  ``ft_grid`` evaluates
the variant's float rule over an array of floats (any input but an int or
float ndarray, a Python list included, is read element by element through
``phase._finite``), with every phase reduced from an error-free product, and
takes ``ft`` for each point outside the variant's grid band.
``Measure._grid_guard`` states the band and how it composes; ``_in_band`` is
the one test of a frequency against it.  The rules themselves live on the
measure classes in :mod:`fourierdim.measures`.

Route rule: ``ft_batch``, ``decay_exponent`` and ``stability_experiment``
evaluate a schedule through ``_ft_values``.  Its non-integer floats go
through one ``ft_grid`` call, which applies the band; Python ints of any
size and integer-valued floats go through ``ft``.
``TransformSample.method`` names the route of each sample.

``ft_quadrature`` is the independent Filon route: degree-4 panels whose
moments take density's Gauss-Legendre node rule for small |theta| and an
upward recurrence beyond.  It reads its frequency through ``_ratio`` too:
its atoms take exact phases, and its panels the nearest float.

``wiener_average`` takes a purely atomic measure in closed form over its atom
pairs, and every other measure by the trapezoid rule over ``ft_grid``.

``ft`` evaluates negative frequencies by conjugation, ft(m, -xi) =
conj(ft(m, xi)), which is valid because every representable measure is real
and makes Hermitian symmetry hold bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .density import _oscillatory_rule
# decompose_density, piece_transform and mass are unused here but stay
# module globals: perfbench/spans.py wraps these names in this module.
from .density import decompose_density, evaluate_density, piece_transform  # noqa: F401
from .measures import (  # noqa: F401
    FrequencySchedule,
    Measure,
    MeasureError,
    _integer,
    mass,
    support_interval,
)
from .phase import (
    GRID_CHUNK,
    _eplus_frac,
    _finite,
    _in_float_range,
    _phase_at,
    _phase_vec,
    _ratio,
    oscillatory_integral,
    phase_unit,
)

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

class QuadratureError(RuntimeError):
    """The quadrature did not reach the requested tolerance."""


# ---------------------------------------------------------------------------
# scalar and grid evaluation


def ft(m: Measure, xi) -> complex:
    """Transform of m at the real scalar frequency xi.

    Ints of any size, Fractions and floats are evaluated exactly.  Measures
    containing a wrapped (mod-1) image require integer xi at that node.
    """
    if isinstance(xi, (tuple, list, np.ndarray)):
        raise MeasureError("ft takes a real scalar frequency; use ft_grid for arrays")
    return m._ft_signed(*_ratio(xi))


def ft_grid(m: Measure, xis) -> np.ndarray:
    """Vectorized transform over an array of real frequencies.

    Uses the float rule within the variant's grid band and the exact scalar
    rule for each point outside it, so no value depends on the rest of the
    array.
    """
    xs = xis if isinstance(xis, np.ndarray) else np.array(xis, dtype=object)
    if xs.dtype.kind not in "iuf":
        xs = np.array([_finite(x, "frequency") for x in xs.flat]).reshape(xs.shape)
    xs = xs.astype(float, copy=False)
    if xs.size == 0:
        return np.zeros(xs.shape, dtype=complex)
    if not np.all(np.isfinite(xs)):
        raise MeasureError("grid frequencies must be finite")
    near = _in_band(m, xs)
    if near.all():
        return _grid_chunks(m, xs.ravel()).reshape(xs.shape)
    out = np.empty(xs.shape, dtype=complex)
    if near.any():
        out[near] = _grid_chunks(m, xs[near])
    far = ~near
    out[far] = [ft(m, x) for x in xs[far].tolist()]
    return out


def _in_band(m: Measure, xs: np.ndarray) -> np.ndarray:
    """True where m's float rule takes the frequency: at 0 and within m's
    grid band (Measure._grid_guard)."""
    floor, ceiling = m._grid_guard()
    a = np.abs(xs)
    return (a <= ceiling) & ((a >= floor) | (a == 0.0))


def _grid_chunks(m: Measure, xs: np.ndarray) -> np.ndarray:
    """m's float rule over the 1-d array xs, GRID_CHUNK points at a time."""
    if xs.size <= GRID_CHUNK:
        return m._grid(xs)
    out = np.empty(xs.shape, dtype=complex)
    for i in range(0, xs.size, GRID_CHUNK):
        out[i:i + GRID_CHUNK] = m._grid(xs[i:i + GRID_CHUNK])
    return out


def _grid_floats(freqs) -> list:
    """For each schedule frequency, True when the batch route hands it to
    ft_grid: a float that is not an integer."""
    return [isinstance(x, float) and not x.is_integer() for x in freqs]


def _ft_values(m: Measure, freqs) -> list:
    """Transform values at a schedule's frequencies, in order: one ft_grid
    call for the non-integer floats and ft for every other frequency."""
    routed = _grid_floats(freqs)
    floats = [x for x, g in zip(freqs, routed) if g]
    grid = iter(ft_grid(m, np.array(floats)).tolist() if floats else ())
    return [next(grid) if g else ft(m, x) for x, g in zip(freqs, routed)]


# ---------------------------------------------------------------------------
# batch sampling


@dataclass(frozen=True)
class TransformSample:
    """One evaluated frequency: xi may be a float or an exact int; method is
    the rule that evaluated it, "grid" (a variant's float rule, within its
    grid band) or "exact" (ft)."""

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
    routed = _grid_floats(freqs)
    in_band = iter(_in_band(m, np.array([x for x, g in zip(freqs, routed) if g])).tolist())
    return tuple(TransformSample(f, v, "grid" if g and next(in_band) else "exact")
                 for f, v, g in zip(freqs, _ft_values(m, freqs), routed))


# ---------------------------------------------------------------------------
# atoms


def atom_weights(m: Measure) -> dict:
    """Map position -> total point mass, empty when m has no atoms.

    Continuous variants contribute nothing; a single-digit self-similar
    measure is the point mass at digit/(base-1).  A convolution has atoms
    when every factor has some: the convolution of the factors' atomic
    parts.
    """
    return m._atoms()


# ---------------------------------------------------------------------------
# Wiener square average


# Largest grid wiener_average samples: ten times the 10^6 points of T = 1e4
# at the default step of 0.01.
WIENER_MAX_POINTS = 10 ** 7


def wiener_average(m: Measure, T: float) -> float:
    """(1/2T) integral_{-T}^{T} |ft(m, xi)|^2 dxi.  The value tends to the
    sum of squared atom masses as T grows (Wiener's lemma).

    A purely atomic measure (atoms, and an empty density: Atomic, mixtures
    of atomic measures, unwrapped affine images of them) takes the integral
    itself, in closed form over its atom pairs (_atomic_wiener).  On a
    2-vCPU container each pair costs about 1.7 us, against n T / step
    phases on the grid: 300 atoms at T = 1500 take 0.08 s (1.3 s on the
    grid), 2000 atoms 3.7 s (9.3 s), but 300 atoms at T = 10 take 77 ms
    (16 ms).  Its positions are those of _atoms(), which an affine image
    rounds, so its relative error is about 2 pi T ulp(x) there.

    Every other measure takes trapezoid quadrature of |ft_grid|^2.  The
    integrand is even, so only [0, T] is sampled.  |ft|^2 of an atomic
    measure is almost periodic with phases at the pairwise atom separations,
    at most the support's diameter diam.  The step is min(0.01, 1/(10 diam)):
    at least 100 points per unit of xi, and at least ten per period of the
    fastest term.  That step and its cap of WIENER_MAX_POINTS are checked
    for every measure, so the two routes refuse the same inputs.  A grid
    sum that leaves the float range raises MeasureError; the closed form
    refuses a squared total mass past it.
    """
    T = _finite(T, "T")
    if T <= 0:
        raise MeasureError("T must be positive")
    lo, hi = support_interval(m)
    diam = hi - lo
    step = min(0.01, 1.0 / (10.0 * diam)) if diam > 0 else 0.01
    points = T / step if step > 0 else math.inf  # diam overflows to inf
    if not points <= WIENER_MAX_POINTS:
        raise MeasureError(f"a grid of {points:.3g} points exceeds the cap "
                           f"of {WIENER_MAX_POINTS}")
    atoms = m._atoms()
    try:
        atomic = bool(atoms) and not m._density()
    except MeasureError:  # no explicit density: self-similar, convolution, wrapped
        atomic = False
    if atomic:
        return _atomic_wiener(atoms, T)
    n = max(2, int(math.ceil(points)))
    xs = np.linspace(0.0, T, n + 1)
    # Normalizing by the quadrature of 1 (rather than by T) keeps the
    # average of a constant integrand exact; that quadrature is the sum of
    # the steps, bit for bit.
    return _in_float_range("the Wiener average", lambda: float(
        np.trapezoid(np.abs(ft_grid(m, xs)) ** 2, xs) / np.diff(xs).sum()))


def _atomic_wiener(atoms: dict, T: float) -> float:
    """(1/2T) integral_{-T}^{T} |sum_j w_j exp(-2 pi i xi x_j)|^2 dxi
    = sum_j w_j^2 + 2 sum_{j<k} w_j w_k sin(2 pi g)/(2 pi g), g = T (x_k - x_j).

    sin(2 pi g)/(2 pi g) is the real part of _eplus_frac at g, formed as an
    exact ratio of ints, so it is exactly 0 where g is a nonzero integer
    however large; the terms are summed with fsum.  Every partial sum is at
    most the squared total mass, so a mass whose square overflows is
    refused and every other one sums without overflow.
    """
    total = sum(atoms.values())  # inf, not an OverflowError, past the float range
    if not math.isfinite(total * total):
        raise MeasureError(f"the squared total mass of {total} overflows")
    pt, qt = _ratio(T)
    points = [(*_ratio(x, "position"), w) for x, w in atoms.items()]
    terms = [w * w for w in atoms.values()]
    for i, (pj, qj, wj) in enumerate(points):
        for pk, qk, wk in points[i + 1:]:
            re = _eplus_frac(pt * (pk * qj - pj * qk), qt * qj * qk).real
            terms.append(2.0 * wj * wk * re)
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Filon quadrature oracle

_FILON_NODES = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
_VAND_INV = np.linalg.inv(np.vander(_FILON_NODES, 5, increasing=True))


def _filon_moments(theta: float) -> np.ndarray:
    """m_r(theta) = integral_{-1}^{1} u^r exp(i theta u) du for r = 0..4.

    For small |theta| a Gauss-Legendre rule on [-1, 1] with density's node
    count; for large |theta| the upward recurrence
    m_r = (e^{i theta} - (-1)^r e^{-i theta})/(i theta) - (r/(i theta)) m_{r-1}
    is stable because |theta| exceeds the degree.
    """
    if abs(theta) <= 10.0:
        u, w = _oscillatory_rule(4, abs(theta), 1.0)
        return (w * np.exp(1j * theta * u)) @ np.vander(u, 5, increasing=True)
    out = np.zeros(5, dtype=complex)
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


# Largest panel budget ft_quadrature accepts: twice the default.  One
# five-piece segment at 2^18 panels takes about 130 MB of numpy temporaries.
QUADRATURE_MAX_PANELS = 1 << 18


def ft_quadrature(m: Measure, xi, tol: float = 1e-9,
                  max_panels: int = 1 << 17) -> QuadratureResult:
    """Independent Filon-type evaluation of ft(m, xi).

    The density is interpolated by degree-4 polynomials on panels and
    integrated against the oscillatory kernel with exact moments, so only
    the density's own oscillation sets the panel count; |xi| can be large at
    no extra cost.  Panels are doubled until two successive refinements agree
    within tol.  Atoms take exact phases at xi, and the density pieces of the
    rest are integrated at the float nearest xi.  Raises QuadratureError when
    the panel budget is exhausted before reaching tol, and MeasureError for
    pieces where |xi| times a breakpoint reaches 2^1024 (before any panel),
    a tol that is not positive and finite or a budget outside
    [8, QUADRATURE_MAX_PANELS] (the first refinement: 8 panels).
    """
    p, q = _ratio(xi)
    tol = _finite(tol, "quadrature tol")
    max_panels = _integer(max_panels, "quadrature panel budget")
    if tol <= 0.0:
        raise MeasureError(f"quadrature tol must be positive, got {tol}")
    if not 8 <= max_panels <= QUADRATURE_MAX_PANELS:
        raise MeasureError(f"quadrature panel budget must lie in [8, "
                           f"{QUADRATURE_MAX_PANELS}], got {max_panels}")
    value = sum((w * _phase_at(p, q, pos) for pos, w in m._atoms().items()), 0.0 + 0.0j)
    pieces = m._density()
    if not pieces:
        return QuadratureResult(value, 0.0, 0)
    breaks = sorted({p.a for p in pieces} | {p.b for p in pieces})
    try:
        x = p / q
    except OverflowError:
        x = math.inf
    if math.isinf(x * max(-breaks[0], breaks[-1])):
        raise MeasureError("quadrature panels need |xi| times each breakpoint below 2^1024")
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
    panel_vals = (h / 2.0) * _phase_vec(centers, xi) * (coeffs @ moments)
    return complex(np.sum(panel_vals))
