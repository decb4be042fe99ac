"""Decay-exponent estimation, s-energy integrals, window cutoffs, and the
stability experiments.

The decay estimate follows the defining ratio -2 log|m_hat(xi)| / log|xi|:
samples are grouped into dyadic windows [2^e, 2^(e+1)), each window keeps the
largest modulus seen, and the liminf proxy is the minimum local exponent over
the top half of the windows.  A window whose samples are all exactly zero
carries no finite exponent and is reported as +inf (the transform vanishes
along the schedule there, which is faster than any power decay).

Energies are computed on both sides of the identity

    I_s(m) = c(d, s) * integral |m_hat(xi)|^2 |xi|^(s-d) dxi,

with c(d, s) = pi^(s - d/2) Gamma((d-s)/2) / Gamma(s/2).  The two routes are
algorithmically independent and their agreement is part of the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import _legendre_rule
# window_value and ft_batch are unused here but stay module globals:
# perfbench/spans.py wraps these names in this module.
from .density import decompose_density, evaluate_density, window_value  # noqa: F401
from .measures import (
    AffineImage,
    FrequencySchedule,
    Measure,
    MeasureError,
    Mixture,
    ScheduleError,
    _finite,
    _floor_log2,
    _integer,
    _window,
    mass,
    support_interval,
)
from .phase import _half_turn, _in_float_range, _ratio
from .transform import (  # noqa: F401
    GRID_CHUNK,
    _ft_values,
    atom_weights,
    ft,
    ft_batch,
    ft_grid,
    phase_unit,
)

__all__ = [
    "WindowStat",
    "DecayReport",
    "decay_exponent",
    "EnergyResult",
    "riesz_constant",
    "energy_spatial",
    "energy_fourier",
    "smooth_cut",
    "LowerBoundWitness",
    "lower_bound_search",
    "translation_pair_transform",
    "stability_experiment",
    "matrix_image_experiment",
]


# ---------------------------------------------------------------------------
# decay exponents


@dataclass(frozen=True)
class WindowStat:
    """Largest transform modulus over one dyadic frequency window."""

    exp_lo: int
    exp_hi: int
    max_abs: float
    local_exponent: float


@dataclass(frozen=True)
class DecayReport:
    windows: tuple
    liminf_proxy: float
    capped_dim: float


def decay_exponent(m: Measure, sched: FrequencySchedule) -> DecayReport:
    """Windowed decay analysis of |ft(m, .)| along the schedule.

    Requires the schedule to span at least 8 dyadic windows.  The local
    exponent of window [2^e, 2^(e+1)) is -2 log2(max_abs) / (e + 0.5) (the
    defining ratio evaluated at the window's geometric center); the liminf
    proxy is the minimum over the top half of the windows, and capped_dim
    clamps it to [0, 1].
    """
    freqs, exps = _decay_frequencies(sched)
    return _decay_report(exps, _ft_values(m, freqs))


def _decay_frequencies(sched: FrequencySchedule) -> tuple:
    """The schedule's frequencies and the exponent e = floor(log2 |xi|) of
    each one's dyadic window, read once and checked to span 8 windows."""
    freqs = sched.frequencies()
    exps = [_floor_log2(xi) for xi in freqs]
    count = len(set(exps))
    if count < 8:
        raise ScheduleError(f"schedule spans {count} dyadic windows; need >= 8")
    return freqs, exps


def _decay_report(exps, values) -> DecayReport:
    """decay_exponent's report from the transform values and their window
    exponents."""
    buckets = {}
    for e, v in zip(exps, values):
        buckets.setdefault(e, []).append(abs(v))
    windows = []
    for e in sorted(buckets):
        mx = max(buckets[e])
        if mx > 0.0:
            local = -2.0 * math.log2(mx) / (e + 0.5)
        else:
            local = math.inf
        windows.append(WindowStat(e, e + 1, mx, local))
    top = windows[len(windows) // 2:]
    liminf = min(w.local_exponent for w in top)
    capped = min(1.0, max(liminf, 0.0)) + 0.0  # normalize -0.0
    return DecayReport(tuple(windows), liminf, capped)


# ---------------------------------------------------------------------------
# energies


@dataclass(frozen=True)
class EnergyResult:
    s: float
    value: float  # math.inf flags an atom (infinite self-energy)
    method: str
    constant: float
    err_estimate: float


# The least s riesz_constant takes: Gamma(s/2) nears 1/(s/2) as s falls
# and overflows below about 2^-1023 (at s = 1e-310 and every subnormal s).
S_FLOOR = 2.0 ** -1020


def riesz_constant(d: int, s: float) -> float:
    """c(d, s) in the Fourier-side energy identity, for S_FLOOR <= s < d."""
    d, s = _integer(d, "d"), _finite(s, "s")
    if not 0 < s < d:
        raise MeasureError(f"need 0 < s < {d}, got s={s}")
    if s < S_FLOOR:
        raise MeasureError(f"s={s} is below the floor of 2^-1020, where Gamma(s/2) overflows")
    return math.pi ** (s - d / 2) * math.gamma((d - s) / 2) / math.gamma(s / 2)


# Largest cell count energy_spatial accepts: 256 times the default 4096.  Its
# FFT autocorrelation peaks at about 110 MB of numpy arrays there.
SPATIAL_MAX_RESOLUTION = 1 << 20


def energy_spatial(m: Measure, s: float, resolution: int = 4096) -> EnergyResult:
    """Spatial-side s-energy: double integral of |x - y|^(-s).

    The density is sampled at cell midpoints; the kernel is integrated
    exactly over every cell pair through the second antiderivative
    Phi(w) = |w|^(2-s) / ((1-s)(2-s)), which keeps the near-diagonal
    singularity exact instead of excluded.  A piecewise-constant density
    whose breakpoints are all cell edges is therefore integrated exactly up
    to rounding; a breakpoint inside a cell leaves an O(h) error.
    Cross-cell sums run through an FFT autocorrelation.  The error estimate
    is the difference from the same sum on half the cells plus a rounding
    term of eps R^1.5 |value| on R cells.  Any atom makes the energy
    infinite and is flagged.  A sum that leaves the float range (a
    density or a cell width near its ends) raises MeasureError.
    """
    s = _finite(s, "s")
    c = riesz_constant(1, s)
    resolution = _integer(resolution, "resolution")
    if resolution < 16:
        raise MeasureError("resolution too small")
    if resolution > SPATIAL_MAX_RESOLUTION:
        raise MeasureError(f"resolution {resolution} exceeds the cap of "
                           f"{SPATIAL_MAX_RESOLUTION}")
    if atom_weights(m):
        return EnergyResult(s, math.inf, "spatial", c, 0.0)
    lo, hi = support_interval(m)
    if not (hi - lo) / resolution > 0.0:
        raise MeasureError(f"a support of width {hi - lo} leaves cells of width 0 "
                           f"at resolution {resolution}")
    pieces = decompose_density(m)
    value, coarse = (_in_float_range("the spatial energy", _spatial_value, pieces, lo, hi, s, r)
                     for r in (resolution, resolution // 2))
    # Rounding: the kernel's second differences of k^(2-s) cancel all but a
    # relative k^-2 of their terms, so each carries an error of about
    # eps k^(2-s).  These enter with varying signs and add up like a random
    # walk over the cells, to about eps R^1.5 |value|.  Against closed forms
    # (Lebesgue, an interval, a digit product; s = 0.25 to 0.75; R = 64 to
    # 2^20) the measured error stays below 0.16 eps R^1.5 |value|.
    rounding = math.ulp(1.0) * resolution ** 1.5 * abs(value)
    return EnergyResult(s, value, "spatial", c, abs(value - coarse) + rounding)


def _spatial_value(pieces, lo: float, hi: float, s: float, R: int) -> float:
    h = (hi - lo) / R
    mids = lo + h * (np.arange(R) + 0.5)
    masses = evaluate_density(pieces, mids) * h
    padded = np.zeros(2 * R)
    padded[:R] = masses
    F = np.fft.rfft(padded)
    corr = np.fft.irfft(F * np.conj(F), n=2 * R)[:R]
    k = np.arange(R + 1, dtype=float)
    phi = k ** (2.0 - s) / ((1.0 - s) * (2.0 - s))
    # G[t] = Phi(t+1) + Phi(t-1) - 2 Phi(t) = cell-pair integral at offset t
    g = np.empty(R)
    g[0] = 2.0 * phi[1]
    g[1:] = phi[2:] + phi[:-2] - 2.0 * phi[1:-1]
    kernel = g * h ** (-s)
    return float(kernel[0] * corr[0] + 2.0 * np.dot(kernel[1:], corr[1:]))


# Largest panel count energy_fourier accepts on [1, cutoff]: 32 times the
# 4096 panels of the default cutoff on a support of diameter at most 1.  The
# cost grows linearly with the count, 12 ft_grid points per panel.
FOURIER_MAX_PANELS = 1 << 17


def energy_fourier(m: Measure, s: float, cutoff: float = 4096.0) -> EnergyResult:
    """Fourier-side s-energy: c(1, s) * integral |m_hat|^2 |xi|^(s-1) dxi.

    [0, 1] is integrated after the substitution xi = u^(1/s), which removes
    the |xi|^(s-1) singularity (64- vs 32-node Gauss-Legendre difference as
    the error term).  [1, cutoff] is split into an even number of equal
    panels no wider than min(1, 1/diam(support)), the oscillation scale of
    |m_hat|^2, and an 8-node Gauss-Legendre rule runs on every panel.  The
    same rule on each pair of adjacent panels gives a coarse sum; the error
    term is |fine - coarse|.  Beyond the cutoff |m_hat(xi)|^2 is taken as
    M/xi^2, which gives the tail M cutoff^(s-2)/(2-s): the weighted mean of
    |m_hat|^2 xi^2 over the panel nodes in the last octave [cutoff/2, cutoff]
    sets the value and its maximum there sets the tail's error term.  More
    than FOURIER_MAX_PANELS panels raise MeasureError, and so does a sum
    that leaves the float range.
    """
    s = _finite(s, "s")
    c = riesz_constant(1, s)
    cutoff = _finite(cutoff, "cutoff")
    if cutoff < 4.0:
        raise MeasureError("cutoff too small")
    lo, hi = support_interval(m)
    # pairs of panels of width min(1, 1/diam); may be inf before the check
    pairs = 0.5 * (cutoff - 1.0) * max(1.0, hi - lo)
    if pairs > FOURIER_MAX_PANELS // 2:
        raise MeasureError(f"cutoff {cutoff} on a support of diameter {hi - lo} "
                           f"needs more than the cap of {FOURIER_MAX_PANELS} panels")
    panels = 2 * math.ceil(pairs)
    if atom_weights(m):
        return EnergyResult(s, math.inf, "fourier", c, 0.0)
    value, err = _in_float_range("the Fourier-side energy", _fourier_value,
                                 m, s, c, cutoff, panels)
    return EnergyResult(s, value, "fourier", c, err)


def _fourier_value(m: Measure, s: float, c: float, cutoff: float, panels: int) -> tuple:
    """energy_fourier's value and error term on the given panels of [1, cutoff]."""
    def low_part(n):
        u, w = _legendre_rule(n)
        u = 0.5 * (u + 1.0)
        w = 0.5 * w
        vals = np.abs(ft_grid(m, u ** (1.0 / s))) ** 2
        return float(np.dot(w, vals)) / s

    low = low_part(64)
    err = abs(low - low_part(32))

    u, w = _legendre_rule(8)
    h = (cutoff - 1.0) / panels
    fine = (1.0 + h * (np.arange(panels) + 0.5))[:, None] + (0.5 * h) * u
    coarse = (1.0 + h * (2.0 * np.arange(panels // 2) + 1.0))[:, None] + h * u
    sq = np.abs(ft_grid(m, np.concatenate((fine.ravel(), coarse.ravel())))) ** 2
    sq_fine = sq[:fine.size].reshape(fine.shape)
    sq_coarse = sq[fine.size:].reshape(coarse.shape)
    band = 0.5 * h * float(np.sum((sq_fine * fine ** (s - 1.0)) @ w))
    band_coarse = h * float(np.sum((sq_coarse * coarse ** (s - 1.0)) @ w))
    err += abs(band - band_coarse)

    last = fine >= 0.5 * cutoff
    envelope = (sq_fine * fine ** 2)[last]
    scale = cutoff ** (s - 2.0) / (2.0 - s)
    tail = float(np.average(envelope, weights=np.broadcast_to(w, fine.shape)[last])) * scale
    err += float(np.max(envelope)) * scale
    return c * 2.0 * (low + band + tail), c * 2.0 * err + 1e-12


# ---------------------------------------------------------------------------
# smooth window cutoff


def smooth_cut(m: Measure, window) -> Measure:
    """Multiply m by the bump ((radius^2 - (x-center)^2)_+ / radius^2)^order.

    window is (center, radius, order): finite reals and an integer order of
    at least 2; anything else raises MeasureError.  The bump peaks at 1, so
    mass can only shrink and the measure is not renormalised.  Atomic parts
    reweight exactly; density parts gain a polynomial window factor, and a
    part without an explicit density is an error.  A window disjoint from
    the support leaves the zero measure and is an error too.
    """
    try:
        center, radius, order = window
    except (TypeError, ValueError):
        raise MeasureError(f"window must be (center, radius, order), got {window!r}") from None
    cut = m._windowed(*_window(center, radius, order))
    if cut is None:
        raise MeasureError("window is disjoint from the support (zero measure)")
    return cut


# ---------------------------------------------------------------------------
# integer-frequency lower bound


@dataclass(frozen=True)
class LowerBoundWitness:
    found: bool
    j: int
    value: float
    bound: float
    searched_up_to: int


def lower_bound_search(m: Measure, eps: float, j_max: int) -> LowerBoundWitness:
    """Smallest integer j <= j_max with |ft(m, j)| >= pi eps / (8 + 2 pi eps).

    Requires a probability measure supported in [eps, 1].  Every such measure
    admits a witness at some integer; only the cap j_max can make the search
    come back empty, so failure is reported in the result rather than raised.
    The weaker floor eps/5 always lies below the returned bound.

    The integers are evaluated in chunks: 1..16 first, then chunks twice as
    long as the one before, up to GRID_CHUNK points, and the search stops at
    the first chunk that holds a witness.  Every ft_grid value is independent
    of its batch, so the chunking changes nothing but the work done.
    """
    eps = _finite(eps, "eps")
    j_max = _integer(j_max, "j_max")
    if not 0 < eps <= 1:
        raise MeasureError(f"need 0 < eps <= 1, got {eps}")
    if j_max < 1:
        raise MeasureError("j_max must be at least 1")
    lo, hi = support_interval(m)
    if lo < eps - 1e-9 or hi > 1 + 1e-9:
        raise MeasureError(
            f"support [{lo}, {hi}] must lie inside [{eps}, 1]")
    if abs(mass(m) - 1.0) > 1e-9:
        raise MeasureError("lower bound search needs a probability measure")
    bound = math.pi * eps / (8.0 + 2.0 * math.pi * eps)
    start, chunk = 1, 16
    while start <= j_max:
        js = np.arange(start, min(start + chunk, j_max + 1), dtype=float)
        vals = np.abs(ft_grid(m, js))
        hits = np.nonzero(vals >= bound)[0]
        if hits.size:
            j0 = int(js[hits[0]])
            return LowerBoundWitness(True, j0, float(vals[hits[0]]), bound, j0)
        start += chunk
        chunk = min(2 * chunk, GRID_CHUNK)
    return LowerBoundWitness(False, 0, 0.0, bound, j_max)


# ---------------------------------------------------------------------------
# stability experiments


def translation_pair_transform(m: Measure, t: float, xi) -> float:
    """|transform of (m + translate(m, t))| at xi.

    Checks the exact identity |(m + m_t)^(xi)| = 2 |cos(pi t xi)| |m_hat(xi)|
    (the translate contributes the phase exp(-2 pi i t xi)) and raises
    ArithmeticError if the two sides disagree beyond rounding.
    """
    base = ft(m, xi)
    shifted_phase = phase_unit(xi, t) if t != 0 else 1.0 + 0.0j
    value = abs(base + shifted_phase * base)
    p1, q1 = _ratio(t, "translation")
    p2, q2 = _ratio(xi)
    # cos(pi t xi) with the angle reduced mod 2 in exact rational arithmetic
    cos = _half_turn(p1 * p2, q1 * q2)[0].real
    rhs = 2.0 * abs(cos) * abs(base)
    if abs(value - rhs) > 1e-12 * max(1.0, 2.0 * mass(m)):
        raise ArithmeticError(
            f"translation identity violated at t={t}, xi={xi}: {value} vs {rhs}")
    return value


def stability_experiment(m1: Measure, m2: Measure,
                         sched: FrequencySchedule) -> tuple:
    """Decay reports for m1, m2, and m1 + m2 (unit-weight mixture).

    The sum's liminf proxy should not fall more than estimator tolerance
    below the smaller component proxy; the caller asserts the tolerance.
    Each part is evaluated once per frequency, on its own routes, so the
    first two reports equal decay_exponent(m1, sched) and
    decay_exponent(m2, sched) exactly.  The sum's values are combined from
    the parts' by the mixture's own rule, so the third report equals
    decay_exponent of the mixture wherever both parts take the mixture's
    route (its grid band is the meet of theirs), and agrees with it to
    rounding elsewhere.  At a negative frequency the sum can differ from
    ft(m1 + m2) in the sign of a zero imaginary part, which no modulus
    shows.
    """
    both = Mixture((m1, m2), (1.0, 1.0))
    freqs, exps = _decay_frequencies(sched)
    v1 = _ft_values(m1, freqs)
    v2 = _ft_values(m2, freqs)
    v_sum = [both._combine(parts) for parts in zip(v1, v2)]
    return (_decay_report(exps, v1), _decay_report(exps, v2),
            _decay_report(exps, v_sum))


def matrix_image_experiment(m: Measure, scale,
                            sched: FrequencySchedule) -> tuple:
    """Decay reports for m and m + (image of m under x -> scale x).

    scale is a real number a, handed to AffineImage as given.  Valid only
    when |a| != 1: on the unit circle the image can cancel the original and
    the dimension identity fails.
    """
    if abs(abs(_finite(scale, "scale")) - 1.0) < 1e-9:
        raise MeasureError("scale has modulus 1")
    own, _, both = stability_experiment(m, AffineImage(m, scale, 0.0, False), sched)
    return own, both
