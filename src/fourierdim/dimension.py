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
    _window_count,
    mass,
    support_interval,
)
from .phase import _ratio
from .transform import _trapz, atom_weights, ft, ft_batch, ft_grid, phase_unit  # noqa: F401

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

    def to_dict(self) -> dict:
        return {
            "windows": [
                {"exp_lo": w.exp_lo, "exp_hi": w.exp_hi, "max_abs": w.max_abs,
                 "local_exponent": _json_float(w.local_exponent)}
                for w in self.windows
            ],
            "liminf_proxy": _json_float(self.liminf_proxy),
            "capped_dim": _json_float(self.capped_dim),
        }


def _json_float(x: float):
    """x, or "inf" / "-inf" / "nan" where JSON has no number."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def decay_exponent(m: Measure, sched: FrequencySchedule) -> DecayReport:
    """Windowed decay analysis of |ft(m, .)| along the schedule.

    Requires the schedule to span at least 8 dyadic windows.  The local
    exponent of window [2^e, 2^(e+1)) is -2 log2(max_abs) / (e + 0.5) (the
    defining ratio evaluated at the window's geometric center); the liminf
    proxy is the minimum over the top half of the windows, and capped_dim
    clamps it to [0, ambient_dim].
    """
    freqs = _decay_frequencies(sched)
    return _decay_report(m, freqs, [ft(m, xi) for xi in freqs])


def _decay_frequencies(sched: FrequencySchedule) -> tuple:
    """The schedule's frequencies, read once and checked to span 8 windows."""
    freqs = sched.frequencies()
    count = _window_count(freqs)
    if count < 8:
        raise ScheduleError(f"schedule spans {count} dyadic windows; need >= 8")
    return freqs


def _decay_report(m: Measure, freqs, values) -> DecayReport:
    """decay_exponent's report from the transform values at freqs."""
    buckets = {}
    for xi, v in zip(freqs, values):
        buckets.setdefault(_floor_log2(xi), []).append(abs(v))
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
    d = float(m.ambient_dim)
    capped = min(d, max(liminf, 0.0)) + 0.0  # normalize -0.0
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

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "value": _json_float(self.value),
            "method": self.method,
            "constant": self.constant,
            "err_estimate": _json_float(self.err_estimate),
        }


def riesz_constant(d: int, s: float) -> float:
    """c(d, s) in the Fourier-side energy identity."""
    if not 0 < s < d:
        raise MeasureError(f"need 0 < s < {d}, got s={s}")
    return math.pi ** (s - d / 2) * math.gamma((d - s) / 2) / math.gamma(s / 2)


def _require_energy_order(s: float) -> None:
    if not 0 < s < 1:
        raise MeasureError(f"need 0 < s < ambient_dim = 1, got s={s}")


# Largest cell count energy_spatial accepts: 256 times the default 4096.  Its
# FFT autocorrelation peaks at about 110 MB of numpy arrays there.
SPATIAL_MAX_RESOLUTION = 1 << 20


def energy_spatial(m: Measure, s: float, resolution: int = 4096) -> EnergyResult:
    """Spatial-side s-energy: double integral of |x - y|^(-s).

    The density is sampled at cell midpoints; the kernel is integrated
    exactly over every cell pair through the second antiderivative
    Phi(w) = |w|^(2-s) / ((1-s)(2-s)), which keeps the near-diagonal
    singularity exact instead of excluded (for piecewise-constant densities
    the result is exact up to rounding).  Cross-cell sums run through an FFT
    autocorrelation.  Any atom makes the energy infinite and is flagged.
    """
    _require_energy_order(s)
    if resolution < 16:
        raise MeasureError("resolution too small")
    if resolution > SPATIAL_MAX_RESOLUTION:
        raise MeasureError(f"resolution {resolution} exceeds the cap of "
                           f"{SPATIAL_MAX_RESOLUTION}")
    c = riesz_constant(1, s)
    if atom_weights(m):
        return EnergyResult(s, math.inf, "spatial", c, 0.0)
    pieces = decompose_density(m)
    lo, hi = support_interval(m)
    value = _spatial_value(pieces, lo, hi, s, resolution)
    coarse = _spatial_value(pieces, lo, hi, s, resolution // 2)
    return EnergyResult(s, value, "spatial", c, abs(value - coarse) + 1e-12)


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


def energy_fourier(m: Measure, s: float, cutoff: float = 4096.0) -> EnergyResult:
    """Fourier-side s-energy: c(1, s) * integral |m_hat|^2 |xi|^(s-1) dxi.

    [0, 1] is integrated after the substitution xi = u^(1/s), which removes
    the |xi|^(s-1) singularity (64- vs 32-node Gauss-Legendre difference as
    the error term).  [1, cutoff] uses trapezoid sums: a fine step h = 0.02
    up to 4096, then dyadic chunks with 1024 points each.  Each band is
    sampled once, on an even node count, and its error term is the step-h
    sum minus the step-2h trapezoid sum over every other h sample.  Beyond
    the cutoff the envelope |m_hat(xi)|^2 <= M/xi^2 (M measured on the last
    chunk) gives the tail M cutoff^(s-2)/(2-s), which is added to the value
    and, in full, to the error estimate.
    """
    _require_energy_order(s)
    if not math.isfinite(cutoff):
        raise MeasureError(f"cutoff must be finite, got {cutoff}")
    if cutoff < 4.0:
        raise MeasureError("cutoff too small")
    c = riesz_constant(1, s)
    if atom_weights(m):
        return EnergyResult(s, math.inf, "fourier", c, 0.0)

    def low_part(n):
        u, w = np.polynomial.legendre.leggauss(n)
        u = 0.5 * (u + 1.0)
        w = 0.5 * w
        vals = np.abs(ft_grid(m, u ** (1.0 / s))) ** 2
        return float(np.dot(w, vals)) / s

    low = low_part(64)
    err = abs(low - low_part(32))

    def band(a, b, step):
        # One sample per node: the 2h sum reads every other h sample, the
        # same nodes np.linspace(a, b, n // 2 + 1) would give.
        n = 2 * max(4, int(math.ceil((b - a) / (2.0 * step))))
        xs = np.linspace(a, b, n + 1)
        ys = np.abs(ft_grid(m, xs)) ** 2 * xs ** (s - 1.0)
        return float(_trapz(ys, xs)), float(_trapz(ys[::2], xs[::2]))

    fine_top = min(cutoff, 4096.0)
    mid, mid_coarse = band(1.0, fine_top, 0.02)
    err += abs(mid - mid_coarse)
    total = low + mid

    a = fine_top
    last_chunk_start = max(1.0, fine_top / 2.0)
    while a < cutoff:
        b = min(2.0 * a, cutoff)
        chunk, chunk_coarse = band(a, b, (b - a) / 1024.0)
        err += abs(chunk - chunk_coarse)
        total += chunk
        last_chunk_start = a
        a = b

    xs_tail = np.linspace(last_chunk_start, min(2.0 * last_chunk_start, cutoff), 513)
    m_env = float(np.max(np.abs(ft_grid(m, xs_tail)) ** 2 * xs_tail ** 2))
    tail = m_env * cutoff ** (s - 2.0) / (2.0 - s)
    value = c * 2.0 * (total + tail)
    err_estimate = c * 2.0 * (err + tail) + 1e-12
    return EnergyResult(s, value, "fourier", c, err_estimate)


# ---------------------------------------------------------------------------
# smooth window cutoff


def smooth_cut(m: Measure, window) -> Measure:
    """Multiply m by the bump ((radius^2 - (x-center)^2)_+ / radius^2)^order.

    window is (center, radius, order).  The order must be at least
    ceil(3 d / 2); the bump peaks at 1, so mass can only shrink and the
    measure is not renormalised.  Atomic parts reweight exactly; density
    parts gain a polynomial window factor.  A window disjoint from the
    support leaves the zero measure and is an error.
    """
    center, radius, order = window
    center = float(center)
    radius = float(radius)
    order = int(order)
    if radius <= 0:
        raise MeasureError("window radius must be positive")
    need = math.ceil(1.5 * m.ambient_dim)
    if order < need:
        raise MeasureError(f"window order {order} below required {need}")
    return m._cut(center, radius, order)


# ---------------------------------------------------------------------------
# integer-frequency lower bound


@dataclass(frozen=True)
class LowerBoundWitness:
    found: bool
    j: int
    value: float
    bound: float
    searched_up_to: int

    def to_dict(self) -> dict:
        return {"found": self.found, "j": self.j, "value": self.value,
                "bound": self.bound, "searched_up_to": self.searched_up_to}


def lower_bound_search(m: Measure, eps: float, j_max: int) -> LowerBoundWitness:
    """Smallest integer j <= j_max with |ft(m, j)| >= pi eps / (8 + 2 pi eps).

    Requires a probability measure supported in [eps, 1].  Every such measure
    admits a witness at some integer; only the cap j_max can make the search
    come back empty, so failure is reported in the result rather than raised.
    The weaker floor eps/5 always lies below the returned bound.
    """
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
    chunk = 8192
    for start in range(1, j_max + 1, chunk):
        stop = min(start + chunk - 1, j_max)
        js = np.arange(start, stop + 1, dtype=float)
        vals = np.abs(ft_grid(m, js))
        hits = np.nonzero(vals >= bound)[0]
        if hits.size:
            j0 = int(js[hits[0]])
            return LowerBoundWitness(True, j0, float(vals[hits[0]]), bound, j0)
    return LowerBoundWitness(False, 0, 0.0, bound, j_max)


# ---------------------------------------------------------------------------
# stability experiments


def _cos_pi(t, xi) -> float:
    """cos(pi t xi) with the angle reduced mod 2 in exact rational arithmetic."""
    p1, q1 = _ratio(t)
    p2, q2 = _ratio(xi)
    num, den = p1 * p2, q1 * q2
    r = (num % (2 * den)) / den
    return math.cos(math.pi * r)


def translation_pair_transform(m: Measure, t: float, xi) -> float:
    """|transform of (m + translate(m, t))| at xi.

    Checks the exact identity |(m + m_t)^(xi)| = 2 |cos(pi t xi)| |m_hat(xi)|
    (the translate contributes the phase exp(-2 pi i t xi)) and raises
    ArithmeticError if the two sides disagree beyond rounding.
    """
    base = ft(m, xi)
    shifted_phase = phase_unit(xi, t) if t != 0 else 1.0 + 0.0j
    value = abs(base + shifted_phase * base)
    rhs = 2.0 * abs(_cos_pi(t, xi)) * abs(base)
    if abs(value - rhs) > 1e-12 * max(1.0, 2.0 * mass(m)):
        raise ArithmeticError(
            f"translation identity violated at t={t}, xi={xi}: {value} vs {rhs}")
    return value


def stability_experiment(m1: Measure, m2: Measure,
                         sched: FrequencySchedule) -> tuple:
    """Decay reports for m1, m2, and m1 + m2 (unit-weight mixture).

    The sum's liminf proxy should not fall more than estimator tolerance
    below the smaller component proxy; the caller asserts the tolerance.
    Each part is evaluated once per frequency and the sum's values are
    combined from those by the mixture's own rule, so the three reports
    equal those of three separate decay_exponent calls.
    """
    both = Mixture((m1, m2), (1.0, 1.0))
    freqs = _decay_frequencies(sched)
    v1 = [ft(m1, xi) for xi in freqs]
    v2 = [ft(m2, xi) for xi in freqs]
    v_sum = [both._combine_signed(xi, (a, b)) for xi, a, b in zip(freqs, v1, v2)]
    return (_decay_report(m1, freqs, v1), _decay_report(m2, freqs, v2),
            _decay_report(both, freqs, v_sum))


def matrix_image_experiment(m: Measure, scale,
                            sched: FrequencySchedule) -> tuple:
    """Decay reports for m and m + (image of m under x -> scale x).

    scale is a real number a or the 1x1 matrix ((a,),); larger matrices
    raise MeasureError.  Valid only when |a| != 1: on the unit circle the
    image can cancel the original and the dimension identity fails.
    """
    if isinstance(scale, (tuple, list)):
        if len(scale) != 1 or not isinstance(scale[0], (tuple, list)) \
                or len(scale[0]) != 1:
            raise MeasureError(
                "decay probing for matrix images is implemented on the line only")
        scale = _finite(scale[0][0], "scale")
    if abs(abs(_finite(scale, "scale")) - 1.0) < 1e-9:
        raise MeasureError("scale has an eigenvalue of modulus 1")
    own, _, both = stability_experiment(m, AffineImage(m, scale, 0.0, False), sched)
    return own, both
