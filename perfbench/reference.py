"""Reference values for the benchmark's output checks.

Nothing here imports fourierdim.  Every value comes from a closed form
written out independently of the program:

* transforms of each measure variant the generator emits, with every phase
  reduced mod 1 in exact integer arithmetic (frequencies and positions are
  exact rationals), and self-similar products truncated by the exact size of
  the frequency, so frequencies past 2^1020 are evaluated in full;
* s-energies of piecewise-constant densities through the second
  antiderivative of |w|^-s, and of polynomial window densities through the
  autocorrelation integral evaluated with mpmath;
* Wiener averages of atomic measures through the sin(x)/x closed form.

Measures arrive as the plain dicts the generator wrote into the configs.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

_TWO_PI = 2.0 * math.pi
_GL_X, _GL_W = np.polynomial.legendre.leggauss(96)


def _pair(x) -> tuple:
    """x as integers (p, q), x = p / q, q > 0."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return float(x).as_integer_ratio()


def turn(num: int, den: int) -> complex:
    """exp(-2 pi i num/den) with num/den reduced mod 1 exactly."""
    r = (num % den) / den
    return complex(math.cos(_TWO_PI * r), -math.sin(_TWO_PI * r))


def unit_integral(num: int, den: int) -> complex:
    """integral_0^1 exp(2 pi i g x) dx for g = num / den."""
    if num == 0:
        return 1.0 + 0.0j
    if abs(num) * 1000 < den:
        z = 2j * math.pi * (num / den)  # sum_n z^n / (n + 1)!
        out, term = 0.0j, 1.0 + 0.0j
        for n in range(12):
            out += term
            term *= z / (n + 2)
        return out
    # (exp(2 pi i g) - 1) / (2 pi i g); den / num underflows cleanly
    return (turn(-num, den) - 1.0) * (den / num) / (2j * math.pi)


# ---------------------------------------------------------------------------
# transforms


def mass(m: dict) -> float:
    v = m["variant"]
    if v == "Atomic":
        return math.fsum(a["weight"] for a in m["atoms"])
    if v in ("UniformOnIntervals", "TrigDensity", "SelfSimilarDigit", "DigitProduct"):
        return 1.0
    if v == "Mixture":
        return math.fsum(w * mass(c) for c, w in zip(m["components"], m["weights"]))
    if v == "AffineImage":
        return mass(m["inner"])
    if v == "SmoothCutDensity":
        return _cut_transform(m, 0, 1).real
    raise ValueError(f"no reference for variant {v}")


def ft(m: dict, xi) -> complex:
    """Transform integral exp(-2 pi i xi x) dm(x) of a measure dict.

    xi may be an int of any size, a float or a Fraction; it is used exactly.
    """
    p, q = _pair(xi)
    if p == 0:
        return complex(mass(m))
    if p < 0:
        return _ft(m, -p, q).conjugate()
    return _ft(m, p, q)


def _ft(m: dict, p: int, q: int) -> complex:
    """Transform at the positive frequency p / q."""
    v = m["variant"]
    if v == "Atomic":
        out = 0.0j
        for a in m["atoms"]:
            ap, aq = _pair(a["position"])
            out += a["weight"] * turn(p * ap, q * aq)
        return out
    if v == "UniformOnIntervals":
        total = math.fsum(iv["b"] - iv["a"] for iv in m["intervals"])
        out = 0.0j
        for iv in m["intervals"]:
            ap, aq = _pair(iv["a"])
            lp, lq = _pair(Fraction(iv["b"]) - Fraction(iv["a"]))
            out += (lp / lq / total) * turn(p * ap, q * aq) * unit_integral(-p * lp, q * lq)
        return out
    if v == "TrigDensity":
        out = unit_integral(-p, q)
        for t in m["terms"]:
            f = t["frequency"]
            plus = unit_integral(f * q - p, q)
            minus = unit_integral(-f * q - p, q)
            out += t["amplitude"] * (plus - minus) / 2j
        return out
    if v == "SelfSimilarDigit":
        return _self_similar(m["base"], m["allowed_digits"], p, q)
    if v == "DigitProduct":
        return _digit_product(m, p, q)
    if v == "Mixture":
        return sum((w * _ft(c, p, q) for c, w in zip(m["components"], m["weights"])), 0.0j)
    if v == "AffineImage":
        op, oq = _pair(m.get("offset", 0.0))
        sp, sq = _pair(m["scale"])
        return turn(p * op, q * oq) * ft(m["inner"], Fraction(p * sp, q * sq))
    if v == "SmoothCutDensity":
        return _cut_transform(m, p, q)
    raise ValueError(f"no reference for variant {v}")


def _self_similar(base: int, digits, p: int, den: int) -> complex:
    """prod_{n>=1} mean_d exp(-2 pi i xi d / base^n), until xi / base^n < 2^-64.

    The remaining factors differ from 1 by less than 2^-60, whatever the
    size of xi = p / den.
    """
    stop = abs(p) << 64
    out = 1.0 + 0.0j
    while den <= stop:
        den *= base
        out *= sum(turn(p * d, den) for d in digits) / len(digits)
    return out


def _digit_product(m: dict, p: int, q: int) -> complex:
    """Normalised Lebesgue measure on the admissible depth-L binary cylinders.

    The sum over admissible cylinder indices factorises over free digits and
    blocks; each block's sum runs over its allowed patterns one by one.
    """
    depth = m["depth"]
    blocks = {b["offset"]: b for b in m.get("blocks", [])}
    count = 1
    total = 1.0 + 0.0j
    pos = 1
    while pos <= depth:
        b = blocks.get(pos - 1)
        if b is None:
            total *= 1.0 + turn(p, q << pos)
            count *= 2
            pos += 1
            continue
        t = b["length"]
        forbidden = int(b["forbidden_pattern"], 2)
        den = q << (b["offset"] + t)
        total *= sum(turn(p * u, den) for u in range(1 << t) if u != forbidden)
        count *= (1 << t) - 1
        pos = b["offset"] + t + 1
    cell = unit_integral(-p, q << depth)  # 2^L times the first cylinder's integral
    return total * cell / count


@functools.lru_cache(maxsize=None)
def _window_derivatives(order: int) -> tuple:
    """Coefficient lists (lowest first) of P, P', P'', ... for (1 - u^2)^order."""
    poly = np.polynomial.Polynomial([1.0, 0.0, -1.0]) ** order
    out = []
    for _ in range(2 * order + 1):
        out.append(tuple(float(c) for c in poly.coef))
        poly = poly.deriv()
    return tuple(out)


def _horner(coef, u: float) -> float:
    acc = 0.0
    for c in reversed(coef):
        acc = acc * u + c
    return acc


def _inner_pieces(inner: dict):
    """(a, b, coefficient, frequency): coefficient * exp(2 pi i f x) on [a, b]."""
    v = inner["variant"]
    if v == "UniformOnIntervals":
        total = math.fsum(iv["b"] - iv["a"] for iv in inner["intervals"])
        return [(iv["a"], iv["b"], 1.0 / total, 0) for iv in inner["intervals"]]
    if v == "TrigDensity":
        out = [(0.0, 1.0, 1.0 + 0.0j, 0)]
        for t in inner["terms"]:
            c, f = t["amplitude"], t["frequency"]
            out.append((0.0, 1.0, c / 2j, f))
            out.append((0.0, 1.0, -c / 2j, -f))
        return out
    raise ValueError(f"no window reference for inner variant {v}")


def _cut_transform(m: dict, p: int, q: int) -> complex:
    """Window cut at frequency p / q: pieces of P((x - c) / r) exp(2 pi i g x)."""
    c, r = m["center"], m["radius"]
    derivs = _window_derivatives(m["order"])
    out = 0.0j
    for a, b, coef, f in _inner_pieces(m["inner"]):
        x1, x2 = max(a, c - r), min(b, c + r)
        if x2 > x1:
            out += coef * _poly_exp(derivs, c, r, x1, x2, f * q - p, q)
    return out


def _poly_exp(derivs, c: float, r: float, x1: float, x2: float, gp: int, gq: int) -> complex:
    """integral_{x1}^{x2} P((x - c) / r) exp(2 pi i g x) dx for g = gp / gq."""
    if abs(gp) > gq * 10 ** 250:
        return 0.0j  # modulus below 1e-250
    g = gp / gq
    theta = _TWO_PI * g * r
    if abs(theta) <= 30.0:
        half = 0.5 * (x2 - x1)
        x = x1 + half * (_GL_X + 1.0)
        u = (x - c) / r
        vals = np.polynomial.polynomial.polyval(u, derivs[0]) * np.exp(2j * math.pi * g * x)
        return complex(half * np.dot(_GL_W, vals))
    # integration by parts in u = (x - c) / r terminates for a polynomial
    p1, q1 = _pair(x1)
    p2, q2 = _pair(x2)
    e1, e2 = turn(-gp * p1, gq * q1), turn(-gp * p2, gq * q2)
    u1, u2 = (x1 - c) / r, (x2 - c) / r
    out = 0.0j
    scale = 1.0 / (1j * theta)
    for k, coef in enumerate(derivs):
        term = scale * (_horner(coef, u2) * e2 - _horner(coef, u1) * e1)
        out += -term if k % 2 else term
        scale /= 1j * theta
    return r * out


# ---------------------------------------------------------------------------
# energies


def flat_pieces(m: dict):
    """(a, b, height) pieces of a piecewise-constant density dict."""
    v = m["variant"]
    if v == "UniformOnIntervals":
        total = math.fsum(iv["b"] - iv["a"] for iv in m["intervals"])
        return [(iv["a"], iv["b"], 1.0 / total) for iv in m["intervals"]]
    if v == "DigitProduct":
        depth = m["depth"]
        values = [0]
        pos = 0
        for b in sorted(m.get("blocks", []), key=lambda b: b["offset"]):
            lo, hi = b["offset"], b["offset"] + b["length"]
            forbidden = int(b["forbidden_pattern"], 2)
            values = [(v << (lo - pos)) + u for v in values for u in range(1 << (lo - pos))]
            values = [(v << b["length"]) + u for v in values
                      for u in range(1 << b["length"]) if u != forbidden]
            pos = hi
        values = sorted((v << (depth - pos)) + u for v in values
                        for u in range(1 << (depth - pos)))
        width = 2.0 ** -depth
        height = 1.0 / (len(values) * width)
        runs = []  # merge adjacent cylinders
        for v in values:
            if runs and runs[-1][1] == v:
                runs[-1][1] = v + 1
            else:
                runs.append([v, v + 1])
        return [(lo * width, hi * width, height) for lo, hi in runs]
    raise ValueError(f"no flat pieces for {v}")


def energy_flat(m: dict, s: float) -> float:
    """Spatial s-energy of a piecewise-constant density, in closed form.

    With F(w) = |w|^(2-s) / ((1-s)(2-s)), F'' = |w|^-s, so each pair of
    pieces contributes F(b1-a2) - F(a1-a2) - F(b1-b2) + F(a1-b2).
    """
    pieces = np.array(flat_pieces(m))
    a, b, h = pieces[:, 0], pieces[:, 1], pieces[:, 2]

    def F(w):
        return np.abs(w) ** (2.0 - s) / ((1.0 - s) * (2.0 - s))

    A1, A2 = a[:, None], a[None, :]
    B1, B2 = b[:, None], b[None, :]
    pair = F(B1 - A2) - F(A1 - A2) - F(B1 - B2) + F(A1 - B2)
    return float(h @ pair @ h)


def energy_cut(m: dict, s: float) -> float:
    """Spatial s-energy of a window cut of a single uniform interval.

    I = 2 integral_0^L t^-s A(t) dt with A(t) = integral p(x) p(x + t) dx,
    where p is the (polynomial) density on [x1, x2] and L = x2 - x1.  A(t)
    is a polynomial integral, exact under 16-node Gauss-Legendre; the outer
    integral has its t^-s endpoint singularity handled by mpmath's
    tanh-sinh rule.
    """
    import mpmath

    (a, b, h), = flat_pieces(m["inner"])
    c, r = m["center"], m["radius"]
    coef = _window_derivatives(m["order"])[0]
    x1, x2 = max(a, c - r), min(b, c + r)
    gx, gw = np.polynomial.legendre.leggauss(16)

    def autocorr(t):
        t = float(t)
        lo, hi = x1, x2 - t
        if hi <= lo:
            return 0.0
        half = 0.5 * (hi - lo)
        x = lo + half * (gx + 1.0)
        return half * float(np.dot(gw, np.polynomial.polynomial.polyval((x - c) / r, coef)
                                         * np.polynomial.polynomial.polyval((x + t - c) / r, coef)))

    with mpmath.workdps(20):
        val = mpmath.quad(lambda t: t ** (-s) * autocorr(t), [0, x2 - x1])
    return 2.0 * h * h * float(val)


def energy(m: dict, s: float) -> float:
    """The s-energy that both of the program's routes estimate.

    The routes report the energy in the normalisation of the Fourier-side
    identity, c(1, s) * integral |m_hat|^2 |xi|^(s-1) dxi, which equals the
    double integral of |x - y|^-s; an atom makes it infinite.
    """
    parts = m["components"] if m["variant"] == "Mixture" else [m]
    if any(c["variant"] == "Atomic" for c in parts):
        return math.inf
    if m["variant"] == "SmoothCutDensity":
        return energy_cut(m, s)
    return energy_flat(m, s)


def wiener_atomic(atoms, T: float) -> float:
    """(1/T) integral_0^T |sum_j w_j exp(-2 pi i xi x_j)|^2 dxi."""
    out = math.fsum(w * w for _, w in atoms)
    for i, (x, w) in enumerate(atoms):
        for y, v in atoms[i + 1:]:
            z = _TWO_PI * T * (x - y)
            out += 2.0 * w * v * (math.sin(z) / z if z else 1.0)
    return out


def perp(pairing, side: str, members) -> tuple:
    """(opposite side, indices there whose pairing with every member is 0).

    pairing[i][j] pairs left index i with right index j; by definition the
    empty subset maps to the whole opposite side.
    """
    if side == "left":
        cols = range(len(pairing[0]))
        return "right", frozenset(j for j in cols if all(pairing[i][j] == 0 for i in members))
    rows = range(len(pairing))
    return "left", frozenset(i for i in rows if all(pairing[i][j] == 0 for j in members))
