"""Exact rational phase arithmetic.

A float is a dyadic rational p/q and an integer frequency is p/1, so
exp(-2 pi i xi x) equals exp(-2 pi i ((p1 p2) mod (q1 q2)) / (q1 q2)) with
the modulus taken in exact integer arithmetic.  That makes lacunary probes
such as xi = 2**2304 evaluable with correctly rounded phases, far beyond
float range, and it makes transform values at integer frequencies exact (for
instance, the transform of Lebesgue measure on [0, 1] is exactly 0 at every
nonzero integer).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = ["phase_unit", "oscillatory_integral"]


def _ratio(x) -> tuple:
    """x as an exact integer pair (p, q) with x = p / q, q > 0."""
    if isinstance(x, (int, np.integer)):
        return int(x), 1
    return float(x).as_integer_ratio()


def _phase_frac(num: int, den: int) -> complex:
    """exp(-2 pi i num/den) with the fraction reduced mod 1 in exact arithmetic."""
    return cmath.exp(-2j * math.pi * ((num % den) / den))


def phase_unit(xi, x) -> complex:
    """exp(-2 pi i xi x) with the phase reduced exactly.

    Both arguments may be ints of any size or floats; the product xi*x is
    formed as an exact rational before reduction mod 1, so the result is a
    correctly rounded unit complex number even when xi*x is astronomically
    large.
    """
    p1, q1 = _ratio(xi)
    p2, q2 = _ratio(x)
    return _phase_frac(p1 * p2, q1 * q2)


def _eplus_frac(num: int, den: int) -> complex:
    """integral_0^1 exp(2 pi i g x) dx for g = num/den, exactly reduced.

    Equals exp(i pi g) sin(pi g)/(pi g); zero at nonzero integers, one at
    zero.  The sine argument is reduced mod 2 in integer arithmetic so the
    value stays accurate for huge |g|.
    """
    if num == 0:
        return 1.0 + 0.0j
    if num % den == 0:
        return 0.0j
    return _eplus_turned(num, den, _half_turn(num, den))


def _half_turn(num: int, den: int) -> tuple:
    """(exp(i pi r), sin(pi r)) for r = num/den reduced mod 2 to (-1, 1].

    It depends on num only through num mod 2*den, so callers whose numerators
    share that residue compute it once.
    """
    rr = num % (2 * den)  # g mod 2, exact, in [0, 2*den)
    if rr > den:
        rr -= 2 * den  # center to (-den, den]: sin keeps relative accuracy near 0
    r = rr / den
    return cmath.exp(1j * math.pi * r), math.sin(math.pi * r)


def _eplus_turned(num: int, den: int, turn: tuple) -> complex:
    """_eplus_frac(num, den) for num not a multiple of den, given
    turn = _half_turn(num, den)."""
    shift = num.bit_length() - den.bit_length()
    if shift > 1020:
        return 0.0j  # modulus below 1/(pi 2^1019); underflows anyway
    if shift < -60:
        return 1.0 + 0.0j  # |g| < 2^-59: integral is 1 + O(g)
    rotation, sine = turn
    return rotation * (sine / (math.pi * (num / den)))


def _eplus_vec(g: np.ndarray) -> np.ndarray:
    """Float counterpart of _eplus_frac over an array of g."""
    return np.exp(1j * math.pi * g) * np.sinc(g)


def oscillatory_integral(alpha, beta) -> complex:
    """integral_0^1 exp(2 pi i alpha x) sin(2 pi beta x) dx, in closed form.

    Splitting the sine into exponentials gives
    (E(alpha + beta) - E(alpha - beta)) / (2i) with E the unit-interval
    exponential integral.  Integer arguments are exact: (-l, l) gives -i/2
    for every positive integer l.  The modulus never exceeds
    1 / | |alpha| - |beta| | when the two moduli differ.
    """
    pa, qa = _ratio(alpha)
    pb, qb = _ratio(beta)
    den = qa * qb
    plus = _eplus_frac(pa * qb + pb * qa, den)
    minus = _eplus_frac(pa * qb - pb * qa, den)
    return (plus - minus) / 2j
